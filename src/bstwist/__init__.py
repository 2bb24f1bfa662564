"""Exact computation in Baumslag-Solitar groups B(m,n): the word problem
via pinch reduction, faithful semidirect-product models, endomorphism
analysis, and twisted-conjugacy (Reidemeister) certificates.

Every name below is loaded on first use (PEP 562), so `import bstwist` or
a `bs-twist` command that only needs the word problem does not import the
model, endomorphism, certificate and SNF layers.  `bstwist.X` and
`from bstwist import X` return the defining submodule's own object.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "abelian": ("AbelianGroup", "AbelianMap"),
    "errors": ("BoxTooSmall", "BSTwistError", "GroupMismatch", "NotInKernel",
               "RelationViolated", "ShapeMismatch", "UnsupportedGroup",
               "WordSyntaxError", "WrongFamily"),
    "homs": ("EndoSpec", "InducedData", "endo_apply", "endo_validate",
             "induced_on_ab", "kappa", "kappa_scale", "kernel_decompose",
             "parse_endo_file"),
    "intmat": ("IntMatrix", "SNFResult", "snf"),
    "models": ("AffineElement", "KleinElement", "PermutedProduct",
               "model_embed", "model_equal_oracle"),
    "reidemeister": ("BallReport", "Certificate", "ReidemeisterOutcome",
                     "certify_infinite", "check_certificate",
                     "coincidence_certify", "enumerate_classes_ball"),
    "words": ("GroupSpec", "NormalForm", "Syllable", "Word", "are_equal",
              "britton_reduce", "exp_sum", "format_word", "invert",
              "multiply", "normal_form", "parse_word", "power_constraint",
              "standardize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as after the former eager imports
        return import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
