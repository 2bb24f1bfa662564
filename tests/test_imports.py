"""What a fresh interpreter imports: the package's lazy exports, the layers
each command loads, and the digit limit `main` lifts before any handler.

Each check that depends on import state runs in its own interpreter, since
the test process has already imported every submodule."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import bstwist

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = ("abelian", "cli", "errors", "homs", "intmat", "models",
              "reidemeister", "selftest", "words")
# Every name the package exports; each was exported when it imported all
# layers eagerly.
EXPORTED = {
    "AbelianGroup", "AbelianMap",
    "BoxTooSmall", "BSTwistError", "GroupMismatch", "NotInKernel",
    "RelationViolated", "ShapeMismatch", "UnsupportedGroup", "WordSyntaxError",
    "WrongFamily",
    "EndoSpec", "InducedData", "endo_apply", "endo_validate",
    "induced_on_ab", "kappa", "kappa_scale", "kernel_decompose",
    "parse_endo_file",
    "IntMatrix", "SNFResult", "snf",
    "AffineElement", "KleinElement", "PermutedProduct", "model_embed",
    "model_equal_oracle",
    "BallReport", "Certificate", "ReidemeisterOutcome", "certify_infinite",
    "check_certificate", "coincidence_certify", "enumerate_classes_ball",
    "power_constraint",
    "GroupSpec", "NormalForm", "Syllable", "Word", "are_equal",
    "britton_reduce", "exp_sum", "format_word", "invert", "multiply",
    "normal_form", "parse_word", "standardize",
}
# A word-problem command needs only these.
WORD_LAYERS = ["bstwist", "bstwist.cli", "bstwist.errors", "bstwist.words"]
# Standard modules a text-format word command must not import: `dataclasses`
# (which imports `inspect`), and `json` and `shlex`, which only
# `--format json` uses.
UNUSED_STDLIB = {"dataclasses", "inspect", "json", "shlex"}


def fresh_python(code, *args):
    """Run `code` in a new interpreter that sees only src/ and has the
    default int/str digit limit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


LOADED_AFTER = """
import contextlib, io, sys
from bstwist.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps([code, out.getvalue(), loaded]))
"""


@pytest.mark.parametrize("argv,answer", [
    (["normalize", "--group", "2,3", "b^5 a"], "b a b^6"),
    (["equal", "--group", "1,2", "a^-1 b a", "b^2"], "equal"),
    (["mult", "--group", "2,3", "b^2", "b^3 a"], "b a b^6"),
    (["standardize", "--group", "3,-2"], "B(2,-3)  a -> a^-1, b -> b"),
    (["power-constraint", "--group", "2,-2", "--range=-3,3"], "-3 -1 1 3"),
])
def test_word_commands_load_only_the_word_layer(argv, answer):
    proc = fresh_python(LOADED_AFTER, *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, loaded = json.loads(proc.stdout)
    assert (code, out.strip()) == (0, answer)
    assert [m for m in loaded if m.split(".")[0] == "bstwist"] == WORD_LAYERS
    assert UNUSED_STDLIB.isdisjoint(loaded)


def test_json_output_imports_what_it_needs():
    proc = fresh_python("import sys; from bstwist.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", "normalize",
                        "--group", "2,3", "--format", "json", "b^5 a")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "normal_form": "b a b^6", "version": bstwist.__version__,
        "config": "normalize --group 2,3 --format json 'b^5 a'"}


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_alone(name):
    proc = fresh_python(f"import bstwist.{name}")
    assert proc.returncode == 0, proc.stderr


def test_import_bstwist_loads_no_layer():
    proc = fresh_python("import sys, bstwist; print(sorted("
                        "m for m in sys.modules if m.startswith('bstwist')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['bstwist']"


def test_every_export_is_its_submodules_own_object():
    assert EXPORTED <= set(bstwist.__all__)
    assert set(bstwist.__all__) <= set(dir(bstwist))
    for name in bstwist.__all__:
        value = getattr(bstwist, name)
        home = value.__module__
        assert home.startswith("bstwist."), name
        assert getattr(importlib.import_module(home), name) is value, name
    namespace = {}
    exec("from bstwist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bstwist.__all__)


def test_former_eager_submodules_are_attributes():
    # after a bare `import bstwist`, as when __init__ imported them
    proc = fresh_python(
        "import sys, bstwist\n"
        "for name in ('abelian', 'errors', 'homs', 'intmat', 'models',\n"
        "             'reidemeister', 'words'):\n"
        "    assert getattr(bstwist, name) is sys.modules['bstwist.' + name]")
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        bstwist.nope
    assert not hasattr(bstwist, "nope")
    with pytest.raises(ImportError):
        exec("from bstwist import nope", {})


def test_large_output_lifts_the_digit_limit_first():
    # B(1,2): a^-k b a^k = b^(2^k), whose exponent has 4,516 digits here,
    # past the default limit of 4,300 for int -> str conversion
    proc = fresh_python("import sys; from bstwist.cli import main; "
                        "sys.exit(main(sys.argv[1:]))",
                        "normalize", "--group", "1,2", "a^-15000 b a^15000")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout) == 4519
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert proc.stdout == f"b^{2 ** 15000}\n"
    finally:
        sys.set_int_max_str_digits(old)


def _functools_caches():
    """(name, cache) for every functools cache on a module of bstwist or on
    a class it defines, unwrapping class and static methods."""
    for name in SUBMODULES:
        module = importlib.import_module(f"bstwist.{name}")
        for attr, value in vars(module).items():
            members = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members += [(f"{attr}.{key}", getattr(member, "__func__", member))
                            for key, member in vars(value).items()]
            for qualname, member in members:
                if hasattr(member, "cache_info"):
                    yield f"{name}.{qualname}", member


def test_every_cache_is_bounded():
    """A cache without a maxsize grows with the inputs of a run, which
    shows up as peak memory; every one here must drop old entries."""
    caches = dict(_functools_caches())
    assert {"words.relator", "abelian.AbelianGroup.presentation",
            "abelian.AbelianMap.identity", "abelian._stacked", "intmat.snf",
            "homs._ab_map", "reidemeister._witness_family"} <= set(caches)
    unbounded = sorted(name for name, cache in caches.items()
                       if cache.cache_info().maxsize is None)
    assert unbounded == []


def _unused_imports(path):
    """(line, name) for each name that `path` imports and never reads,
    except on lines marked `# noqa: F401` (a deliberate re-export).  A
    name counts as read anywhere in the module, annotations included."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias, (alias.asname or alias.name).split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias, alias.asname or alias.name)
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(alias.lineno, name) for alias, name in imported
            if name not in read
            and "# noqa: F401" not in lines[alias.lineno - 1]]


@pytest.mark.parametrize("path", sorted((SRC / "bstwist").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def test_unused_import_check_sees_a_dangling_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from typing import Callable, Iterable\n"
                      "from .words import power_constraint  # noqa: F401\n"
                      "def f(x: Iterable) -> None:\n"
                      "    return os.sep\n")
    assert _unused_imports(module) == [(3, "Callable")]


def _unread_private_names(paths):
    """(file name, line, name) for each private module-level name (one
    leading underscore, not a dunder) that a module in `paths` defines and
    no module in `paths` reads: as a name, an attribute or an import."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                named = [(node.lineno, node.name)]
            elif isinstance(node, ast.Assign):
                named = [(target.lineno, target.id) for target in node.targets
                         if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                named = [(node.lineno, node.target.id)]
            else:
                named = []
            defined += [(path.name, line, name) for line, name in named
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [entry for entry in defined if entry[2] not in read]


def test_every_private_name_is_read():
    assert _unread_private_names(sorted((SRC / "bstwist").glob("*.py"))) == []


def test_private_name_check_sees_a_dangling_name(tmp_path):
    (tmp_path / "one.py").write_text("_LIMIT = 3\n"
                                     "_left: int = 0\n"
                                     "__all__ = []\n"
                                     "def _helper():\n"
                                     "    return _LIMIT\n"
                                     "def _leftover():\n"
                                     "    return 1\n")
    (tmp_path / "two.py").write_text("from .one import _helper\n"
                                     "class _Unused:\n"
                                     "    pass\n")
    assert _unread_private_names(sorted(tmp_path.glob("*.py"))) == [
        ("one.py", 2, "_left"), ("one.py", 6, "_leftover"),
        ("two.py", 2, "_Unused")]


def _unread_exports(exports, paths):
    """(module, name) for each name of `exports` (submodule -> names) that
    no module in `paths` reads, as a loaded name or an import, outside the
    top-level `def` or `class` that defines it.  `__init__.py` is skipped:
    its export table lists every export."""
    read = set()
    for path in paths:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = (node.name if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    names = [inner.id]
                elif isinstance(inner, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in inner.names]
                else:
                    continue
                read.update(name for name in names if name != own)
    return [(module, name) for module, names in exports.items()
            for name in names if name not in read]


def test_every_export_is_read_in_the_library():
    """An export that nothing in the library reads is test-only code; it
    leaves the table (and is deleted, or kept in its module for a planned
    caller)."""
    paths = sorted((SRC / "bstwist").glob("*.py"))
    assert _unread_exports(bstwist._EXPORTS, paths) == []


def test_export_check_sees_a_dangling_export(tmp_path):
    (tmp_path / "__init__.py").write_text("_EXPORTS = {'one': ('Shape',)}\n"
                                          "from .one import Shape\n")
    (tmp_path / "one.py").write_text("def used():\n"
                                     "    return 1\n"
                                     "def alone(n):\n"
                                     "    return alone(n - 1) if n else 0\n"
                                     "class Shape:\n"
                                     "    def copy(self) -> Shape:\n"
                                     "        return Shape()\n"
                                     "def helper():\n"
                                     "    return sizes\n")
    (tmp_path / "two.py").write_text("from .one import used\n"
                                     "sizes = used()\n")
    exports = {"one": ("used", "alone", "Shape", "helper"), "two": ("sizes",)}
    assert _unread_exports(exports, sorted(tmp_path.glob("*.py"))) == [
        ("one", "alone"), ("one", "Shape"), ("one", "helper")]


# Public names that nothing reads yet, kept for a planned caller: the
# translated kappa rule of the catalog builds its map with both.
PLANNED_READERS = {"inner_by", "endo_compose"}


def _unread_public_names(paths, readers, exempt):
    """(file name, line, name) for each public top-level function, and each
    public method or property of a top-level class, that a module in
    `paths` defines and no module in `readers` reads outside the name's own
    definition, as a loaded name or attribute, an import, or a string equal
    to the name (as a table of names that `getattr` binds).  Dunders and the
    names in `exempt` are skipped."""
    defined = []
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{member.name}", member)
                            for member in node.body
                            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.name, node))

    def reads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield from alias.name.split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    read = Counter()
    for path in readers:
        read.update(reads(ast.parse(path.read_text())))
    return [(file, node.lineno, qualname) for file, qualname, node in defined
            if not node.name.startswith("_") and node.name not in exempt
            and read[node.name] == sum(name == node.name for name in reads(node))]


def test_every_public_name_is_read():
    """A public name that neither the library nor the benchmark reads is
    test-only code."""
    paths = sorted((SRC / "bstwist").glob("*.py"))
    readers = paths + sorted((ROOT / "perfbench").rglob("*.py"))
    exempt = PLANNED_READERS.union(*bstwist._EXPORTS.values())
    assert _unread_public_names(paths, readers, exempt) == []


def test_public_name_check_sees_a_dangling_name(tmp_path):
    (tmp_path / "one.py").write_text("class Shape:\n"
                                     "    def __len__(self):\n"
                                     "        return 0\n"
                                     "    @property\n"
                                     "    def size(self):\n"
                                     "        return self.area()\n"
                                     "    def area(self):\n"
                                     "        return 1\n"
                                     "    def copy(self):\n"
                                     "        return self.copy()\n"
                                     "def bound(shape):\n"
                                     "    return shape.size\n"
                                     "def spare():\n"
                                     "    return 2\n"
                                     "def exported():\n"
                                     "    return 3\n")
    (tmp_path / "two.py").write_text("from .one import bound\n"
                                     "CALLED = ('spare',)\n"
                                     "def orphan():\n"
                                     "    return bound(None)\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unread_public_names(paths, paths, {"exported"}) == [
        ("one.py", 9, "Shape.copy"), ("two.py", 3, "orphan")]
