"""Command-line surface: every library operation for batch use.

Each command is one handler that takes the parsed arguments and returns a
JSON payload with its text rendering; `main` prints one of the two and maps
errors to exit codes, once for all commands.  Exit codes: 0 success, 1
domain error (machine-readable code on stderr) or a failed selftest check,
2 usage or word-syntax error.  Every command that acts on a group takes it
explicitly; there is no default, so family-specific commands cannot be
misused silently.

Only `words` and `errors` are imported up front; every other handler
imports the layer it calls, so a word-problem command starts without
compiling the model, endomorphism, certificate and SNF layers.  `json` and
`shlex` are imported only to print `--format json`.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import BSTwistError, GroupMismatch, WordSyntaxError
from .words import (
    GroupSpec, are_equal, format_word, multiply, normal_form, parse_word,
    power_constraint, standardize,
)

if TYPE_CHECKING:
    from .homs import EndoSpec


def _group(text: str) -> GroupSpec:
    try:
        m_text, n_text = text.split(",")
        return GroupSpec(int(m_text), int(n_text))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"--group expects m,n: {exc}")


def _bounds(text: str) -> dict:
    pairs = [part.partition("=") for part in text.split(",")]
    out = {key.strip(): int(value) for key, _, value in pairs}
    if len(out) < len(pairs):
        raise argparse.ArgumentTypeError(f"--bounds repeats a key: {text}")
    return out


def _int_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(",")
    return int(lo), int(hi)


def _load_spec(path: str, group: GroupSpec) -> EndoSpec:
    """Read a spec file and refuse it when it is not on `group`, the
    command's --group."""
    from .homs import parse_endo_file
    with open(path, encoding="utf-8") as handle:
        spec = parse_endo_file(handle.read())
    if spec.group != group:
        raise GroupMismatch(
            f"spec file {path} is on {spec.group}, --group is {group}")
    return spec


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        import json
        import shlex
        payload["config"] = shlex.join(args.argv)
        payload["version"] = __version__
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# One handler per command: parsed args in, (JSON payload, text) out.


def _normalize(args):
    text = format_word(normal_form(parse_word(args.word, args.group),
                                   args.group).word)
    return {"normal_form": text}, text


def _equal(args):
    result = are_equal(parse_word(args.word1, args.group),
                       parse_word(args.word2, args.group), args.group)
    return {"equal": result}, "equal" if result else "not-equal"


def _mult(args):
    product = parse_word(args.words[0], args.group)
    for text in args.words[1:]:
        product = multiply(product, parse_word(text, args.group))
    text = format_word(normal_form(product, args.group).word)
    return {"product": text}, text


def _model_check(args):
    from .models import model_equal_oracle
    u = parse_word(args.word1, args.group)
    v = parse_word(args.word2, args.group)
    britton = are_equal(u, v, args.group)
    model = model_equal_oracle(u, v, args.group)
    return ({"britton": britton, "model": model, "agree": britton == model},
            f"britton: {britton}  model: {model}  agree: {britton == model}")


def _hom_validate(args):
    from .homs import endo_validate
    spec = _load_spec(args.spec, args.group)
    data = endo_validate(spec)
    payload = data.as_dict()
    lines = [f"valid endomorphism on {spec.group}",
             f"k = {data.k}",
             f"kernel_preserved = {data.kernel_preserved}",
             f"abelianization: torsion Z_{payload['ab_torsion']}, "
             f"matrix {payload['ab_matrix']}",
             f"kappa_scale = {payload['kappa_scale']}"]
    if data.injectivity_obstruction:
        lines.append(data.injectivity_obstruction)
    return payload, "\n".join(lines)


def _kernel_decompose(args):
    from .homs import kernel_decompose
    terms = kernel_decompose(parse_word(args.word, args.group))
    return {"terms": terms}, " ".join(f"g_{i}^{e}" for i, e in terms) or "1"


def _kappa(args):
    from .homs import kappa
    value = kappa(parse_word(args.word, args.group), args.group)
    return {"kappa": str(value)}, str(value)


def _outcome(outcome):
    if outcome.kind == "infinite":
        cert = outcome.certificate
        text = (f"infinite (invariant: {cert.invariant}; witnesses "
                f"{cert.witness_base} * ({cert.witness_step})^j)")
    else:
        text = "unknown\n" + "\n".join(f"  tried {a}" for a in outcome.attempts)
    return outcome.as_dict(), text


def _certify(args):
    from .reidemeister import certify_infinite
    return _outcome(certify_infinite(_load_spec(args.spec, args.group)))


def _coincidence(args):
    from .reidemeister import coincidence_certify
    return _outcome(coincidence_certify(_load_spec(args.spec, args.group),
                                        _load_spec(args.spec2, args.group)))


def _enumerate(args):
    from .reidemeister import enumerate_classes_ball
    phi = _load_spec(args.spec, args.group)
    psi = _load_spec(args.spec2, args.group) if args.spec2 else None
    report = enumerate_classes_ball(args.group, phi, psi, bounds=args.bounds,
                                    inner_margin=args.margin)
    return report.as_dict(), (
        f"{report.family}: {report.stable_classes} stable / "
        f"{report.tentative_classes} tentative classes over "
        f"{report.total_elements} elements")


def _snf(args):
    from .intmat import IntMatrix, snf
    rows = [[int(x) for x in row.split()] for row in args.matrix.split(";")]
    if not any(rows):
        raise ValueError(f"matrix has no entries: {args.matrix!r}")
    M = IntMatrix.from_rows(rows)
    result = snf(M)
    order = result.coker_order if M.rows == M.cols else None
    payload = {"diagonal": list(result.diagonal),
               "U": [list(r) for r in result.U.entries],
               "V": [list(r) for r in result.V.entries],
               "coker_order": order}
    coker = "infinite" if order is None and M.rows == M.cols else order
    return payload, f"diagonal: {list(result.diagonal)}  coker: {coker}"


def _power_constraint(args):
    lo, hi = args.range
    if lo > hi:
        raise ValueError(f"range must have lo <= hi, got {lo},{hi}")
    solutions = sorted(power_constraint(args.group.m, args.group.n, args.range))
    return {"solutions": solutions}, " ".join(map(str, solutions)) or "(none)"


def _standardize(args):
    target, (image_a, image_b) = standardize(args.group)
    payload = {"m": target.m, "n": target.n,
               "image_a": format_word(image_a), "image_b": format_word(image_b)}
    return payload, (f"{target}  a -> {payload['image_a']}, "
                     f"b -> {payload['image_b']}")


def _selftest(args):
    from .selftest import run_all
    results = run_all()
    width = max(len(name) for name, _, _ in results)
    payload = {"checks": [{"name": name, "passed": passed, "detail": detail}
                          for name, passed, detail in results],
               "passed": all(passed for _, passed, _ in results)}
    return payload, "\n".join(
        f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}"
        for name, passed, detail in results)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bs-twist",
        description="Exact computations in Baumslag-Solitar groups B(m,n)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *words, group=True, spec=False,
                **kwargs):
        """The subparser `name` running `handler`; `words` are positional."""
        p = sub.add_parser(name, help=help, **kwargs)
        p.set_defaults(handler=handler)
        if group:
            p.add_argument("--group", type=_group, required=True,
                           metavar="m,n", help="group indices, e.g. 2,3")
        if spec:
            p.add_argument("--spec", required=True, help="endomorphism spec file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for positional in words:
            p.add_argument(positional)
        return p

    command("normalize", _normalize, "canonical normal form", "word")
    command("equal", _equal, "word problem for two words", "word1", "word2")

    p = command("mult", _mult, "product of words, normalized")
    p.add_argument("words", nargs="+")

    command("model-check", _model_check,
            "compare Britton equality with the model oracle", "word1", "word2")

    command("hom-validate", _hom_validate,
            "validate an endomorphism spec and print its induced maps",
            spec=True, aliases=["hom-induced"])

    command("kernel-decompose", _kernel_decompose,
            "decompose a kernel word into g_i powers", "word")
    command("kappa", _kappa, "rational kernel invariant", "word")

    command("certify", _certify, "certificate that R(phi) is infinite",
            spec=True)

    p = command("coincidence", _coincidence,
                "coincidence certificate for a pair", spec=True)
    p.add_argument("--spec2", required=True)

    p = command("enumerate", _enumerate, "twisted-class ball enumeration",
                spec=True)
    p.add_argument("--spec2", help="second spec (psi); identity if omitted")
    p.add_argument("--bounds", type=_bounds, metavar="k=K,t=T",
                   help="model-specific box, e.g. u=64,v=8")
    p.add_argument("--margin", type=int, default=2)

    p = command("snf", _snf, "Smith normal form of an integer matrix",
                group=False)
    p.add_argument("matrix", help="rows separated by ';', e.g. '2 4; 6 8'")

    p = command("power-constraint", _power_constraint,
                "indices k with n^(k-1) = m^(k-1)")
    p.add_argument("--range", type=_int_range, default=(-10, 10),
                   metavar="lo,hi")

    command("standardize", _standardize,
            "isomorphic indices with 0 < m <= |n|")

    command("selftest", _selftest, "run the acceptance suite", group=False)
    return parser


def main(argv=None) -> int:
    # Exact answers can have more digits than CPython's default int/str
    # conversion limit (4300 since 3.11); lift it for this process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args.argv = argv
    try:
        payload, text = args.handler(args)
    except WordSyntaxError as exc:
        print(f"syntax error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except BSTwistError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error [invalid-input]: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload, text)
    # only selftest reports "passed"; a failed check exits 1 after its table
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
