"""Command-line surface: every library operation for batch use.

Exit codes: 0 success, 1 domain error (machine-readable code on stderr),
2 usage or word-syntax error.  Every command that acts on a group takes it
explicitly; there is no default, so family-specific commands cannot be
misused silently.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import selftest as selftest_mod
from .errors import BSTwistError, GroupMismatch, WordSyntaxError
from .homs import (
    EndoSpec, endo_validate, kappa, kernel_decompose, koch_form_search,
    parse_endo_file,
)
from .intmat import IntMatrix, coker_order, snf
from .models import model_equal_oracle
from .reidemeister import (
    certify_infinite, coincidence_certify, enumerate_classes_ball,
    power_constraint,
)
from .words import (
    GroupSpec, are_equal, format_word, multiply, normal_form, parse_word,
    standardize,
)


def _group(text: str) -> GroupSpec:
    try:
        m_text, n_text = text.split(",")
        return GroupSpec(int(m_text), int(n_text))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"--group expects m,n: {exc}")


def _bounds(text: str) -> dict:
    out = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        out[key.strip()] = int(value)
    return out


def _int_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(",")
    return int(lo), int(hi)


def _load_spec(path: str, group: GroupSpec | None) -> EndoSpec:
    """Read a spec file and refuse it when it is not on `group`, the
    command's --group (None for koch-search, which has no --group)."""
    with open(path, encoding="utf-8") as handle:
        spec = parse_endo_file(handle.read())
    if group is not None and spec.group != group:
        raise GroupMismatch(
            f"spec file {path} is on {spec.group}, --group is {group}")
    return spec


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        payload["config"] = args.config
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bs-twist",
        description="Exact computations in Baumslag-Solitar groups B(m,n)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, spec=False):
        if group:
            p.add_argument("--group", type=_group, required=True,
                           metavar="m,n", help="group indices, e.g. 2,3")
        if spec:
            p.add_argument("--spec", required=True, help="endomorphism spec file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = common(sub.add_parser("normalize", help="canonical normal form"))
    p.add_argument("word")

    p = common(sub.add_parser("equal", help="word problem for two words"))
    p.add_argument("word1")
    p.add_argument("word2")

    p = common(sub.add_parser("mult", help="product of words, normalized"))
    p.add_argument("words", nargs="+")

    p = common(sub.add_parser("model-check",
                              help="compare Britton equality with the model oracle"))
    p.add_argument("word1")
    p.add_argument("word2")

    common(sub.add_parser("hom-validate", help="validate an endomorphism spec"),
           spec=True)
    common(sub.add_parser("hom-induced",
                          help="induced maps of a validated endomorphism"),
           spec=True)

    p = common(sub.add_parser("kernel-decompose",
                              help="decompose a kernel word into g_i powers"))
    p.add_argument("word")

    p = common(sub.add_parser("kappa", help="rational kernel invariant"))
    p.add_argument("word")

    common(sub.add_parser("certify",
                          help="certificate that R(phi) is infinite"),
           spec=True)

    p = common(sub.add_parser("coincidence",
                              help="coincidence certificate for a pair"),
               spec=True)
    p.add_argument("--spec2", required=True)

    p = common(sub.add_parser("enumerate",
                              help="twisted-class ball enumeration"),
               spec=True)
    p.add_argument("--spec2", help="second spec (psi); identity if omitted")
    p.add_argument("--bounds", type=_bounds, metavar="k=K,t=T",
                   help="model-specific box, e.g. u=64,v=8")
    p.add_argument("--margin", type=int, default=2)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("matrix", help="rows separated by ';', e.g. '2 4; 6 8'")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("power-constraint",
                       help="indices k with n^(k-1) = m^(k-1)")
    p.add_argument("--group", type=_group, required=True, metavar="m,n")
    p.add_argument("--range", type=_int_range, default=(-10, 10),
                   metavar="lo,hi")
    p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("standardize",
                          help="isomorphic indices with 0 < m <= |n|"))

    p = sub.add_parser("koch-search",
                       help="bounded search for phi(b) = g b^r g^-1")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _run(args) -> int:
    if args.command == "normalize":
        nf = normal_form(parse_word(args.word, args.group), args.group)
        _emit(args, {"normal_form": format_word(nf.word)}, format_word(nf.word))

    elif args.command == "equal":
        u = parse_word(args.word1, args.group)
        v = parse_word(args.word2, args.group)
        result = are_equal(u, v, args.group)
        _emit(args, {"equal": result}, "equal" if result else "not-equal")

    elif args.command == "mult":
        product = parse_word(args.words[0], args.group)
        for text in args.words[1:]:
            product = multiply(product, parse_word(text, args.group))
        nf = normal_form(product, args.group)
        _emit(args, {"product": format_word(nf.word)}, format_word(nf.word))

    elif args.command == "model-check":
        u = parse_word(args.word1, args.group)
        v = parse_word(args.word2, args.group)
        britton = are_equal(u, v, args.group)
        model = model_equal_oracle(u, v, args.group)
        payload = {"britton": britton, "model": model, "agree": britton == model}
        _emit(args, payload,
              f"britton: {britton}  model: {model}  agree: {britton == model}")

    elif args.command in ("hom-validate", "hom-induced"):
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
        _emit(args, payload, "\n".join(lines))

    elif args.command == "kernel-decompose":
        w = parse_word(args.word, args.group)
        decomposition = kernel_decompose(w, args.group)
        terms = list(decomposition.terms)
        _emit(args, {"terms": terms},
              " ".join(f"g_{i}^{e}" for i, e in terms) or "1")

    elif args.command == "kappa":
        w = parse_word(args.word, args.group)
        value = kappa(w, args.group)
        _emit(args, {"kappa": str(value)}, str(value))

    elif args.command == "certify":
        outcome = certify_infinite(_load_spec(args.spec, args.group))
        _emit(args, outcome.as_dict(), _outcome_text(outcome))

    elif args.command == "coincidence":
        phi = _load_spec(args.spec, args.group)
        psi = _load_spec(args.spec2, args.group)
        outcome = coincidence_certify(phi, psi)
        _emit(args, outcome.as_dict(), _outcome_text(outcome))

    elif args.command == "enumerate":
        phi = _load_spec(args.spec, args.group)
        psi = _load_spec(args.spec2, args.group) if args.spec2 else None
        report = enumerate_classes_ball(args.group, phi, psi,
                                        bounds=args.bounds,
                                        inner_margin=args.margin)
        _emit(args, report.as_dict(),
              f"{report.family}: {report.stable_classes} stable / "
              f"{report.tentative_classes} tentative classes over "
              f"{report.total_elements} elements "
              f"(stabilized: {report.stabilized})")

    elif args.command == "snf":
        rows = [[int(x) for x in row.split()] for row in args.matrix.split(";")]
        M = IntMatrix.from_rows(rows)
        result = snf(M)
        order = coker_order(M) if M.rows == M.cols else None
        payload = {"diagonal": list(result.diagonal),
                   "U": [list(r) for r in result.U.entries],
                   "V": [list(r) for r in result.V.entries],
                   "coker_order": order}
        _emit(args, payload,
              f"diagonal: {list(result.diagonal)}  coker: "
              f"{'infinite' if order is None and M.rows == M.cols else order}")

    elif args.command == "power-constraint":
        solutions = sorted(power_constraint(args.group.m, args.group.n, args.range))
        _emit(args, {"solutions": solutions}, " ".join(map(str, solutions)) or "(none)")

    elif args.command == "standardize":
        target, (image_a, image_b) = standardize(args.group)
        payload = {"m": target.m, "n": target.n,
                   "image_a": format_word(image_a),
                   "image_b": format_word(image_b)}
        _emit(args, payload,
              f"{target}  a -> {format_word(image_a)}, b -> {format_word(image_b)}")

    elif args.command == "koch-search":
        witness = koch_form_search(_load_spec(args.spec, None), args.radius)
        if witness is None:
            _emit(args, {"found": False}, f"no witness at radius {args.radius}")
        else:
            gamma, r = witness
            _emit(args, {"found": True, "gamma": format_word(gamma), "r": r},
                  f"phi(b) = ({format_word(gamma)}) b^{r} (...)^-1")

    elif args.command == "selftest":
        results = selftest_mod.run_all()
        if args.format == "json":
            print(json.dumps([{"name": n, "passed": p, "detail": d}
                              for n, p, d in results], indent=2))
        else:
            width = max(len(n) for n, _, _ in results)
            for name, passed, detail in results:
                print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
        if not all(p for _, p, _ in results):
            return 1
    return 0


def _outcome_text(outcome) -> str:
    if outcome.kind == "infinite":
        cert = outcome.certificate
        return (f"infinite (invariant: {cert.invariant}; witnesses "
                f"{cert.witness_base} * ({cert.witness_step})^j)")
    if outcome.kind == "finite":
        return f"finite ({outcome.count})"
    return "unknown\n" + "\n".join(f"  tried {a}" for a in outcome.attempts)


def main(argv=None) -> int:
    # Exact answers can have more digits than CPython's default int/str
    # conversion limit (4300 since 3.11); lift it for this process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args.config = shlex.join(argv)
    try:
        return _run(args)
    except WordSyntaxError as exc:
        print(f"syntax error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except BSTwistError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error [invalid-input]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
