"""Acceptance checks: each criterion returns (passed, detail).

These back both `bs-twist selftest` and tests/test_acceptance.py; every
tolerance is exact.
"""

from __future__ import annotations

import random
from itertools import product

from .homs import EndoSpec, endo_validate
from .intmat import IntMatrix, snf
from .models import model_embed, model_equal_oracle
from .reidemeister import (
    INV_A_SUM, _root, check_certificate, certify_infinite,
    coincidence_certify, enumerate_classes_ball, union_runs,
    witnesses_stay_separated,
)
from .words import (
    A, B, GroupSpec, Word, are_equal, britton_reduce, multiply, parse_word,
    power_constraint, relator, word,
)


MAX_SYLLABLES = 12  # of a random word
ORACLE_PAIRS = 1000  # random word pairs per family
SNF_SAMPLES = 200  # random matrices checked against the box oracle


def random_word(rng: random.Random) -> Word:
    pairs = []
    for _ in range(rng.randrange(MAX_SYLLABLES + 1)):
        base = rng.choice((A, B))
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        pairs.append((base, exp))
    return word(pairs)


def check_klein_reproduction() -> tuple[bool, str]:
    group = GroupSpec(1, -1)
    phi = EndoSpec(group, parse_word("a^3"), parse_word("b^2"))
    first = enumerate_classes_ball(group, phi, bounds={"u": 64, "v": 8})
    second = enumerate_classes_ball(group, phi, bounds={"u": 128, "v": 12})
    ok = first.stable_classes == 4 and second.stable_classes == 4
    return ok, (f"stable classes {first.stable_classes} at (64,8), "
                f"{second.stable_classes} at (128,12); expected 4 and 4")


def check_relation_grid() -> tuple[bool, str]:
    failures = []
    for m, n in product((1, 2, 3), (-3, -2, -1, 1, 2, 3)):
        group = GroupSpec(m, n)
        for t in range(-5, 6):
            lhs = britton_reduce(word([(A, -1), (B, m * t), (A, 1)]), group)
            if lhs != word([(B, n * t)]):
                failures.append((m, n, t))
        if not are_equal(relator(group), Word(), group):
            failures.append((m, n, "relator"))
    group = GroupSpec(1, -1)
    for t in range(-5, 6):
        reduced = britton_reduce(word([(A, -1), (B, t), (A, 1)]), group)
        if model_embed(reduced, group) != model_embed(word([(B, -t)]), group):
            failures.append((1, -1, t))
    return not failures, f"failures: {failures!r}" if failures else "all pinches exact"


def check_oracle_equivalence() -> tuple[bool, str]:
    families = [GroupSpec(1, 2), GroupSpec(1, 3), GroupSpec(1, -2),
                GroupSpec(2, 2), GroupSpec(3, 3), GroupSpec(1, -1)]
    mismatches = 0
    for group in families:
        rng = random.Random(group.m * 101 + group.n)
        for _ in range(ORACLE_PAIRS):
            u = random_word(rng)
            v = random_word(rng)
            if are_equal(u, v, group) != model_equal_oracle(u, v, group):
                mismatches += 1
    return mismatches == 0, f"{mismatches} disagreements over {ORACLE_PAIRS} pairs x 6 families"


def check_center_bmm() -> tuple[bool, str]:
    failures = []
    for m in (2, 3):
        group = GroupSpec(m, m)
        center = word([(B, m)])
        for gen in (word([(A, 1)]), word([(B, 1)])):
            if not are_equal(multiply(center, gen), multiply(gen, center), group):
                failures.append((m, "b^m not central"))
        for candidate in (word([(A, 1)]), word([(B, 1)]),
                          word([(A, 1), (B, 1)]), word([(B, 1), (A, -1)])):
            commutes_with_all = all(
                are_equal(multiply(candidate, gen), multiply(gen, candidate), group)
                for gen in (word([(A, 1)]), word([(B, 1)])))
            if commutes_with_all:
                failures.append((m, f"{candidate} wrongly central"))
    return not failures, f"failures: {failures!r}" if failures else "center = <b^m> confirmed"


def check_certificates() -> tuple[bool, str]:
    cases = []
    for group in (GroupSpec(1, 2), GroupSpec(1, 3), GroupSpec(2, 3)):
        for s in (2, 3, -2):
            cases.append((group, s))
    problems = []
    for group, s in cases:
        spec = EndoSpec(group, parse_word("a"), parse_word(f"b^{s}"))
        endo_validate(spec)
        outcome = certify_infinite(spec)
        if outcome.kind != "infinite" or outcome.certificate.invariant != INV_A_SUM:
            problems.append((str(group), s, outcome.kind))
            continue
        if not check_certificate(outcome.certificate, spec):
            problems.append((str(group), s, "soundness check failed"))
        if not witnesses_stay_separated(outcome.certificate, spec):
            problems.append((str(group), s, "witnesses merged in enumerator"))
    return not problems, f"problems: {problems!r}" if problems else \
        f"{len(cases)} certificates emitted and verified"


def check_coincidence() -> tuple[bool, str]:
    group = GroupSpec(2, 3)
    specs = [EndoSpec(group, parse_word("a"), parse_word("b^2")),
             EndoSpec(group, parse_word("a"), parse_word("b^3")),
             EndoSpec(group, parse_word("a b"), parse_word("b^2"))]
    for spec in specs:
        endo_validate(spec)
    problems = []
    for phi in specs:
        for psi in specs:
            outcome = coincidence_certify(phi, psi)
            if outcome.kind != "infinite" or outcome.certificate.invariant != INV_A_SUM:
                problems.append((phi.describe(), psi.describe(), outcome.kind))
    return not problems, f"problems: {problems!r}" if problems else \
        f"{len(specs) ** 2} pairs certified via {INV_A_SUM}"


def check_power_constraint() -> tuple[bool, str]:
    checks = [
        (power_constraint(2, 3, (-10, 10)), {1}),
        (power_constraint(3, -5, (-10, 10)), {1}),
        (power_constraint(2, -2, (-10, 10)), {k for k in range(-10, 11) if k % 2}),
        (power_constraint(2, 2, (-3, 3)), set(range(-3, 4))),
    ]
    bad = [(got, want) for got, want in checks if got != want]
    return not bad, f"mismatches: {bad!r}" if bad else "all four index pairs exact"


def _reduce_columns(columns: list[tuple]) -> list[tuple]:
    """Pairwise Lagrange reduction: shorter basis of the same column lattice."""
    cols = [list(c) for c in columns]
    changed = True
    while changed:
        changed = False
        for i in range(len(cols)):
            for j in range(len(cols)):
                if i == j:
                    continue
                norm_j = sum(x * x for x in cols[j])
                q = round(sum(a * b for a, b in zip(cols[i], cols[j])) / norm_j)
                if q:
                    candidate = [a - q * b for a, b in zip(cols[i], cols[j])]
                    if sum(x * x for x in candidate) < sum(x * x for x in cols[i]):
                        cols[i] = candidate
                        changed = True
    return [tuple(c) for c in cols]


def _box_oracle(M: IntMatrix, d_max: int) -> int:
    """Union-find over lattice points of a box, merged by column steps.

    The columns are basis-reduced first (column operations preserve the
    lattice) so single steps stay short and in-box paths exist.
    """
    r = M.rows
    columns = _reduce_columns(
        [tuple(M[i, j] for i in range(r)) for j in range(r)])
    step = max(abs(x) for col in columns for x in col)
    inner = max(d_max, 1)
    bound = inner + (r + 1) * step
    points = [()]
    for _ in range(r):
        points = [p + (x,) for p in points for x in range(-bound, bound + 1)]
    width = 2 * bound + 1
    runs = []
    for col in columns:
        # point i has the base-width digits p + bound, so a step that stays
        # in the box adds the same offset to every index; the points it
        # keeps in the box have digits in `keep`, a run along the last one
        # for each choice of the others
        offset = 0
        for x in col:
            offset = offset * width + x
        keep = [range(max(0, -x), min(width, width - x)) for x in col]
        for prefix in product(*keep[:-1]):
            start = 0
            for digit in prefix:
                start = (start + digit) * width
            last = keep[-1]
            runs.append((slice(start + last.start, start + last.stop),
                         slice(start + last.start + offset, start + last.stop + offset)))
    parent, _ = union_runs(len(points), width, runs)
    reps = {_root(parent, i) for i, p in enumerate(points) if all(abs(x) <= inner for x in p)}
    return len(reps)


def check_snf_oracle() -> tuple[bool, str]:
    rng = random.Random(0)
    mismatches = []
    produced = 0
    while produced < SNF_SAMPLES:
        size = rng.choice((1, 2, 2, 2, 3))
        M = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
        result = snf(M)
        if result.coker_order is None:
            continue
        # keep the box oracle tractable: bound the largest invariant factor
        d_max = max(result.diagonal)
        if (size == 3 and d_max > 4) or (size == 2 and d_max > 14) or d_max > 60:
            continue
        produced += 1
        if result.coker_order != _box_oracle(M, d_max):
            mismatches.append(M.entries)
    return not mismatches, (f"mismatches: {mismatches!r}" if mismatches
                            else f"{SNF_SAMPLES} matrices agree with the box oracle")


def check_theta_convention() -> tuple[bool, str]:
    failures = []
    for n in (2, 3, -2):
        group = GroupSpec(1, n)
        if not model_equal_oracle(parse_word("a^-1 b a"), word([(B, n)]), group):
            failures.append(n)
    return not failures, f"failures for n in {failures!r}" if failures else \
        "a^-1 b a = b^n holds in the affine model for n in {2, 3, -2}"


ACCEPTANCE_CHECKS = [
    ("klein-ball-count", check_klein_reproduction),
    ("relation-grid", check_relation_grid),
    ("oracle-equivalence", check_oracle_equivalence),
    ("center-of-bmm", check_center_bmm),
    ("infinitude-certificates", check_certificates),
    ("coincidence-certificates", check_coincidence),
    ("power-constraint", check_power_constraint),
    ("snf-coker-oracle", check_snf_oracle),
    ("theta-convention", check_theta_convention),
]


def run_all():
    results = []
    for name, check in ACCEPTANCE_CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
