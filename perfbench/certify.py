"""Workload `certify`: a corpus of endomorphism spec files over a grid of
(m,n), run through validation, the certificate catalog and the checker.

Each map is a base map a -> a^i b^l, b -> b^j composed with conjugation by
a short random word g.  Every pass holds each (group, base map) cell once,
and the a-exponent sum of g follows a schedule fixed by the cell and the
pass index, because conjugating by g scales the kappa invariant by
(n/m)^(|g|_a): the share of maps the catalog certifies in a given pass is
then the same for every seed.  Cells that do not
extend to an endomorphism are kept; they must be rejected.  One operation
in six is a (phi, psi) pair for the coincidence catalog.
"""

from __future__ import annotations

from bstwist.abelian import AbelianMap
from bstwist.errors import RelationViolated

from common import (
    Op, exp_total, pairs_of, random_pairs, reduce, rng_for, spec_text, text,
)

GRID = ((2, 3), (-2, 3), (2, 4), (3, 5), (2, 2), (3, 3), (2, -2), (1, 2),
        (1, 3), (1, -2), (1, -1))
# (i, l, j): a -> a^i b^l, b -> b^j
BASE_MAPS = ((1, 0, 1), (1, 0, -1), (1, 1, 2), (-1, 0, 1), (-1, 0, -1),
             (3, 0, 2), (2, 0, 1), (0, 0, 1), (3, 0, 0), (1, 2, 0))
CONJ_A_SUMS = (0, 0, 1, -1)
# (phi, psi) base maps for pairs, aimed at the a-sum, b-sum (m = n) and
# kappa (distinct k) entries of the coincidence catalog; each pair takes
# the first one, in turn, that is valid on its group
PAIR_MAPS = (((1, 0, 1), (1, 0, -1)), ((2, 0, 1), (1, 0, 1)),
             ((-1, 0, 1), (1, 0, 1)), ((3, 0, 0), (1, 1, 2)))

SIZES = {
    "maps_per_pass": len(GRID) * len(BASE_MAPS),
    "pairs_per_pass": 2 * len(GRID),
    "conjugator_syllables": [1, 3],
    "probe_syllables": [2, 6],
    "power_constraint_radius": [24, 2000],
    "wide_radius_every": 2 * len(BASE_MAPS),
}
TINY = dict(SIZES, maps_per_pass=12, pairs_per_pass=4,
            power_constraint_radius=[4, 16])


def sizes(tiny: bool) -> dict:
    return TINY if tiny else SIZES


def valid(group, base) -> bool:
    """a^-i b^(jm) a^i = b^(jn) holds exactly in these cases."""
    (m, n), (i, _, j) = group, base
    return j == 0 or i == 1 or m == n or (m == -n and i % 2 == 1)


def _conjugator(rng, sz, a_sum):
    c = random_pairs(rng, rng.randint(*sz["conjugator_syllables"]))
    return reduce(c + [("a", a_sum - exp_total(c, "a"))])


def _spec(rng, sz, group, base, a_sum):
    return spec_text(rng, group, base, _conjugator(rng, sz, a_sum))


def make_pass(seed: int, index: int, tiny: bool = False) -> list[Op]:
    sz = sizes(tiny)
    rng = rng_for("certify", seed, index)
    cells = [(g, b) for g in GRID for b in BASE_MAPS][:sz["maps_per_pass"]]
    ops = []
    for c, (group, base) in enumerate(cells):
        a_sum = CONJ_A_SUMS[(c + c // len(BASE_MAPS) + index) % len(CONJ_A_SUMS)]
        probe = random_pairs(rng, rng.randint(*sz["probe_syllables"]))
        radius = sz["power_constraint_radius"][
            c % sz["wide_radius_every"] == 0]
        ops.append(Op("single", "valid" if valid(group, base) else "invalid",
                      group, {"spec": _spec(rng, sz, group, base, a_sum),
                              "base": base, "probe": probe,
                              "probe_text": text(probe, rng),
                              "radius": radius}))
    for p in range(sz["pairs_per_pass"]):
        group = GRID[p % len(GRID)]
        turn = PAIR_MAPS[p % len(PAIR_MAPS):] + PAIR_MAPS[:p % len(PAIR_MAPS)]
        phi, psi = next(pair for pair in turn
                        if valid(group, pair[0]) and valid(group, pair[1]))
        a_sum = CONJ_A_SUMS[(p + index) % len(CONJ_A_SUMS)]
        ops.append(Op("pair", "pair", group, {
            "spec": _spec(rng, sz, group, phi, a_sum),
            "spec2": _spec(rng, sz, group, psi, a_sum)}))
    rng.shuffle(ops)
    return ops


def _abelian(lib, f, g):
    """Twisted classes of (f, g) on the abelianization, and their SNF."""
    count = lib.twisted_class_count(f, g)
    functional = None if count is not None else lib.fixed_functional(f, g)
    stacked = f.group.presentation().hstack(g.matrix - f.matrix)
    return count, functional, stacked, lib.snf(stacked).diagonal


def _certificate(lib, outcome, *specs):
    if outcome.kind != "infinite":
        return outcome.kind, None, None, None
    cert = outcome.certificate
    return (outcome.kind, cert.invariant, tuple(cert.values),
            lib.check_certificate(cert, *specs))


def run(op: Op, lib):
    """The timed operation; returns (answer, objects the checks reuse)."""
    phi = lib.parse_endo_file(op.args["spec"])
    if op.kind == "pair":
        psi = lib.parse_endo_file(op.args["spec2"])
        data_phi, data_psi = lib.endo_validate(phi), lib.endo_validate(psi)
        outcome = lib.coincidence_certify(phi, psi)
        count, functional, stacked, diag = _abelian(
            lib, data_phi.ab_map, data_psi.ab_map)
        answer = (_certificate(lib, outcome, phi, psi), count, functional,
                  diag, data_phi.k, data_psi.k)
        return answer, (stacked,)
    try:
        data = lib.endo_validate(phi)
    except RelationViolated as exc:
        return ("rejected", exc.residue), ()
    scale = lib.kappa_scale(phi) if data.kernel_preserved else None
    outcome = lib.certify_infinite(phi)
    f = data.ab_map
    count, functional, stacked, diag = _abelian(
        lib, f, AbelianMap.identity(f.group))
    m, n = op.group
    radius = op.args["radius"]
    solutions = lib.power_constraint(m, n, (data.k - radius, data.k + radius))
    probe = lib.parse_word(op.args["probe_text"], phi.group)
    image = lib.format_word(lib.endo_apply(phi, probe))
    answer = (_certificate(lib, outcome, phi), data.k, data.kernel_preserved,
              str(scale), count, functional, diag, sorted(solutions), image)
    return answer, (stacked, data.kappa_scale)


def _check_abelian(count, functional, stacked, diag) -> str | None:
    product = 1
    for d in list(diag[:stacked.rows]) + [0] * (stacked.rows - len(diag)):
        product = None if product is None or d == 0 else product * d
    if count != product:
        return f"class count {count} disagrees with SNF diagonal {diag}"
    if count is None:
        if functional is None or not any(functional):
            return "infinite class count without a fixed functional"
        for j in range(stacked.cols):
            if sum(u * stacked[i, j] for i, u in enumerate(functional)):
                return f"functional {functional} is not fixed"
    return None


def _check_certificate(cert, counts, single) -> str | None:
    kind, _, _, accepted = cert
    if kind == "infinite" and accepted is not True:
        return "check_certificate rejected an emitted certificate"
    if kind == "finite":
        return "the catalog claimed a finite class count"
    if single:
        counts["reidemeister.certify_maps"] += 1
        counts["reidemeister.certified"] += kind == "infinite"
    return None


def check(op: Op, output, lib, counts: dict) -> str | None:
    """Verify one answer; None when correct."""
    answer, kept = output
    if op.kind == "pair":
        cert, count, functional, diag, _, _ = answer
        return (_check_certificate(cert, counts, False)
                or _check_abelian(count, functional, kept[0], diag))
    if answer[0] == "rejected":
        if op.shape != "invalid":
            return f"a valid spec was rejected: {answer[1]}"
        counts["homs.rejected"] += 1
        return None
    if op.shape == "invalid":
        return "an invalid spec was accepted"
    cert, k, _, scale, count, functional, diag, solutions, image = answer
    stacked, induced_scale = kept
    error = (_check_certificate(cert, counts, True)
             or _check_abelian(count, functional, stacked, diag))
    if error:
        return error
    if scale != str(induced_scale):
        return f"kappa_scale {scale} differs from endo_validate's {induced_scale}"
    m, n = op.group
    i, l, j = op.args["base"]
    if k != i:
        return f"induced k = {k}, expected {i}"
    # n^(k-1) = m^(k-1): every k when m = n, odd k when m = -n, else k = 1
    radius = op.args["radius"]
    closed = [x for x in range(k - radius, k + radius + 1)
              if m == n or (m == -n and x % 2) or x == 1]
    if solutions != closed:
        return f"power_constraint gave {solutions[:8]}..., expected {closed[:8]}..."
    # |.|_a is a homomorphism to Z and |.|_b one to Z_{|n-m|}
    probe, got = op.args["probe"], pairs_of(image)
    a_w, b_w = exp_total(probe, "a"), exp_total(probe, "b")
    b_diff = exp_total(got, "b") - (l * a_w + j * b_w)
    if exp_total(got, "a") != i * a_w or (b_diff % abs(n - m) if m != n else b_diff):
        return f"image {image[:60]} has the wrong exponent sums"
    return None
