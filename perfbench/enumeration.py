"""Workload `enumerate`: twisted-class ball enumeration on the three model
substrates, followed by the certificate catalog and the check that the
certificate's witnesses stay in separate classes of the box.

Every pass runs the same list of cases: the paper's acceptance case
(Klein bottle group, a -> a^3, b -> b^2, exactly 4 stable classes), maps
on the Klein, affine B(1,n) and permuted B(2,2) substrates composed with
conjugation by a short random word, and (phi, psi) pairs with psi != id.
Box sizes are fixed per case, so each seed does the same amount of model
arithmetic and only the twist images change.
"""

from __future__ import annotations

from bstwist.words import GroupSpec

from common import Op, random_pairs, rng_for, spec_text

BOXES = {"klein": {"u": 80, "v": 10}, "affine": {"k": 6, "t": 80, "e": 3},
         "permuted-product": {"l": 2, "k": 6}}
WITNESS_BOXES = {"klein": {"u": 24, "v": 4}, "affine": {"k": 3, "t": 30, "e": 2},
                 "permuted-product": {"l": 1, "k": 3}}
ACCEPTANCE = ((1, -1), (3, 0, 2), None)
# (group, phi, psi or None, inner margin, conjugate by a random g), with
# phi and psi given as (i, l, j): a -> a^i b^l, b -> b^j.  Pairs keep few
# classes near 1, and conjugating them can leave no class stable in the
# box, so only single maps are conjugated.
CASES = (
    ((1, -1), (3, 0, 2), None, 2, False),
    ((1, -1), (-1, 0, 1), None, 2, True),
    ((1, -1), (1, 0, -1), None, 2, True),
    ((1, -1), (1, 1, -1), (-1, 0, 1), 2, False),
    ((1, 2), (1, 0, -1), None, 2, True),
    ((1, -2), (1, 0, 1), None, 2, True),
    ((1, 2), (1, 0, 1), (1, 0, -1), 2, False),
    ((2, 2), (1, 0, -1), None, 1, True),
    ((2, 2), (2, 0, 1), None, 1, True),
    ((2, 2), (3, 0, 1), (1, 0, -1), 1, False),
)

SIZES = {
    "cases_per_pass": len(CASES),
    "boxes": BOXES,
    "witness_boxes": WITNESS_BOXES,
    "conjugator_syllables": [1, 2],
}
# Smaller boxes lose the acceptance case's four stable classes or leave no
# stable class at all, so the self-check runs the real sizes.
TINY = SIZES


def _family(group) -> str:
    m, n = group
    if (m, n) == (1, -1):
        return "klein"
    return "affine" if m == 1 else "permuted-product"


def sizes(tiny: bool) -> dict:
    return TINY if tiny else SIZES


def make_pass(seed: int, index: int, tiny: bool = False) -> list[Op]:
    sz = sizes(tiny)
    rng = rng_for("enumerate", seed, index)
    ops = []
    for group, phi, psi, margin, conjugated in CASES[:sz["cases_per_pass"]]:
        family = _family(group)
        g = random_pairs(rng, rng.randint(*sz["conjugator_syllables"]), 1) \
            if conjugated else []
        args = {"spec": spec_text(rng, group, phi, g),
                "spec2": None if psi is None else spec_text(rng, group, psi, g),
                "bounds": dict(sz["boxes"][family]), "margin": margin,
                "witness_bounds": dict(sz["witness_boxes"][family]),
                "acceptance": (group, phi, psi) == ACCEPTANCE}
        ops.append(Op("pair" if psi else "single", family, group, args))
    rng.shuffle(ops)
    return ops


def run(op: Op, lib):
    """The timed operation; returns (answer, objects the checks reuse)."""
    group = GroupSpec(*op.group)
    phi = lib.parse_endo_file(op.args["spec"])
    psi = None if op.args["spec2"] is None else lib.parse_endo_file(op.args["spec2"])
    report = lib.enumerate_classes_ball(group, phi, psi, bounds=op.args["bounds"],
                                        inner_margin=op.args["margin"])
    if psi is None:
        outcome = lib.certify_infinite(phi)
    else:
        outcome = lib.coincidence_certify(phi, psi)
    separated = None
    if outcome.kind == "infinite":
        separated = lib.witnesses_stay_separated(
            outcome.certificate, phi, psi, bounds=op.args["witness_bounds"])
    answer = (report.family, report.total_elements, report.merges_applied,
              report.stable_classes, report.tentative_classes,
              report.stabilized, outcome.kind, separated)
    return answer, ()


def check(op: Op, output, lib, counts: dict) -> str | None:
    """Verify one answer; None when correct."""
    family, total, merges, stable, tentative, _, kind, separated = output[0]
    counts["reidemeister.box_elements"] += total
    counts["reidemeister.merges"] += merges
    counts["reidemeister.stable"] += stable
    counts["reidemeister.tentative"] += tentative
    if op.kind == "single":
        counts["reidemeister.certify_maps"] += 1
        counts["reidemeister.certified"] += kind == "infinite"
    if family != op.shape:
        return f"enumerated on {family}, expected {op.shape}"
    if tentative != total - merges:
        return f"tentative {tentative} != total {total} - merges {merges}"
    if not 1 <= stable <= tentative:
        return f"stable {stable} outside [1, tentative {tentative}]"
    if op.args["acceptance"] and stable != 4:
        return f"acceptance case gave {stable} stable classes, expected 4"
    if kind == "finite":
        return "the catalog claimed a finite class count"
    if kind == "infinite" and separated is not True:
        return "certificate witnesses merged in the box"
    return None
