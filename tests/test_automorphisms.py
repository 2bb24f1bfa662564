"""The catalog on a generated corpus of automorphisms, with every map it
leaves `unknown` named.

The paper's headline is R(phi) = infinity for every automorphism of
B(m,n) but those of B(1,1) = Z + Z.  The generator composes
(`endo_compose`) up to four of the inner automorphisms by a^+-1 and b^+-1
(`inner_by`) and a -> a, b -> b^-1; on |m| = |n| it adds a -> a^-1, b -> b,
and on |m| = |n| and B(1,n) it adds a -> a b^+-1, b -> b.  Maps are kept
once per pair of image words.  Off |m| = |n| the catalog settles every
one.  On |m| = |n| each map it leaves has k = -1 and kappa(phi(b)) = -1,
and `golden/automorphism_unknowns.json` lists them by `describe()` text,
so a rule that settles some of them must shorten those lists.
"""

import json
import pathlib
from functools import cache

import pytest

from bstwist.homs import EndoSpec, endo_compose, endo_validate, inner_by, kappa
from bstwist.reidemeister import certify_infinite, check_certificate
from bstwist.words import A, B, GroupSpec, word

from test_homs import identity_spec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "automorphism_unknowns.json"
DEPTH = 4  # generators per composition, at most
EQUAL_MODULUS = tuple(GroupSpec(m, n) for m, n in (
    (2, 2), (3, 3), (2, -2), (3, -3), (1, -1)))
SETTLED = tuple(GroupSpec(m, n) for m, n in ((2, 3), (1, 2), (2, 4)))


def generators(group):
    """The automorphisms the corpus composes, for `group`."""
    a, b = word([(A, 1)]), word([(B, 1)])
    out = [inner_by(group, g) for g in (a, word([(A, -1)]), b, word([(B, -1)]))]
    out.append(EndoSpec(group, a, word([(B, -1)])))
    if abs(group.m) == abs(group.n):
        out.append(EndoSpec(group, word([(A, -1)]), b))
    if abs(group.m) == abs(group.n) or group.m == 1:
        out += [EndoSpec(group, word([(A, 1), (B, e)]), b) for e in (1, -1)]
    return out


@cache
def automorphisms(group):
    """Every composition of at most DEPTH generators, once per image pair,
    in the order first reached (the identity first)."""
    identity, gens = identity_spec(group), generators(group)
    seen = {(identity.image_a, identity.image_b): identity}
    level = [identity]
    for _ in range(DEPTH):
        reached = []
        for spec in level:
            for g in gens:
                composed = endo_compose(g, spec)
                key = (composed.image_a, composed.image_b)
                if key not in seen:
                    seen[key] = composed
                    reached.append(composed)
        level = reached
    return tuple(seen.values())


@cache
def unknowns(group):
    return tuple(spec for spec in automorphisms(group)
                 if certify_infinite(spec).kind == "unknown")


@pytest.mark.parametrize("group", EQUAL_MODULUS + SETTLED, ids=str)
def test_every_map_is_an_endomorphism_and_every_certificate_checks(group):
    for spec in automorphisms(group):
        endo_validate(spec)  # raises RelationViolated on a non-endomorphism
        outcome = certify_infinite(spec)
        if outcome.kind == "infinite":
            assert check_certificate(outcome.certificate, spec), spec.describe()


@pytest.mark.parametrize("group", SETTLED, ids=str)
def test_no_unknown_off_equal_modulus(group):
    assert unknowns(group) == ()


@pytest.mark.parametrize("group", EQUAL_MODULUS, ids=str)
def test_every_unknown_has_k_and_kappa_minus_one(group):
    for spec in unknowns(group):
        assert endo_validate(spec).k == -1, spec.describe()
        assert kappa(spec.image_b, group) == -1, spec.describe()


def test_unknowns_are_named():
    pinned = json.loads(GOLDEN.read_text())
    assert pinned == {
        str(group): {"maps": len(automorphisms(group)),
                     "unknown": sorted(spec.describe() for spec in unknowns(group))}
        for group in EQUAL_MODULUS + SETTLED}
