"""The abstract of the paper (`PAPER.md`), clause by clause.

> Let phi: G -> G be a group endomorphism where G is a finitely generated
> group of exponential growth, and let R(phi) denote the number of
> phi-conjugacy classes. [...] we show that the conjecture holds for the
> Baumslag-Solitar groups B(m,n), where either |m| or |n| is greater than
> 1 and |m| != |n|. We also show that in the cases where |m| = |n| > 1 or
> mn = -1 the conjecture is true for automorphisms.

The conjecture (Fel'shtyn-Hill) is that R(phi) is infinite when phi is
injective.

(i) |m| != |n|, one of them > 1.  Every endomorphism phi with k =
|phi(a)|_a = 1 fixes the a-exponent sum, so it gets the a-sum certificate.
For k != 1 the relator gives kappa(phi(b)) (m (n/m)^k - n) = 0 with
(n/m)^k != n/m, so kappa(phi(b)) = 0; phi(b) is elliptic because
|m| != |n|, and an elliptic x != 1 in K has kappa(x) != 0, so phi(b) = 1
and b != 1 lies in ker phi: such a phi is not injective.  The test asserts
that each valid map falls in one of the two cases, on a corpus and on a
`hypothesis` family.

(ii)/(iii) |m| = |n| > 1, and mn = -1 (B(1,-1)).  An automorphism maps K
onto K: for m = n, b^m generates the centre, which is characteristic, and
for m != n the torsion of the abelianization is characteristic, so
|phi(b)|_a = 0.  So k = +-1.  kappa(K) = Z when |m| = |n|, and kappa o phi
= kappa(phi(b)) kappa on K, so kappa(phi(b)) = +-1.  In the four cells
(k, kappa(phi(b))), (1, +-1) takes the a-sum rule and (-1, 1) the kappa or
b-sum rule; the cell (-1, -1) has no rule in the catalog yet (ROADMAP items
1 and 5), and the test asserts that `unknown` holds exactly there.
"""

from hypothesis import given, settings, strategies as st

from bstwist.errors import RelationViolated
from bstwist.homs import EndoSpec, endo_compose, inner_by, kappa
from bstwist.reidemeister import (
    INV_A_SUM, INV_B_SUM, INV_KAPPA, certify_infinite, check_certificate,
)
from bstwist.words import A, B, GroupSpec, britton_reduce, word

from test_automorphisms import generators
from test_homs import identity_spec

UNEQUAL = tuple(GroupSpec(m, n) for m, n in (
    (2, 3), (3, 2), (-2, 3), (2, -3), (1, 2), (1, 3), (1, -2), (2, 4)))
EQUAL = tuple(GroupSpec(m, n) for m, n in (
    (2, 2), (2, -2), (3, 3), (3, -3), (4, 4), (4, -4), (1, -1)))

_EXPONENTS = (-2, -1, 1, 2)
# the words of at most 2 syllables with exponents +-1 and +-2
CORPUS = [word([])] + [word([(x, e)]) for x in (A, B) for e in _EXPONENTS] + [
    word([(x, e), (y, f)]) for x, y in ((A, B), (B, A))
    for e in _EXPONENTS for f in _EXPONENTS]

_short_words = st.lists(st.tuples(st.sampled_from((A, B)), st.sampled_from(_EXPONENTS)),
                        max_size=3).map(word)


def assert_clause_one(spec):
    """k = 1 and a checked a-sum certificate, or k != 1 and phi(b) = 1."""
    k = spec.exp_sums[0]
    if k == 1:
        outcome = certify_infinite(spec)
        assert outcome.kind == "infinite", spec.describe()
        assert outcome.certificate.invariant == INV_A_SUM, spec.describe()
        assert check_certificate(outcome.certificate, spec), spec.describe()
    else:
        assert not britton_reduce(spec.image_b, spec.group), spec.describe()


def test_clause_one_on_the_corpus():
    for group in UNEQUAL:
        valid = 0
        for image_a in CORPUS:
            for image_b in CORPUS:
                spec = EndoSpec(group, image_a, image_b)
                try:
                    spec._relator_checked
                except RelationViolated:
                    continue
                valid += 1
                assert_clause_one(spec)
        assert valid > len(CORPUS)  # a -> w, b -> 1 alone gives one per word


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(UNEQUAL), x=_short_words, j=st.integers(-3, 3),
       t=st.integers(-3, 3), w=_short_words)
def test_clause_one_on_a_family(group, x, j, t, w):
    # a -> a b^j, b -> b^t is an endomorphism for every j and t, since
    # a^-1 b^(t m) a = b^(t n); so is any inner twist of it, and a -> w,
    # b -> 1 kills the relator
    shear = EndoSpec(group, word([(A, 1), (B, j)]), word([(B, t)]))
    for spec in (endo_compose(inner_by(group, x), shear), EndoSpec(group, w, word([]))):
        spec._relator_checked
        assert_clause_one(spec)


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(EQUAL), picks=st.lists(st.integers(0, 7), max_size=10))
def test_clauses_two_and_three_on_deep_automorphisms(group, picks):
    gens = generators(group)  # eight on every |m| = |n|
    spec = identity_spec(group)
    for pick in picks:
        spec = endo_compose(gens[pick], spec)
    spec._relator_checked
    cell = (spec.exp_sums[0], kappa(spec.image_b, group))
    assert cell in {(1, 1), (1, -1), (-1, 1), (-1, -1)}, spec.describe()
    outcome = certify_infinite(spec)
    assert (outcome.kind == "unknown") == (cell == (-1, -1)), spec.describe()
    if outcome.kind == "infinite":
        rules = {INV_A_SUM} if cell[0] == 1 else {INV_KAPPA, INV_B_SUM}
        assert outcome.certificate.invariant in rules, spec.describe()
        assert check_certificate(outcome.certificate, spec), spec.describe()
