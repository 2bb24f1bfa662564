"""Semidirect-product models and their agreement with pinch reduction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bstwist.errors import WrongFamily
from bstwist.models import (
    AFFINE, KLEIN, PERMUTED, AffineElement, KleinElement, PermutedProduct,
    _lowest, _shift, model_embed, model_equal_oracle, model_family,
)
from bstwist.words import A, B, GroupSpec, Word, are_equal, multiply, parse_word, word

from test_words import random_word

MODELED = [GroupSpec(1, 2), GroupSpec(1, 3), GroupSpec(1, -2),
           GroupSpec(2, 2), GroupSpec(3, 3), GroupSpec(1, -1)]


# ---------------------------------------------------------------------------
# Reference: the three per-family embeddings that model_embed replaced


def ref_bs1n_embed(w, group):
    n = group.n if group.m == 1 else -group.n
    result = AffineElement(0, 0, 0, n)
    for s in w:
        if s.base == A:
            piece = AffineElement(0, 0, s.exp, n)
        else:
            piece = AffineElement(s.exp, 0, 0, n)
        result = result * piece
    return result


def ref_bsmm_embed(w, group):
    m = abs(group.m)
    result = PermutedProduct((), 0, m)
    for s in w:
        if s.base == A:
            piece = PermutedProduct(((1, s.exp),), 0, m)
        else:
            piece = PermutedProduct((), s.exp, m)
        result = result * piece
    return result


def ref_klein_embed(w, group):
    result = KleinElement(0, 0)
    for s in w:
        piece = KleinElement(0, s.exp) if s.base == A else KleinElement(s.exp, 0)
        result = result * piece
    return result


REF_EMBEDS = {
    GroupSpec(1, 2): ref_bs1n_embed, GroupSpec(1, -3): ref_bs1n_embed,
    GroupSpec(-1, 2): ref_bs1n_embed, GroupSpec(1, -1): ref_klein_embed,
    GroupSpec(-1, 1): ref_klein_embed, GroupSpec(2, 2): ref_bsmm_embed,
    GroupSpec(3, 3): ref_bsmm_embed, GroupSpec(-2, -2): ref_bsmm_embed,
}

words = st.lists(st.tuples(st.sampled_from((A, B)), st.integers(-3, 3)),
                 max_size=8).map(word)


@settings(max_examples=200, deadline=None)
@given(group=st.sampled_from(sorted(REF_EMBEDS, key=str)), w=words)
def test_model_embed_matches_the_per_family_embeddings(group, w):
    assert model_embed(w, group) == REF_EMBEDS[group](w, group)


@settings(max_examples=200, deadline=None)
@given(group=st.sampled_from(sorted(REF_EMBEDS, key=str)), u=words, v=words)
def test_model_embed_is_a_homomorphism(group, u, v):
    assert model_embed(multiply(u, v), group) == \
        model_embed(u, group) * model_embed(v, group)


def _affine(num, exp, k, n):
    return AffineElement(*_lowest(num, exp, abs(n)), k, n)


class TestPowRational:
    """The Z[1/|n|] coordinate num / |n|^exp of an AffineElement."""

    def test_lowest_terms(self):
        assert _lowest(4, 2, 2) == (1, 0)
        assert _lowest(0, 3, 2) == (0, 0)
        assert _lowest(3, -2, 2) == (12, 0)

    def test_addition(self):
        # (x1, 0)(x2, 0) = (x1 + x2, 0)
        half = _affine(1, 1, 0, 2)
        assert half * half == AffineElement(1, 0, 0, 2)

    def test_div_pow_sign(self):
        # (0, k)(x, 0) = (x / n^k, k), and 1 / n^k = -1 / |n|^k for n < 0, k odd
        one = AffineElement(1, 0, 0, -2)
        assert AffineElement(0, 0, 1, -2) * one == AffineElement(-1, 1, 1, -2)
        assert AffineElement(0, 0, 2, -2) * one == AffineElement(1, 2, 2, -2)

    def test_div_pow_negative_k(self):
        x = AffineElement(1, 2, 0, 3)
        assert AffineElement(0, 0, -2, 3) * x == AffineElement(1, 0, -2, 3)

    def test_rejects_bad_base(self):
        # the affine model needs |n| >= 2: B(1,1) has none, B(1,-1) is Klein
        with pytest.raises(WrongFamily):
            model_family(GroupSpec(1, 1))
        assert model_family(GroupSpec(1, -1)) is KLEIN

    @pytest.mark.parametrize("n", [2, -2, 3, -3])
    def test_inverse(self, n):
        identity = AffineElement(0, 0, 0, n)
        for num in (-5, 1, 4, 9):
            for exp in (0, 1, 3):
                for k in (-3, -1, 0, 2, 3):
                    x = _affine(num, exp, k, n)
                    assert x * x.inverse() == identity == x.inverse() * x
                    assert x.inverse().inverse() == x

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([2, -2, 3, -3]),
           xs=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 3),
                                 st.integers(-3, 3)), min_size=1, max_size=6))
    def test_products_stay_in_lowest_terms(self, n, xs):
        # so that dataclass equality is equality of values
        product = AffineElement(0, 0, 0, n)
        for num, exp, k in xs:
            product = product * _affine(num, exp, k, n)
            for e in (product, product.inverse()):
                assert e.exp == 0 or e.num % abs(n) != 0


class TestAffine:
    def test_defining_relation(self):
        for n in (2, 3, -2, -3):
            g = GroupSpec(1, n)
            a = model_embed(parse_word("a"), g)
            b = model_embed(parse_word("b"), g)
            lhs = a.inverse() * b * a
            rhs = model_embed(word([(B, n)]), g)
            assert lhs == rhs

    def test_group_axioms(self):
        g = GroupSpec(1, -2)
        rng = random.Random(3)
        for _ in range(100):
            x = model_embed(random_word(rng), g)
            assert x * x.inverse() == model_embed(Word(), g)

    def test_embed_is_homomorphism(self):
        rng = random.Random(31)
        for g in (GroupSpec(1, 2), GroupSpec(1, -3)):
            for _ in range(150):
                u, v = random_word(rng), random_word(rng)
                assert model_embed(multiply(u, v), g) == \
                    model_embed(u, g) * model_embed(v, g)

    def test_product_across_ambient_n_rejected(self):
        with pytest.raises(ValueError, match="mixed ambient n"):
            AffineElement(1, 0, 0, 2) * AffineElement(1, 0, 0, -2)

    def test_m_minus_one_folds(self):
        g = GroupSpec(-1, 2)
        # a^-1 b^-1 a = b^2 in B(-1,2)
        assert model_equal_oracle(parse_word("a^-1 b^-1 a"),
                                  parse_word("b^2"), g)

    def test_wrong_family(self):
        for g in (GroupSpec(2, 3), GroupSpec(1, 1), GroupSpec(-1, -1)):
            with pytest.raises(WrongFamily):
                model_embed(Word(), g)

    def test_to_word_round_trip(self):
        g = GroupSpec(1, 2)
        w = parse_word("b^3 a^-2")
        e = model_embed(w, g)
        assert e.exp == 0  # denominator-free: (num, k) is b^num a^k
        assert are_equal(word([(B, e.num), (A, e.k)]), w, g)


class TestPermuted:
    def test_defining_relation(self):
        for m in (2, 3):
            g = GroupSpec(m, m)
            lhs = model_embed(parse_word(f"a^-1 b^{m} a"), g)
            rhs = model_embed(parse_word(f"b^{m}"), g)
            assert lhs == rhs

    def test_a_and_b_do_not_commute(self):
        g = GroupSpec(2, 2)
        assert model_embed(parse_word("a b"), g) != model_embed(parse_word("b a"), g)

    def test_embed_is_homomorphism(self):
        rng = random.Random(37)
        for g in (GroupSpec(2, 2), GroupSpec(3, 3)):
            for _ in range(150):
                u, v = random_word(rng), random_word(rng)
                assert model_embed(multiply(u, v), g) == \
                    model_embed(u, g) * model_embed(v, g)

    def test_product_across_rank_rejected(self):
        with pytest.raises(ValueError, match="mixed ambient rank"):
            PermutedProduct(((1, 1),), 0, 2) * PermutedProduct(((1, 1),), 0, 3)

    def test_sigma_has_order_m(self):
        w = ((1, 1), (2, -1))  # x1 x2^-1
        assert _shift(w, 3, 3) == w
        assert _shift(w, 1, 3) != w

    def test_inverse(self):
        rng = random.Random(41)
        g = GroupSpec(3, 3)
        for _ in range(100):
            x = model_embed(random_word(rng), g)
            assert x * x.inverse() == model_embed(Word(), g)

    def test_to_word_round_trip(self):
        rng = random.Random(43)
        g = GroupSpec(2, 2)
        for _ in range(100):
            w = random_word(rng)
            e = model_embed(w, g)
            # x_j = b^(j-1) a b^-(j-1), then the b^k tail
            pairs = []
            for idx, exp in e.w:
                pairs.extend([(B, idx - 1), (A, exp), (B, -(idx - 1))])
            pairs.append((B, e.k))
            assert are_equal(word(pairs), w, g)

    def test_wrong_family(self):
        for g in (GroupSpec(2, -2), GroupSpec(2, 4), GroupSpec(-3, 3)):
            with pytest.raises(WrongFamily):
                model_embed(Word(), g)


class TestKlein:
    def test_defining_relation(self):
        g = GroupSpec(1, -1)
        assert model_embed(parse_word("a^-1 b a"), g) == \
            model_embed(parse_word("b^-1"), g)

    def test_multiplication_rule(self):
        assert KleinElement(1, 1) * KleinElement(1, 0) == KleinElement(0, 1)
        assert KleinElement(1, 2) * KleinElement(1, 0) == KleinElement(2, 2)

    def test_embed_is_bijective_on_box(self):
        g = GroupSpec(1, -1)
        seen = set()
        for u in range(-3, 4):
            for v in range(-3, 4):
                e = model_embed(word([(B, u), (A, v)]), g)
                assert e == KleinElement(u, v)
                seen.add((e.u, e.v))
        assert len(seen) == 49

    def test_sign_variant_accepted(self):
        g = GroupSpec(-1, 1)
        assert model_embed(parse_word("a"), g) == KleinElement(0, 1)


class TestDispatch:
    def test_families(self):
        assert model_family(GroupSpec(1, 5)) is AFFINE
        assert model_family(GroupSpec(-1, 3)) is AFFINE
        assert model_family(GroupSpec(4, 4)) is PERMUTED
        assert model_family(GroupSpec(-2, -2)) is PERMUTED
        assert model_family(GroupSpec(1, -1)) is KLEIN
        assert model_family(GroupSpec(-1, 1)) is KLEIN
        assert [f.name for f in (KLEIN, AFFINE, PERMUTED)] == \
            ["klein", "affine", "permuted-product"]
        with pytest.raises(WrongFamily):
            model_family(GroupSpec(2, 3))
        with pytest.raises(WrongFamily):
            model_family(GroupSpec(2, -2))

    def test_oracle_matches_britton(self):
        rng = random.Random(47)
        for g in MODELED:
            for _ in range(200):
                u, v = random_word(rng), random_word(rng)
                assert model_equal_oracle(u, v, g) == are_equal(u, v, g)

    def test_oracle_separates_known_unequal(self):
        g = GroupSpec(1, 2)
        assert not model_equal_oracle(parse_word("a b"), parse_word("b a"), g)
