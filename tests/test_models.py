"""Semidirect-product models and their agreement with pinch reduction."""

import random

import pytest

from bstwist.errors import NotRepresentable, WrongFamily
from bstwist.models import (
    AFFINE, KLEIN, PERMUTED, AffineElement, FreeWord, KleinElement,
    PermutedProduct, PowRational, affine_to_word, bs1n_embed, bsmm_embed,
    klein_embed, klein_to_word, model_embed, model_equal_oracle, model_family,
    permuted_to_word,
)
from bstwist.words import A, B, GroupSpec, Word, are_equal, multiply, parse_word, word

from test_words import random_word

MODELED = [GroupSpec(1, 2), GroupSpec(1, 3), GroupSpec(1, -2),
           GroupSpec(2, 2), GroupSpec(3, 3), GroupSpec(1, -1)]


class TestPowRational:
    def test_lowest_terms(self):
        r = PowRational.make(4, 2, 2)
        assert (r.num, r.exp) == (1, 0)

    def test_addition(self):
        r = PowRational.make(1, 1, 2) + PowRational.make(1, 1, 2)
        assert (r.num, r.exp) == (1, 0)

    def test_div_pow_sign(self):
        r = PowRational.integer(1, 2)
        assert r.div_pow(-2, 1) == PowRational.make(-1, 1, 2)
        assert r.div_pow(-2, 2) == PowRational.make(1, 2, 2)

    def test_div_pow_negative_k(self):
        r = PowRational.make(1, 2, 3)
        assert r.div_pow(3, -2) == PowRational.integer(1, 3)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            PowRational(1, 0, 1)


class TestAffine:
    def test_defining_relation(self):
        for n in (2, 3, -2, -3):
            g = GroupSpec(1, n)
            a = bs1n_embed(parse_word("a"), g)
            b = bs1n_embed(parse_word("b"), g)
            lhs = a.inverse() * b * a
            rhs = bs1n_embed(word([(B, n)]), g)
            assert lhs == rhs

    def test_group_axioms(self):
        g = GroupSpec(1, -2)
        rng = random.Random(3)
        for _ in range(100):
            x = bs1n_embed(random_word(rng), g)
            assert x * x.inverse() == AffineElement.identity(-2)

    def test_embed_is_homomorphism(self):
        rng = random.Random(31)
        for g in (GroupSpec(1, 2), GroupSpec(1, -3)):
            for _ in range(150):
                u, v = random_word(rng), random_word(rng)
                assert bs1n_embed(multiply(u, v), g) == \
                    bs1n_embed(u, g) * bs1n_embed(v, g)

    def test_m_minus_one_folds(self):
        g = GroupSpec(-1, 2)
        # a^-1 b^-1 a = b^2 in B(-1,2)
        assert model_equal_oracle(parse_word("a^-1 b^-1 a"),
                                  parse_word("b^2"), g)

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            bs1n_embed(Word(), GroupSpec(2, 3))
        with pytest.raises(WrongFamily):
            bs1n_embed(Word(), GroupSpec(1, 1))

    def test_to_word_round_trip(self):
        g = GroupSpec(1, 2)
        e = bs1n_embed(parse_word("b^3 a^-2"), g)
        assert are_equal(affine_to_word(e), parse_word("b^3 a^-2"), g)

    def test_to_word_rejects_denominator(self):
        g = GroupSpec(1, 2)
        e = bs1n_embed(parse_word("a b a^-1"), g)  # translation 1/2
        with pytest.raises(NotRepresentable):
            affine_to_word(e)


class TestPermuted:
    def test_defining_relation(self):
        for m in (2, 3):
            g = GroupSpec(m, m)
            lhs = bsmm_embed(parse_word(f"a^-1 b^{m} a"), g)
            rhs = bsmm_embed(parse_word(f"b^{m}"), g)
            assert lhs == rhs

    def test_a_and_b_do_not_commute(self):
        g = GroupSpec(2, 2)
        assert bsmm_embed(parse_word("a b"), g) != bsmm_embed(parse_word("b a"), g)

    def test_embed_is_homomorphism(self):
        rng = random.Random(37)
        for g in (GroupSpec(2, 2), GroupSpec(3, 3)):
            for _ in range(150):
                u, v = random_word(rng), random_word(rng)
                assert bsmm_embed(multiply(u, v), g) == \
                    bsmm_embed(u, g) * bsmm_embed(v, g)

    def test_sigma_has_order_m(self):
        w = FreeWord.generator(1) * FreeWord.generator(2, -1)
        assert w.shift(3, 3) == w
        assert w.shift(1, 3) != w

    def test_inverse(self):
        rng = random.Random(41)
        g = GroupSpec(3, 3)
        for _ in range(100):
            x = bsmm_embed(random_word(rng), g)
            assert x * x.inverse() == PermutedProduct.identity(3)

    def test_to_word_round_trip(self):
        rng = random.Random(43)
        g = GroupSpec(2, 2)
        for _ in range(100):
            w = random_word(rng)
            e = bsmm_embed(w, g)
            assert are_equal(permuted_to_word(e), w, g)

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            bsmm_embed(Word(), GroupSpec(2, 3))
        with pytest.raises(WrongFamily):
            bsmm_embed(Word(), GroupSpec(1, 1))


class TestKlein:
    def test_defining_relation(self):
        g = GroupSpec(1, -1)
        assert klein_embed(parse_word("a^-1 b a"), g) == \
            klein_embed(parse_word("b^-1"), g)

    def test_multiplication_rule(self):
        assert KleinElement(1, 1) * KleinElement(1, 0) == KleinElement(0, 1)
        assert KleinElement(1, 2) * KleinElement(1, 0) == KleinElement(2, 2)

    def test_embed_is_bijective_on_box(self):
        g = GroupSpec(1, -1)
        seen = set()
        for u in range(-3, 4):
            for v in range(-3, 4):
                e = klein_embed(klein_to_word(KleinElement(u, v)), g)
                assert e == KleinElement(u, v)
                seen.add((e.u, e.v))
        assert len(seen) == 49

    def test_sign_variant_accepted(self):
        g = GroupSpec(-1, 1)
        assert klein_embed(parse_word("a"), g) == KleinElement(0, 1)


class TestDispatch:
    def test_families(self):
        assert model_family(GroupSpec(1, 5)) == AFFINE
        assert model_family(GroupSpec(-1, 3)) == AFFINE
        assert model_family(GroupSpec(4, 4)) == PERMUTED
        assert model_family(GroupSpec(1, -1)) == KLEIN
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
