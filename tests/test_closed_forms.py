"""Closed-form kappa scale and power constraint against the searches they
replaced, and the checker on kappa certificates.

The references are the sampled versions: the kappa scale checked on the
kernel generators g_i = a^-i b a^i for |i| <= 8, and the power constraint
as a loop over the range with Fraction powers.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bstwist.errors import NotInKernel, RelationViolated
from bstwist.homs import EndoSpec, endo_apply, endo_validate, kappa, kappa_scale
from bstwist.reidemeister import (
    INV_KAPPA, Certificate, certify_infinite, check_certificate,
    coincidence_certify, power_constraint,
)
from bstwist.words import A, B, GroupSpec, exp_sum, invert, multiply, parse_word, word

from test_homs import kernel_generator

# negative m or n, m = n, m = -n, B(1,n) and the Klein bottle group B(1,-1)
GROUPS = tuple(GroupSpec(m, n) for m, n in (
    (2, 3), (-2, 3), (2, -3), (3, -5), (2, 4), (2, 2), (-3, -3), (2, -2),
    (-3, 3), (1, 2), (1, -2), (-1, 3), (1, -1)))


def _ref_kappa_scale(spec):
    ratio = Fraction(spec.group.n, spec.group.m)
    d = None
    for i in range(-8, 9):
        value = kappa(endo_apply(spec, kernel_generator(i)), spec.group)
        expected_unit = ratio ** i
        if d is None:
            d = value / expected_unit
        elif value != d * expected_unit:
            return None
    return d


def _ref_power_constraint(m, n, k_range):
    lo, hi = k_range
    return {k for k in range(lo, hi + 1)
            if Fraction(n) ** (k - 1) == Fraction(m) ** (k - 1)}


def _conjugate(g, w):
    return multiply(multiply(g, w), invert(g))


short_words = st.lists(st.tuples(st.sampled_from((A, B)), st.integers(-2, 2)),
                       max_size=3).map(word)
# a -> a^i b^l, b -> b^j, valid on some groups and not on others
base_images = st.tuples(st.integers(-3, 4), st.integers(-2, 2),
                        st.integers(-3, 3)).map(
    lambda t: (word([(A, t[0]), (B, t[1])]), word([(B, t[2])])))
# any a-image and any b-image in the kernel, mostly invalid
free_images = st.tuples(short_words, short_words).map(
    lambda t: (t[0], multiply(t[1], word([(A, -exp_sum(t[1], A))]))))


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(GROUPS),
       images=st.one_of(base_images, free_images), g=short_words)
@example(group=GroupSpec(3, -3), images=(word([(A, 3)]), word([(B, 1)])),
         g=word([]))
@example(group=GroupSpec(2, -2), images=(word([(A, 2)]), word([(B, 1)])),
         g=word([(B, 1), (A, 1)]))
def test_kappa_scale_matches_window(group, images, g):
    spec = EndoSpec(group, _conjugate(g, images[0]), _conjugate(g, images[1]))
    scale = kappa_scale(spec)
    assert scale == _ref_kappa_scale(spec)
    try:
        data = endo_validate(spec)
    except RelationViolated:
        return
    assert data.kappa_scale == scale
    assert scale is not None  # the relator forces a single scale
    ratio = Fraction(group.n, group.m)
    for i in (-13, 11):  # outside the old window
        assert kappa(endo_apply(spec, kernel_generator(i)), group) == scale * ratio ** i


@settings(max_examples=30, deadline=None)
@given(group=st.sampled_from(GROUPS), image_a=short_words, g=short_words,
       a_sum=st.integers(1, 3))
def test_kappa_scale_outside_kernel_raises_like_window(group, image_a, g, a_sum):
    spec = EndoSpec(group, image_a, _conjugate(g, word([(B, 1), (A, a_sum)])))
    with pytest.raises(NotInKernel):
        kappa_scale(spec)
    with pytest.raises(NotInKernel):
        _ref_kappa_scale(spec)


nonzero = st.integers(-6, 6).filter(bool)


@settings(max_examples=300, deadline=None)
@given(m=nonzero, n=nonzero, lo=st.integers(-40, 40), hi=st.integers(-40, 40))
@example(m=2, n=-2, lo=1, hi=1)
@example(m=3, n=5, lo=1, hi=1)
@example(m=-4, n=4, lo=-7, hi=-7)
@example(m=5, n=5, lo=3, hi=-3)
def test_power_constraint_matches_loop(m, n, lo, hi):
    assert power_constraint(m, n, (lo, hi)) == _ref_power_constraint(m, n, (lo, hi))


def test_power_constraint_rejects_zero_n():
    with pytest.raises(ValueError):
        power_constraint(2, 0, (0, 1))


def _endo(group, a_text, b_text):
    return EndoSpec(group, parse_word(a_text), parse_word(b_text))


class TestKappaCertificate:
    # (group, certified map, map with kappa(phi(b)) != 1, map with
    # (n/m)^(k-1) != 1); the last is invalid, the checker must still refuse
    CASES = [
        (GroupSpec(3, -3), ("a^3", "b"), ("a^3", "b^3"), ("a^2", "b")),
        (GroupSpec(2, 2), ("a^2 b", "b"), ("a^2 b", "b^-1"), None),
        (GroupSpec(1, -1), ("a^3", "b"), ("a^3", "b^-1"), ("a^2", "b")),
    ]

    @pytest.mark.parametrize("group, good, off_scale, off_power", CASES)
    def test_certified_and_checked(self, group, good, off_scale, off_power):
        spec = _endo(group, *good)
        cert = certify_infinite(spec).certificate
        assert cert.invariant == INV_KAPPA
        assert cert.scale_checks["kappa(phi(b))"] == "1"
        assert cert.scale_checks["(n/m)^(k-1) of phi"] == "1"
        assert check_certificate(cert, spec)
        assert not check_certificate(cert, _endo(group, *off_scale))
        if off_power is not None:
            assert not check_certificate(cert, _endo(group, *off_power))

    @pytest.mark.parametrize("group, good, off_scale, off_power", CASES)
    def test_tampered_values_rejected(self, group, good, off_scale, off_power):
        spec = _endo(group, *good)
        cert = certify_infinite(spec).certificate
        values = list(cert.values)
        values[3] = str(Fraction(values[3]) + 1)
        bad = Certificate(cert.invariant, cert.target, cert.scale_checks,
                          cert.witness_base, cert.witness_step,
                          cert.first_witnesses, tuple(values))
        assert not check_certificate(bad, spec)

    def test_map_outside_kernel_rejected(self):
        group = GroupSpec(2, 2)
        cert = certify_infinite(_endo(group, "a^2 b", "b")).certificate
        assert not check_certificate(cert, _endo(group, "a^2 b", "a b a^-2"))

    def test_coincidence_pair(self):
        group = GroupSpec(2, -2)
        phi, psi = _endo(group, "a^3", "b"), _endo(group, "a", "b")
        # k = 3 and k = 1 differ, both kappa scales are 1; the a-sum entry
        # needs k = 1 for both
        cert = coincidence_certify(phi, psi).certificate
        assert cert.invariant == INV_KAPPA
        assert check_certificate(cert, phi, psi)
        assert not check_certificate(cert, phi, _endo(group, "a", "b^-1"))
