"""One certificate catalog for R(phi) and R(phi, psi), against the two
separate searches it replaced, and the checker on non-endomorphisms.

The references are the earlier `certify_infinite`, `coincidence_certify`
and `check_certificate`, kept here as test-local copies with their
certificate builders (witnesses through `words.power`) and attempt texts.
"""

import functools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bstwist.errors import GroupMismatch, RelationViolated, UnsupportedGroup
from bstwist.homs import EndoSpec, endo_validate, kappa
from bstwist.reidemeister import (
    INV_A_SUM, INV_B_SUM, INV_KAPPA, Certificate, ReidemeisterOutcome,
    certify_infinite, check_certificate, coincidence_certify,
)
from bstwist.words import (
    A, B, GroupSpec, exp_sum, format_word, invert, multiply, parse_word, power,
    word,
)

from test_closed_forms import GROUPS
from test_homs import identity_spec

CATALOG_GROUPS = GROUPS + (GroupSpec(1, 1), GroupSpec(-1, -1))


# ---------------------------------------------------------------------------
# Reference: the two searches and the checker before they shared one catalog


def _ref_certificate(invariant, target, checks, step, value):
    witnesses = [power(step, j) for j in range(10)]
    return Certificate(invariant, target, checks, "1", format_word(step),
                       tuple(format_word(w) for w in witnesses),
                       tuple(str(value(w)) for w in witnesses))


def _ref_a_sum(specs):
    checks = {}
    for tag, spec in zip(("phi", "psi"), specs):
        checks[f"|{tag}(a)|_a"] = exp_sum(spec.image_a, A)
        checks[f"|{tag}(b)|_a"] = exp_sum(spec.image_b, A)
    return _ref_certificate(INV_A_SUM, "Z, the a-exponent quotient", checks,
                            word([(A, 1)]), lambda w: exp_sum(w, A))


def _ref_b_sum(specs):
    checks = {}
    for tag, spec in zip(("phi", "psi"), specs):
        checks[f"|{tag}(a)|_b"] = exp_sum(spec.image_a, B)
        checks[f"|{tag}(b)|_b"] = exp_sum(spec.image_b, B)
    return _ref_certificate(INV_B_SUM, "Z, the b-exponent quotient (m = n)",
                            checks, word([(B, 1)]), lambda w: exp_sum(w, B))


def _ref_kappa(group, data):
    ratio = Fraction(group.n, group.m)
    checks = {}
    for tag, induced in zip(("phi", "psi"), data):
        checks[f"k of {tag}"] = induced.k
        checks[f"kappa({tag}(b))"] = str(induced.kappa_scale)
        checks[f"(n/m)^(k-1) of {tag}"] = str(ratio ** (induced.k - 1))
    return _ref_certificate(INV_KAPPA,
                            f"Q via kappa(g_i) = ({group.n}/{group.m})^i on K",
                            checks, word([(B, 1)]), lambda w: kappa(w, group))


def _ref_attempts(specs, data):
    """The attempt texts for maps that no entry certifies, written as the
    catalog wrote them from the maps' `endo_validate` fields before each
    invariant had one shared rule."""
    group, tags = specs[0].group, ("phi", "psi")
    attempts = [f"{INV_A_SUM}: needs k = 1 and |x(b)|_a = 0, got " + ", ".join(
        f"k of {tag} = {d.k}, |{tag}(b)|_a = {exp_sum(s.image_b, A)}"
        for tag, d, s in zip(tags, data, specs))]
    if group.m == group.n:
        attempts.append(
            f"{INV_B_SUM}: needs (|x(b)|_b, |x(a)|_b) = (1, 0), got " + ", ".join(
                f"({exp_sum(s.image_b, B)}, {exp_sum(s.image_a, B)}) for {tag}"
                for tag, s in zip(tags, specs)))
    else:
        attempts.append(f"{INV_B_SUM}: only applies when m = n")
    ks = [d.k for d in data] + [1] * (2 - len(data))
    if all(d.kernel_preserved for d in data) and ks[0] != ks[1]:
        attempts.append(f"{INV_KAPPA}: needs scale d = 1, got " + ", ".join(
            f"d = {d.kappa_scale} for {tag}" for tag, d in zip(tags, data)))
    else:
        attempts.append(f"{INV_KAPPA}: needs kernels preserved and k of phi "
                        "!= k of psi (psi = id has k = 1) to pin twisting into K")
    return attempts


def _ref_certify_infinite(spec):
    group = spec.group
    if group.m * group.n == 1:
        raise UnsupportedGroup(str(group))
    data = endo_validate(spec)
    if data.k == 1 and data.kernel_preserved:
        return ReidemeisterOutcome.infinite(_ref_a_sum([spec]))
    if group.m == group.n:
        if exp_sum(spec.image_b, B) == 1 and exp_sum(spec.image_a, B) == 0:
            return ReidemeisterOutcome.infinite(_ref_b_sum([spec]))
    if data.kernel_preserved and data.k != 1 and data.kappa_scale == 1:
        return ReidemeisterOutcome.infinite(_ref_kappa(group, [data]))
    return ReidemeisterOutcome.unknown(_ref_attempts([spec], [data]))


def _ref_coincidence_certify(phi, psi):
    if phi.group != psi.group:
        raise GroupMismatch(f"{phi.group} vs {psi.group}")
    group = phi.group
    if group.m * group.n == 1:
        raise UnsupportedGroup(str(group))
    data_phi = endo_validate(phi)
    data_psi = endo_validate(psi)
    if (data_phi.k == 1 and data_psi.k == 1
            and data_phi.kernel_preserved and data_psi.kernel_preserved):
        return ReidemeisterOutcome.infinite(_ref_a_sum([phi, psi]))
    if group.m == group.n:
        if all(exp_sum(s.image_b, B) == 1 and exp_sum(s.image_a, B) == 0
               for s in (phi, psi)):
            return ReidemeisterOutcome.infinite(_ref_b_sum([phi, psi]))
    if (data_phi.kernel_preserved and data_psi.kernel_preserved
            and data_phi.k != data_psi.k
            and data_phi.kappa_scale == 1 and data_psi.kappa_scale == 1):
        return ReidemeisterOutcome.infinite(
            _ref_kappa(group, [data_phi, data_psi]))
    return ReidemeisterOutcome.unknown(
        _ref_attempts([phi, psi], [data_phi, data_psi]))


def _ref_check_certificate(cert, phi, psi=None):
    """The checker without the relator test: it trusts the specs.  Its
    `scale_checks` and `target` must be those the reference builders give
    the specs."""
    group = phi.group
    specs = [phi] + ([psi] if psi is not None else [])
    witnesses = [parse_word(text, group) for text in cert.first_witnesses]
    if cert.invariant == INV_A_SUM:
        if any(exp_sum(s.image_a, A) != 1 or exp_sum(s.image_b, A) != 0
               for s in specs):
            return False
        ref = _ref_a_sum(specs)
        values = [exp_sum(w, A) for w in witnesses]
    elif cert.invariant == INV_B_SUM:
        if group.m != group.n or any(
                exp_sum(s.image_b, B) != 1 or exp_sum(s.image_a, B) != 0
                for s in specs):
            return False
        ref = _ref_b_sum(specs)
        values = [exp_sum(w, B) for w in witnesses]
    elif cert.invariant == INV_KAPPA:
        ratio = Fraction(group.n, group.m)
        ks = [exp_sum(s.image_a, A) for s in specs]
        for s, k in zip(specs, ks):
            if (exp_sum(s.image_b, A) != 0 or kappa(s.image_b, group) != 1
                    or ratio ** (k - 1) != 1):
                return False
        if (ks[0] == 1) if len(ks) == 1 else (ks[0] == ks[1]):
            return False
        ref = _ref_kappa(group, [SimpleNamespace(k=k, kappa_scale=Fraction(1))
                                 for k in ks])
        values = [kappa(w, group) for w in witnesses]
    else:
        return False
    return (cert.scale_checks == ref.scale_checks and cert.target == ref.target
            and [str(v) for v in values] == list(cert.values)
            and len(set(values)) == len(values))


# ---------------------------------------------------------------------------
# Strategies: conjugated base maps, valid on some groups and not on others


def _conjugate(g, w):
    return multiply(multiply(g, w), invert(g))


short_words = st.lists(st.tuples(st.sampled_from((A, B)), st.integers(-2, 2)),
                       max_size=3).map(word)
# a -> a^i b^l, b -> b^j or a kernel word that is rarely valid but passes
# the exponent-sum and kappa tests (kappa(b^2 a b a^-1) = 1 on B(3,-3))
B_IMAGES = [word([(B, j)]) for j in range(-2, 3)] + [
    parse_word("b a b a^-1"), parse_word("b^2 a b a^-1")]
BASE_GRID = [(word([(A, i), (B, l)]), image_b)
             for i in range(-2, 4) for l in range(-1, 2) for image_b in B_IMAGES]


@functools.cache
def _valid_bases(group):
    valid = []
    for image_a, image_b in BASE_GRID:
        try:
            endo_validate(EndoSpec(group, image_a, image_b))
        except RelationViolated:
            continue
        valid.append((image_a, image_b))
    return valid


@st.composite
def specs_on(draw, group):
    """A base map, valid on `group` two times in three, conjugated by a
    short word."""
    valid = _valid_bases(group)
    pool = valid if valid and draw(st.integers(0, 2)) else BASE_GRID
    image_a, image_b = draw(st.sampled_from(pool))
    g = draw(short_words)
    return EndoSpec(group, _conjugate(g, image_a), _conjugate(g, image_b))


def _endo(group, a_text, b_text):
    return EndoSpec(group, parse_word(a_text), parse_word(b_text))


def _run(search, *specs):
    """(outcome, None) or (None, exception type)."""
    try:
        return search(*specs), None
    except Exception as exc:  # the exception type is compared
        return None, type(exc)


def _assert_same(specs, got, want):
    (outcome, error), (ref_outcome, ref_error) = got, want
    assert error == ref_error
    if error is not None:
        return
    assert outcome.kind == ref_outcome.kind
    assert outcome.as_dict() == ref_outcome.as_dict()
    if outcome.kind == "infinite":
        assert check_certificate(outcome.certificate, *specs)
        assert _ref_check_certificate(ref_outcome.certificate, *specs)
    else:
        assert len(outcome.attempts) == 3


# every catalog entry and refusal, for a single map and for a pair
CASES = [
    (GroupSpec(2, 3), ("a", "b^2"), None),
    (GroupSpec(2, 2), ("a^2", "b"), None),
    (GroupSpec(2, 2), ("a^2 b", "b"), None),
    (GroupSpec(3, -3), ("a^3", "b"), None),
    (GroupSpec(1, -1), ("a^-1", "b^-1"), None),
    (GroupSpec(1, 2), ("a^2", "1"), None),
    (GroupSpec(1, 1), ("a", "b"), None),
    (GroupSpec(2, 3), ("a", "b a b a^-1"), None),
    (GroupSpec(3, -3), ("a^3", "b^2 a b a^-1"), None),
    (GroupSpec(2, 3), ("a", "b^2"), ("a", "b^3")),
    (GroupSpec(2, 2), ("a^2", "b"), ("a^-1", "b")),
    (GroupSpec(2, 2), ("a^2", "b"), ("a", "b^-1")),
    (GroupSpec(2, -2), ("a^3", "b"), ("a", "b")),
    (GroupSpec(2, -2), ("a^3", "b"), ("a^3", "b")),
    (GroupSpec(2, 2), ("a^2 b", "b"), ("a", "b^-1")),
    (GroupSpec(1, 1), ("a", "b"), ("a", "b")),
    (GroupSpec(2, 3), ("a", "b^2"), ("a", "b a b a^-1")),
]


@pytest.mark.parametrize("group, phi, psi", CASES)
def test_cases_match_reference(group, phi, psi):
    specs = [_endo(group, *phi)] + ([_endo(group, *psi)] if psi else [])
    if psi is None:
        _assert_same(specs, _run(certify_infinite, *specs),
                     _run(_ref_certify_infinite, *specs))
    else:
        _assert_same(specs, _run(coincidence_certify, *specs),
                     _run(_ref_coincidence_certify, *specs))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), group=st.sampled_from(CATALOG_GROUPS))
def test_single_matches_reference(data, group):
    spec = data.draw(specs_on(group))
    _assert_same([spec], _run(certify_infinite, spec),
                 _run(_ref_certify_infinite, spec))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), group=st.sampled_from(CATALOG_GROUPS))
def test_pair_matches_reference(data, group):
    phi, psi = data.draw(specs_on(group)), data.draw(specs_on(group))
    _assert_same([phi, psi], _run(coincidence_certify, phi, psi),
                 _run(_ref_coincidence_certify, phi, psi))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), group=st.sampled_from(CATALOG_GROUPS))
def test_single_map_is_pair_with_identity(data, group):
    """R(phi) = R(phi, id): the same outcome kind and invariant."""
    phi, identity = data.draw(specs_on(group)), identity_spec(group)
    (single, error) = _run(certify_infinite, phi)
    (pair, pair_error) = _run(coincidence_certify, phi, identity)
    assert error == pair_error
    if error is not None:
        return
    assert single.kind == pair.kind
    if single.kind == "infinite":
        assert single.certificate.invariant == pair.certificate.invariant
        assert check_certificate(single.certificate, phi)
        assert check_certificate(pair.certificate, phi, identity)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), group=st.sampled_from(GROUPS))
def test_checker_is_reference_on_endomorphisms(data, group):
    """A certificate moved to other maps: the checker agrees with the
    reference exactly when every map is an endomorphism, and refuses
    otherwise."""
    source = data.draw(specs_on(group))
    targets = [data.draw(specs_on(group))
               for _ in range(data.draw(st.integers(1, 2)))]
    try:
        endo_validate(source)
    except RelationViolated:
        return
    outcome = certify_infinite(source)
    if outcome.kind != "infinite":
        return
    verdict = check_certificate(outcome.certificate, *targets)
    try:
        for spec in targets:
            endo_validate(spec)
    except RelationViolated:
        assert verdict is False
        return
    assert verdict == _ref_check_certificate(outcome.certificate, *targets)


# ---------------------------------------------------------------------------
# The witness family: closed form against the word-by-word builder


def _wordwise_certificate(invariant, target, checks, letter, value):
    """Reference: the family letter^j, j < 10, built, formatted and
    evaluated word by word."""
    witnesses = [word([(letter, j)]) for j in range(10)]
    return Certificate(invariant=invariant, target=target, scale_checks=checks,
                       witness_base="1", witness_step=letter,
                       first_witnesses=tuple(format_word(w) for w in witnesses),
                       values=tuple(str(value(w)) for w in witnesses))


def _assert_wordwise(cert, group):
    """The emitted certificate equals the word-by-word one field for field."""
    letter = A if cert.invariant == INV_A_SUM else B
    value = ((lambda w: kappa(w, group)) if cert.invariant == INV_KAPPA
             else (lambda w: exp_sum(w, letter)))
    assert cert == _wordwise_certificate(cert.invariant, cert.target,
                                         cert.scale_checks, letter, value)


def test_catalog_families_match_wordwise_builder():
    """Every catalog entry, for single maps and pairs; the drawn maps of
    the tests above compare the same fields with `_ref_certificate`."""
    kinds = set()
    for group, phi, psi in CASES:
        specs = [_endo(group, *phi)] + ([_endo(group, *psi)] if psi else [])
        outcome, _ = _run(coincidence_certify if psi else certify_infinite, *specs)
        if outcome is not None and outcome.kind == "infinite":
            _assert_wordwise(outcome.certificate, group)
            kinds.add((outcome.certificate.invariant, len(specs)))
    assert kinds == {(inv, n) for inv in (INV_A_SUM, INV_B_SUM, INV_KAPPA)
                     for n in (1, 2)}


class TestCheckerRejectsNonEndomorphisms:
    def test_a_sum_certificate(self):
        group = GroupSpec(2, 3)
        cert = certify_infinite(_endo(group, "a", "b^2")).certificate
        assert cert.invariant == INV_A_SUM
        # |.|_a is fixed, but b^m is not sent to a conjugate of b^n
        assert not check_certificate(cert, _endo(group, "a", "b a b a^-1"))

    def test_kappa_certificate(self):
        group = GroupSpec(3, -3)
        cert = certify_infinite(_endo(group, "a^3", "b")).certificate
        assert cert.invariant == INV_KAPPA
        # kappa(b^2 a b a^-1) = 2 - 1 = 1 and (n/m)^(k-1) = 1, yet invalid
        assert not check_certificate(cert, _endo(group, "a^3", "b^2 a b a^-1"))

    def test_pair_with_invalid_psi(self):
        group = GroupSpec(2, 3)
        phi = _endo(group, "a", "b^2")
        cert = coincidence_certify(phi, identity_spec(group)).certificate
        assert check_certificate(cert, phi, identity_spec(group))
        assert not check_certificate(cert, phi, _endo(group, "a", "b a b a^-1"))

    def test_pair_on_another_group(self):
        group = GroupSpec(2, 3)
        phi = _endo(group, "a", "b^2")
        cert = certify_infinite(phi).certificate
        assert not check_certificate(cert, phi, identity_spec(GroupSpec(1, 2)))
