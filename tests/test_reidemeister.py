"""Infinitude certificates, coincidence, ball enumeration, power constraint."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bstwist import reidemeister
from bstwist.errors import (
    BoxTooSmall, GroupMismatch, NotInKernel, RelationViolated,
    UnsupportedGroup, WordSyntaxError,
)
from bstwist.homs import EndoSpec, endo_apply, inner_by, kappa
from bstwist.reidemeister import (
    INV_A_SUM, INV_B_SUM, INV_KAPPA, Certificate, certify_infinite,
    check_certificate, coincidence_certify, enumerate_classes_ball,
    power_constraint, witnesses_stay_separated,
)
from bstwist.words import (
    A, GroupSpec, britton_reduce, format_word, multiply, parse_word, relator, word,
)

from test_homs import identity_spec


def endo(m, n, a_text, b_text):
    return EndoSpec(GroupSpec(m, n), parse_word(a_text), parse_word(b_text))


class TestCertifyInfinite:
    def test_a_sum_route(self):
        outcome = certify_infinite(endo(2, 3, "a", "b^2"))
        assert outcome.kind == "infinite"
        assert outcome.certificate.invariant == INV_A_SUM
        assert check_certificate(outcome.certificate, endo(2, 3, "a", "b^2"))

    def test_b_sum_route(self):
        # a -> a^2, b -> b on B(2,2): k = 2 blocks |.|_a, |.|_b applies
        spec = endo(2, 2, "a^2", "b")
        outcome = certify_infinite(spec)
        assert outcome.kind == "infinite"
        assert outcome.certificate.invariant == INV_B_SUM
        assert check_certificate(outcome.certificate, spec)

    def test_kappa_route(self):
        # on B(2,-2), a -> a^3, b -> b has k = 3 and kappa scale 1; the
        # b-sum needs m = n, so kappa is the only entry that fires
        spec = endo(2, -2, "a^3", "b")
        outcome = certify_infinite(spec)
        assert outcome.kind == "infinite"
        assert outcome.certificate.invariant == INV_KAPPA
        assert check_certificate(outcome.certificate, spec)

    def test_unknown_records_attempts(self):
        # a -> a^2, b -> 1 on B(1,2): valid, k = 2, kappa scale 0; no route
        outcome = certify_infinite(endo(1, 2, "a^2", "1"))
        assert outcome.kind == "unknown"
        assert outcome.attempts == (
            f"{INV_A_SUM}: needs k = 1 and |x(b)|_a = 0, got k of phi = 2, "
            "|phi(b)|_a = 0",
            f"{INV_B_SUM}: only applies when m = n",
            f"{INV_KAPPA}: needs scale d = 1, got d = 0 for phi",
        )

    def test_never_finite(self):
        for spec in (endo(2, 3, "a", "b"), endo(1, 2, "a^2", "1"),
                     endo(3, 3, "a^2", "b")):
            assert certify_infinite(spec).kind != "finite"

    def test_refuses_b11(self):
        # B(-1,-1) = <a, b | a^-1 b^-1 a = b^-1> is Z + Z as B(1,1) is:
        # a -> a^2 b, b -> a b has R = 1 there, and a -> a, b -> b^2 would
        # otherwise get an a-sum certificate
        for m in (1, -1):
            for a_text, b_text in (("a", "b"), ("a^2 b", "a b"), ("a", "b^2")):
                with pytest.raises(UnsupportedGroup, match=rf"^B\({m},{m}\) = Z \+ Z"):
                    certify_infinite(endo(m, m, a_text, b_text))

    def test_inner_twists_certified(self):
        g = GroupSpec(2, 3)
        spec = inner_by(g, parse_word("a b"))
        outcome = certify_infinite(spec)
        assert outcome.kind == "infinite"


class TestCheckCertificate:
    def test_rejects_tampered_values(self):
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        bad = Certificate(cert.invariant, cert.target, cert.scale_checks,
                          cert.witness_base, cert.witness_step,
                          cert.first_witnesses,
                          ("0",) * len(cert.values))
        assert not check_certificate(bad, spec)

    def test_rejects_wrong_spec(self):
        cert = certify_infinite(endo(2, 3, "a", "b^2")).certificate
        # a-sum certificate is unsound for a map with k != 1
        assert not check_certificate(cert, endo(1, 2, "a^2", "1"))

    def test_rejects_unknown_invariant(self):
        cert = certify_infinite(endo(2, 3, "a", "b^2")).certificate
        fake = Certificate("made-up", cert.target, cert.scale_checks,
                           cert.witness_base, cert.witness_step,
                           cert.first_witnesses, cert.values)
        assert not check_certificate(fake, endo(2, 3, "a", "b^2"))

    def test_rejects_unparsable_witness(self):
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        bad = replace(cert, first_witnesses=("x",) + cert.first_witnesses[1:])
        assert not check_certificate(bad, spec)

    def test_rejects_unparsable_witness_family(self):
        spec = endo(2, 3, "a", "b")
        cert = certify_infinite(spec).certificate
        for base, step in (("zz", "x"), ("1", "x"), ("zz", "a")):
            bad = replace(cert, witness_base=base, witness_step=step)
            assert not check_certificate(bad, spec)

    def test_rejects_witnesses_outside_the_named_family(self):
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        for base, step in (("b", "a"), ("1", "a^2"), ("1", "b"), ("a", "1")):
            assert not check_certificate(
                replace(cert, witness_base=base, witness_step=step), spec)

    def test_accepts_the_family_in_another_spelling(self):
        # the family is compared as freely reduced words, not as text
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        assert check_certificate(
            replace(cert, witness_base="b B", witness_step="a^2 b B a^-1"), spec)

    def test_rejects_fewer_than_two_witnesses(self):
        # no witness, or one whose step does not move lam: nothing shows
        # that lam(step) != 0, so the family need not be infinite
        spec = endo(2, 3, "a", "b^2")
        assert not check_certificate(
            Certificate(INV_A_SUM, "Z", {}, "1", "a", (), ()), spec)
        assert not check_certificate(
            Certificate(INV_A_SUM, "Z", {}, "1", "b", ("1",), ("0",)), spec)

    # (single maps or pairs) certified by each catalog entry
    CERTIFIED = [
        (endo(2, 3, "a", "b^2"),),
        (endo(2, 2, "a^2", "b"),),
        (endo(3, -3, "a^3", "b"),),
        (endo(2, 3, "a", "b^2"), endo(2, 3, "a b", "b^2")),
        (endo(2, 2, "a^2", "b"), endo(2, 2, "a^-1", "b")),
        (endo(2, -2, "a^3", "b"), endo(2, -2, "a", "b")),
    ]

    @pytest.mark.parametrize("specs", CERTIFIED)
    def test_rejects_scale_checks_other_than_the_identities(self, specs):
        cert = (coincidence_certify if len(specs) == 2 else certify_infinite)(
            *specs).certificate
        assert check_certificate(cert, *specs)
        checks = cert.scale_checks
        first = next(iter(checks))
        for bad in ({**checks, first: 7}, {first: checks[first]},
                    dict(list(checks.items())[1:]),
                    {**checks, "|psi(a)|_c": 1}, {}):
            assert not check_certificate(replace(cert, scale_checks=bad), *specs)

    @pytest.mark.parametrize("specs", CERTIFIED)
    def test_rejects_another_catalog_name(self, specs):
        # each name selects its own rule: relabelled, every other field of
        # the certificate is still the one its own rule gave
        cert = (coincidence_certify if len(specs) == 2 else certify_infinite)(
            *specs).certificate
        assert check_certificate(cert, *specs)
        others = {INV_A_SUM, INV_B_SUM, INV_KAPPA} - {cert.invariant}
        assert len(others) == 2
        for name in others:
            assert not check_certificate(replace(cert, invariant=name), *specs)

    @pytest.mark.parametrize("specs", CERTIFIED)
    def test_rejects_a_target_its_invariant_does_not_name(self, specs):
        cert = (coincidence_certify if len(specs) == 2 else certify_infinite)(
            *specs).certificate
        for bad in ("anything", "", cert.target + " "):
            assert not check_certificate(replace(cert, target=bad), *specs)

    def test_rejects_forged_a_sum_fields(self):
        # |.|_a is fixed and the witnesses are right, but the stated
        # identity and target are not the ones checked
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        assert not check_certificate(
            replace(cert, scale_checks={"|phi(a)|_a": 7}), spec)
        assert not check_certificate(replace(cert, target="anything"), spec)

    def test_b_sum_certificate_needs_m_equal_n(self):
        # a -> a^-1, b -> b is an endomorphism of B(2,2), B(2,-2) and
        # B(1,-1), and fixes |.|_b on each, but |.|_b is a homomorphism
        # only on B(2,2): elsewhere the catalog gives kappa, and the
        # B(2,2) certificate is refused
        cert = certify_infinite(endo(2, 2, "a^-1", "b")).certificate
        assert cert.invariant == INV_B_SUM
        for m, n in ((2, -2), (1, -1)):
            spec = endo(m, n, "a^-1", "b")
            assert certify_infinite(spec).certificate.invariant == INV_KAPPA
            assert not check_certificate(cert, spec)

    def test_golden_certificate_accepted(self):
        golden = Path(__file__).parent / "golden" / "certificate.json"
        fields = json.loads(golden.read_text())["certificate"]
        cert = Certificate(**{key: tuple(value) if isinstance(value, list) else value
                              for key, value in fields.items()})
        spec = endo(2, 3, "a", "b^2")
        assert certify_infinite(spec).certificate == cert
        assert check_certificate(cert, spec)

    def test_rejects_kappa_witness_off_the_kernel(self, monkeypatch):
        spec = endo(3, -3, "a^3", "b")
        cert = certify_infinite(spec).certificate
        assert cert.invariant == INV_KAPPA
        # a witness a against base 1 fails the family check
        bad = replace(cert, first_witnesses=("a",) + cert.first_witnesses[1:])
        assert not check_certificate(bad, spec)
        # base a and the consistent family a b^j pass every family check,
        # so the checker evaluates kappa on a, off K, and refutes there
        off_k = replace(cert, witness_base="a", first_witnesses=("a", "a b") + tuple(
            f"a b^{j}" for j in range(2, len(cert.first_witnesses))))
        raised = []

        def recording_kappa(w, group):
            try:
                return kappa(w, group)
            except NotInKernel:
                raised.append(format_word(w))
                raise

        monkeypatch.setattr(reidemeister, "kappa", recording_kappa)
        assert not check_certificate(off_k, spec)
        assert raised == ["a"]
        assert check_certificate(cert, spec)


    def test_each_witness_family_is_parsed_once(self, monkeypatch):
        # two maps on two groups with one family: its twelve texts (ten
        # witnesses, base and step) are parsed once over four checks
        specs = endo(2, 3, "a", "b^2"), endo(3, 5, "a", "b")
        certs = [certify_infinite(spec).certificate for spec in specs]
        assert certs[0].first_witnesses == certs[1].first_witnesses
        parsed = _count_parses(monkeypatch)
        for cert, spec in zip(certs, specs):
            assert check_certificate(cert, spec)
            assert check_certificate(cert, spec)
        cert = certs[0]
        assert sorted(parsed) == sorted(
            cert.first_witnesses + (cert.witness_base, cert.witness_step))

    def test_a_refused_family_stays_refused(self, monkeypatch):
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        broken = replace(cert, first_witnesses=("1", "a", "a^3"),
                         values=("0", "1", "3"))
        parsed = _count_parses(monkeypatch)
        assert not check_certificate(broken, spec)
        assert not check_certificate(broken, spec)
        assert len(parsed) == 5
        # an accepted family vouches for its own base and step only
        assert check_certificate(cert, spec)
        for base, step in (("a", "a"), ("1", "b"), ("1", "a^2"), ("1", "A")):
            assert not check_certificate(
                replace(cert, witness_base=base, witness_step=step), spec)
        assert check_certificate(cert, spec)

    def test_list_witnesses_are_checked(self):
        # the shape `as_dict` emits, with lists for tuples
        spec = identity_spec(GroupSpec(1, -1))
        cert = certify_infinite(spec).certificate
        rebuilt = Certificate(**cert.as_dict())
        assert isinstance(rebuilt.first_witnesses, list)
        assert check_certificate(rebuilt, spec)
        assert witnesses_stay_separated(rebuilt, spec)
        assert not check_certificate(
            replace(rebuilt, first_witnesses=["1", "a", "a^3"]), spec)


# ---------------------------------------------------------------------------
# The two-point checker against the per-witness loop


def per_witness_check(cert, phi, psi=None):
    """Test-local oracle: the checker in its per-witness form, with its
    own relator test and lam evaluated on every witness of a family that
    it parses and chains itself."""
    group = phi.group
    specs = [EndoSpec(spec.group, spec.image_a, spec.image_b)
             for spec in (phi, psi) if spec is not None]
    for spec in specs:
        if spec.group != group or britton_reduce(
                endo_apply(spec, relator(group)), group):
            return False
    try:
        witnesses = [parse_word(text) for text in cert.first_witnesses]
        first, factor = parse_word(cert.witness_base), parse_word(cert.witness_step)
    except WordSyntaxError:
        return False
    if len(witnesses) < 2 or witnesses[0] != first or any(
            multiply(prev, factor) != w for prev, w in zip(witnesses, witnesses[1:])):
        return False
    rule = reidemeister._RULES.get(cert.invariant)
    if rule is None:
        return False
    found = rule(group, specs)
    if isinstance(found, str):
        return False
    target, checks, _, lam = found
    if cert.scale_checks != checks or cert.target != target:
        return False
    try:
        values = [lam(w) for w in witnesses]
    except NotInKernel:
        return False
    if [str(v) for v in values] != list(cert.values):
        return False
    return len(set(values)) == len(values)


# (single maps or pairs) that the catalog certifies: every invariant, on
# Klein, B(1,n), B(m,+-m) and B(2,3)
EQUIVALENCE_CASES = [
    (identity_spec(GroupSpec(1, -1)),),
    (endo(1, -1, "a^-1", "b"),),
    (endo(1, -1, "a^3", "b"), endo(1, -1, "a", "b")),
    (endo(1, 2, "a", "b^2"),),
    (endo(1, 3, "a b", "b"), endo(1, 3, "a", "b^2")),
    (endo(1, -2, "a", "b^3"),),
    (endo(2, 2, "a^2", "b"),),
    (endo(2, 2, "a^2", "b"), endo(2, 2, "a^-1", "b")),
    (endo(3, 3, "a^-1", "b"),),
    (endo(2, -2, "a^3", "b"),),
    (endo(2, -2, "a^3", "b"), endo(2, -2, "a", "b")),
    (endo(3, -3, "a^-1", "b"),),
    (endo(2, 3, "a", "b^2"),),
    (inner_by(GroupSpec(2, 3), parse_word("a b")),),
    (endo(2, 3, "a", "b^2"), endo(2, 3, "a b", "b^2")),
]


def _text(syllables, into_k):
    """The text of syllables, closed into K by a last power of a when
    into_k."""
    if into_k:
        syllables = syllables + [("a", -sum(e for x, e in syllables if x == "a"))]
    return " ".join(f"{x}^{e}" for x, e in syllables if e) or "1"


_short_texts = st.builds(
    _text, st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((-2, -1, 1, 2))),
                    max_size=3),
    st.booleans())


def _family(base, step, count):
    """The texts of base * step^j, j < count, as freely reduced words."""
    texts, w, factor = [], parse_word(base), parse_word(step)
    for _ in range(count):
        texts.append(format_word(w))
        w = multiply(w, factor)
    return tuple(texts)


def _refamily(cert, lam, base, step, count):
    """cert with the family base * step^j, j < count, and the values lam
    takes on it, or the stated ones where lam is undefined (off K)."""
    texts = _family(base, step, count)
    try:
        values = tuple(str(lam(parse_word(text))) for text in texts)
    except NotInKernel:
        values = cert.values
    return replace(cert, witness_base=base, witness_step=step,
                   first_witnesses=texts, values=values)


def _respell(text, pair):
    """x x^-1 text for the pair "x x^-1": the word of text, spelled
    otherwise."""
    cancelled = pair if text == "1" else f"{pair} {text}"
    assert parse_word(cancelled) == parse_word(text)
    return cancelled


def _mutate(name, cert, specs, lam, draw):
    """(certificate, specs) after one named change; the comment gives the
    answer both checkers must agree on, where it does not depend on the
    case."""
    count = len(cert.first_witnesses)
    if name == "as emitted":  # accepted
        return cert, specs
    if name == "tampered at j >= 2":  # refused
        j = draw(st.integers(2, count - 1))
        shift = draw(st.sampled_from((-2, -1, 1, 2)))
        values = list(cert.values)
        values[j] = str(Fraction(values[j]) + shift)
        return replace(cert, values=tuple(values)), specs
    if name == "base off K":  # refused for kappa
        return _refamily(cert, lam, "a", cert.witness_step, count), specs
    if name == "step off K":  # refused for kappa
        return _refamily(cert, lam, "1", f"a {cert.witness_step}", count), specs
    if name == "step 1":  # refused: equal values
        return _refamily(cert, lam, cert.witness_base, "1", count), specs
    if name == "respelled":  # accepted
        return replace(cert, witness_base=_respell(cert.witness_base, "a a^-1"),
                       witness_step=_respell(cert.witness_step, "b^-1 b"),
                       first_witnesses=tuple(_respell(text, "a^-2 a^2")
                                             for text in cert.first_witnesses)), specs
    if name == "any family":
        return _refamily(cert, lam, draw(_short_texts), draw(_short_texts),
                         draw(st.integers(2, count))), specs
    if name == "two witnesses":  # accepted
        return replace(cert, first_witnesses=cert.first_witnesses[:2],
                       values=cert.values[:2]), specs
    if name == "not an endomorphism":  # refused
        phi = specs[0]
        bad = EndoSpec(phi.group, phi.image_a, multiply(phi.image_b, word([(A, 1)])))
        return cert, (bad,) + specs[1:]
    assert name == "psi on another group"  # refused
    phi = specs[0]
    other = GroupSpec(phi.group.m + 1, phi.group.n)
    return cert, (phi, EndoSpec(other, phi.image_a, phi.image_b))


EXPECTED = {"as emitted": True, "respelled": True, "two witnesses": True,
            "tampered at j >= 2": False, "step 1": False,
            "not an endomorphism": False, "psi on another group": False}
MUTATIONS = sorted(EXPECTED) + ["base off K", "step off K", "any family"]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(EQUIVALENCE_CASES), name=st.sampled_from(MUTATIONS),
       data=st.data())
def test_two_point_check_agrees_with_the_per_witness_loop(case, name, data):
    # lam is a homomorphism on its domain and the family is base * step^j,
    # so lam at w_0 and w_1 decides every value: both checkers give one
    # answer on every catalog certificate and every change to it
    outcome = (coincidence_certify if len(case) == 2 else certify_infinite)(*case)
    cert = outcome.certificate
    lam = reidemeister._RULES[cert.invariant](case[0].group, list(case))[3]
    mutated, specs = _mutate(name, cert, case, lam, data.draw)
    accepted = check_certificate(mutated, *specs)
    assert accepted == per_witness_check(mutated, *specs)
    if name in EXPECTED:
        assert accepted == EXPECTED[name]
    elif name != "any family" and cert.invariant == INV_KAPPA:
        assert not accepted


def _count_parses(monkeypatch):
    """The texts the witness-family cache parses from here on, starting
    from an empty cache."""
    parsed = []

    def counting_parse(text, group=None):
        parsed.append(text)
        return parse_word(text, group)

    reidemeister._witness_family.cache_clear()
    monkeypatch.setattr(reidemeister, "parse_word", counting_parse)
    return parsed


class TestCoincidence:
    def test_pairs_on_b23(self):
        phi = endo(2, 3, "a", "b^2")
        psi = endo(2, 3, "a b", "b^2")
        outcome = coincidence_certify(phi, psi)
        assert outcome.kind == "infinite"
        assert outcome.certificate.invariant == INV_A_SUM
        assert check_certificate(outcome.certificate, phi, psi)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            coincidence_certify(endo(2, 3, "a", "b^2"), endo(1, 2, "a", "b^2"))

    def test_refuses_both_copies_of_z2(self):
        for m in (1, -1):
            phi, psi = endo(m, m, "a^2 b", "a b"), endo(m, m, "a", "b^2")
            with pytest.raises(UnsupportedGroup, match=rf"^B\({m},{m}\) = "):
                coincidence_certify(phi, psi)

    def test_kappa_needs_distinct_k(self):
        # equal k != 1 on both: the kappa route must not fire
        phi = endo(2, -2, "a^3", "b")
        outcome = coincidence_certify(phi, phi)
        assert outcome.kind == "unknown"
        assert outcome.attempts[-1] == (
            f"{INV_KAPPA}: needs kernels preserved and k of phi != k of psi "
            "(psi = id has k = 1) to pin twisting into K")


class TestPowerConstraint:
    def test_distinct_magnitudes(self):
        assert power_constraint(2, 3, (-10, 10)) == {1}

    def test_opposite_signs(self):
        assert power_constraint(3, -5, (-10, 10)) == {1}

    def test_minus_case_odd(self):
        assert power_constraint(2, -2, (-10, 10)) == \
            {k for k in range(-10, 11) if k % 2 == 1 or k % 2 == -1}

    def test_equal_case_all(self):
        assert power_constraint(2, 2, (-3, 3)) == set(range(-3, 4))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            power_constraint(0, 2, (0, 1))


class TestEnumeration:
    def test_klein_flip_doubling(self):
        g = GroupSpec(1, -1)
        phi = endo(1, -1, "a^3", "b^2")
        report = enumerate_classes_ball(g, phi, bounds={"u": 64, "v": 8})
        assert report.family == "klein"
        assert report.stable_classes == 4
        larger = enumerate_classes_ball(g, phi, bounds={"u": 128, "v": 12})
        assert larger.stable_classes == 4

    def test_identity_twist_grows(self):
        # plain conjugacy on the Klein group has unbounded class count, so
        # the doubled box reports more stable classes
        g = GroupSpec(1, -1)
        counts = [enumerate_classes_ball(g, identity_spec(g), bounds=bounds).stable_classes
                  for bounds in ({"u": 16, "v": 4}, {"u": 32, "v": 8})]
        assert counts == [93, 313]

    def test_affine_substrate(self):
        g = GroupSpec(1, 2)
        phi = endo(1, 2, "a", "b^2")
        report = enumerate_classes_ball(g, phi,
                                        bounds={"k": 6, "t": 64, "e": 3})
        assert report.family == "affine"
        assert report.total_elements == 13 * 129
        assert report.stable_classes >= 1

    def test_permuted_substrate(self):
        g = GroupSpec(2, 2)
        phi = endo(2, 2, "a^2", "b")
        report = enumerate_classes_ball(g, phi, bounds={"l": 3, "k": 4})
        assert report.family == "permuted-product"
        assert report.stable_classes >= 1

    def test_box_too_small(self):
        g = GroupSpec(1, -1)
        phi = endo(1, -1, "a^3", "b^2")
        with pytest.raises(BoxTooSmall):
            enumerate_classes_ball(g, phi, bounds={"u": 1, "v": 1},
                                   inner_margin=5)

    def test_witness_separation(self):
        spec = endo(1, 2, "a", "b^2")
        cert = certify_infinite(spec).certificate
        assert witnesses_stay_separated(cert, spec)

    def test_witness_separation_vacuous_off_family(self):
        spec = endo(2, 3, "a", "b^2")
        cert = certify_infinite(spec).certificate
        assert witnesses_stay_separated(cert, spec)

    def test_witness_separation_validates_both_maps(self):
        # a -> a^2, b -> b a is no endomorphism of B(1,2): the relator
        # image is not trivial, so there is nothing to cross-check
        fake = Certificate(INV_A_SUM, "Z", {}, "1", "a", ("a", "a^2"), ("1", "2"))
        bad = endo(1, 2, "a^2", "b a")
        with pytest.raises(RelationViolated):
            witnesses_stay_separated(fake, bad)
        with pytest.raises(RelationViolated):
            witnesses_stay_separated(fake, identity_spec(bad.group), bad)
        # off the modeled families the answer stays vacuously true
        assert witnesses_stay_separated(fake, endo(2, 3, "a", "b a"))

    @pytest.mark.parametrize("group, bounds", [
        (GroupSpec(1, -1), {"u": 64}),
        (GroupSpec(1, -1), {"u": 64, "v": 8, "z": 3}),
        (GroupSpec(1, -1), {"u": -3, "v": 8}),
        (GroupSpec(1, 2), {"t": 10, "e": 2}),
        (GroupSpec(1, 2), {"k": 2, "t": 10, "e": -1}),
        (GroupSpec(2, 2), {"l": 2, "k": 3, "e": 1}),
        # zero axes: the doubled box would not grow along them
        (GroupSpec(1, -1), {"u": 0, "v": 8}),
        (GroupSpec(1, -1), {"u": 64, "v": 0}),
        (GroupSpec(1, 2), {"k": 0, "t": 10}),
        (GroupSpec(1, 2), {"k": 2, "t": 0, "e": 2}),
        (GroupSpec(1, 2), {"k": 2, "t": 10, "e": 0}),
        (GroupSpec(2, 2), {"l": 0, "k": 3}),
        (GroupSpec(2, 2), {"l": 2, "k": 0}),
    ])
    def test_bounds_must_be_the_family_box(self, group, bounds):
        spec = identity_spec(group)
        fake = Certificate(INV_A_SUM, "Z", {}, "1", "a", ("a", "a^2"), ("1", "2"))
        with pytest.raises(ValueError):
            enumerate_classes_ball(group, spec, bounds=bounds)
        with pytest.raises(ValueError):
            witnesses_stay_separated(fake, spec, bounds=bounds)

    @pytest.mark.parametrize("bounds", [
        {"u": 64.5, "v": 8}, {"u": 64.0, "v": 8}, {"u": "64", "v": 8}])
    def test_non_integer_bounds_are_refused(self, bounds):
        # refused up front, not with a TypeError inside the box build
        klein = GroupSpec(1, -1)
        spec = endo(1, -1, "a^3", "b^2")
        cert = certify_infinite(spec).certificate
        with pytest.raises(ValueError):
            enumerate_classes_ball(klein, spec, bounds=bounds)
        with pytest.raises(ValueError):
            witnesses_stay_separated(cert, spec, bounds=bounds)

    def test_non_integer_margin_is_refused(self):
        klein = GroupSpec(1, -1)
        with pytest.raises(ValueError):
            enumerate_classes_ball(klein, endo(1, -1, "a^3", "b^2"),
                                   bounds={"u": 64, "v": 8}, inner_margin=2.0)

    def test_unparsable_witness_is_not_separated(self):
        # as check_certificate has it: a witness that does not parse
        # refutes the certificate instead of raising WordSyntaxError
        klein = GroupSpec(1, -1)
        spec = identity_spec(klein)
        cert = certify_infinite(spec).certificate
        assert cert.invariant == INV_A_SUM
        bad = replace(cert, first_witnesses=("x", "x", "x"))
        assert not witnesses_stay_separated(bad, spec)
        assert not check_certificate(bad, spec)

    def test_witness_separation_reads_only_the_parse(self, monkeypatch):
        # a base that does not parse refutes the certificate, but the
        # witnesses parse and stay separated; the checker's parse is reused
        spec = identity_spec(GroupSpec(1, -1))
        cert = certify_infinite(spec).certificate
        unchained = replace(cert, witness_base="zz")
        parsed = _count_parses(monkeypatch)
        assert not check_certificate(unchained, spec)
        assert len(parsed) == len(cert.first_witnesses) + 1
        parsed.clear()
        assert witnesses_stay_separated(unchained, spec)
        assert parsed == []

    def test_affine_e_may_be_omitted(self):
        g = GroupSpec(1, 2)
        report = enumerate_classes_ball(g, endo(1, 2, "a", "b^2"),
                                        bounds={"k": 2, "t": 16})
        assert report.bounds == {"k": 2, "t": 16}

    def test_merged_witnesses_detected(self):
        # under conjugation by the identity map, a and a b are NOT merged,
        # but b and b^2... craft a fake certificate listing one class twice:
        # alpha and its twist psi(b) alpha phi(b)^-1 = b alpha b^-1 for the
        # identity endo are in the same class by construction
        g = GroupSpec(1, -1)
        spec = identity_spec(g)
        fake = Certificate(INV_A_SUM, "Z", {}, "a", "1",
                           ("a", "b a b^-1", "a^3"), ("1", "1", "3"))
        assert not witnesses_stay_separated(fake, spec,
                                            bounds={"u": 8, "v": 4})
