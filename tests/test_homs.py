"""Endomorphism validation, induced maps, and the kernel invariant."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix

from bstwist import homs
from bstwist.abelian import AbelianMap
from bstwist.errors import NotInKernel, RelationViolated, WrongFamily
from bstwist.homs import (
    EndoSpec, InducedData, endo_apply, endo_compose, endo_validate,
    induced_on_ab, inner_by, kappa, kappa_scale, kernel_decompose,
    parse_endo_file,
)
from bstwist.intmat import IntMatrix
from bstwist.models import model_embed
from bstwist.reidemeister import (
    certify_infinite, check_certificate, coincidence_certify,
    enumerate_classes_ball, witnesses_stay_separated,
)
from bstwist.words import (
    A, B, GroupSpec, Word, are_equal, format_word, invert, multiply,
    parse_word, relator, substitute, word,
)

from test_words import DIFF_GRID, images, random_word


def kernel_generator(i):
    """Test-local oracle: the kernel generator g_i = a^-i b a^i."""
    return word([(A, -i), (B, 1), (A, i)])


def identity_spec(group):
    """Test-local oracle: the identity a -> a, b -> b as a spec, for the
    calls that take phi (an omitted psi is the identity already)."""
    return EndoSpec(group, word([(A, 1)]), word([(B, 1)]))


class TestValidate:
    def test_identity_is_valid(self):
        for g in (GroupSpec(2, 3), GroupSpec(1, -1), GroupSpec(3, 3)):
            data = endo_validate(identity_spec(g))
            assert data.k == 1
            assert data.kernel_preserved

    def test_b_power_endo(self):
        g = GroupSpec(2, 3)
        spec = EndoSpec(g, parse_word("a"), parse_word("b^2"))
        data = endo_validate(spec)
        assert data.k == 1 and data.kernel_preserved
        assert data.kappa_scale == 2

    def test_invalid_raises_with_residue(self):
        g = GroupSpec(2, 3)
        spec = EndoSpec(g, parse_word("a"), parse_word("b a"))
        with pytest.raises(RelationViolated) as info:
            endo_validate(spec)
        # the residue is the nontrivial normal form of the relator image
        assert info.value.residue != "1"

    @pytest.mark.parametrize("float_first", [True, False])
    def test_relator_cache_holds_ints_in_either_call_order(self, float_first):
        # GroupSpec(2.0, 3) == GroupSpec(2, 3) with equal hashes once seeded
        # the shared relator cache with b^2.0, and every later B(2,3)
        # residue read a^-1.0
        relator.cache_clear()
        for m in ((2.0, 2) if float_first else (2, 2.0)):
            if type(m) is float:
                with pytest.raises(TypeError):
                    GroupSpec(m, 3)
            else:
                assert format_word(relator(GroupSpec(m, 3))) == "a^-1 b^2 a b^-3"
        with pytest.raises(RelationViolated) as info:
            endo_validate(parse_endo_file("group 2 3\na -> a\nb -> a\n"))
        assert info.value.residue == "a^-1"

    def test_inner_endos_are_valid(self):
        rng = random.Random(3)
        g = GroupSpec(2, 3)
        for _ in range(20):
            endo_validate(inner_by(g, random_word(rng)))

    def test_a_power_endo_bmm(self):
        # a -> a^2, b -> b is valid on B(m,m) and has k = 2
        g = GroupSpec(2, 2)
        spec = EndoSpec(g, parse_word("a^2"), parse_word("b"))
        data = endo_validate(spec)
        assert data.k == 2
        assert data.injectivity_obstruction is None

    def test_injectivity_obstruction_k_not_one(self):
        # a -> a^2, b -> 1 is valid on B(1,2) but kills b: k = 2 flags it
        g = GroupSpec(1, 2)
        spec = EndoSpec(g, parse_word("a^2"), Word())
        data = endo_validate(spec)
        assert data.k == 2
        assert data.injectivity_obstruction is not None

    def test_injectivity_obstruction_even_k_minus_case(self):
        g = GroupSpec(1, -1)
        spec = EndoSpec(g, parse_word("a^2"), Word())
        data = endo_validate(spec)
        assert data.injectivity_obstruction is not None


class TestValidateOnce:
    def test_relator_is_applied_once_per_spec(self, monkeypatch):
        applied = []

        def counting_substitute(w, image_a, image_b):
            applied.append(w)
            return substitute(w, image_a, image_b)

        monkeypatch.setattr(homs, "substitute", counting_substitute)
        phi = EndoSpec(GroupSpec(2, 3), parse_word("a"), parse_word("b^2"))
        endo_validate(phi)
        assert certify_infinite(phi).kind == "infinite"
        assert applied == [relator(phi.group)]

    def test_invalid_spec_raises_on_every_call(self):
        spec = EndoSpec(GroupSpec(2, 3), parse_word("a"), parse_word("b a"))
        residues = []
        for _ in range(2):
            with pytest.raises(RelationViolated) as info:
                endo_validate(spec)
            residues.append(info.value.residue)
        assert residues[0] == residues[1]
        assert "_relator_checked" not in vars(spec)

    def test_catalog_and_box_users_build_no_induced_data(self, monkeypatch):
        # they need only the relator check, so no InducedData is built; a
        # later endo_validate gives what it gives on a spec they never saw,
        # and an invalid spec raises the same residue through each of them
        klein = GroupSpec(1, -1)
        built = []
        build = InducedData.__init__

        def spy(self, *args, **kwargs):
            built.append(args or kwargs)
            build(self, *args, **kwargs)

        monkeypatch.setattr(InducedData, "__init__", spy)

        def fresh(a="a"):
            return (EndoSpec(klein, parse_word(a), parse_word("b^2")),
                    EndoSpec(klein, parse_word("a^-1"), parse_word("b")))

        cert = certify_infinite(fresh()[0]).certificate
        users = (lambda phi, psi: certify_infinite(phi),
                 coincidence_certify,
                 lambda phi, psi: enumerate_classes_ball(klein, phi, psi),
                 lambda phi, psi: witnesses_stay_separated(cert, phi, psi))
        for use in users:
            specs = fresh()
            use(*specs)
            assert built == []
            for spec, twin in zip(specs, fresh()):
                assert endo_validate(spec) == endo_validate(twin)
            assert len(built) == 4
            built.clear()
        with pytest.raises(RelationViolated) as info:
            endo_validate(fresh("a^2")[0])
        for use in users:
            specs = fresh("a^2")
            with pytest.raises(RelationViolated) as used:
                use(*specs)
            assert used.value.residue == info.value.residue
            assert built == []
            with pytest.raises(RelationViolated) as later:
                endo_validate(specs[0])
            assert later.value.residue == info.value.residue

    def test_cache_keeps_equality_hash_and_repr(self):
        spec = EndoSpec(GroupSpec(2, 3), parse_word("a"), parse_word("b^2"))
        twin = EndoSpec(GroupSpec(2, 3), parse_word("a"), parse_word("b^2"))
        before = repr(spec)
        data = endo_validate(spec), endo_validate(twin)
        assert "_relator_checked" in vars(spec)
        assert spec == twin and hash(spec) == hash(twin)
        assert repr(spec) == before
        # the twins' data are one value: equal, hash equal, one in a set
        assert data[0] == data[1] and hash(data[0]) == hash(data[1])
        assert len(set(data)) == 1

    def test_checker_ignores_a_forged_validation(self):
        # a -> a, b -> b a b a^-1 fixes both a-exponent sums of the a-sum
        # certificate but is no endomorphism of B(2,3); with a passed
        # relator check forged into its cache the catalog certifies it, and
        # only the checker's own relator check refuses the certificate
        spec = EndoSpec(GroupSpec(2, 3), parse_word("a"), parse_word("b a b a^-1"))
        with pytest.raises(RelationViolated):
            endo_validate(spec)
        vars(spec)["_relator_checked"] = True
        outcome = certify_infinite(spec)
        assert outcome.kind == "infinite"
        assert not check_certificate(outcome.certificate, spec)


class TestModelImages:
    def test_embedded_once_per_spec(self):
        spec = EndoSpec(GroupSpec(1, 2), parse_word("a b"), parse_word("b^-1"))
        images = spec.model_images
        assert images is spec.model_images
        assert images == (model_embed(spec.image_a, spec.group),
                          model_embed(spec.image_b, spec.group))

    def test_a_group_with_no_model_raises_on_every_read(self):
        spec = identity_spec(GroupSpec(2, 3))
        for _ in range(2):
            with pytest.raises(WrongFamily):
                spec.model_images
        assert "model_images" not in vars(spec)


class TestApplyCompose:
    def test_apply_respects_equality(self):
        rng = random.Random(5)
        g = GroupSpec(2, 3)
        spec = EndoSpec(g, parse_word("a"), parse_word("b^2"))
        for _ in range(50):
            u = random_word(rng)
            conj = multiply(multiply(u, relator(g)), invert(u))
            assert are_equal(endo_apply(spec, conj), Word(), g)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DIFF_GRID), images(), images())
    @example(GroupSpec(2, 3), Word(), Word())
    def test_generators_map_to_the_stored_images(self, group, image_a, image_b):
        # a Word is freely reduced, so the image of a or b is the stored
        # word itself: the enumerator's boxes read image_a and image_b
        spec = EndoSpec(group, image_a, image_b)
        assert endo_apply(spec, word([(A, 1)])) == image_a
        assert endo_apply(spec, word([(B, 1)])) == image_b

    def test_compose_order(self):
        g = GroupSpec(2, 2)
        s1 = EndoSpec(g, parse_word("a"), parse_word("b^2"))
        s2 = EndoSpec(g, parse_word("a b"), parse_word("b"))
        composed = endo_compose(s1, s2)
        # (s1 o s2)(a) = s1(a b) = a b^2
        assert composed.image_a == parse_word("a b^2")

    def test_compose_group_mismatch(self):
        with pytest.raises(ValueError):
            endo_compose(identity_spec(GroupSpec(2, 2)),
                         identity_spec(GroupSpec(2, 3)))


class TestInduced:
    def test_induced_on_ab(self):
        g = GroupSpec(2, 3)  # abelianization Z_1 + Z
        spec = EndoSpec(g, parse_word("a b"), parse_word("b^2"))
        f = induced_on_ab(spec)
        assert f.group.torsion == (1,)
        # a-bar's image has a-sum 1; every entry of the Z_1 row is 0
        assert f.matrix.entries == ((0, 0), (0, 1))

    def test_ab_functoriality(self):
        g = GroupSpec(2, 2)
        s1 = EndoSpec(g, parse_word("a"), parse_word("b^2"))
        s2 = EndoSpec(g, parse_word("a b"), parse_word("b"))
        lhs = induced_on_ab(endo_compose(s1, s2))
        f1, f2 = induced_on_ab(s1), induced_on_ab(s2)
        product = Matrix(f1.matrix.entries) * Matrix(f2.matrix.entries)
        rhs = AbelianMap(f1.group, IntMatrix.from_rows(product.tolist()))
        assert lhs == rhs


class TestKernelDecompose:
    def test_single_conjugate(self):
        assert kernel_decompose(parse_word("a^-1 b a")) == ((1, 1),)

    def test_two_levels(self):
        assert kernel_decompose(parse_word("b a b a^-1")) == ((0, 1), (-1, 1))

    def test_rejects_non_kernel(self):
        with pytest.raises(NotInKernel):
            kernel_decompose(parse_word("a b"))

    def test_recompose_is_inverse(self):
        rng = random.Random(7)
        g = GroupSpec(2, 3)
        for _ in range(100):
            w = random_word(rng)
            total = sum(s.exp for s in w if s.base == "a")
            w = multiply(w, word([("a", -total)])) if total else w
            rebuilt = Word()
            for i, exp in kernel_decompose(w):  # g_i^exp
                rebuilt = multiply(rebuilt, word([("a", -i), ("b", exp), ("a", i)]))
            assert are_equal(rebuilt, w, g)


class TestKappa:
    def test_generator_values(self):
        g = GroupSpec(2, 3)
        assert kappa(kernel_generator(0), g) == 1
        assert kappa(kernel_generator(1), g) == Fraction(3, 2)
        assert kappa(kernel_generator(-1), g) == Fraction(2, 3)

    def test_kills_kernel_relation(self):
        # g_{i+1}^m = g_i^n, so g_1^m g_0^-n maps to zero
        for g in (GroupSpec(2, 3), GroupSpec(2, -3), GroupSpec(3, 3)):
            w = multiply(parse_word(f"a^-1 b^{g.m} a"), word([("b", -g.n)]))
            assert kappa(w, g) == 0

    def test_additive_on_products(self):
        rng = random.Random(11)
        g = GroupSpec(2, 3)
        for _ in range(50):
            terms = [(rng.randint(-3, 3), rng.randint(-4, 4))
                     for _ in range(rng.randint(0, 4))]
            w = Word()
            total = Fraction(0)
            for i, e in terms:
                w = multiply(w, parse_word(f"a^{-i} b^{e} a^{i}") if i else
                             word([("b", e)]))
                total += e * Fraction(3, 2) ** i
            if sum(s.exp for s in w if s.base == "a") == 0:
                assert kappa(w, g) == total

    def test_conjugation_scaling(self):
        # kappa(a w a^-1) = (m/n) kappa(w)
        rng = random.Random(13)
        g = GroupSpec(2, 3)
        a, ai = parse_word("a"), parse_word("a^-1")
        for _ in range(50):
            w = random_word(rng)
            total = sum(s.exp for s in w if s.base == "a")
            if total:
                w = multiply(w, word([("a", -total)]))
            conj = multiply(multiply(a, w), ai)
            assert kappa(conj, g) == Fraction(g.m, g.n) * kappa(w, g)

    def test_well_defined_on_equal_words(self):
        g = GroupSpec(2, 3)
        u = parse_word("a^-1 b^2 a")
        v = parse_word("b^3")
        assert are_equal(u, v, g)
        assert kappa(u, g) == kappa(v, g) == 3


def _ref_kappa(w, group):
    """Reference: kappa as a sum of Fraction powers e (n/m)^i."""
    ratio = Fraction(group.n, group.m)
    return sum((exp * ratio ** i for i, exp in kernel_decompose(w)),
               Fraction(0))


@st.composite
def group_and_kernel_word(draw):
    """A product of kernel generators g_i^e, levels |i| up to 50, over signed,
    coprime and non-coprime (m, n)."""
    group = draw(st.sampled_from(DIFF_GRID))
    level = st.one_of(st.integers(-3, 3), st.integers(-50, 50))
    terms = draw(st.lists(st.tuples(level, st.integers(-6, 6)), max_size=8))
    return group, word([p for i, e in terms for p in ((A, -i), (B, e), (A, i))])


class TestKappaClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(group_and_kernel_word())
    def test_matches_the_fraction_sum(self, case):
        group, w = case
        value = kappa(w, group)
        assert type(value) is Fraction
        assert value == _ref_kappa(w, group)

    @settings(max_examples=300, deadline=None)
    @given(group_and_kernel_word(), st.integers(-3, 3))
    def test_scale_matches_the_fraction_sum(self, case, k):
        # a single scale d = kappa(phi(b)) exists iff kappa(phi(g_1)) =
        # d kappa(g_1), since kappa(phi(g_i)) = (n/m)^(k i) d
        group, image_b = case
        spec = EndoSpec(group, word([(A, k)]), image_b)
        d = _ref_kappa(image_b, group)
        image_g1 = endo_apply(spec, kernel_generator(1))
        fits = _ref_kappa(image_g1, group) == d * Fraction(group.n, group.m)
        assert kappa_scale(spec) == (d if fits else None)

    @pytest.mark.parametrize("group", DIFF_GRID, ids=str)
    def test_generators_are_exact_powers(self, group):
        for i in range(-50, 51):
            assert kappa(kernel_generator(i), group) == Fraction(group.n, group.m) ** i

    def test_raises_off_the_kernel(self):
        with pytest.raises(NotInKernel):
            kappa(parse_word("a b"), GroupSpec(2, 3))


class TestKappaScale:
    def test_b_power(self):
        g = GroupSpec(2, 3)
        spec = EndoSpec(g, parse_word("a"), parse_word("b^3"))
        assert kappa_scale(spec) == 3

    def test_identity(self):
        assert kappa_scale(identity_spec(GroupSpec(2, 3))) == 1

    def test_a_scaling_endo(self):
        # on B(2,2): a -> a^2, b -> b scales kappa by 1 (n/m = 1)
        g = GroupSpec(2, 2)
        spec = EndoSpec(g, parse_word("a^2"), parse_word("b"))
        assert kappa_scale(spec) == 1


def format_endo_file(spec):
    """Test-local writer of the three-line format `parse_endo_file` reads."""
    return (f"group {spec.group.m} {spec.group.n}\n"
            f"a -> {format_word(spec.image_a)}\n"
            f"b -> {format_word(spec.image_b)}\n")


class TestEndoFiles:
    def test_round_trip(self):
        g = GroupSpec(2, 3)
        spec = EndoSpec(g, parse_word("a b"), parse_word("b^2"))
        assert parse_endo_file(format_endo_file(spec)) == spec

    def test_parse(self):
        spec = parse_endo_file("group 1 2\na -> a\nb -> b^2\n")
        assert spec.group == GroupSpec(1, 2)
        assert spec.image_b == parse_word("b^2")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_endo_file("group 1 2\na -> a\n")
        with pytest.raises(ValueError):
            parse_endo_file("group 1 2\na -> a\nc -> b\nb -> b")

    @pytest.mark.parametrize("lines", ["a -> a\na -> b", "a -> a\nc -> b",
                                       "c -> a\nb -> b"])
    def test_images_are_for_exactly_a_and_b(self, lines):
        # a repeated or unknown generator line, in an otherwise
        # well-formed three-line file
        with pytest.raises(ValueError, match="exactly a and b"):
            parse_endo_file(f"group 2 3\n{lines}\n")

    @pytest.mark.parametrize("header", ["groupie 2 3", "group 2 3 4", "group 2",
                                        "group2 3", "GROUP 2 3"])
    def test_header_is_exactly_group_m_n(self, header):
        with pytest.raises(ValueError):
            parse_endo_file(f"{header}\na -> a\nb -> b^2\n")

    @pytest.mark.parametrize("line", ["a -> ", "a ->", "a", "a b"])
    def test_empty_image_is_refused(self, line):
        with pytest.raises(ValueError):
            parse_endo_file(f"group 2 3\n{line}\nb -> b^2\n")

    def test_identity_is_written_1(self):
        spec = parse_endo_file("group 2 3\na -> 1\nb -> b^2\n")
        assert spec.image_a == Word()
