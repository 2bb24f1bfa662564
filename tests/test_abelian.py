"""Finitely generated abelian groups and twisted class counts."""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from bstwist import abelian, intmat
from bstwist.abelian import (
    AbelianGroup, AbelianMap, fixed_functional, twisted_class_count,
)
from bstwist.errors import ShapeMismatch
from bstwist.intmat import IntMatrix, snf


class TestAbelianGroup:
    def test_orders_with_free_slot(self):
        g = AbelianGroup(torsion=(0,), rank=1)
        assert g.orders() == (0, 0)

    def test_reduce(self):
        g = AbelianGroup(torsion=(4,), rank=1)
        assert g.reduce((7, -3)) == (3, -3)

    def test_presentation(self):
        g = AbelianGroup(torsion=(4,), rank=1)
        assert g.presentation().entries == ((4, 0), (0, 0))

    def test_presentation_and_identity_built_once_per_group(self):
        g, same = AbelianGroup(torsion=(4,), rank=1), AbelianGroup(torsion=(4,), rank=1)
        assert g.presentation() is same.presentation()
        assert AbelianMap.identity(g) is AbelianMap.identity(same)
        assert AbelianMap.identity(g).matrix == IntMatrix.identity(2)
        assert AbelianGroup(torsion=(3,), rank=1).presentation().entries == ((3, 0), (0, 0))


class TestAbelianMap:
    def test_from_columns_reduces(self):
        g = AbelianGroup(torsion=(3,), rank=1)
        f = AbelianMap.from_columns(g, [(5, 0), (1, 2)])
        assert f.matrix.entries == ((2, 1), (0, 2))

    def test_apply(self):
        # column j is the image of generator j, so the map acts as the
        # matrix product: (1, 1) -> (2, 0) + (1, 1)
        g = AbelianGroup(torsion=(), rank=2)
        f = AbelianMap.from_columns(g, [(2, 0), (1, 1)])
        assert Matrix(f.matrix.entries) * Matrix([1, 1]) == Matrix([3, 1])

    def test_equality_mod_torsion(self):
        g = AbelianGroup(torsion=(3,), rank=1)
        f1 = AbelianMap.from_columns(g, [(1, 0), (0, 1)])
        f2 = AbelianMap.from_columns(g, [(4, 0), (3, 1)])
        assert f1 == f2

    def test_equal_maps_hash_equal(self):
        # on Z_1 + Z the torsion row of the identity reduces to zero, so
        # the identity and the map built from its columns are one map
        g = AbelianGroup(torsion=(1,), rank=1)
        identity = AbelianMap.identity(g)
        built = AbelianMap.from_columns(g, [(1, 0), (0, 1)])
        assert identity == built and hash(identity) == hash(built)
        assert len({identity, built}) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((0, 1, 2, 3, 6)),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4),
           st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    def test_shift_by_torsion_is_the_same_map(self, d, entries, shifts):
        # adding a multiple of d to the torsion row changes no image
        g = AbelianGroup(torsion=(d,), rank=1)
        rows = [entries[:2], entries[2:]]
        shifted = [[x + s * d for x, s in zip(rows[0], shifts)], rows[1]]
        f = AbelianMap(g, IntMatrix.from_rows(rows))
        h = AbelianMap(g, IntMatrix.from_rows(shifted))
        assert f == h and hash(f) == hash(h)
        if d:
            assert f.matrix.entries[0] == tuple(x % d for x in rows[0])

    def test_non_integral_entry_rejected(self):
        # 1.9 is not truncated to 1 and then stored
        g = AbelianGroup(torsion=(4,), rank=1)
        with pytest.raises(TypeError):
            AbelianMap.from_columns(g, [(1.9, 2), (0, 1)])
        assert AbelianMap.from_columns(g, [(5, 2 ** 70), (0, 1)]).matrix.entries == (
            (1, 0), (2 ** 70, 1))

    def test_shape_check(self):
        g = AbelianGroup(torsion=(3,), rank=1)
        with pytest.raises(ShapeMismatch):
            AbelianMap.from_columns(g, [(1, 0)])


class TestTwistedCount:
    def test_multiplication_on_Z(self):
        # alpha ~ alpha + (k - 1) tau on Z: |k - 1| classes
        g = AbelianGroup(rank=1)
        identity = AbelianMap.identity(g)
        for k in (-2, 0, 3, 5):
            f = AbelianMap.from_columns(g, [(k,)])
            assert twisted_class_count(f, identity) == abs(k - 1)

    def test_identity_on_Z_is_infinite(self):
        g = AbelianGroup(rank=1)
        identity = AbelianMap.identity(g)
        assert twisted_class_count(identity, identity) is None

    def test_torsion_contributes(self):
        # on Z_4 + Z, f = 3 on each: (g - f) = diag(-2, -2);
        # classes: gcd(4, 2) * 2 = 4
        g = AbelianGroup(torsion=(4,), rank=1)
        f = AbelianMap.from_columns(g, [(3, 0), (0, 3)])
        identity = AbelianMap.identity(g)
        assert twisted_class_count(f, identity) == 4

    def test_identity_on_finite_group_counts_elements(self):
        g = AbelianGroup(torsion=(6,), rank=0)
        identity = AbelianMap.identity(g)
        assert twisted_class_count(identity, identity) == 6

    def test_symmetric_in_arguments(self):
        g = AbelianGroup(torsion=(4,), rank=1)
        f = AbelianMap.from_columns(g, [(1, 0), (2, 5)])
        h = AbelianMap.from_columns(g, [(3, 0), (0, 1)])
        assert twisted_class_count(f, h) == twisted_class_count(h, f)


class TestFixedFunctional:
    def test_certifies_infinite(self):
        g = AbelianGroup(torsion=(4,), rank=1)
        identity = AbelianMap.identity(g)
        assert twisted_class_count(identity, identity) is None
        functional = fixed_functional(identity, identity)
        assert functional is not None and any(functional)
        # lam must kill torsion and the difference map (here zero)
        assert functional[0] % 1 == 0
        lam_of_torsion = functional[0] * 4
        assert lam_of_torsion % 4 == 0

    def test_functional_kills_difference(self):
        g = AbelianGroup(rank=2)
        f = AbelianMap.from_columns(g, [(1, 0), (2, 1)])
        identity = AbelianMap.identity(g)
        assert twisted_class_count(f, identity) is None
        lam = fixed_functional(f, identity)
        assert lam is not None
        diff = identity.matrix - f.matrix
        for j in range(2):
            assert sum(lam[i] * diff[i, j] for i in range(2)) == 0

    def test_none_when_finite(self):
        g = AbelianGroup(rank=1)
        f = AbelianMap.from_columns(g, [(3,)])
        identity = AbelianMap.identity(g)
        assert twisted_class_count(f, identity) == 2
        assert fixed_functional(f, identity) is None

    def test_maps_on_different_groups_are_refused(self):
        f = AbelianMap.identity(AbelianGroup(torsion=(4,), rank=1))
        g = AbelianMap.identity(AbelianGroup(torsion=(6,), rank=1))
        with pytest.raises(ShapeMismatch, match="different groups"):
            twisted_class_count(f, g)
        with pytest.raises(ShapeMismatch, match="different groups"):
            fixed_functional(f, g)


ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def map_pairs(draw):
    """Two maps of Z_d + Z, d in {0, 1, 2, 3, 4, 6} (0 is a free slot)."""
    group = AbelianGroup(torsion=(draw(st.sampled_from((0, 1, 2, 3, 4, 6))),), rank=1)
    column = st.tuples(ENTRIES, ENTRIES)
    return tuple(AbelianMap.from_columns(group, draw(st.tuples(column, column)))
                 for _ in range(2))


class TestReadOuts:
    @settings(max_examples=300, deadline=None)
    @given(map_pairs())
    def test_exactly_one_answer(self, pair):
        f, g = pair
        count, functional = twisted_class_count(f, g), fixed_functional(f, g)
        assert (count is None) != (functional is None)
        if functional is not None:
            assert any(functional)
            d = f.group.torsion[0]
            assert functional[0] * d == 0  # kills the torsion slot
            diff = g.matrix - f.matrix
            assert all(sum(functional[i] * diff[i, j] for i in range(2)) == 0
                       for j in range(2))

    def test_one_snf_per_answer(self, monkeypatch):
        calls = []

        def counting_snf(M):
            calls.append(M)
            return snf(M)

        monkeypatch.setattr(abelian, "snf", counting_snf)
        group = AbelianGroup(torsion=(4,), rank=1)
        f = AbelianMap.from_columns(group, [(3, 0), (0, 3)])
        assert twisted_class_count(f, AbelianMap.identity(group)) == 4
        assert len(calls) == 1
        assert fixed_functional(f, AbelianMap.identity(group)) is None
        assert len(calls) == 2

    def test_one_elimination_per_stacked_matrix(self, monkeypatch):
        # the count, the functional and a caller's own snf of one stacked
        # matrix, as the certify path reads them, share one SNFResult
        built, result = [], intmat.SNFResult

        def counting_result(*fields):
            built.append(fields[0])
            return result(*fields)

        snf.cache_clear()
        monkeypatch.setattr(intmat, "SNFResult", counting_result)
        group = AbelianGroup(torsion=(4,), rank=1)
        f = AbelianMap.from_columns(group, [(1, 0), (2, 1)])
        identity = AbelianMap.identity(group)
        stacked = group.presentation().hstack(identity.matrix - f.matrix)
        assert twisted_class_count(f, identity) is None
        assert fixed_functional(f, identity) == snf(stacked).left_kernel_functional
        assert snf(stacked) is snf(IntMatrix(stacked.entries))
        assert len(built) == 1
