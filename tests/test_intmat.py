"""Integer matrix arithmetic and Smith normal form.

The determinants, matrix products and Smith normal forms these tests
compare against come from sympy, which the library does not import."""

import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from bstwist.intmat import IntMatrix, snf


def sym(M):
    """M as a sympy Matrix."""
    return Matrix(M.entries)


def is_unimodular(M):
    """Test oracle: M is square with determinant +-1."""
    return M.rows == M.cols and abs(sym(M).det()) == 1


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


class TestIntMatrix:
    def test_identity(self):
        assert IntMatrix.identity(2).entries == ((1, 0), (0, 1))

    def test_hstack(self):
        a = IntMatrix.from_rows([[1], [2]])
        b = IntMatrix.from_rows([[3], [4]])
        assert a.hstack(b) == IntMatrix.from_rows([[1, 3], [2, 4]])

    def test_mismatched_shapes_rejected(self):
        one_by_two = IntMatrix.from_rows([[1, 2]])
        two_by_one = IntMatrix.from_rows([[1], [2]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            one_by_two - two_by_one
        with pytest.raises(ValueError, match="dimension mismatch"):
            one_by_two.hstack(two_by_one)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix(((1,), (2, 3), (4,)))

    def test_non_integral_entry_rejected(self):
        # an entry is never truncated: 2.5 is not the integer 2
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[2.5, 1]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, "3"]])
        assert IntMatrix.from_rows([[True, 2 ** 70]]).entries == ((1, 2 ** 70),)

    def test_entries_that_are_not_exact_ints_rejected(self):
        # True == 1 with equal hashes: built directly, it would share the
        # cached form of 1 and put a bool into that form's D
        class Int(int):
            pass

        for entry in (True, Int(1), 2.0):
            with pytest.raises(TypeError):
                IntMatrix(((entry, 2),))
        assert type(IntMatrix.from_rows([[Int(1), 2]]).entries[0][0]) is int


def _ref_snf(M):
    """Reference: the Smith normal form as first written, with one closure
    per row and column operation; returns the entries of D, U and V."""
    rows, cols = M.rows, M.cols
    m = [list(row) for row in M.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + factor * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in m:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(t, i, -(m[i][t] // m[t][t]))
                    dirty = dirty or m[i][t] != 0
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(t, j, -(m[t][j] // m[t][t]))
                    dirty = dirty or m[t][j] != 0
            if not dirty:
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if m[i][j] % m[t][t] != 0:
                            offender = (i, j)
                            break
                    if offender:
                        break
                if offender is None:
                    break
                add_row(offender[0], t, 1)
        if m[t][t] < 0:
            negate_row(t)
    return tuple(tuple(tuple(int(x) for x in row) for row in a) for a in (m, u, v))


ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def matrices(draw):
    """0-4 rows of 0-4 columns; some rows zero, some entries beyond 2^64."""
    cols = draw(st.integers(0, 4))
    row = st.one_of(st.just([0] * cols),
                    st.lists(ENTRIES, min_size=cols, max_size=cols))
    return IntMatrix.from_rows(draw(st.lists(row, max_size=4)))


class TestSNF:
    @settings(max_examples=400, deadline=None)
    @given(matrices())
    def test_same_transforms_as_reference(self, m):
        """D, U and V, entry by entry: `bs-twist snf` prints U and V, and
        `fixed_functional` returns a row of U."""
        result = snf(m)
        assert (result.D.entries, result.U.entries, result.V.entries) == _ref_snf(m)

    def test_known_diagonal(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert snf(m).diagonal == (2, 4)

    def test_known_with_torsion(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert snf(m).diagonal == (1, 6)

    def test_zero_matrix(self):
        m = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        assert snf(m).diagonal == (0, 0)

    def test_properties_random(self):
        rng = random.Random(2)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = random_matrix(rng, rows, cols)
            result = snf(m)
            # U M V = D
            assert sym(result.U) * sym(m) * sym(result.V) == sym(result.D)
            assert is_unimodular(result.U)
            assert is_unimodular(result.V)
            diag = result.diagonal
            # nonnegative, divisibility chain, zeros trailing
            assert all(d >= 0 for d in diag)
            for i in range(len(diag) - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
                else:
                    pass
            # off-diagonal entries vanish
            for i in range(result.D.rows):
                for j in range(result.D.cols):
                    if i != j:
                        assert result.D[i, j] == 0

    def test_diagonal_product_is_det_up_to_sign(self):
        rng = random.Random(3)
        for _ in range(200):
            size = rng.randint(1, 3)
            m = random_matrix(rng, size, size)
            assert prod(snf(m).diagonal) == abs(sym(m).det())

    def test_diagonal_matches_sympy(self):
        """The invariant factors are those of sympy's Smith normal form,
        which may sign them differently, on shapes up to 3 x 4 with some
        rows zero."""
        rng = random.Random(6)
        for _ in range(300):
            rows, cols = rng.randint(1, 3), rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)]
                 if rng.random() < 0.75 else [0] * cols for _ in range(rows)])
            theirs = smith_normal_form(sym(m), domain=ZZ)
            assert snf(m).diagonal == tuple(
                abs(int(theirs[i, i])) for i in range(min(rows, cols)))


def _all_ints(result):
    return all(type(x) is int for M in (result.D, result.U, result.V)
               for row in M.entries for x in row)


class TestCache:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_equals_the_uncached_form(self, m):
        assert snf(m) == snf.__wrapped__(m)

    def test_equal_matrices_share_one_form(self):
        m = IntMatrix.from_rows([[4, 6], [2, 8]])
        assert snf(m) is snf(IntMatrix(((4, 6), (2, 8))))

    @pytest.mark.parametrize("bool_first", [True, False])
    def test_forms_hold_ints_in_either_call_order(self, bool_first):
        snf.cache_clear()
        rows = [[True, 2], [1, 2]] if bool_first else [[1, 2], [True, 2]]
        results = []
        for row in rows:
            if row[0] is True:
                with pytest.raises(TypeError):
                    IntMatrix((tuple(row),))
            results.append(snf(IntMatrix.from_rows([row])))
        assert results[0] is results[1]
        assert _all_ints(results[0])


class TestCoker:
    def test_finite(self):
        assert snf(IntMatrix.from_rows([[2, 0], [0, 3]])).coker_order == 6
        assert snf(IntMatrix.from_rows([[1, 0], [0, 1]])).coker_order == 1

    def test_infinite(self):
        assert snf(IntMatrix.from_rows([[1, 2], [2, 4]])).coker_order is None

    def test_equals_abs_det(self):
        rng = random.Random(4)
        for _ in range(200):
            size = rng.randint(1, 3)
            m = random_matrix(rng, size, size)
            d = sym(m).det()
            assert snf(m).coker_order == (abs(d) if d != 0 else None)


class TestLeftKernel:
    def test_exists_for_singular(self):
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        f = snf(m).left_kernel_functional
        assert f is not None and any(f)
        assert all(sum(f[i] * m[i, j] for i in range(2)) == 0 for j in range(2))

    def test_absent_for_full_rank(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert snf(m).left_kernel_functional is None

    def test_random_singular(self):
        rng = random.Random(5)
        found = 0
        while found < 50:
            base = random_matrix(rng, 2, 3)
            # third row a combination of the first two: guaranteed singular
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            row3 = [c1 * base[0, j] + c2 * base[1, j] for j in range(3)]
            m = IntMatrix.from_rows([list(base.entries[0]),
                                     list(base.entries[1]), row3])
            f = snf(m).left_kernel_functional
            assert f is not None and any(f)
            assert all(sum(f[i] * m[i, j] for i in range(3)) == 0
                       for j in range(3))
            found += 1


def _ref_coker_order(M):
    """Reference: the cokernel order as first read off the diagonal."""
    diag = snf(M).diagonal
    return None if len(diag) < M.rows or 0 in diag else prod(diag)


def _ref_left_kernel_functional(M):
    """Reference: the first row of U whose row of D is zero, found by
    scanning D for a zero diagonal entry or a row below the diagonal."""
    result = snf(M)
    for i in range(M.rows):
        if i >= M.cols or result.D[i, i] == 0:
            if all(result.D[i, j] == 0 for j in range(M.cols)):
                return tuple(result.U.entries[i])
    return None


class TestReadOuts:
    @settings(max_examples=400, deadline=None)
    @given(matrices())
    def test_match_the_diagonal_scan(self, m):
        result = snf(m)
        assert result.coker_order == _ref_coker_order(m)
        assert result.left_kernel_functional == _ref_left_kernel_functional(m)
        # exactly one of the two answers: the rank is full or it is not
        assert (result.coker_order is None) != (result.left_kernel_functional is None)

    def test_rank(self):
        assert snf(IntMatrix.from_rows([[1, 2], [2, 4]])).rank == 1
        assert snf(IntMatrix.from_rows([[2, 0], [0, 3]])).rank == 2
        assert snf(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])).rank == 0
        assert snf(IntMatrix.from_rows([[1], [0], [1]])).rank == 1
