"""Integer matrix arithmetic and Smith normal form."""

import random

import pytest

from bstwist.intmat import IntMatrix, coker_order, left_kernel_functional, snf


def is_unimodular(M):
    """Test oracle: M is square with determinant +-1."""
    return M.rows == M.cols and abs(M.det()) == 1


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


class TestIntMatrix:
    def test_multiply(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a * b == IntMatrix.from_rows([[2, 1], [4, 3]])

    def test_identity(self):
        a = IntMatrix.from_rows([[5, -7], [2, 11]])
        assert a * IntMatrix.identity(2) == a

    def test_hstack(self):
        a = IntMatrix.from_rows([[1], [2]])
        b = IntMatrix.from_rows([[3], [4]])
        assert a.hstack(b) == IntMatrix.from_rows([[1, 3], [2, 4]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_det_known(self):
        assert IntMatrix.from_rows([[2, 0], [0, 3]]).det() == 6
        assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
        assert IntMatrix.from_rows(
            [[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3

    def test_det_matches_expansion(self):
        rng = random.Random(1)
        for _ in range(200):
            m = random_matrix(rng, 3, 3)
            e = m.entries
            cofactor = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                        - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                        + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
            assert m.det() == cofactor

    def test_det_large_entries_exact(self):
        big = 10 ** 30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert m.det() == big * big - 1


class TestSNF:
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
            assert result.U * m * result.V == result.D
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
            prod = 1
            for d in snf(m).diagonal:
                prod *= d
            assert prod == abs(m.det())


class TestCoker:
    def test_finite(self):
        assert coker_order(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert coker_order(IntMatrix.from_rows([[1, 0], [0, 1]])) == 1

    def test_infinite(self):
        assert coker_order(IntMatrix.from_rows([[1, 2], [2, 4]])) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            coker_order(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))

    def test_equals_abs_det(self):
        rng = random.Random(4)
        for _ in range(200):
            size = rng.randint(1, 3)
            m = random_matrix(rng, size, size)
            d = m.det()
            assert coker_order(m) == (abs(d) if d != 0 else None)


class TestLeftKernel:
    def test_exists_for_singular(self):
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        f = left_kernel_functional(m)
        assert f is not None and any(f)
        assert all(sum(f[i] * m[i, j] for i in range(2)) == 0 for j in range(2))

    def test_absent_for_full_rank(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert left_kernel_functional(m) is None

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
            f = left_kernel_functional(m)
            assert f is not None and any(f)
            assert all(sum(f[i] * m[i, j] for i in range(3)) == 0
                       for j in range(3))
            found += 1
