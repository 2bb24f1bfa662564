"""Exact integer matrices, Smith normal form, and cokernel orders.

Entries are arbitrary-precision Python integers throughout; numpy is
deliberately avoided because the row operations overflow fixed-width
integer types.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, size: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))

    def det(self) -> int:
        """Fraction-free determinant (Bareiss)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        size = self.rows
        if size == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(size - 1):
            if m[k][k] == 0:
                for i in range(k + 1, size):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[-1][-1]


@dataclass(frozen=True)
class SNFResult:
    """U M V = D with U, V unimodular, d1 | d2 | ... and every d_i >= 0."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def snf(M: IntMatrix) -> SNFResult:
    """Smith normal form with the unimodular transforms recorded."""
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

    def add_row(src, dst, factor):  # row dst += factor * row src
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

    size = min(rows, cols)
    for t in range(size):
        while True:
            # move a nonzero pivot of smallest magnitude to (t, t)
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
            # row operations leave row t alone and column operations
            # column t, so not dirty means both are zero past the pivot
            if not dirty:
                # enforce divisibility into the remaining block
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

    D = IntMatrix.from_rows(m)
    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    return SNFResult(D, U, V)


def _coker_order(M: IntMatrix):
    """Order of Z^rows / M Z^cols: the product of the SNF diagonal, or None
    when it has fewer than `rows` entries or one vanishes (infinite cokernel)."""
    diag = snf(M).diagonal
    return None if len(diag) < M.rows or 0 in diag else prod(diag)


def coker_order(M: IntMatrix):
    """Order of Z^r / M Z^r for a square M; see `_coker_order`."""
    if M.rows != M.cols:
        raise ValueError("coker_order expects a square matrix")
    return _coker_order(M)


def left_kernel_functional(M: IntMatrix) -> tuple[int, ...] | None:
    """A nonzero integer row vector f with f M = 0, if one exists.

    Taken from a row of U matching a zero SNF diagonal entry (or a zero
    row below the diagonal block); used to certify infinite cokernels.
    """
    result = snf(M)
    for i in range(M.rows):
        if i >= M.cols or result.D[i, i] == 0:
            if all(result.D[i, j] == 0 for j in range(M.cols)):
                return tuple(result.U.entries[i])
    return None


__all__ = [
    "IntMatrix", "SNFResult", "snf", "coker_order",
    "left_kernel_functional",
]
