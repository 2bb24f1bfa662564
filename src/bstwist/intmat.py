"""Exact integer matrices, Smith normal form, and cokernel orders.

Entries are arbitrary-precision Python integers, since the row operations
overflow fixed-width ones.  The cokernel order and a left-kernel functional
are read off the rank of one Smith normal form (`SNFResult`), and `snf`
keeps the forms of the last `_SNFS_CACHED` distinct matrices: both values
are immutable, so every caller of one matrix shares one elimination.
There is no determinant or matrix product: the library reads neither, and
the tests take theirs from sympy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import index, sub

# snf keeps this many forms: the stacked matrices of a run's maps, which
# repeat, since the abelianization forgets conjugators
_SNFS_CACHED = 64


@dataclass(frozen=True)
class IntMatrix:
    """Rows of exact `int` entries.  A bool or other int-like entry raises
    TypeError (`from_rows` converts those): True == 1 with equal hashes, so
    it would share 1's cached form, and the form must hold ints only."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(map(len, self.entries))) > 1:
            raise ValueError("ragged matrix")
        if {type(x) for row in self.entries for x in row} - {int}:
            raise TypeError("IntMatrix entries must be exact ints; "
                            "from_rows converts int-likes")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """Rows of integers; an entry that is not one (2.5, "3") raises
        TypeError rather than being truncated."""
        return cls(tuple(tuple(map(index, row)) for row in rows))

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

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(
            tuple(map(sub, ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))


@dataclass(frozen=True)
class SNFResult:
    """U M V = D with U, V unimodular, d1 | d2 | ... and every d_i >= 0;
    the nonzero d_i come first, so their count is the rank r of M."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        entries = self.D.entries
        return tuple(entries[i][i] for i in range(min(self.D.rows, self.D.cols)))

    @property
    def rank(self) -> int:
        return sum(map(bool, self.diagonal))

    @property
    def coker_order(self) -> int | None:
        """Order of Z^rows / M Z^cols: the product of the diagonal when
        r = rows, else None (infinite cokernel)."""
        return prod(self.diagonal) if self.rank == self.D.rows else None

    @property
    def left_kernel_functional(self) -> tuple[int, ...] | None:
        """Row r of U when r < rows, else None: row r of D is zero, so it
        kills M, and it is nonzero because U is unimodular."""
        r = self.rank
        return self.U.entries[r] if r < self.D.rows else None


@lru_cache(maxsize=_SNFS_CACHED)
def snf(M: IntMatrix) -> SNFResult:
    """Smith normal form with the unimodular transforms recorded, computed
    once per distinct matrix among the last `_SNFS_CACHED` and shared.

    Step t moves a nonzero entry of smallest magnitude in the block
    t.., t.. (the first one in row-major order) to (t, t), clears row t
    and column t past it by floor-quotient row and column operations, and
    repeats until both are clear.  It then adds to row t the first row
    below that holds an entry the pivot does not divide, and repeats, and
    finally negates row t if the pivot is negative.  Every row operation
    is applied to u and every column operation to v, so U M V = D.
    """
    rows, cols = M.rows, M.cols
    m = [list(row) for row in M.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    for t in range(min(rows, cols)):
        while True:
            best = 0
            for i in range(t, rows):
                row = m[i]
                for j in range(t, cols):
                    x = abs(row[j])
                    if x and (not best or x < best):
                        best, pi, pj = x, i, j
            if not best:
                break  # the block is zero, and so is every later one
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            top, u_top = m[t], u[t]
            pivot = top[t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    f = -(m[i][t] // pivot)
                    m[i] = [a + f * b for a, b in zip(m[i], top)]
                    u[i] = [a + f * b for a, b in zip(u[i], u_top)]
                    dirty = dirty or m[i][t] != 0
            for j in range(t + 1, cols):
                if top[j]:
                    f = -(top[j] // pivot)
                    for row in m:
                        row[j] += f * row[t]
                    for row in v:
                        row[j] += f * row[t]
                    dirty = dirty or top[j] != 0
            # row operations leave row t alone and column operations
            # column t, so not dirty means both are zero past the pivot
            if dirty:
                continue
            # enforce divisibility into the remaining block
            offender = next((i for i in range(t + 1, rows)
                             if any(x % pivot for x in m[i][t + 1:])), None)
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(top, m[offender])]
            u[t] = [a + b for a, b in zip(u_top, u[offender])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]

    return SNFResult(IntMatrix(tuple(map(tuple, m))),
                     IntMatrix(tuple(map(tuple, u))),
                     IntMatrix(tuple(map(tuple, v))))
