"""Finitely generated abelian groups, their endomorphisms, and twisted
class counts.

A group is presented as Z_{d_1} + ... + Z_{d_t} + Z^r with the convention
d_i = 0 meaning a free Z slot (so Z_{|n-m|} + Z covers every B(m,n)
abelianization uniformly, including m = n).  Twisted classes of a pair
(f, g) are the cosets of im(g - f).  The rank of one Smith normal form of
the presentation matrix stacked with g - f gives their number when it is
full and a fixed functional otherwise: exactly one of the two is None.

The stacked matrix of a pair is built once per pair (`_stacked`, keyed by
the two maps, which are immutable values) among the last `_STACKS_CACHED`
pairs.  The pairs repeat, since the abelianization forgets conjugators:
2,640 `certify` benchmark operations (seed 4, passes 0-19) read 35
distinct maps and 42 distinct stacked matrices.  The difference and the
stack are built by `IntMatrix`'s trusted constructions, since both maps'
matrices are checked already; a map from columns (`from_columns`) checks
the caller's entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ShapeMismatch
from .intmat import IntMatrix, snf

# presentation() and AbelianMap.identity keep this many groups: the B(m,n)
# abelianizations a run touches, which are few
_GROUPS_CACHED = 64
# _stacked keeps this many pairs of maps
_STACKS_CACHED = 128


@dataclass(frozen=True)
class AbelianGroup:
    """torsion entries first (0 = a free slot), then `rank` free generators."""

    torsion: tuple[int, ...] = ()
    rank: int = 0

    @property
    def ngens(self) -> int:
        return len(self.torsion) + self.rank

    def orders(self) -> tuple[int, ...]:
        return self.torsion + (0,) * self.rank

    def reduce(self, vector) -> tuple[int, ...]:
        """Normalize a coefficient vector modulo the torsion orders."""
        return tuple(x % d if d else x for x, d in zip(vector, self.orders()))

    @lru_cache(maxsize=_GROUPS_CACHED)
    def presentation(self) -> IntMatrix:
        """Relation matrix: diagonal of generator orders.  Built once per
        group: the matrix is immutable, so every caller shares it."""
        size = self.ngens
        orders = self.orders()
        return IntMatrix(tuple(
            tuple(orders[i] if i == j else 0 for j in range(size)) for i in range(size)))


@dataclass(frozen=True)
class AbelianMap:
    """Column j of `matrix` is the image of generator j, reduced mod torsion
    on construction: equal maps have equal fields, so `==` and `hash` agree."""

    group: AbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        size = self.group.ngens
        if self.matrix.rows != size or self.matrix.cols != size:
            raise ShapeMismatch(f"matrix must be {size}x{size}")
        reduced = tuple(zip(*map(self.group.reduce, zip(*self.matrix.entries))))
        if reduced != self.matrix.entries:
            object.__setattr__(self, "matrix", IntMatrix(reduced))

    @classmethod
    def from_columns(cls, group: AbelianGroup, columns) -> "AbelianMap":
        """Generator j goes to columns[j]; a non-integer entry raises TypeError."""
        return cls(group, IntMatrix.from_rows(zip(*columns)))

    @classmethod
    @lru_cache(maxsize=_GROUPS_CACHED)
    def identity(cls, group: AbelianGroup) -> "AbelianMap":
        """The identity of `group`, built once per group and shared."""
        return cls(group, IntMatrix.identity(group.ngens))


@lru_cache(maxsize=_STACKS_CACHED)
def _stacked(f: AbelianMap, g: AbelianMap) -> IntMatrix:
    """The relation matrix of the maps' group stacked with g - f, built
    once per pair among the last `_STACKS_CACHED` and shared."""
    if f.group != g.group:
        raise ShapeMismatch("maps act on different groups")
    return f.group.presentation().hstack(g.matrix - f.matrix)


def twisted_class_count(f: AbelianMap, g: AbelianMap):
    """Number of classes of alpha ~ alpha + (g - f)(tau), or None if infinite.

    The class set is A / im(g - f); its order is the cokernel order of the
    relation matrix of A stacked with g - f.
    """
    return snf(_stacked(f, g)).coker_order


def fixed_functional(f: AbelianMap, g: AbelianMap) -> tuple[int, ...] | None:
    """Integer functional lam on A with lam(g(x)) = lam(f(x)) and lam
    nonzero, vanishing on torsion; certifies an infinite class count.
    None exactly when `twisted_class_count` is finite."""
    return snf(_stacked(f, g)).left_kernel_functional
