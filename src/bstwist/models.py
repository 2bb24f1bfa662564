"""Faithful exact models for the three special Baumslag-Solitar families.

B(1,n) with |n| > 1 embeds in Z[1/|n|] x| Z (affine model), B(m,m) with
|m| > 1 in F_m x| Z (permuted-product model), and B(1,-1) in Z x| Z (the
Klein bottle group).  The embeddings are used as independent equality
oracles against Britton reduction and as substrates for the twisted-class
ball enumerator.

Sign convention: the Z-action on Z[1/|n|] is x -> x/n with the sign of n
carried along; under it a = (0,1), b = (1,0) satisfy a^-1 b a = b^n, which
is verified by unit test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRepresentable, WrongFamily
from .words import A, B, GroupSpec, Word, word


# ---------------------------------------------------------------------------
# Z[1/|n|] x| Z  (affine model for B(1,n))

@dataclass(frozen=True)
class PowRational:
    """num / base^exp with base = |n| >= 2, kept in lowest terms w.r.t. base."""

    num: int
    exp: int
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("PowRational base must be at least 2")
        if self.exp < 0:
            raise ValueError("PowRational exponent must be non-negative")
        if self.exp > 0 and self.num % self.base == 0:
            raise ValueError("PowRational not in lowest terms")

    @classmethod
    def make(cls, num: int, exp: int, base: int) -> "PowRational":
        while exp > 0 and num % base == 0:
            num //= base
            exp -= 1
        if num == 0:
            exp = 0
        return cls(num, exp, base)

    @classmethod
    def integer(cls, value: int, base: int) -> "PowRational":
        return cls.make(value, 0, base)

    def __add__(self, other: "PowRational") -> "PowRational":
        if self.base != other.base:
            raise ValueError("mixed PowRational bases")
        e = max(self.exp, other.exp)
        num = (self.num * self.base ** (e - self.exp)
               + other.num * self.base ** (e - other.exp))
        return PowRational.make(num, e, self.base)

    def __neg__(self) -> "PowRational":
        return PowRational(-self.num, self.exp, self.base)

    def div_pow(self, n: int, k: int) -> "PowRational":
        """Exact value self / n^k, where |n| equals the stored base."""
        if abs(n) != self.base:
            raise ValueError("div_pow requires |n| == base")
        sign = -1 if (n < 0 and k % 2) else 1
        if k >= 0:
            return PowRational.make(sign * self.num, self.exp + k, self.base)
        return PowRational.make(sign * self.num * self.base ** (-k), self.exp, self.base)

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{self.base}^{self.exp}"


@dataclass(frozen=True)
class AffineElement:
    """(t, k) in Z[1/|n|] x| Z with (t1,k1)(t2,k2) = (t1 + t2/n^k1, k1+k2)."""

    t: PowRational
    k: int
    n: int  # ambient signed n

    @classmethod
    def identity(cls, n: int) -> "AffineElement":
        return cls(PowRational.integer(0, abs(n)), 0, n)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.n != other.n:
            raise ValueError("mixed ambient n")
        return AffineElement(self.t + other.t.div_pow(self.n, self.k), self.k + other.k, self.n)

    def inverse(self) -> "AffineElement":
        return AffineElement((-self.t).div_pow(self.n, -self.k), -self.k, self.n)

    def __str__(self):
        return f"({self.t}, {self.k})"


def _affine_n(group: GroupSpec) -> int:
    """Ambient n of the affine model, after folding m = -1 into B(1,-n)."""
    if group.m == 1:
        n = group.n
    elif group.m == -1:
        n = -group.n
    else:
        raise WrongFamily(f"{group} has |m| != 1")
    if abs(n) < 2:
        raise WrongFamily(f"{group} has |n| = 1; use the Klein model or B(1,1) directly")
    return n


def bs1n_embed(w: Word, group: GroupSpec) -> AffineElement:
    """Injective homomorphism B(1,n) -> Z[1/|n|] x| Z, a -> (0,1), b -> (1,0)."""
    n = _affine_n(group)
    result = AffineElement.identity(n)
    for s in w:
        if s.base == A:
            piece = AffineElement(PowRational.integer(0, abs(n)), s.exp, n)
        else:
            piece = AffineElement(PowRational.integer(s.exp, abs(n)), 0, n)
        result = result * piece
    return result


def affine_to_word(e: AffineElement) -> Word:
    """Partial inverse: defined only for denominator-free translation parts."""
    if e.t.exp != 0:
        raise NotRepresentable(f"translation part {e.t} has a denominator")
    return word([(B, e.t.num), (A, e.k)])


# ---------------------------------------------------------------------------
# F_m x| Z  (permuted-product model for B(m,m))

@dataclass(frozen=True)
class FreeWord:
    """Reduced word over x_1..x_m: tuple of (index, exp) with merged indices."""

    syllables: tuple[tuple[int, int], ...] = ()

    @classmethod
    def generator(cls, index: int, exp: int = 1) -> "FreeWord":
        if exp == 0:
            return cls()
        return cls(((index, exp),))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        stack = [list(p) for p in self.syllables]
        for idx, exp in other.syllables:
            if stack and stack[-1][0] == idx:
                stack[-1][1] += exp
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([idx, exp])
        return FreeWord(tuple((i, e) for i, e in stack))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((i, -e) for i, e in reversed(self.syllables)))

    def shift(self, k: int, m: int) -> "FreeWord":
        """Apply sigma^k, the index rotation x_j -> x_(j+k mod m)."""
        return FreeWord(tuple(((i - 1 + k) % m + 1, e) for i, e in self.syllables))

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self):
        if not self.syllables:
            return "1"
        return " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in self.syllables)


@dataclass(frozen=True)
class PermutedProduct:
    """(w, k) in F_m x| Z with (w1,k1)(w2,k2) = (w1 sigma^k1(w2), k1+k2)."""

    w: FreeWord
    k: int
    m: int  # rank of the free part; sigma has order m

    @classmethod
    def identity(cls, m: int) -> "PermutedProduct":
        return cls(FreeWord(), 0, m)

    def __mul__(self, other: "PermutedProduct") -> "PermutedProduct":
        if self.m != other.m:
            raise ValueError("mixed ambient rank")
        return PermutedProduct(self.w * other.w.shift(self.k, self.m), self.k + other.k, self.m)

    def inverse(self) -> "PermutedProduct":
        return PermutedProduct(self.w.inverse().shift(-self.k, self.m), -self.k, self.m)

    def __str__(self):
        return f"({self.w}, {self.k})"


def bsmm_embed(w: Word, group: GroupSpec) -> PermutedProduct:
    """Injective homomorphism B(m,m) -> F_m x| Z, a -> (x1, 0), b -> (1, 1)."""
    if group.m != group.n or abs(group.m) < 2:
        raise WrongFamily(f"{group} is not B(m,m) with |m| > 1")
    m = abs(group.m)
    result = PermutedProduct.identity(m)
    for s in w:
        if s.base == A:
            piece = PermutedProduct(FreeWord.generator(1, s.exp), 0, m)
        else:
            piece = PermutedProduct(FreeWord(), s.exp, m)
        result = result * piece
    return result


def permuted_to_word(e: PermutedProduct) -> Word:
    """Inverse via x_j = b^(j-1) a b^-(j-1), then the b^k tail."""
    pairs = []
    for idx, exp in e.w.syllables:
        pairs.extend([(B, idx - 1), (A, exp), (B, -(idx - 1))])
    pairs.append((B, e.k))
    return word(pairs)


# ---------------------------------------------------------------------------
# Z x| Z  (Klein bottle model for B(1,-1))

@dataclass(frozen=True)
class KleinElement:
    """(u, v) with (u1,v1)(u2,v2) = (u1 + (-1)^v1 u2, v1+v2)."""

    u: int
    v: int

    def __mul__(self, other: "KleinElement") -> "KleinElement":
        sign = -1 if self.v % 2 else 1
        return KleinElement(self.u + sign * other.u, self.v + other.v)

    def inverse(self) -> "KleinElement":
        sign = -1 if self.v % 2 else 1
        return KleinElement(-sign * self.u, -self.v)

    def __str__(self):
        return f"({self.u}, {self.v})"


KLEIN_IDENTITY = KleinElement(0, 0)


def _is_klein(group: GroupSpec) -> bool:
    return (group.m, group.n) in ((1, -1), (-1, 1))


def klein_embed(w: Word, group: GroupSpec) -> KleinElement:
    """Isomorphism B(1,-1) -> Z x| Z, a -> (0,1), b -> (1,0)."""
    if not _is_klein(group):
        raise WrongFamily(f"{group} is not B(1,-1) up to sign")
    result = KLEIN_IDENTITY
    for s in w:
        piece = KleinElement(0, s.exp) if s.base == A else KleinElement(s.exp, 0)
        result = result * piece
    return result


def klein_to_word(e: KleinElement) -> Word:
    return word([(B, e.u), (A, e.v)])


# ---------------------------------------------------------------------------
# Oracle dispatch

AFFINE = "affine"
PERMUTED = "permuted-product"
KLEIN = "klein"


def model_family(group: GroupSpec) -> str:
    """Which faithful model applies, or WrongFamily if none does."""
    if _is_klein(group):
        return KLEIN
    if abs(group.m) == 1 and abs(group.n) > 1:
        return AFFINE
    if group.m == group.n and abs(group.m) > 1:
        return PERMUTED
    raise WrongFamily(f"no faithful model for {group}")


def model_embed(w: Word, group: GroupSpec):
    family = model_family(group)
    if family == KLEIN:
        return klein_embed(w, group)
    if family == AFFINE:
        return bs1n_embed(w, group)
    return bsmm_embed(w, group)


def model_equal_oracle(u: Word, v: Word, group: GroupSpec) -> bool:
    """Equality test independent of Britton reduction."""
    return model_embed(u, group) == model_embed(v, group)
