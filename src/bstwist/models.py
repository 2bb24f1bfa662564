"""Faithful exact models for the three special Baumslag-Solitar families.

B(1,n) with |n| > 1 embeds in Z[1/|n|] x| Z (affine model), B(m,m) with
|m| > 1 in F_m x| Z (permuted-product model), and B(1,-1) in Z x| Z (the
Klein bottle group).  The embeddings are used as independent equality
oracles against Britton reduction and as substrates for the twisted-class
ball enumerator.

Each family is one `ModelFamily` record: its generator images and its
enumeration substrate.  `model_family` is the only place that decides which
record a group gets.

Sign convention: the Z-action on Z[1/|n|] is x -> x/n with the sign of n
carried along; under it a = (0,1), b = (1,0) satisfy a^-1 b a = b^n, which
is verified by unit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import WrongFamily
from .words import A, GroupSpec, Word


@dataclass(frozen=True, eq=False)
class ModelFamily:
    """A faithful model and its enumeration substrate: a box of int/tuple
    keys, the key of a model element, and twist kernels.  A kernel is built
    once from the images psi(g) and phi(g)^-1 of one generator g and maps
    the key of x to the key of (psi(g) x) phi(g)^-1, or to None when that
    has no key; box membership is decided by the caller."""

    name: str  # the `family` of a BallReport
    a_power: Callable  # (group, e) -> image of a^e
    b_power: Callable  # (group, e) -> image of b^e
    box: Callable  # (bounds, group) -> keys in box order
    key_of: Callable  # (model element, bounds) -> key or None
    twist: Callable  # (psi(g), phi(g)^-1, bounds) -> key -> key or None
    enumerate_bounds: dict
    witness_bounds: dict

    def embed(self, w: Word, group: GroupSpec):
        """Injective homomorphism from `group` into this model."""
        result = self.a_power(group, 0)  # the identity
        for s in w:
            result = result * (self.a_power if s.base == A else self.b_power)(group, s.exp)
        return result


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

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.n != other.n:
            raise ValueError("mixed ambient n")
        return AffineElement(self.t + other.t.div_pow(self.n, self.k), self.k + other.k, self.n)

    def inverse(self) -> "AffineElement":
        return AffineElement((-self.t).div_pow(self.n, -self.k), -self.k, self.n)

    def __str__(self):
        return f"({self.t}, {self.k})"


def _affine(group: GroupSpec, t: int, k: int) -> AffineElement:
    """(t, k) in the model of B(1,n); m = -1 folds B(-1,n) into B(1,-n)."""
    n = group.m * group.n
    return AffineElement(PowRational.integer(t, abs(n)), k, n)


def _affine_exp(bounds: dict) -> int:
    """e: the box holds (p / |n|^e, k) for |p| <= t, |k| <= k."""
    return bounds.get("e", min(bounds["k"], 4))


def _affine_box(bounds: dict, group: GroupSpec) -> list:
    k_max, t_max = bounds["k"], bounds["t"]
    return [(p, k) for p in range(-t_max, t_max + 1)
            for k in range(-k_max, k_max + 1)]


def _affine_key(element: AffineElement, bounds: dict):
    e = _affine_exp(bounds)
    t = element.t
    if t.exp > e:
        return None  # finer denominator than the lattice carries
    return (t.num * t.base ** (e - t.exp), element.k)


def _affine_twist(pg: AffineElement, fg: AffineElement, bounds: dict):
    """(p, k) -> key of (pt + t / n^pk + ft / n^(pk + k), pk + k + fk).

    With t = p / |n|^e, every term is an integer over |n|^(e + lift) for
    the `lift` below and every k in the box, so the image's numerator over
    |n|^e is that integer divided by |n|^lift, and it exists exactly when
    |n|^lift divides it (the lowest-terms exponent is at most e).
    """
    base, e, k_max = pg.t.base, _affine_exp(bounds), bounds["k"]
    pk = pg.k

    def sign(j):  # 1 / n^j = sign(j) / |n|^j
        return -1 if pg.n < 0 and j % 2 else 1

    lift = max(0, pg.t.exp - e, pk, fg.t.exp + pk + k_max - e)
    unit = base ** lift
    scale = sign(pk) * base ** (lift - pk)
    const = pg.t.num * base ** (e + lift - pg.t.exp)
    offset = {k: const + fg.t.num * sign(pk + k) * base ** (e + lift - fg.t.exp - pk - k)
              for k in range(-k_max, k_max + 1)}
    shift = pk + fg.k

    def image(key):
        p, k = key
        num, rest = divmod(p * scale + offset[k], unit)
        return None if rest else (num, k + shift)
    return image


AFFINE = ModelFamily(
    name="affine",  # a -> (0, 1), b -> (1, 0)
    a_power=lambda group, e: _affine(group, 0, e),
    b_power=lambda group, e: _affine(group, e, 0),
    box=_affine_box, key_of=_affine_key, twist=_affine_twist,
    enumerate_bounds={"k": 10, "t": 200, "e": 4}, witness_bounds={"k": 12, "t": 200, "e": 4})


# ---------------------------------------------------------------------------
# F_m x| Z  (permuted-product model for B(m,m))

def _free_reduce(*parts) -> tuple:
    """Freely reduced product of syllable tuples ((index, exp), ...)."""
    stack = []
    for part in parts:
        for idx, exp in part:
            if stack and stack[-1][0] == idx:
                exp += stack.pop()[1]
                if not exp:
                    continue
            stack.append((idx, exp))
    return tuple(stack)


def _shift(syllables: tuple, k: int, m: int) -> tuple:
    """sigma^k on a syllable tuple, x_j -> x_(j+k mod m)."""
    return tuple(((i - 1 + k) % m + 1, e) for i, e in syllables)


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
        return FreeWord(_free_reduce(self.syllables, other.syllables))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((i, -e) for i, e in reversed(self.syllables)))

    def shift(self, k: int, m: int) -> "FreeWord":
        """Apply sigma^k, the index rotation x_j -> x_(j+k mod m)."""
        return FreeWord(_shift(self.syllables, k, m))

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

    def __mul__(self, other: "PermutedProduct") -> "PermutedProduct":
        if self.m != other.m:
            raise ValueError("mixed ambient rank")
        return PermutedProduct(self.w * other.w.shift(self.k, self.m), self.k + other.k, self.m)

    def inverse(self) -> "PermutedProduct":
        return PermutedProduct(self.w.inverse().shift(-self.k, self.m), -self.k, self.m)

    def __str__(self):
        return f"({self.w}, {self.k})"


def _free_words(m: int, max_len: int) -> list:
    """Reduced words over x_1..x_m of length <= max_len, shortest first."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for idx in range(1, m + 1):
                for exp in (1, -1):
                    if w and w[-1][0] == idx:
                        if (w[-1][1] > 0) == (exp > 0):
                            nxt.append(w[:-1] + ((idx, w[-1][1] + exp),))
                    else:
                        nxt.append(w + ((idx, exp),))
        frontier = nxt
        words.extend(frontier)
    return words


def _permuted_box(bounds: dict, group: GroupSpec) -> list:
    k_max = bounds["k"]
    return [(w, k) for w in _free_words(abs(group.m), bounds["l"])
            for k in range(-k_max, k_max + 1)]


def _permuted_key(element: PermutedProduct, bounds: dict):
    return (element.w.syllables, element.k)


def _permuted_twist(pg: PermutedProduct, fg: PermutedProduct, bounds: dict):
    """(w, k) -> (pw sigma^pk(w) sigma^(pk+k)(fw), pk + k + fk)."""
    m, pw, pk = pg.m, pg.w.syllables, pg.k
    tails = [_shift(fg.w.syllables, r, m) for r in range(m)]
    shift = pk + fg.k
    products = {}  # the free part depends on w and (pk + k) mod m only

    def image(key):
        w, k = key
        r = (pk + k) % m
        product = products.get((w, r))
        if product is None:
            product = products[w, r] = _free_reduce(pw, _shift(w, pk, m), tails[r])
        return (product, k + shift)
    return image


PERMUTED = ModelFamily(
    name="permuted-product",  # a -> (x1, 0), b -> (1, 1)
    a_power=lambda group, e: PermutedProduct(FreeWord.generator(1, e), 0, abs(group.m)),
    b_power=lambda group, e: PermutedProduct(FreeWord(), e, abs(group.m)),
    box=_permuted_box, key_of=_permuted_key, twist=_permuted_twist,
    enumerate_bounds={"l": 4, "k": 6}, witness_bounds={"l": 3, "k": 12})


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


def _klein_box(bounds: dict, group: GroupSpec) -> list:
    u_max, v_max = bounds["u"], bounds["v"]
    return [(u, v) for u in range(-u_max, u_max + 1)
            for v in range(-v_max, v_max + 1)]


def _klein_key(element: KleinElement, bounds: dict):
    return (element.u, element.v)


def _klein_twist(pg: KleinElement, fg: KleinElement, bounds: dict):
    """(u, v) -> (pu + s u + s (-1)^v fu, pv + v + fv), s = (-1)^pv."""
    pu, fu, shift = pg.u, fg.u, pg.v + fg.v
    sign = -1 if pg.v % 2 else 1

    def image(key):
        u, v = key
        return (pu + sign * u + (-sign if v % 2 else sign) * fu, v + shift)
    return image


KLEIN = ModelFamily(
    name="klein",  # a -> (0, 1), b -> (1, 0)
    a_power=lambda group, e: KleinElement(0, e),
    b_power=lambda group, e: KleinElement(e, 0),
    box=_klein_box, key_of=_klein_key, twist=_klein_twist,
    enumerate_bounds={"u": 64, "v": 8}, witness_bounds={"u": 48, "v": 10})


# ---------------------------------------------------------------------------
# Oracle dispatch


def model_family(group: GroupSpec) -> ModelFamily:
    """The faithful model of `group`, or WrongFamily if none applies."""
    m, n = group.m, group.n
    if m * n == -1:
        return KLEIN
    if abs(m) == 1 and abs(n) > 1:
        return AFFINE
    if m == n and abs(m) > 1:
        return PERMUTED
    raise WrongFamily(f"no faithful model for {group}")


def model_embed(w: Word, group: GroupSpec):
    """Image of w in the faithful model of its group."""
    return model_family(group).embed(w, group)


def model_equal_oracle(u: Word, v: Word, group: GroupSpec) -> bool:
    """Equality test independent of Britton reduction."""
    return model_embed(u, group) == model_embed(v, group)
