"""Faithful exact models for the three special Baumslag-Solitar families.

B(1,n) with |n| > 1 embeds in Z[1/|n|] x| Z (affine model), B(m,m) with
|m| > 1 in F_m x| Z (permuted-product model), and B(1,-1) in Z x| Z (the
Klein bottle group).  The embeddings are used as independent equality
oracles against Britton reduction and as substrates for the twisted-class
ball enumerator.

An element is its coordinate pair in plain fields: (num / |n|^exp, k) in
lowest terms, (w, k) with w a reduced syllable tuple ((index, exp), ...)
over x_1..x_m, and (u, v).  The three element classes are `__slots__`
value classes on `words._Value`, like `Word`: equal exactly when they have
the same class and field tuple, hashed by that tuple and immutable, so
equality of elements is equality in the group.

Each family is one `ModelFamily` record: its generator images and its
enumeration substrate.  The substrate is an index grid, rows times one axis
(rows v and axis u for the Klein bottle group, rows k and axis p, the
numerator over |n|^e, for B(1,n), rows of reduced free words and axis k
for B(m,m)), on which a twist sends each run of a row (the row, or one
residue class of its axis) affinely onto one row.  A twist is kept as
those runs only, one slice pair each, and no element key, key-to-index map
or per-element column is built, so the enumerator merges and erodes its
box a run at a time.  The runs that share one axis map are built as one
batch, clipped once.
`model_family` is the only place that decides which record a group gets.

Sign convention: the Z-action on Z[1/|n|] is x -> x/n with the sign of n
carried along; under it a = (0,1), b = (1,0) satisfy a^-1 b a = b^n, which
is verified by unit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable

from .errors import WrongFamily
from .words import A, GroupSpec, Word, _set_field, _Value


@dataclass(frozen=True, eq=False)
class ModelFamily:
    """A faithful model and its enumeration substrate.

    The box is an index grid of rows times one axis: the element at axis
    position j of row r has box index r * width + j.  `index_of` gives the
    box index of a model element, or None outside the box.
    `columns(psi(g), phi(g)^-1, bounds)` gives the twist by g as a grid of
    runs.  A twist sends each run of a row (the row, or one residue class
    of its axis) affinely onto one row, so `runs` lists slice pairs
    (src, dst): the element at box index src[j] goes to
    (psi(g) x) phi(g)^-1 at box index dst[j], and an element in no src
    leaves the box.  Read the other way, the runs give the inverse twist
    psi(g)^-1 (x phi(g)): it sends dst to src.
    """

    name: str  # the `family` of a BallReport
    a_power: Callable  # (group, e) -> image of a^e
    b_power: Callable  # (group, e) -> image of b^e
    index_of: Callable  # (model element, bounds) -> box index or None
    columns: Callable  # (psi(g), phi(g)^-1, bounds) -> grid of runs
    enumerate_bounds: dict
    witness_bounds: dict

    def embed(self, w: Word, group: GroupSpec):
        """Injective homomorphism from `group` into this model."""
        result = self.a_power(group, 0)  # the identity
        for base, exp in w:
            result = result * (self.a_power if base == A else self.b_power)(group, exp)
        return result


def _steps(x0: int, step: int, width: int) -> tuple[int, int]:
    """(lo, hi): the j with 0 <= x0 + j * step < width are lo..hi."""
    if step < 0:
        lo, hi = _steps(x0, -step, width)
        return -hi, -lo
    return -(x0 // step), (width - 1 - x0) // step


def _clip(x0: int, step: int, y0: int, to_step: int, width: int) -> tuple[int, int]:
    """[lo, hi): the j that keep x0 + j * step and y0 + j * to_step on 0..width-1."""
    (lo, hi), (to_lo, to_hi) = _steps(x0, step, width), _steps(y0, to_step, width)
    return max(lo, to_lo), min(hi, to_hi) + 1


def slice_of(start: int, stop: int, step: int) -> slice:
    """The list slice of the indices start, start + step, ... short of
    stop; one that descends through index 0 stops at None, as a stop
    below 0 counts from the end."""
    return slice(start, stop if stop >= 0 else None, step)


class _Columns:
    """A twist on a rows x width grid, kept as its runs.  `runs` holds each
    run as a pair of slices (src, dst) of box indices: the twist sends
    src[j] to dst[j].  The two sides of a run have one length, and each
    lies in one row, as `reidemeister.union_runs` needs.  The src slices
    are pairwise disjoint, and so are the dst slices; no per-element column
    is written.
    """

    def __init__(self, rows: int, width: int):
        self.rows, self.width, self.runs = rows, width, []

    def run(self, pairs, x0: int, step: int, y0: int, to_step: int):
        """Send position x0 + j * step of `row` to y0 + j * to_step of
        `to_row` for each (row, to_row) in the batch `pairs` with to_row on
        the grid, and each j that keeps both on the axis.  The batch shares
        one axis map, clipped once."""
        lo, hi = _clip(x0, step, y0, to_step, self.width)
        if lo >= hi:
            return
        width, rows, runs = self.width, self.rows, self.runs
        start, stop = x0 + lo * step, x0 + hi * step
        to_start, to_stop = y0 + lo * to_step, y0 + hi * to_step
        for row, to_row in pairs:
            if 0 <= to_row < rows:
                base, to_base = row * width, to_row * width
                runs.append((slice_of(base + start, base + stop, step),
                             slice_of(to_base + to_start, to_base + to_stop, to_step)))


# ---------------------------------------------------------------------------
# Z[1/|n|] x| Z  (affine model for B(1,n))

def _sign(n: int, k: int) -> int:
    """The sign of 1 / n^k: 1 / n^k = _sign(n, k) / |n|^k."""
    return -1 if n < 0 and k % 2 else 1


def _lowest(num: int, exp: int, base: int) -> tuple[int, int]:
    """(num, exp) of num / base^exp in lowest terms: exp = 0, or base does
    not divide num.  A negative exp is folded into num."""
    if exp < 0:
        return num * base ** -exp, 0
    while exp and num % base == 0:
        num //= base
        exp -= 1
    return num, exp


class AffineElement(_Value):
    """(x, k) in Z[1/|n|] x| Z with (x1,k1)(x2,k2) = (x1 + x2/n^k1, k1+k2),
    x = num / |n|^exp in lowest terms (`_lowest`)."""

    __slots__ = ("num", "exp", "k", "n")  # n: the ambient signed n
    num: int
    exp: int
    k: int
    n: int

    def __init__(self, num: int, exp: int, k: int, n: int):
        _set_field(self, "num", num)
        _set_field(self, "exp", exp)
        _set_field(self, "k", k)
        _set_field(self, "n", n)

    def _fields(self) -> tuple:
        return (self.num, self.exp, self.k, self.n)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.n != other.n:
            raise ValueError("mixed ambient n")
        base, exp = abs(self.n), other.exp + self.k  # x2 / n^k1 over |n|^exp
        e = max(self.exp, exp)
        num = (self.num * base ** (e - self.exp)
               + _sign(self.n, self.k) * other.num * base ** (e - exp))
        return AffineElement(*_lowest(num, e, base), self.k + other.k, self.n)

    def inverse(self) -> "AffineElement":
        """(-x n^k, -k)."""
        num = -_sign(self.n, self.k) * self.num
        return AffineElement(*_lowest(num, self.exp - self.k, abs(self.n)), -self.k, self.n)


def _affine(group: GroupSpec, t: int, k: int) -> AffineElement:
    """(t, k) in the model of B(1,n); m = -1 folds B(-1,n) into B(1,-n)."""
    return AffineElement(t, 0, k, group.m * group.n)


def _affine_exp(bounds: dict) -> int:
    """e: the box holds (p / |n|^e, k) for |p| <= t, |k| <= k."""
    return bounds.get("e", min(bounds["k"], 4))


def _affine_index(element: AffineElement, bounds: dict):
    e, k_max, t_max = _affine_exp(bounds), bounds["k"], bounds["t"]
    if element.exp > e:
        return None  # finer denominator than the lattice carries
    p = element.num * abs(element.n) ** (e - element.exp)
    if abs(p) > t_max or abs(element.k) > k_max:
        return None
    return (element.k + k_max) * (2 * t_max + 1) + p + t_max


def _affine_columns(pg: AffineElement, fg: AffineElement, bounds: dict):
    """(p, k) -> (p', k + pk + fk): the numerator over |n|^e of
    px + x / n^pk + fx / n^(pk + k).

    With x = p / |n|^e, every term is an integer over |n|^(e + lift) for
    the `lift` below and every k in the box, so p' = (p scale + offset_k) /
    unit with unit = |n|^lift, and p' exists exactly when unit divides the
    numerator (the lowest-terms exponent is at most e).  scale and unit
    are powers of |n| up to sign, so with g = gcd(scale, unit) that holds
    on no p of row k unless g divides offset_k, and otherwise on the p
    congruent to p0 modulo unit / g, where p' steps by scale / g.  The
    offset differs by row, so each batch is one row.
    """
    base, e, k_max, t_max = abs(pg.n), _affine_exp(bounds), bounds["k"], bounds["t"]
    pk = pg.k
    lift = max(0, pg.exp - e, pk, fg.exp + pk + k_max - e)
    unit = base ** lift
    scale = _sign(pg.n, pk) * base ** (lift - pk)
    const = pg.num * base ** (e + lift - pg.exp)
    g = gcd(scale, unit)
    step, inverse = unit // g, pow(scale // g, -1, unit // g)
    shift = pk + fg.k
    grid = _Columns(2 * k_max + 1, 2 * t_max + 1)  # row k, axis p
    for row in range(grid.rows):
        k = row - k_max
        offset = const + fg.num * _sign(pg.n, pk + k) * base ** (e + lift - fg.exp - pk - k)
        if offset % g:
            continue
        p0 = -offset // g * inverse % step
        grid.run(((row, row + shift),), p0 + t_max, step,
                 (p0 * scale + offset) // unit + t_max, scale // g)
    return grid


AFFINE = ModelFamily(
    name="affine",  # a -> (0, 1), b -> (1, 0)
    a_power=lambda group, e: _affine(group, 0, e),
    b_power=lambda group, e: _affine(group, e, 0),
    index_of=_affine_index, columns=_affine_columns,
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


def _shift(syllables, k: int, m: int) -> tuple:
    """sigma^k on a syllable tuple, x_j -> x_(j+k mod m)."""
    return tuple(((i - 1 + k) % m + 1, e) for i, e in syllables)


class PermutedProduct(_Value):
    """(w, k) in F_m x| Z with (w1,k1)(w2,k2) = (w1 sigma^k1(w2), k1+k2).
    w is a reduced syllable tuple ((index, exp), ...), and m the rank of
    the free part: sigma has order m."""

    __slots__ = ("w", "k", "m")
    w: tuple
    k: int
    m: int

    def __init__(self, w: tuple, k: int, m: int):
        _set_field(self, "w", w)
        _set_field(self, "k", k)
        _set_field(self, "m", m)

    def _fields(self) -> tuple:
        return (self.w, self.k, self.m)

    def __mul__(self, other: "PermutedProduct") -> "PermutedProduct":
        if self.m != other.m:
            raise ValueError("mixed ambient rank")
        return PermutedProduct(_free_reduce(self.w, _shift(other.w, self.k, self.m)),
                               self.k + other.k, self.m)

    def inverse(self) -> "PermutedProduct":
        w = _shift(((i, -e) for i, e in reversed(self.w)), -self.k, self.m)
        return PermutedProduct(w, -self.k, self.m)


def _free_words(m: int, max_len: int) -> list:
    """Reduced words over x_1..x_m of length <= max_len, shortest first."""
    words, frontier = [()], [()]
    for _ in range(max_len):  # append x_idx^exp, merging into a last syllable of that sign
        frontier = [w[:-1] + ((idx, w[-1][1] + exp),) if w and w[-1][0] == idx
                    else w + ((idx, exp),)
                    for w in frontier for idx in range(1, m + 1) for exp in (1, -1)
                    if not (w and w[-1][0] == idx and (w[-1][1] > 0) != (exp > 0))]
        words += frontier
    return words


@lru_cache
def _permuted_rows(m: int, max_len: int) -> dict:
    """Row of each reduced word of length <= max_len (syllables -> row),
    built once per (m, max_len) and shared: every caller only reads it."""
    return {w: row for row, w in enumerate(_free_words(m, max_len))}


@lru_cache
def _permuted_heads(m: int, max_len: int, k: int) -> tuple:
    """sigma^k of each row's word in row order, 0 <= k < m: shape only, shared."""
    return tuple(_shift(w, k, m) for w in _permuted_rows(m, max_len))


def _permuted_index(element: PermutedProduct, bounds: dict):
    k_max = bounds["k"]
    row = _permuted_rows(element.m, bounds["l"]).get(element.w)
    if row is None or abs(element.k) > k_max:
        return None
    return row * (2 * k_max + 1) + element.k + k_max


def _permuted_columns(pg: PermutedProduct, fg: PermutedProduct, bounds: dict):
    """(w, k) -> (pw sigma^pk(w) sigma^(pk+k)(fw), k + pk + fk).

    The free part depends on w and r = (pk + k) mod m only, so each (w, r)
    takes one free reduction, and the k of that r, which step by m, form
    one run onto the row of the product.  A nontrivial reduced fw is moved
    by every sigma^r with 0 < r < m, but a trivial one by none: then the
    free part depends on w alone, and each row is one run with step 1.
    The runs of one r share their axis map, so each r is one batch.
    """
    m, pw, pk, k_max = pg.m, pg.w, pg.k, bounds["k"]
    rows = _permuted_rows(m, bounds["l"])
    heads = _permuted_heads(m, bounds["l"], pk % m)
    grid = _Columns(len(rows), 2 * k_max + 1)  # row w, axis k
    period = m if fg.w else 1
    shift = pk + fg.k
    for r in range(period):
        tail = _shift(fg.w, r, m)
        x0 = (r - pk + k_max) % period  # axis position k + k_max of the first k
        # a product outside the rows gets to_row -1, which `run` drops
        grid.run(enumerate(rows.get(_free_reduce(pw, head, tail), -1) for head in heads),
                 x0, period, x0 + shift, period)
    return grid


PERMUTED = ModelFamily(
    name="permuted-product",  # a -> (x1, 0), b -> (1, 1)
    a_power=lambda group, e: PermutedProduct(((1, e),) if e else (), 0, abs(group.m)),
    b_power=lambda group, e: PermutedProduct((), e, abs(group.m)),
    index_of=_permuted_index, columns=_permuted_columns,
    enumerate_bounds={"l": 4, "k": 6}, witness_bounds={"l": 3, "k": 12})


# ---------------------------------------------------------------------------
# Z x| Z  (Klein bottle model for B(1,-1))

class KleinElement(_Value):
    """(u, v) with (u1,v1)(u2,v2) = (u1 + (-1)^v1 u2, v1+v2)."""

    __slots__ = ("u", "v")
    u: int
    v: int

    def __init__(self, u: int, v: int):
        _set_field(self, "u", u)
        _set_field(self, "v", v)

    def _fields(self) -> tuple:
        return (self.u, self.v)

    def __mul__(self, other: "KleinElement") -> "KleinElement":
        sign = -1 if self.v % 2 else 1
        return KleinElement(self.u + sign * other.u, self.v + other.v)

    def inverse(self) -> "KleinElement":
        sign = -1 if self.v % 2 else 1
        return KleinElement(-sign * self.u, -self.v)


def _klein_index(element: KleinElement, bounds: dict):
    u_max, v_max = bounds["u"], bounds["v"]
    if abs(element.u) > u_max or abs(element.v) > v_max:
        return None
    return (element.v + v_max) * (2 * u_max + 1) + element.u + u_max


def _klein_columns(pg: KleinElement, fg: KleinElement, bounds: dict):
    """(u, v) -> (pu + s u + s (-1)^v fu, v + pv + fv), s = (-1)^pv: row v
    goes onto row v + pv + fv, reversed when pv is odd.  The rows of one
    parity of v share that map, so each parity is one batch."""
    u_max, v_max = bounds["u"], bounds["v"]
    sign = -1 if pg.v % 2 else 1
    shift = pg.v + fg.v
    grid = _Columns(2 * v_max + 1, 2 * u_max + 1)  # row v, axis u
    for parity in (0, 1):
        c = pg.u + (-sign if parity else sign) * fg.u
        rows = range((v_max + parity) % 2, grid.rows, 2)  # (row - v_max) % 2 == parity
        # position 0 holds u = -u_max, whose image has position c - s u_max + u_max
        grid.run(zip(rows, range(rows.start + shift, rows.stop + shift, 2)),
                 0, 1, c - sign * u_max + u_max, sign)
    return grid


KLEIN = ModelFamily(
    name="klein",  # a -> (0, 1), b -> (1, 0)
    a_power=lambda group, e: KleinElement(0, e),
    b_power=lambda group, e: KleinElement(e, 0),
    index_of=_klein_index, columns=_klein_columns,
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
