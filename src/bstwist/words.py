"""Exact word arithmetic in the Baumslag-Solitar group B(m,n).

B(m,n) = <a, b | a^-1 b^m a = b^n>.  Elements are freely reduced syllable
sequences, each syllable a plain (base, exp) pair that `Word` checks once;
the word problem is solved by pinch ("Britton") reduction:
a^-1 b^(tm) a -> b^(tn) and a b^(tn) a^-1 -> b^(tm).  All exponents are
plain Python integers, so the geometric growth of b-exponents under
reduction is handled exactly.

An a-syllable a^e is one item of every pass, however large e is.  Its
units are spent one at a time only where something acts on each of them:
a pinch in `britton_reduce`, a nonzero carry in `_carry_pass`.  Both
passes return the same word as feeding a^e in as |e| separate units, so
the innermost-leftmost reduction and the normal form text do not depend
on how the exponents are grouped.

The normal form is one Britton pass, then one carry pass.  On a reduced
word the carry pass leaves a nonzero b-residue between opposite a-units, so
it exposes no cancellation and no pinch, and running it again changes
nothing (see `normal_form`).

Powers and substitutions are built in conjugate form.  A word is split
once as w = u·c·u⁻¹ with c cyclically reduced (c·c cancels nothing), so
w^k = u·c^k·u⁻¹: u, then |k| copies of c (or of c⁻¹), then u⁻¹ go straight
into one stack, and a core of one syllable goes in once as its k-th power.

`GroupSpec`, `Word` and `NormalForm` are plain `__slots__` value classes,
not dataclasses, because every `bs-twist` command imports this module and
`dataclasses` imports `inspect` (with `ast`, `dis` and `tokenize`): about a
third of the import time of a word-problem command.  `_Value` gives them
what a frozen dataclass would: equality by type and fields, the hash of
the field tuple, the same repr, no assignment or deletion, and copying and
pickling through the constructor.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import WordSyntaxError

A = "a"
B = "b"


_new_object = object.__new__
_set_field = object.__setattr__
_new_tuple = tuple.__new__
_exponent = itemgetter(1)  # of a (base, exp) pair


class _Value:
    """An immutable record of the fields named in `__slots__`, compared,
    hashed and printed as a frozen dataclass of those fields would be.
    Each subclass sets its fields once, in `__init__`, with `_set_field`,
    and its `_fields` returns their values in `__slots__` order."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the slots cannot be restored by assignment, so copy and pickle
        # rebuild the value through the constructor
        return self.__class__, self._fields()


class GroupSpec(_Value):
    """The index pair (m, n) of B(m,n), nonzero exact ints: 2.0 or True
    hashes as an int and would share its cached relator, so raises TypeError."""

    __slots__ = ("m", "n")
    m: int
    n: int

    def __init__(self, m: int, n: int):
        if type(m) is not int or type(n) is not int:
            raise TypeError(f"B(m,n) takes exact int indices, got {m!r}, {n!r}")
        if m == 0 or n == 0:
            raise ValueError("B(m,n) requires m != 0 and n != 0")
        _set_field(self, "m", m)
        _set_field(self, "n", n)

    def _fields(self) -> tuple:
        return (self.m, self.n)

    def __str__(self):
        return f"B({self.m},{self.n})"


class Syllable(NamedTuple):
    base: str  # A or B
    exp: int


class Word(_Value):
    """Freely reduced sequence of syllables; the empty word is the identity.
    The one check of every syllable: base A or B, exponent a nonzero exact
    int (else TypeError), bases alternating.  The word operations build
    results with `_word`, which skips it: their stacks pass by construction."""

    __slots__ = ("syllables",)
    syllables: tuple[Syllable, ...]

    def __init__(self, syllables: tuple[Syllable, ...] = ()):
        prev = None
        for base, exp in syllables:
            if base not in (A, B):
                raise ValueError(f"bad syllable base {base!r}")
            if type(exp) is not int:
                raise TypeError(f"syllable exponent must be an exact int, got {exp!r}")
            if not exp:
                raise ValueError("syllable exponent must be nonzero")
            if base == prev:
                raise ValueError("word is not freely reduced")
            prev = base
        _set_field(self, "syllables", syllables)

    def _fields(self) -> tuple:
        return (self.syllables,)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __len__(self):
        return len(self.syllables)

    def __bool__(self):
        return bool(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __str__(self):
        return format_word(self)


def _push(stack: list[list], base: str, exp: int) -> None:
    """Append (base, exp) to a freely reduced syllable stack.

    It merges with the top when the bases match, and a zero sum pops the
    top; the stack alternates bases, so a pop exposes the other base.
    """
    if exp == 0:
        return
    if stack and stack[-1][0] == base:
        total = stack[-1][1] + exp
        if total:
            stack[-1][1] = total
        else:
            stack.pop()
    else:
        stack.append([base, exp])


def _word(pairs: Iterable) -> Word:
    """The Word of freely reduced, alternating (base, exp) pairs, such as a
    `_push` stack.

    Such pairs pass `Word`'s check by construction, so the Word is built
    without running it, and each pair becomes a Syllable at C level
    (`tuple.__new__`) instead of through the NamedTuple constructor.  The
    syllables are unpacked into a list before the tuple is made.  A tuple
    built straight from a `map` iterator, which has no length, is allocated
    with 10 slots and then shrunk, and on CPython 3.11 that shrink leaves
    the cyclic collector's generation-0 count higher than it found it; on
    the benchmark's `certify` workload this set off a full collection, a
    pause of 4-9 ms, about every 15,000 operations.
    """
    w = _new_object(Word)
    _set_field(w, "syllables", tuple([*map(_new_tuple, repeat(Syllable), pairs)]))
    return w


def word(pairs: Iterable[tuple[str, int]]) -> Word:
    """Build a Word from (base, exp) pairs, applying free reduction.  The
    bases come from the caller, so the result goes through `Word`'s check."""
    stack: list[list] = []
    for base, exp in pairs:
        _push(stack, base, exp)
    return Word(_word(stack).syllables)


_TOKEN = re.compile(r"\s*([abAB])(?:\^(-?\d+))?")


def parse_word(text: str, group: GroupSpec | None = None) -> Word:
    """Parse word text; capitals are inverses, '^' introduces an exponent.

    Grammar: term*, term := letter exponent?, letter in {a, b, A, B}.
    The result is freely reduced.  '1' denotes the empty word, matching
    format_word.  `group` is accepted for interface symmetry; the grammar
    does not depend on (m, n).
    """
    if text.strip() == "1":
        return Word()
    stack: list[list] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise WordSyntaxError("unexpected token", pos, rest[0])
        letter, exp_text = match.groups()
        exp = 1 if exp_text is None else int(exp_text)
        if letter.isupper():
            exp = -exp
        _push(stack, letter.lower(), exp)
        pos = match.end()
    return _word(stack)


def format_word(w: Word) -> str:
    """Canonical text: lowercase letters with explicit '^-1' exponents."""
    if not w:
        return "1"
    return " ".join(base if exp == 1 else f"{base}^{exp}" for base, exp in w)


def multiply(u: Word, v: Word) -> Word:
    stack = [list(s) for s in u]
    for base, exp in v:
        _push(stack, base, exp)
    return _word(stack)


def invert(w: Word) -> Word:
    return _word((base, -exp) for base, exp in reversed(w.syllables))


_Pairs = list[tuple[str, int]]


def _conjugate_form(w: Word) -> tuple[_Pairs, _Pairs]:
    """Split w = u·c·u⁻¹ with c cyclically reduced; returns (u, c) as pairs.

    u takes the syllables that cancel between the two ends of w.  If the
    ends then share a base with exponents of opposite sign, the shorter one
    goes into u whole and the longer keeps the difference, so c's first
    and last syllables either differ in base or repeat with a common sign:
    consecutive copies of c merge there at most, they never cancel.
    """
    syls = w.syllables
    i, j = 0, len(syls) - 1
    while i < j and syls[i] == (syls[j][0], -syls[j][1]):
        i += 1
        j -= 1
    u, c = list(syls[:i]), list(syls[i:j + 1])
    if i < j:
        (base, first), (last_base, last) = c[0], c[-1]
        if base == last_base and (first > 0) != (last > 0):
            if abs(first) < abs(last):
                u.append(c[0])
                c = c[1:-1] + [(base, first + last)]
            else:
                u.append((base, -last))
                c = [(base, first + last)] + c[1:-1]
    return u, c


def _push_power(stack: list[list], u: _Pairs, c: _Pairs, k: int) -> None:
    """Push (u·c·u⁻¹)^k = u·c^k·u⁻¹ onto a syllable stack."""
    if k == 0 or not c:
        return
    for base, exp in u:
        _push(stack, base, exp)
    if len(c) == 1:
        _push(stack, c[0][0], c[0][1] * k)
    else:
        if k < 0:
            c = [(base, -exp) for base, exp in reversed(c)]
        for _ in range(abs(k)):
            for base, exp in c:
                _push(stack, base, exp)
    for base, exp in reversed(u):
        _push(stack, base, -exp)


def power(w: Word, k: int) -> Word:
    """w^k, freely reduced in one stack pass as u·c^k·u⁻¹.

    The pieces multiply to w^k in the free group, and a freely reduced
    word is unique, so the result is the word k copies of w reduce to.
    """
    stack: list[list] = []
    _push_power(stack, *_conjugate_form(w), k)
    return _word(stack)


def britton_reduce(w: Word, group: GroupSpec) -> Word:
    """Remove every pinch a^-1 b^(tm) a and a b^(tn) a^-1.

    Each rewrite deletes two a-units, so the scan terminates; pinches are
    removed innermost-leftmost, which makes the result deterministic (any
    strategy yields an equal element).  An a-syllable a^e is taken whole:
    it merges into or cancels against an a-syllable on top of the stack,
    and against b^t with a^p below it (p of opposite sign) its units are
    spent one pinch each, at most min(|p|, |e|), for as long as the
    b-exponent stays divisible.  What is left of e then goes on against
    the exposed stack, so the result is the same word as a reduction that
    feeds the a-units in one at a time.
    """
    m, n = group.m, group.n
    stack: list[list] = []
    for base, e in w:
        if base == B:
            _push(stack, B, e)
            continue
        while e:
            if stack and stack[-1][0] == A:
                total = stack[-1][1] + e
                if total == 0:
                    stack.pop()
                    break
                if (total > 0) == (stack[-1][1] > 0):
                    stack[-1][1] = total
                    break
                stack.pop()  # a^e used up the top syllable; b is exposed
                e = total
                continue
            # the top is b^t (or the stack is empty): pinch while it can
            if len(stack) >= 2 and (stack[-2][1] > 0) != (e > 0):
                t, p = stack[-1][1], stack[-2][1]
                div, mul = (m, n) if e > 0 else (n, m)
                lim = min(abs(p), abs(e))
                j = 0
                while j < lim and t % div == 0:
                    t = t // div * mul
                    j += 1
                if j:
                    step = j if e > 0 else -j
                    e -= step
                    if p + step == 0:
                        del stack[-2:]
                        _push(stack, B, t)
                    else:
                        stack[-2][1] = p + step
                        stack[-1][1] = t
                    continue
            stack.append([A, e])
            break
    return _word(stack)


class NormalForm(_Value):
    """Britton-reduced, coset-normalized canonical representative."""

    __slots__ = ("word", "group")
    word: Word
    group: GroupSpec

    def __init__(self, word: Word, group: GroupSpec):
        _set_field(self, "word", word)
        _set_field(self, "group", group)

    def _fields(self) -> tuple:
        return (self.word, self.group)

    def __str__(self):
        return format_word(self.word)


def _carry_pass(w: Word, group: GroupSpec) -> Word:
    """Push b-exponents into coset range, carrying the quotient rightward.

    b^u a = b^r a b^(q n) for u = q m + r, r in [0, |m|);
    b^u a^-1 = b^r a^-1 b^(q m) for u = q n + r, r in [0, |n|).

    The units of an a-syllable are walked one at a time only while the
    carry is nonzero; once it is 0, the rest of the syllable is pushed in
    one step, which is what the unit-by-unit rule would do.
    """
    m, n = group.m, group.n
    stack: list[list] = []
    carry = 0
    for base, exp in w:
        if base == B:
            carry += exp
            continue
        step = 1 if exp > 0 else -1
        div, mul = (m, n) if step > 0 else (n, m)
        left = abs(exp)
        while left and carry:
            r = carry % abs(div)
            _push(stack, B, r)
            _push(stack, A, step)
            carry = (carry - r) // div * mul
            left -= 1
        _push(stack, A, step * left)
    _push(stack, B, carry)
    return _word(stack)


def normal_form(w: Word, group: GroupSpec) -> NormalForm:
    """Deterministic canonical form; idempotent, and syntactic equality of
    normal forms coincides with equality in the group.

    On a Britton-reduced word the carry that reaches b^t between a^-1 and
    a is q m, so the residue left there is (q m + t) mod |m| = t mod |m|,
    not 0 since a^-1 b^t a was no pinch (likewise with n between a and
    a^-1).  So the carry pass exposes no cancellation and no pinch, and a
    second one finds every interior b-exponent already in coset range.
    """
    return NormalForm(_carry_pass(britton_reduce(w, group), group), group)


def are_equal(u: Word, v: Word, group: GroupSpec) -> bool:
    """Word problem: u = v in B(m,n) iff britton_reduce(u v^-1) is empty."""
    return not britton_reduce(multiply(u, invert(v)), group)


def exp_sum(w: Word, base: str) -> int:
    """Sum of the exponents of one letter.

    For base A this is a homomorphism to Z on every B(m,n).  For base B it
    is a homomorphism only when m = n; otherwise it is well defined only
    modulo |n - m|.  A Word alternates bases, so the syllables of `base`
    are every other one from the first of them.
    """
    syls = w.syllables
    first = 0 if syls and syls[0][0] == base else 1
    return sum(map(_exponent, syls[first::2]))


def substitute(w: Word, image_a: Word, image_b: Word) -> Word:
    """Replace each generator by its image word and freely reduce.

    Each image is split once as u·c·u⁻¹ (see `power`), and a syllable x^e
    of w pushes u, c^e and u⁻¹ straight into the one result stack; an image
    g·b^j·g⁻¹ costs 2|g| + 1 pushes whatever e is.  The result
    is the free reduction of the product of the images, hence the same
    word as pushing each image power one syllable at a time.
    """
    forms = {A: _conjugate_form(image_a), B: _conjugate_form(image_b)}
    stack: list[list] = []
    for base, exp in w:
        _push_power(stack, *forms[base], exp)
    return _word(stack)


@lru_cache(maxsize=64)  # keyed by group only; a run touches few groups
def relator(group: GroupSpec) -> Word:
    """The defining relator a^-1 b^m a b^-n, built once per group (a Word
    is immutable, so callers share it)."""
    return word([(A, -1), (B, group.m), (A, 1), (B, -group.n)])


def standardize(group: GroupSpec) -> tuple[GroupSpec, tuple[Word, Word]]:
    """Rewrite (m,n) so that 0 < m' <= |n'|, returning the generator map.

    Uses the two index isomorphisms B(m,n) ~ B(n,m) (a -> a^-1, b -> b),
    taken when |m| > |n|, and then B(m,n) ~ B(-m,-n) (identity on
    letters), taken when m < 0, so the result is deterministic.  B(1,1)
    already satisfies the constraint and is returned unchanged; callers
    that cannot handle it must flag it themselves.
    """
    m, n, image_a = group.m, group.n, word([(A, 1)])
    if abs(m) > abs(n):
        m, n, image_a = n, m, word([(A, -1)])
    if m < 0:
        m, n = -m, -n
    return GroupSpec(m, n), (image_a, word([(B, 1)]))


def power_constraint(m: int, n: int, k_range: tuple[int, int]) -> set[int]:
    """{k in [lo, hi] : n^(k-1) = m^(k-1)}.

    (n/m)^(k-1) = 1 holds for every k when m = n, for the odd k when
    m = -n, and otherwise only for k = 1.
    """
    if m == 0 or n == 0:
        raise ValueError("power_constraint requires mn != 0")
    lo, hi = k_range
    if m == n:
        return set(range(lo, hi + 1))
    if m == -n:
        return set(range(lo + (lo % 2 == 0), hi + 1, 2))
    return {1} if lo <= 1 <= hi else set()
