"""Pieces shared by the workloads: operations, seeded generators, and the
benchmark's own small word model used to predict answers for the checks.

Words are built here as lists of (letter, exponent) pairs and only handed
to the library as text, so the library receives nothing but generated
inputs, and the checks never rely on the library's internal word layout.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


@dataclass
class Op:
    """One operation of a workload: what to run and what the answer must be."""

    kind: str
    shape: str
    group: tuple[int, int]
    args: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    """Generator of one pass; string seeds are hashed deterministically."""
    return random.Random(f"{workload}:{seed}:{index}")


def reduce(pairs) -> list[tuple[str, int]]:
    """Free reduction of (letter, exponent) pairs."""
    stack: list[list] = []
    for base, exp in pairs:
        if exp == 0:
            continue
        stack.append([base, exp])
        while len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
            top = stack.pop()
            stack[-1][1] += top[1]
            if stack[-1][1] == 0:
                stack.pop()
    return [(b, e) for b, e in stack]


def inverse(pairs) -> list[tuple[str, int]]:
    return [(b, -e) for b, e in reversed(pairs)]


def a_units(pairs) -> int:
    """Total |a-exponent| of the freely reduced word."""
    return sum(abs(e) for b, e in reduce(pairs) if b == "a")


def exp_total(pairs, letter: str) -> int:
    return sum(e for b, e in pairs if b == letter)


def random_pairs(rng: random.Random, syllables: int, exp_max: int = 3):
    """Alternating syllables with nonzero exponents in [-exp_max, exp_max]."""
    base = rng.choice("ab")
    out = []
    for _ in range(syllables):
        exp = rng.randint(1, exp_max) * rng.choice((1, -1))
        out.append((base, exp))
        base = "b" if base == "a" else "a"
    return out


def text(pairs, rng: random.Random | None = None) -> str:
    """Word text; with `rng`, inverses are sometimes written as capitals."""
    if not pairs:
        return "1"
    parts = []
    for base, exp in pairs:
        if exp < 0 and rng is not None and rng.random() < 0.5:
            base, exp = base.upper(), -exp
        parts.append(base if exp == 1 else f"{base}^{exp}")
    return " ".join(parts)


def relator(m: int, n: int):
    """a^-1 b^m a b^-n, trivial in B(m,n)."""
    return [("a", -1), ("b", m), ("a", 1), ("b", -n)]


def conjugate(c, w):
    return list(c) + list(w) + inverse(c)


def spec_text(rng: random.Random, group, base, g) -> str:
    """Spec file of a -> g a^i b^l g^-1, b -> g b^j g^-1, base = (i, l, j)."""
    i, l, j = base
    image_a = reduce(conjugate(g, [("a", i), ("b", l)]))
    image_b = reduce(conjugate(g, [("b", j)]))
    return (f"group {group[0]} {group[1]}\n"
            f"a -> {text(image_a, rng)}\nb -> {text(image_b, rng)}\n")


_B_EXP = re.compile(r"b\^(-?\d+)")


def b_bits(word_text: str) -> int:
    """Largest b-exponent of a canonical word text, in bits."""
    best = 1 if re.search(r"(^| )b( |$)", word_text) else 0
    for match in _B_EXP.finditer(word_text):
        best = max(best, abs(int(match.group(1))).bit_length())
    return best


def modeled(m: int, n: int) -> bool:
    """Whether bstwist has a faithful model of B(m,n): Klein, B(1,n), B(m,m)."""
    if (m, n) in ((1, -1), (-1, 1)):
        return True
    if abs(m) == 1 and abs(n) > 1:
        return True
    return m == n and abs(m) > 1


def pairs_of(word_text: str) -> list[tuple[str, int]]:
    """(letter, exponent) pairs of a canonical word text such as 'a^-2 b'."""
    if word_text == "1":
        return []
    out = []
    for part in word_text.split():
        base, _, exp = part.partition("^")
        out.append((base, int(exp) if exp else 1))
    return out
