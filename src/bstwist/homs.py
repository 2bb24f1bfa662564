"""Endomorphisms of B(m,n): validation, induced maps, and kernel invariants.

An endomorphism is given by image words for the generators a and b.  It is
valid iff the image of the defining relator is trivial.  Valid maps induce
multiplication by k = |phi(a)|_a on the quotient Z = B(m,n)/K and a map on
the abelianization Z_{|n-m|} + Z.  On the kernel K = ker|.|_a, generated
by g_i = a^-i b a^i with relations g_{i+1}^m = g_i^n, the rational
invariant kappa(g_i) = (n/m)^i is a homomorphism K -> Q.  Conjugation by
x scales kappa on K by (n/m)^(|x|_a), so an endomorphism preserving K
scales it by a single d = kappa(phi(b)) exactly when kappa(phi(b)) = 0 or
(n/m)^(k-1) = 1; `kappa_scale` uses that closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .abelian import AbelianGroup, AbelianMap
from .errors import NotInKernel, RelationViolated
from .words import (
    A, B, GroupSpec, Word, are_equal, exp_sum, format_word, invert,
    multiply, normal_form, parse_word, relator, substitute, word,
)


@dataclass(frozen=True)
class EndoSpec:
    group: GroupSpec
    image_a: Word
    image_b: Word

    def describe(self) -> str:
        return f"a -> {format_word(self.image_a)}, b -> {format_word(self.image_b)}"


def identity_endo(group: GroupSpec) -> EndoSpec:
    return EndoSpec(group, word([(A, 1)]), word([(B, 1)]))


def inner_by(group: GroupSpec, g: Word) -> EndoSpec:
    """Conjugation w -> g w g^-1 as an EndoSpec."""
    gi = invert(g)
    return EndoSpec(group,
                    multiply(multiply(g, word([(A, 1)])), gi),
                    multiply(multiply(g, word([(B, 1)])), gi))


@dataclass(frozen=True)
class InducedData:
    k: int
    kernel_preserved: bool
    ab_map: AbelianMap
    kappa_scale: Fraction | None
    injectivity_obstruction: str | None = None

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "kernel_preserved": self.kernel_preserved,
            "ab_torsion": self.ab_map.group.torsion[0],
            "ab_matrix": [[str(x) for x in row] for row in self.ab_map.matrix.entries],
            "kappa_scale": None if self.kappa_scale is None else str(self.kappa_scale),
            "injectivity_obstruction": self.injectivity_obstruction,
        }


def endo_apply(spec: EndoSpec, w: Word) -> Word:
    return substitute(w, spec.image_a, spec.image_b)


def endo_compose(s1: EndoSpec, s2: EndoSpec) -> EndoSpec:
    """(s1 o s2): apply s2 first, then s1."""
    if s1.group != s2.group:
        raise ValueError("cannot compose endomorphisms of different groups")
    return EndoSpec(s1.group, endo_apply(s1, s2.image_a), endo_apply(s1, s2.image_b))


def ab_group(group: GroupSpec) -> AbelianGroup:
    """Abelianization Z_{|n-m|} + Z (the torsion slot is Z when m = n)."""
    return AbelianGroup(torsion=(abs(group.n - group.m),), rank=1)


def induced_on_ab(spec: EndoSpec) -> AbelianMap:
    """Images of b-bar = (1,0) and a-bar = (0,1) on Z_{|n-m|} + Z."""
    grp = ab_group(spec.group)
    col_b = (exp_sum(spec.image_b, B), exp_sum(spec.image_b, A))
    col_a = (exp_sum(spec.image_a, B), exp_sum(spec.image_a, A))
    return AbelianMap.from_columns(grp, [col_b, col_a])


def _injectivity_obstruction(group: GroupSpec, k: int) -> str | None:
    m, n = group.m, group.n
    if abs(m) != abs(n) and k != 1:
        return (f"not injective: an injective endomorphism of {group} must "
                f"induce k = 1 on the quotient Z, got k = {k}")
    if m == -n and k % 2 == 0:
        return (f"not injective: an injective endomorphism of {group} must "
                f"induce an odd k on the quotient Z, got k = {k}")
    return None


def endo_validate(spec: EndoSpec) -> InducedData:
    """Check the relation image and compute every induced invariant."""
    image = endo_apply(spec, relator(spec.group))
    if not are_equal(image, Word(), spec.group):
        raise RelationViolated(format_word(normal_form(image, spec.group).word))

    k = exp_sum(spec.image_a, A)
    kernel_preserved = exp_sum(spec.image_b, A) == 0
    if spec.group.m != spec.group.n and not kernel_preserved:
        # impossible for a valid spec: the torsion subgroup of the
        # abelianization is characteristic, so K maps into K
        raise AssertionError("valid spec with m != n must preserve the kernel")
    scale = kappa_scale(spec) if kernel_preserved else None
    return InducedData(
        k=k,
        kernel_preserved=kernel_preserved,
        ab_map=induced_on_ab(spec),
        kappa_scale=scale,
        injectivity_obstruction=_injectivity_obstruction(spec.group, k),
    )


@dataclass(frozen=True)
class KernelDecomposition:
    """Ordered product of powers of the kernel generators g_i = a^-i b a^i."""

    terms: tuple[tuple[int, int], ...]  # (index i, nonzero exponent)


def kernel_decompose(w: Word, group: GroupSpec) -> KernelDecomposition:
    """Left-to-right scan tracking the running a-level of each b-block."""
    if exp_sum(w, A) != 0:
        raise NotInKernel(f"|w|_a = {exp_sum(w, A)} != 0")
    terms = []
    level = 0
    for s in w:
        if s.base == A:
            level += s.exp
        else:
            terms.append((-level, s.exp))
    return KernelDecomposition(tuple(terms))


def kappa(w: Word, group: GroupSpec) -> Fraction:
    """The homomorphism K -> Q with kappa(g_i) = (n/m)^i.

    It kills the kernel relations: m (n/m)^(i+1) = n (n/m)^i.
    """
    ratio = Fraction(group.n, group.m)
    decomposition = kernel_decompose(w, group)
    return sum((exp * ratio ** i for i, exp in decomposition.terms), Fraction(0))


def kernel_generator(i: int) -> Word:
    return word([(A, -i), (B, 1), (A, i)])


def kappa_scale(spec: EndoSpec) -> Fraction | None:
    """Single d with kappa(phi(g_i)) = d * kappa(g_i) for every i.

    phi(g_i) = phi(a)^-i phi(b) phi(a)^i, so kappa(phi(g_i)) =
    (n/m)^(k i) kappa(phi(b)) with k = |phi(a)|_a.  A single scale exists
    exactly when kappa(phi(b)) = 0 or (n/m)^(k-1) = 1 (k = 1, m = n, or
    m = -n with k odd), and it is d = kappa(phi(b)).  Returns None when no
    single scale fits (Incompatible); on a valid spec the relator forces
    kappa(phi(b)) (m (n/m)^k - n) = 0, so that happens only for specs that
    fail validation.  Raises NotInKernel when |phi(b)|_a != 0.
    """
    m, n = spec.group.m, spec.group.n
    d = kappa(spec.image_b, spec.group)
    k = exp_sum(spec.image_a, A)
    if d == 0 or k == 1 or m == n or (m == -n and k % 2 == 1):
        return d
    return None


def _ball(group: GroupSpec, radius: int) -> list[Word]:
    """All distinct elements within `radius` generator steps of 1, as words."""
    gens = [word([(A, 1)]), word([(A, -1)]), word([(B, 1)]), word([(B, -1)])]
    seen = {Word(): Word()}  # normal form -> the first word reaching it
    frontier = [Word()]
    for _ in range(radius):
        next_frontier = []
        for w in frontier:
            for g in gens:
                candidate = multiply(w, g)
                key = normal_form(candidate, group).word
                if key not in seen:
                    seen[key] = candidate
                    next_frontier.append(candidate)
        frontier = next_frontier
    return list(seen.values())


def koch_form_search(spec: EndoSpec, radius: int) -> tuple[Word, int] | None:
    """Bounded search for phi(b) = gamma b^r gamma^-1 with |r| <= radius.

    Absence of a witness at this radius proves nothing; a witness is
    returned as found, conjugators ordered by ball distance.  A radius
    below 1 searches no exponent r and is a ValueError.
    """
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    for gamma in _ball(spec.group, radius):
        gamma_inv = invert(gamma)
        for r in itertools.chain.from_iterable((r, -r) for r in range(1, radius + 1)):
            candidate = multiply(multiply(gamma, word([(B, r)])), gamma_inv)
            if are_equal(candidate, spec.image_b, spec.group):
                return gamma, r
    return None


def parse_endo_file(text: str) -> EndoSpec:
    """Three-line format: 'group m n', 'a -> <word>', 'b -> <word>'."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) != 3 or not lines[0].startswith("group"):
        raise ValueError("endo spec needs lines: 'group m n', 'a -> w', 'b -> w'")
    _, m_text, n_text = lines[0].split()
    group = GroupSpec(int(m_text), int(n_text))
    images = {}
    for line in lines[1:]:
        gen, _, image_text = line.partition("->")
        images[gen.strip()] = parse_word(image_text.strip(), group)
    if set(images) != {"a", "b"}:
        raise ValueError("endo spec must give images for exactly a and b")
    return EndoSpec(group, images["a"], images["b"])

