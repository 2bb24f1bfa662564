"""Endomorphisms of B(m,n): validation, induced maps, and kernel invariants.

An endomorphism is given by image words for the generators a and b.  It is
valid iff the image of the defining relator is trivial.  A spec is
immutable, so everything derived from its image words is derived once per
spec object, on first read, and kept on it:

- `EndoSpec._relator_checked`, the relator check;
- `EndoSpec.exp_sums`, the four exponent sums of the images;
- `EndoSpec._kappa_scale`, the kappa scale that `kappa_scale` reads;
- `EndoSpec.model_images`, the model images of image_a and image_b, for
  the enumerator's boxes.

`endo_validate` reads these and builds the `InducedData`.  The
certificate catalog and the enumerator only need their maps to be
endomorphisms, so they read the relator check alone and never build the
`InducedData`; the catalog's rules read the sums and the scale.  The map
on the abelianization is one shared `AbelianMap` per group and pair of
columns (`induced_on_ab`), so the pairs of maps that `abelian` keys its
memo by repeat as values and as objects.

The certificate checker must not trust what the catalog computed, so it
reads none of these caches: it runs on fresh copies of the specs, built
from their group and image words.  Each copy runs its own relator check,
the one `_relator_checked` above, and derives every sum and scale again.
A cache forged on the catalog's spec then changes what the catalog
claims, never what the checker accepts.  Valid maps induce
multiplication by k = |phi(a)|_a on the quotient Z = B(m,n)/K and a map
on the abelianization Z_{|n-m|} + Z.  On the kernel
K = ker|.|_a, generated by g_i = a^-i b a^i with relations
g_{i+1}^m = g_i^n, the rational invariant kappa(g_i) = (n/m)^i is a
homomorphism K -> Q, evaluated as one integer fraction.  Conjugation by x
scales kappa on K by (n/m)^(|x|_a), so an endomorphism preserving K scales
it by a single d = kappa(phi(b)) exactly when kappa(phi(b)) = 0 or
(n/m)^(k-1) = 1, the closed form `words.power_constraint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction

from .abelian import AbelianGroup, AbelianMap
from .errors import NotInKernel, RelationViolated
from .words import (
    A, B, GroupSpec, Word, britton_reduce, exp_sum, format_word, invert,
    multiply, normal_form, parse_word, power_constraint, relator, substitute,
    word,
)


@dataclass(frozen=True)
class EndoSpec:
    group: GroupSpec
    image_a: Word
    image_b: Word

    def describe(self) -> str:
        return f"a -> {format_word(self.image_a)}, b -> {format_word(self.image_b)}"

    @cached_property
    def _relator_checked(self) -> bool:
        """True once the image of the relator is trivial, checked on first
        use; raises RelationViolated, uncached, on every read when it is
        not.  The fields are immutable words, so the answer is a function
        of them."""
        return _check_relator(self)

    @cached_property
    def exp_sums(self) -> tuple[int, int, int, int]:
        """(|image_a|_a, |image_b|_a, |image_a|_b, |image_b|_b), cached
        like `_relator_checked`: k, whether K is preserved, and the
        columns of the map on the abelianization all read them."""
        return (exp_sum(self.image_a, A), exp_sum(self.image_b, A),
                exp_sum(self.image_a, B), exp_sum(self.image_b, B))

    @cached_property
    def _kappa_scale(self) -> Fraction | None:
        """`kappa_scale` of the spec, cached like `_relator_checked`;
        raises NotInKernel, uncached, on every read when |image_b|_a != 0."""
        group = self.group
        d = kappa(self.image_b, group)
        k = self.exp_sums[0]
        if d == 0 or power_constraint(group.m, group.n, (k, k)):
            return d
        return None

    @cached_property
    def model_images(self) -> tuple:
        """(image_a, image_b) embedded in the faithful model of the group
        (`models.model_embed`), cached like `_relator_checked`, so every
        box the spec twists reads the same elements.  Raises WrongFamily,
        uncached, when the group has no model."""
        from .models import model_embed
        return model_embed(self.image_a, self.group), model_embed(self.image_b, self.group)


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


# _ab_map keeps this many maps on the abelianization
_AB_MAPS_CACHED = 128


@lru_cache(maxsize=_AB_MAPS_CACHED)
def _ab_map(group: GroupSpec, col_b: tuple[int, int],
            col_a: tuple[int, int]) -> AbelianMap:
    """The map of Z_{|n-m|} + Z with these columns, built once among the
    last `_AB_MAPS_CACHED` and shared: the key holds a GroupSpec and
    exponent sums, all exact ints."""
    return AbelianMap.from_columns(ab_group(group), [col_b, col_a])


def induced_on_ab(spec: EndoSpec) -> AbelianMap:
    """Images of b-bar = (1,0) and a-bar = (0,1) on Z_{|n-m|} + Z, one
    shared map per group and pair of columns."""
    a_a, b_a, a_b, b_b = spec.exp_sums
    return _ab_map(spec.group, (b_b, b_a), (a_b, a_a))


def _injectivity_obstruction(group: GroupSpec, k: int) -> str | None:
    """Why phi is not injective, or None: `power_constraint` fails at k."""
    if power_constraint(group.m, group.n, (k, k)):
        return None
    need = "an odd k" if group.m == -group.n else "k = 1"
    return (f"not injective: an injective endomorphism of {group} must "
            f"induce {need} on the quotient Z, got k = {k}")


def endo_validate(spec: EndoSpec) -> InducedData:
    """Check the relation image and compute every induced invariant.

    Raises RelationViolated, with the normal form of the relator image, when
    the spec is no endomorphism.  The check, the exponent sums and the
    kappa scale are cached on the spec, so each spec object applies the
    relator once, and an invalid spec raises on every call; the
    `InducedData` itself is built anew on each call.
    """
    spec._relator_checked  # raises RelationViolated on a non-endomorphism
    k, b_a = spec.exp_sums[:2]
    kernel_preserved = b_a == 0
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


def _check_relator(spec: EndoSpec) -> bool:
    image = endo_apply(spec, relator(spec.group))
    if britton_reduce(image, spec.group):
        raise RelationViolated(format_word(normal_form(image, spec.group).word))
    return True


def kernel_decompose(w: Word) -> tuple[tuple[int, int], ...]:
    """w as an ordered product of powers g_i^e of the kernel generators
    g_i = a^-i b a^i, given as its (i, e) terms.

    A left-to-right scan tracking the running a-level of each b-block; it
    reads only the letters of w, so it takes no group.
    """
    if exp_sum(w, A) != 0:
        raise NotInKernel(f"|w|_a = {exp_sum(w, A)} != 0")
    terms = []
    level = 0
    for base, exp in w.syllables:
        if base == A:
            level += exp
        else:
            terms.append((-level, exp))
    return tuple(terms)


def kappa(w: Word, group: GroupSpec) -> Fraction:
    """The homomorphism K -> Q with kappa(g_i) = (n/m)^i.

    It kills the kernel relations: m (n/m)^(i+1) = n (n/m)^i.  In closed
    form, with hi = max(0, max i) and lo = min(0, min i) over the terms
    e g_i of the decomposition, kappa = sum e n^(i-lo) m^(hi-i) over
    m^hi n^-lo: one integer numerator and one reduction to lowest terms.
    """
    m, n = group.m, group.n
    terms = kernel_decompose(w)
    levels = [0] + [i for i, _ in terms]
    hi, lo = max(levels), min(levels)
    numerator = sum(exp * n ** (i - lo) * m ** (hi - i) for i, exp in terms)
    return Fraction(numerator, m ** hi * n ** -lo)


def kappa_scale(spec: EndoSpec) -> Fraction | None:
    """Single d with kappa(phi(g_i)) = d * kappa(g_i) for every i.

    phi(g_i) = phi(a)^-i phi(b) phi(a)^i, so kappa(phi(g_i)) =
    (n/m)^(k i) kappa(phi(b)) with k = |phi(a)|_a.  A single scale exists
    exactly when kappa(phi(b)) = 0 or (n/m)^(k-1) = 1 (`power_constraint`
    holds at k), and it is d = kappa(phi(b)).  Returns None when no
    single scale fits (Incompatible); on a valid spec the relator forces
    kappa(phi(b)) (m (n/m)^k - n) = 0, so that happens only for specs that
    fail validation.  Raises NotInKernel when |phi(b)|_a != 0.  Derived
    once per spec (`EndoSpec._kappa_scale`).
    """
    return spec._kappa_scale


def parse_endo_file(text: str) -> EndoSpec:
    """Three-line format: 'group m n', 'a -> <word>', 'b -> <word>'.

    The header is exactly the three tokens 'group', m and n, and every
    image is nonempty (the identity is written 1); anything else is a
    ValueError.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = lines[0].split() if lines else []
    if len(lines) != 3 or len(header) != 3 or header[0] != "group":
        raise ValueError("endo spec needs lines: 'group m n', 'a -> w', 'b -> w'")
    group = GroupSpec(int(header[1]), int(header[2]))
    images = {}
    for line in lines[1:]:
        gen, arrow, image_text = line.partition("->")
        if not arrow or not image_text.strip():
            raise ValueError(f"endo spec line {line!r} needs 'x -> w' with a "
                             "nonempty image; the identity is written 1")
        images[gen.strip()] = parse_word(image_text.strip(), group)
    if set(images) != {"a", "b"}:
        raise ValueError("endo spec must give images for exactly a and b")
    return EndoSpec(group, images["a"], images["b"])

