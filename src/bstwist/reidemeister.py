"""Twisted-conjugacy counting and machine-checkable infinitude certificates.

Two elements are twisted-equivalent for a pair (phi, psi) when
alpha' = psi(gamma) alpha phi(gamma)^-1 for some gamma; psi = id gives the
single-endomorphism case.  Infinitude is only ever claimed through a
certificate: a homomorphism lam fixed by the endomorphism(s) together with
a witness family on which lam is injective.  Ball enumeration provides
independent evidence (stable in-box class counts) but never asserts
finiteness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import index

from .errors import (
    BoxTooSmall, GroupMismatch, NotInKernel, RelationViolated, UnsupportedGroup,
    WordSyntaxError, WrongFamily,
)
from .homs import EndoSpec, kappa, kappa_scale
from .models import ModelFamily, model_family, slice_of
from .words import A, B, GroupSpec, exp_sum, multiply, parse_word, word
from .words import power_constraint  # noqa: F401 (perfbench binds it here)

INV_A_SUM = "a-exponent-sum"
INV_B_SUM = "b-exponent-sum"
INV_KAPPA = "kappa"

# ---------------------------------------------------------------------------
# Outcomes and certificates


@dataclass(frozen=True)
class Certificate:
    """Evidence that infinitely many twisted classes exist.

    `invariant` names the homomorphism lam and `target` its codomain,
    `scale_checks` records the verified identities lam(phi(gen)) = lam(gen)
    (and the psi copies for coincidence), which `check_certificate`
    recomputes and compares, and the witness family w * step^j takes pairwise
    distinct lam-values, so its members lie in pairwise distinct classes.
    """

    invariant: str
    target: str
    scale_checks: dict
    witness_base: str
    witness_step: str
    first_witnesses: tuple[str, ...]
    values: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "target": self.target,
            "scale_checks": self.scale_checks,
            "witness_base": self.witness_base,
            "witness_step": self.witness_step,
            "first_witnesses": list(self.first_witnesses),
            "values": list(self.values),
        }


@dataclass(frozen=True)
class ReidemeisterOutcome:
    kind: str  # "infinite" | "unknown"; nothing here proves finiteness
    certificate: Certificate | None = None
    attempts: tuple[str, ...] = ()

    @classmethod
    def infinite(cls, certificate: Certificate) -> "ReidemeisterOutcome":
        return cls("infinite", certificate=certificate)

    @classmethod
    def unknown(cls, attempts) -> "ReidemeisterOutcome":
        return cls("unknown", attempts=tuple(attempts))

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "infinite":
            out["certificate"] = self.certificate.as_dict()
        else:
            out["attempts"] = list(self.attempts)
        return out


# ---------------------------------------------------------------------------
# Certificate catalog for B(m,n) endomorphisms

NUM_WITNESSES = 10
_TAGS = ("phi", "psi")
# "1", x, x^2, ...: the formatted words x^j, j < NUM_WITNESSES
_WITNESS_TEXTS = {letter: ("1", letter) + tuple(
    f"{letter}^{j}" for j in range(2, NUM_WITNESSES)) for letter in (A, B)}


# lam = |.|_x's scale_checks keys |phi(a)|_x, |phi(b)|_x, |psi(a)|_x, |psi(b)|_x
_CHECK_KEYS = {x: tuple(f"|{tag}({gen})|_{x}" for tag in _TAGS for gen in (A, B))
               for x in (A, B)}
# letter -> (invariant, target, lam, where |x(a)|_letter, |x(b)|_letter
# start in `EndoSpec.exp_sums`, (lam(a), lam(b)), what a failed attempt
# needs, and its text of one map x's |x(a)|_letter, |x(b)|_letter)
_EXP_SUMS = {
    A: (INV_A_SUM, "Z, the a-exponent quotient", lambda w: exp_sum(w, A), 0,
        (1, 0), "k = 1 and |x(b)|_a = 0",
        lambda tag, on_a, on_b: f"k of {tag} = {on_a}, |{tag}(b)|_a = {on_b}"),
    B: (INV_B_SUM, "Z, the b-exponent quotient (m = n)", lambda w: exp_sum(w, B),
        2, (0, 1), "(|x(b)|_b, |x(a)|_b) = (1, 0)",
        lambda tag, on_a, on_b: f"({on_b}, {on_a}) for {tag}"),
}


def _exp_sum(letter: str, group: GroupSpec, specs: list[EndoSpec]) -> str | tuple:
    """lam = |.|_letter, a homomorphism to Z on every B(m,n) for a and only
    when m = n for b (`words.exp_sum`).  A map x fixes lam exactly when
    (|x(a)|_letter, |x(b)|_letter) = (lam(a), lam(b)); the sums are read
    from each spec's cached `exp_sums`."""
    invariant, target, lam, at, fixed, needs, shown = _EXP_SUMS[letter]
    if letter == B and group.m != group.n:
        return f"{invariant}: only applies when m = n"
    sums = [s.exp_sums[at:at + 2] for s in specs]
    if all(pair == fixed for pair in sums):
        checks = dict(zip(_CHECK_KEYS[letter], chain.from_iterable(sums)))
        return target, checks, letter, lam
    return f"{invariant}: needs {needs}, got " + ", ".join(
        shown(tag, *pair) for tag, pair in zip(_TAGS, sums))


def _kappa(group: GroupSpec, specs: list[EndoSpec]) -> str | tuple:
    """kappa(phi(g_i)) = (n/m)^(k i) kappa(phi(b)), so a kappa scale
    `homs.kappa_scale` of 1, which is kappa(phi(b)) = 1 with (n/m)^(k-1) = 1,
    proves kappa(phi(g_i)) = kappa(g_i) for every i.  On an endomorphism
    the scale is kappa(phi(b)): the relator forces kappa(phi(b))
    (m (n/m)^k - n) = 0.  Both halves are recorded, as "1" each.  The
    sums and the scale are read from each spec's caches."""
    ks = [s.exp_sums[0] for s in specs] + [1] * (2 - len(specs))
    if any(s.exp_sums[1] for s in specs) or ks[0] == ks[1]:
        return (f"{INV_KAPPA}: needs kernels preserved and k of phi != "
                "k of psi (psi = id has k = 1) to pin twisting into K")
    scales = [kappa_scale(s) for s in specs]
    if all(d == 1 for d in scales):
        checks = {}
        for tag, k in zip(_TAGS, ks[:len(specs)]):
            checks[f"k of {tag}"] = k
            checks[f"kappa({tag}(b))"] = "1"
            checks[f"(n/m)^(k-1) of {tag}"] = "1"
        return (f"Q via kappa(g_i) = ({group.n}/{group.m})^i on K", checks,
                B, lambda w: kappa(w, group))
    return f"{INV_KAPPA}: needs scale d = 1, got " + ", ".join(
        f"d = {d} for {tag}" for tag, d in zip(_TAGS, scales))


# One rule per invariant lam, in the catalog's try order, read by both the
# catalog and the checker; the two exponent sums are one rule.  rule(group,
# specs) reads only what the image words of endomorphisms [phi] or
# [phi, psi] give, through each spec's cached sums and kappa scale (an
# omitted psi is the identity), and returns the attempt text when they do
# not fix lam, else (target, scale_checks, step letter, lam).
_RULES = {INV_A_SUM: partial(_exp_sum, A), INV_B_SUM: partial(_exp_sum, B),
          INV_KAPPA: _kappa}


def _catalog(specs: list[EndoSpec]) -> ReidemeisterOutcome:
    """Try the invariant catalog on [phi] or [phi, psi]; Infinite on first
    success, never Finite.

    Each map is checked to be an endomorphism first (its cached relator
    check raises RelationViolated), and no `InducedData` is built.  The
    rules of `_RULES` then run in order on the specs' cached exponent sums
    and kappa scales (`homs.EndoSpec`): the one
    exponent-sum rule under two names, |.|_a when every map has k = 1 and
    preserves K, then |.|_b when m = n and every map fixes it; kappa when
    every map preserves K with scale 1 and k of phi != k of psi, which
    forces every in-kernel twist to come from gamma in K.  The first rule
    that finds lam fixed gives the witness family letter^j, j < NUM_WITNESSES:
    the base is 1 and lam is a homomorphism, so the j-th value is
    j * lam(letter), one evaluation of lam.  Otherwise the outcome is
    unknown with every rule's attempt text.

    R(phi) = R(phi, id): an omitted psi is the identity (k = 1, K preserved,
    kappa scale 1, |b|_b = 1, |a|_b = 0), never validated.  B(1,1) and
    B(-1,-1) (m n = 1) are Z + Z, which raises UnsupportedGroup.
    """
    group = specs[0].group
    if group.m * group.n == 1:
        raise UnsupportedGroup(
            f"{group} = Z + Z admits automorphisms with finite Reidemeister "
            "number; refusing rather than misleading")
    for spec in specs:
        spec._relator_checked
    attempts = []
    for invariant, rule in _RULES.items():
        found = rule(group, specs)
        if isinstance(found, str):
            attempts.append(found)
            continue
        target, checks, letter, lam = found
        step = lam(word([(letter, 1)]))
        return ReidemeisterOutcome.infinite(Certificate(
            invariant=invariant, target=target, scale_checks=checks,
            witness_base="1", witness_step=letter,
            first_witnesses=_WITNESS_TEXTS[letter],
            values=tuple(str(j * step) for j in range(NUM_WITNESSES))))
    return ReidemeisterOutcome.unknown(attempts)


def certify_infinite(spec: EndoSpec) -> ReidemeisterOutcome:
    """Certificate search for R(phi) = R(phi, id); see `_catalog`."""
    return _catalog([spec])


def coincidence_certify(phi: EndoSpec, psi: EndoSpec) -> ReidemeisterOutcome:
    """Certificate search for the pair relation alpha ~ psi(g) alpha phi(g)^-1."""
    if phi.group != psi.group:
        raise GroupMismatch(f"{phi.group} vs {psi.group}")
    return _catalog([phi, psi])


# _witness_family keeps this many families, and _witness_cells this many
# (group, box, family) entries; the catalog emits two families, x^j for
# x = a and x = b
_FAMILIES_CACHED = 64


@lru_cache(maxsize=_FAMILIES_CACHED)
def _witness_family(base: str, step: str, texts: tuple[str, ...]):
    """(witnesses, chained) for a certificate's witness texts, its base and
    its step: the parsed `texts`, None when one does not parse, and whether
    they are the family they name, base * step^j for j = 0, 1, ... as
    freely reduced words (False too when base or step does not parse, or
    when there are fewer than two witnesses).  Parsing does not depend on
    the group, so one family is parsed and chained once for every group
    and every map; `_witness_cells` places them in a box once per group
    and box."""
    try:
        witnesses = tuple(parse_word(text) for text in texts)
    except WordSyntaxError:
        return None, False
    try:
        first, factor = parse_word(base), parse_word(step)
    except WordSyntaxError:
        return witnesses, False
    # w_0 = base and w_j = w_(j-1) step give w_j = base step^j by induction
    return witnesses, len(witnesses) >= 2 and witnesses[0] == first and all(
        multiply(prev, factor) == w for prev, w in zip(witnesses, witnesses[1:]))


@lru_cache(maxsize=_FAMILIES_CACHED)
def _witness_cells(group: GroupSpec, bounds: tuple, base: str, step: str,
                   texts: tuple[str, ...]):
    """The box index of each witness of `_witness_family(base, step,
    texts)` in the model of `group`, None for one outside the box, or None
    for the whole family when a witness does not parse.  `bounds` is the
    box as sorted (key, value) pairs, which `_check_bounds` has refused
    unless they are the family's keys with int values (a bool would share
    an int's entry).  The cells depend on the group, the box and the texts
    only, not on the maps, so one family is embedded once per group and
    box."""
    witnesses, _ = _witness_family(base, step, texts)
    if witnesses is None:
        return None
    family, box = model_family(group), dict(bounds)
    return tuple(family.index_of(family.embed(w, group), box) for w in witnesses)


def check_certificate(cert: Certificate, phi: EndoSpec,
                      psi: EndoSpec | None = None) -> bool:
    """Independent soundness check of an emitted certificate.

    The check runs on fresh copies of the specs, built from their group
    and image words, so it reads none of the caches on the specs it is
    given (`homs`): each copy runs its own relator check
    (`EndoSpec._relator_checked`), and every exponent sum and kappa scale
    is derived again.  Then the rule that `_RULES` holds for the
    certificate's invariant runs on the copies, as in the catalog, and
    must find lam fixed with the certificate's `scale_checks` and `target`.

    The witnesses must be the family they name (`_witness_family`): the
    j-th is w_j = base * step^j as a freely reduced word.  Every rule's
    lam is a homomorphism on a subgroup H (G for the exponent sums, K for
    kappa), so lam is affine along the family: w_0, w_1 in H puts step,
    and so every w_j, in H, and lam(w_j) = lam(w_0) + j (lam(w_1) -
    lam(w_0)).  Two evaluations therefore decide the stated values, and a
    nonzero difference makes the whole family pairwise distinct.  A map
    that is no endomorphism of phi's group, an invariant with no rule, a
    family that does not parse or chain, and w_0 or w_1 outside H (off K,
    for kappa) each refute the certificate.  An omitted psi is the
    identity.
    """
    group = phi.group
    specs = [EndoSpec(spec.group, spec.image_a, spec.image_b)
             for spec in (phi, psi) if spec is not None]
    witnesses, chained = _witness_family(
        cert.witness_base, cert.witness_step, tuple(cert.first_witnesses))
    rule = _RULES.get(cert.invariant)
    if not chained or rule is None or any(s.group != group for s in specs):
        return False
    try:
        for spec in specs:
            spec._relator_checked
        found = rule(group, specs)
        if isinstance(found, str):
            return False
        target, checks, _, lam = found
        first = lam(witnesses[0])
        step = lam(witnesses[1]) - first
    except (RelationViolated, NotInKernel):
        return False
    # lam(w_j) = first + j step, one addition per witness: on a kappa
    # Fraction that costs half of a product and a sum
    return (cert.scale_checks == checks and cert.target == target and step != 0
            and list(cert.values) == [str(value) for value in accumulate(
                repeat(step, len(witnesses) - 1), initial=first)])


# ---------------------------------------------------------------------------
# Ball enumeration of twisted classes on the modeled families


@dataclass(frozen=True)
class BallReport:
    family: str
    bounds: dict
    total_elements: int
    merges_applied: int
    stable_classes: int
    tentative_classes: int
    stabilized = False  # not a field: read only by perfbench/enumeration.py

    def as_dict(self) -> dict:
        return asdict(self)


_indices = []  # 0, 1, 2, ...: never written; a longer box replaces it


def _root(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]  # path halving
    return x


def union_runs(size: int, width: int, runs) -> tuple[list, int]:
    """(parent, merges): the union-find over the indices 0..size-1 of a
    box whose rows are `width` long, after src[j] is merged with dst[j] for
    every run (src, dst) of index slices, and the count of successful
    merges.  Every run's two sides are non-empty and of equal length, and
    each side lies inside one row, as the runs of `models._Columns` and of
    `selftest._box_oracle` do.  A slice's start is an int, its step may be
    None for 1, and its stop is None only when it descends through index
    0 (`models.slice_of`).  A run with src == dst merges nothing and is
    skipped.

    Edges arrive a run at a time, so the enumerator's inner loop is one
    call for the whole box rather than one per edge, and most runs take a
    closed form, one slice write or one period instead of one find per
    edge.  `parent` starts as a copy of a prefix of the shared `_indices`,
    so a run's slice yields the stored ints, where a slice of range(size)
    makes a new int per step.

    A row is untouched until a union reaches it, and every element of an
    untouched row is a class of its own, so:

    - the first run of an untouched row whose sides both step 1 and
      together cover the row translates the row by c: it leaves the
      residue classes of the row mod |c|, written as one slice, and the
      row gets modulus |c|.  This test reads the slices' fields as they
      are; only the runs it leaves are decoded into ranges;
    - a run whose dst is its src reversed has edges j and L - 1 - j as
      the same pair, so only its first L // 2 edges count;
    - a run whose sides are disjoint (the rows differ, or the sides are
      the halves of a self-reverse run), with one of the two rows
      untouched, joins each element of the untouched side to a distinct
      class: one slice write of the other side's parents, and every edge
      merges;
    - a run inside one untouched row whose steps differ in size (a
      contraction or an expansion of the row) points src at dst in one
      slice write, parent[src] = dst, and merges every edge but a loop
      src[j] = dst[j].  The run is x -> f(x), affine with slope
      lam = dst.step / src.step and |lam| != 1, so f^i(x) = x for some
      i >= 1 only at f's one fixed point, where i = 1.  The pointers
      src -> dst therefore close no cycle but that loop: each element
      points at most once (the src indices are distinct), so a cycle in
      the edges would be a cycle of pointers.  On a row of singletons the
      pointers are a forest whose roots are the elements in no src and the
      fixed point, and each edge that is no loop joins two trees.

    A side with step s in a row of modulus c repeats its classes every
    |c| / gcd(|c|, |s|) edges, so a run whose two sides both repeat
    merges only its first lcm(periods) edges: every later edge joins two
    classes that an earlier one joined.  Any other run merges edge by
    edge.  The partition and `merges` do not depend on the order.
    """
    global _indices
    indices = _indices
    if len(indices) < size:
        indices = _indices = list(range(size))
    parent = indices[:size]  # find, inlined below: the inner loop
    touched = bytearray(-(-size // width))
    modulus, rest, merges = {}, [], 0
    for run in runs:
        src, dst = run
        s0, d0 = src.start, dst.start
        lo, c = (s0, d0 - s0) if s0 < d0 else (d0, s0 - d0)
        row = lo // width
        if (src.step not in (1, None) or dst.step not in (1, None)
                or lo % width or touched[row]
                or not 0 < c == width - src.stop + s0):
            rest.append(run)
            continue
        parent[lo:lo + width] = (indices[lo:lo + c] * (width // c + 1))[:width]
        merges += width - c
        modulus[row], touched[row] = c, 1
    cells = range(size)
    for src, dst in rest:
        if src == dst:
            continue
        s, d = cells[src], cells[dst]
        edges = len(s)
        r, to = s.start // width, d.start // width
        reverse = d.start == s[-1] and d.step == -s.step
        if reverse:
            edges //= 2
            s, d = s[:edges], d[:edges]
        if not (touched[r] and touched[to]):
            if r != to or reverse:
                fresh, other = (d, s) if touched[r] else (s, d)
                parent[slice_of(fresh.start, fresh.stop, fresh.step)] = \
                    parent[slice_of(other.start, other.stop, other.step)]
                merges += edges
                touched[r] = touched[to] = 1
                continue
            if abs(s.step) != abs(d.step):  # one untouched row, |lam| != 1
                parent[src] = indices[dst]
                # the loop src[j] = dst[j] is at j = (d0 - s0) / (s.step - d.step)
                at, off = divmod(d.start - s.start, s.step - d.step)
                merges += edges - (not off and 0 <= at < edges)
                touched[r] = 1
                continue
        cr, cto = modulus.get(r), modulus.get(to)
        if cr and cto:
            edges = min(edges, lcm(cr // gcd(cr, s.step), cto // gcd(cto, d.step)))
            s, d = s[:edges], d[:edges]  # build only the edges that count
        touched[r] = touched[to] = 1
        for x, y in zip(indices[slice_of(s.start, s.stop, s.step)],
                        indices[slice_of(d.start, d.stop, d.step)]):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                merges += 1
    return parent, merges


def _is_int_at_least(value, low: int) -> bool:
    """value is an integer (`operator.index` takes it) of at least low, and
    no bool: True would run as 1 and key a cache as 1 does."""
    if isinstance(value, bool):
        return False
    try:
        return index(value) >= low
    except TypeError:
        return False


def _check_bounds(family: ModelFamily, bounds: dict) -> None:
    """Bounds give each of the family's box keys (the affine e may be
    omitted: it defaults to min(k, 4)) and no other, all positive integers:
    a zero bound other than e leaves one row or one axis position, so no
    twist that moves along it has an edge in the box."""
    known = set(family.enumerate_bounds)
    if not (known - {"e"} <= set(bounds) <= known
            and all(_is_int_at_least(bound, 1) for bound in bounds.values())):
        raise ValueError(f"{family.name} bounds take positive values for "
                         f"{sorted(known)}, got {bounds}")


def _box_inputs(group: GroupSpec, phi: EndoSpec, psi: EndoSpec | None,
                bounds: dict | None, default: str):
    """(family, bounds) after the checks both box users share: phi and psi
    on `group` (GroupMismatch), a model family (WrongFamily), bounds (the
    family's `default` bounds when None) that are the family's box, and
    phi and a given psi endomorphisms (RelationViolated, from each spec's
    cached relator check; no `InducedData` is built).  The bounds come
    back as a new dict of plain ints, so an integer type such as numpy's
    reaches no report.  An omitted psi is the identity: it has the images
    a and b and no spec, so nothing is built or checked for it."""
    for tag, spec in (("phi", phi), ("psi", psi)):
        if spec is not None and spec.group != group:
            raise GroupMismatch(f"{tag} is on {spec.group}, enumeration on {group}")
    family = model_family(group)
    if bounds is None:
        bounds = getattr(family, default)
    _check_bounds(family, bounds)
    phi._relator_checked
    if psi is not None:
        psi._relator_checked
    return family, {key: index(value) for key, value in bounds.items()}


def _merge_box(family: ModelFamily, group: GroupSpec, phi: EndoSpec,
               psi: EndoSpec | None, bounds: dict):
    """(parent, merges, grids): the union-find of the box under the a and
    b twists, its merge count, and the twist grids of a and b.  Both
    grids' runs are merged in one `union_runs` call.

    The twists read each spec's model images of a and b from its cached
    `model_images`, so the boxes of one spec embed them once.  An omitted
    psi (None) is the identity: its images are the model's a and b, and
    there is no spec.

    No g^-1 grid is built: since phi and psi are homomorphisms,
    tau_{g^-1}(x) = psi(g)^-1 x phi(g) = tau_g^-1(x), so inside the box
    the g^-1 edges are the g edges reversed (the runs read dst to src) and
    merge nothing new.
    """
    psi_images = ((family.a_power(group, 1), family.b_power(group, 1)) if psi is None
                  else psi.model_images)
    grids = [family.columns(pg, fg.inverse(), bounds)
             for pg, fg in zip(psi_images, phi.model_images)]
    width = grids[0].width
    return (*union_runs(grids[0].rows * width, width,
                        [run for grid in grids for run in grid.runs]), grids)


def _stable_roots(parent: list, runs: list, inner_margin: int) -> set:
    """Roots of the classes meeting the inner region: the grid's elements
    whose twists by a, a^-1, b and b^-1 stay inside the region, iterated
    margin times from the whole grid.  `runs` holds the runs of each twist
    grid, and only those edges count.

    One erosion step reads the region a run at a time: pre[src] =
    inner[dst] over a grid's runs is the preimage mask under the g twist
    (0 where the image leaves the region), and pre[dst] = inner[src] the
    one under the g^-1 twist.  The four masks are ANDed as integers, one
    byte per element.  A step that keeps the whole region is a fixpoint:
    every later step keeps it too, so the erosion stops there.  The roots
    are the finds of the distinct parents in the region, since
    find(parent[x]) = find(x); the find is inlined, as in `union_runs`.
    """
    size = len(parent)
    inner = b"\x01" * size
    for _ in range(inner_margin):
        region = kept = int.from_bytes(inner, "little")
        for grid_runs in runs:
            pre, pre_back = bytearray(size), bytearray(size)
            for src, dst in grid_runs:
                pre[src] = inner[dst]
                pre_back[dst] = inner[src]
            kept &= int.from_bytes(pre, "little") & int.from_bytes(pre_back, "little")
        if kept == region:
            break
        inner = kept.to_bytes(size, "little")
    roots = set()
    for x in set(compress(parent, inner)):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        roots.add(x)
    return roots


def enumerate_classes_ball(group: GroupSpec, phi: EndoSpec,
                           psi: EndoSpec | None = None,
                           bounds: dict | None = None,
                           inner_margin: int = 2) -> BallReport:
    """Union-find over a model box under single-generator twists.

    The model family of `group` brings the box as an index grid and, for
    g = a, b, the twists (psi(g) x) phi(g)^-1 as runs of box indices (see
    `models.ModelFamily`).  Box elements joined by a twist are merged.  A
    class is stable when it meets the inner region (the box eroded
    `inner_margin` twist steps).  Stable counts are evidence with no bound
    in either direction: B(2,2), a -> a^3, b -> 1 has R = 2 and reports 1
    stable class; the identity on B(1,5) has R = infinity and reports 1.
    Only a checked certificate claims R = infinity; the box is evidence
    beside it.

    The twist grids are built once, on the box; it is merged along their
    runs and eroded along the same runs.  Raises GroupMismatch when phi or
    psi lives on another group, ValueError on a margin that is not a
    non-negative integer or bounds that are not the family's positive box
    (`_check_bounds`), and BoxTooSmall when nothing is stable.
    """
    if not _is_int_at_least(inner_margin, 0):
        raise ValueError(f"inner_margin must be non-negative, got {inner_margin}")
    family, bounds = _box_inputs(group, phi, psi, bounds, "enumerate_bounds")
    parent, merges, grids = _merge_box(family, group, phi, psi, bounds)
    roots = _stable_roots(parent, [grid.runs for grid in grids], inner_margin)
    if not roots:
        raise BoxTooSmall(f"no stable class in box {bounds}")
    total = len(parent)
    return BallReport(
        family=family.name,
        bounds=bounds,
        total_elements=total,
        merges_applied=merges,
        stable_classes=len(roots),
        tentative_classes=total - merges,  # each merge joins two classes
    )


def witnesses_stay_separated(cert: Certificate, phi: EndoSpec,
                             psi: EndoSpec | None = None,
                             bounds: dict | None = None) -> bool:
    """Enumerator cross-check: listed witnesses never merge in the box.

    Vacuously true for groups outside the modeled families, where no
    enumeration substrate exists, and false, as for `check_certificate`,
    when a witness does not parse.  Only the parsed witnesses of
    `_witness_family` are read: whether base and step parse, and whether
    the witnesses are their family, is the checker's question, not this
    one's.  Their box indices come from `_witness_cells`, cached per group,
    box and family, so a call embeds no witness and only merges the box.
    Raises GroupMismatch when psi lives on another group than phi,
    ValueError on bounds that are not the family's positive box, and
    RelationViolated when phi or psi is no endomorphism.
    """
    group = phi.group
    try:
        family, bounds = _box_inputs(group, phi, psi, bounds, "witness_bounds")
    except WrongFamily:
        return True
    cells = _witness_cells(group, tuple(sorted(bounds.items())), cert.witness_base,
                           cert.witness_step, tuple(cert.first_witnesses))
    if cells is None:
        return False
    parent, _, _ = _merge_box(family, group, phi, psi, bounds)
    # a witness outside the box is no merge evidence either way
    roots = [_root(parent, at) for at in cells if at is not None]
    return len(roots) == len(set(roots))
