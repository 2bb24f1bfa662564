"""Substrate twist kernels and the ball enumerator against model arithmetic.

The kernels work on plain int/tuple keys; here they are compared with the
products (psi(g) x) phi(g)^-1 of the model classes, and whole reports with
a copy of the enumerator that works on model elements directly.
"""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from bstwist.errors import BoxTooSmall, GroupMismatch
from bstwist.homs import EndoSpec, endo_apply, endo_validate, identity_endo
from bstwist.models import (
    AFFINE, KLEIN, AffineElement, FreeWord, KleinElement,
    PermutedProduct, PowRational, model_embed, model_family,
)
from bstwist.reidemeister import (
    _GENERATORS, INV_A_SUM, BallReport, Certificate, _inverted, _merge_box,
    _twist_kernels, certify_infinite, enumerate_classes_ball,
    witnesses_stay_separated,
)
from bstwist.words import A, B, GroupSpec, invert, multiply, parse_word, word


# ---------------------------------------------------------------------------
# Reference: the enumerator on model elements and a dict-keyed union-find


class _RefUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.merges = 0

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry
            self.merges += 1


def _ref_free_words(m, max_len):
    words = [FreeWord()]
    frontier = [FreeWord()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for idx in range(1, m + 1):
                for exp in (1, -1):
                    candidate = w * FreeWord.generator(idx, exp)
                    if candidate.length() == w.length() + 1:
                        nxt.append(candidate)
        frontier = nxt
        words.extend(frontier)
    return list(dict.fromkeys(words))


def _ref_affine_n(group):
    return group.n if group.m == 1 else -group.n


def _ref_membership(group, bounds):
    """Box elements by key, in box order, and the key of an element."""
    family = model_family(group)
    if family is KLEIN:
        membership = {(u, v): KleinElement(u, v)
                      for u in range(-bounds["u"], bounds["u"] + 1)
                      for v in range(-bounds["v"], bounds["v"] + 1)}
        return membership, lambda e: (e.u, e.v)
    if family is AFFINE:
        n = _ref_affine_n(group)
        denom_exp = bounds.get("e", min(bounds["k"], 4))
        membership = {(p, k): AffineElement(PowRational.make(p, denom_exp, abs(n)), k, n)
                      for p in range(-bounds["t"], bounds["t"] + 1)
                      for k in range(-bounds["k"], bounds["k"] + 1)}

        def key(e):
            if e.t.exp > denom_exp:
                return None
            return (e.t.num * e.t.base ** (denom_exp - e.t.exp), e.k)
        return membership, key
    m = abs(group.m)
    membership = {(w.syllables, k): PermutedProduct(w, k, m)
                  for w in _ref_free_words(m, bounds["l"])
                  for k in range(-bounds["k"], bounds["k"] + 1)}
    return membership, lambda e: (e.w.syllables, e.k)


# all four twist generators, independent of the enumerator's (a, b): the
# reference merges and erodes along a^-1 and b^-1 edges computed directly
_REF_GENERATORS = (word([(A, 1)]), word([(A, -1)]), word([(B, 1)]), word([(B, -1)]))


def _ref_once(group, phi, psi, bounds, margin):
    psi_images = [model_embed(endo_apply(psi, g), group) for g in _REF_GENERATORS]
    phi_inv = [model_embed(endo_apply(phi, g), group).inverse()
               for g in _REF_GENERATORS]
    membership, key = _ref_membership(group, bounds)
    uf = _RefUnionFind(membership)
    twists = {}
    for k0, element in membership.items():
        twists[k0] = []
        for pg, fg in zip(psi_images, phi_inv):
            k1 = key((pg * element) * fg)
            if k1 is not None and k1 in membership:
                uf.union(k0, k1)
                twists[k0].append(k1)
            else:
                twists[k0].append(None)
    inner = set(membership)
    for _ in range(margin):
        inner = {k for k in inner if all(t is not None and t in inner for t in twists[k])}
    return (uf, {uf.find(k) for k in membership}, {uf.find(k) for k in inner},
            membership, key)


def reference_report(group, phi, psi, bounds, margin):
    psi = identity_endo(group) if psi is None else psi
    uf, roots_all, roots_inner, membership, _ = _ref_once(group, phi, psi, bounds, margin)
    if not roots_inner:
        raise BoxTooSmall(str(bounds))
    doubled = {k: 2 * v for k, v in bounds.items()}
    roots_inner_2 = _ref_once(group, phi, psi, doubled, margin)[2]
    return BallReport(model_family(group).name, dict(bounds), len(membership), uf.merges,
                      len(roots_inner), len(roots_all),
                      len(roots_inner) == len(roots_inner_2))


def reference_separated(cert, phi, psi, bounds):
    group = phi.group
    psi = identity_endo(group) if psi is None else psi
    uf, _, _, membership, key = _ref_once(group, phi, psi, bounds, 0)
    roots = []
    for text in cert.first_witnesses:
        k = key(model_embed(parse_word(text, group), group))
        if k is not None and k in membership:
            roots.append(uf.find(k))
    return len(roots) == len(set(roots))


# ---------------------------------------------------------------------------
# Valid maps: a -> g a^i b^l g^-1, b -> g b^j g^-1


@dataclass(frozen=True)
class Case:
    group: GroupSpec
    bounds: dict


CASES = [
    Case(GroupSpec(1, -1), {"u": 6, "v": 3}),
    Case(GroupSpec(-1, 1), {"u": 4, "v": 2}),
    Case(GroupSpec(1, 2), {"k": 3, "t": 12, "e": 2}),
    Case(GroupSpec(1, -2), {"k": 3, "t": 9, "e": 1}),
    Case(GroupSpec(1, 3), {"k": 2, "t": 10}),
    Case(GroupSpec(-1, 2), {"k": 2, "t": 6, "e": 2}),
    Case(GroupSpec(2, 2), {"l": 2, "k": 3}),
    Case(GroupSpec(3, 3), {"l": 1, "k": 2}),
]

short_words = st.lists(st.tuples(st.sampled_from((A, B)), st.integers(-2, 2)),
                       max_size=3).map(word)


def valid_map(group, i, l, j, g):
    """A valid endomorphism of each modeled family, conjugated by g."""
    family = model_family(group)
    if family is KLEIN:
        i = i if i % 2 else i + 1  # a must go to an odd a-power
    elif family is AFFINE:
        i = 1  # a^-i b^j a^i = b^(n j) forces i = 1 unless j = 0
    gi = invert(g)
    image_a = multiply(multiply(g, word([(A, i), (B, l)])), gi)
    image_b = multiply(multiply(g, word([(B, j)])), gi)
    spec = EndoSpec(group, image_a, image_b)
    endo_validate(spec)
    return spec


maps = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2), short_words)


def element_of(group, key, bounds):
    family = model_family(group)
    if family is KLEIN:
        return KleinElement(*key)
    if family is AFFINE:
        n = _ref_affine_n(group)
        e = bounds.get("e", min(bounds["k"], 4))
        return AffineElement(PowRational.make(key[0], e, abs(n)), key[1], n)
    return PermutedProduct(FreeWord(key[0]), key[1], abs(group.m))


def _inverse_kernels(family, group, phi, psi, bounds):
    """Twist kernels built directly for a^-1 and b^-1."""
    return [family.twist(model_embed(endo_apply(psi, invert(g)), group),
                         model_embed(endo_apply(phi, invert(g)), group).inverse(),
                         bounds)
            for g in _GENERATORS]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=maps)
@example(case=CASES[2], phi_args=(1, 1, -1, word([(A, -2)])),
         psi_args=(1, 0, 1, word([(A, 2), (B, 1)])))
def test_twist_kernels_match_model_products(case, phi_args, psi_args):
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = valid_map(group, *psi_args)
    family = model_family(group)
    kernels = (_twist_kernels(family, group, phi, psi, bounds)
               + _inverse_kernels(family, group, phi, psi, bounds))
    for gen, kernel in zip(_GENERATORS + tuple(map(invert, _GENERATORS)), kernels):
        pg = model_embed(endo_apply(psi, gen), group)
        fg = model_embed(endo_apply(phi, gen), group).inverse()
        for key in family.box(bounds, group):
            x = element_of(group, key, bounds)
            assert family.key_of(x, bounds) == key
            assert kernel(key) == family.key_of((pg * x) * fg, bounds)


def test_affine_kernel_leaves_the_lattice():
    # conjugating by a^-2 puts denominators 2^2 into psi(a); the image of
    # (p/2, k) then has no key on the 1/2 lattice for odd p
    group, bounds = GroupSpec(1, 2), {"k": 2, "t": 4, "e": 1}
    psi = valid_map(group, 1, 1, 1, word([(A, -2), (B, 1), (A, 2)]))
    kernels = _twist_kernels(AFFINE, group, identity_endo(group), psi, bounds)
    images = [kernel(key) for kernel in kernels for key in AFFINE.box(bounds, group)]
    assert None in images and any(image is not None for image in images)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=maps)
@example(case=CASES[2], phi_args=(1, 1, -1, word([(A, -3)])),
         psi_args=(1, 0, 1, word([(A, 3), (B, 1)])))
@example(case=CASES[6], phi_args=(2, 1, -1, word([(A, 1), (B, -1)])),
         psi_args=(-1, 0, 1, word([])))
def test_inverted_columns_are_the_inverse_twist_columns(case, phi_args, psi_args):
    # tau_{g^-1} = tau_g^-1: scattering the g column gives exactly the box
    # indices a kernel built for g^-1 computes, None where it leaves the box
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = valid_map(group, *psi_args)
    family = model_family(group)
    _, position, columns = _merge_box(family, group, phi, psi, bounds)
    keys = family.box(bounds, group)
    for column, kernel in zip(columns, _inverse_kernels(family, group, phi, psi, bounds)):
        direct = [position.get(kernel(key)) for key in keys]
        assert _inverted(column, position.values()) == direct


def test_inverted_columns_of_an_affine_map_off_the_lattice():
    # conjugating by a^-2 puts denominators 2^2 into psi(a), so twists of
    # (p/2, k) leave the 1/2 lattice both ways; the scatter still agrees
    group, bounds = GroupSpec(1, 2), {"k": 2, "t": 4, "e": 1}
    psi = valid_map(group, 1, 1, 1, word([(A, -2), (B, 1), (A, 2)]))
    phi = identity_endo(group)
    _, position, columns = _merge_box(AFFINE, group, phi, psi, bounds)
    keys = AFFINE.box(bounds, group)
    off_lattice = 0
    for column, kernel in zip(columns, _inverse_kernels(AFFINE, group, phi, psi, bounds)):
        images = [kernel(key) for key in keys]
        off_lattice += images.count(None)
        assert _inverted(column, position.values()) == list(map(position.get, images))
    assert off_lattice


def test_box_keys_match_model_boxes():
    for case in CASES + [Case(GroupSpec(2, 2), {"l": 4, "k": 1}),
                         Case(GroupSpec(3, 3), {"l": 3, "k": 0})]:
        membership, _ = _ref_membership(case.group, case.bounds)
        assert model_family(case.group).box(case.bounds, case.group) == list(membership)


REPORT_CASES = [
    (GroupSpec(1, -1), (3, 0, 2, word([])), None, {"u": 16, "v": 4}, 2),
    (GroupSpec(1, -1), (1, 1, -1, word([(A, 1), (B, 2)])), (-1, 0, 1, word([])),
     {"u": 12, "v": 3}, 1),
    (GroupSpec(1, 2), (1, 0, -1, word([(B, 1), (A, -1)])), None,
     {"k": 3, "t": 24, "e": 2}, 2),
    (GroupSpec(1, -2), (1, 0, 1, word([(A, 2)])), None, {"k": 3, "t": 20, "e": 2}, 1),
    (GroupSpec(1, 3), (1, 2, 1, word([])), (1, 0, -1, word([(A, -1)])),
     {"k": 2, "t": 15, "e": 1}, 0),
    (GroupSpec(2, 2), (1, 0, -1, word([(A, 1), (B, -1)])), None, {"l": 2, "k": 3}, 1),
    (GroupSpec(2, 2), (3, 0, 1, word([])), (1, 0, -1, word([])), {"l": 2, "k": 4}, 1),
    (GroupSpec(3, 3), (2, 1, 1, word([(B, 1)])), None, {"l": 1, "k": 3}, 1),
]


def test_reports_match_the_model_enumerator():
    for group, phi_args, psi_args, bounds, margin in REPORT_CASES:
        phi = valid_map(group, *phi_args)
        psi = None if psi_args is None else valid_map(group, *psi_args)
        try:
            want = reference_report(group, phi, psi, bounds, margin)
        except BoxTooSmall:
            want = None
        try:
            got = enumerate_classes_ball(group, phi, psi, bounds=bounds,
                                         inner_margin=margin)
        except BoxTooSmall:
            got = None
        assert got == want, (group, phi.describe(), bounds)


def test_witness_separation_matches_the_model_enumerator():
    for group, phi_args, psi_args, bounds, _ in REPORT_CASES:
        phi = valid_map(group, *phi_args)
        if psi_args is not None:
            continue
        outcome = certify_infinite(phi)
        if outcome.kind != "infinite":
            continue
        cert = outcome.certificate
        assert witnesses_stay_separated(cert, phi, bounds=bounds) == \
            reference_separated(cert, phi, None, bounds)
    # a and b a b^-1 are conjugate, so these witnesses merge
    klein = GroupSpec(1, -1)
    fake = Certificate(INV_A_SUM, "Z", {}, "a", "1", ("a", "b a b^-1", "a^3"),
                       ("1", "1", "3"))
    for bounds in ({"u": 8, "v": 4}, {"u": 1, "v": 1}):
        assert witnesses_stay_separated(fake, identity_endo(klein), bounds=bounds) == \
            reference_separated(fake, identity_endo(klein), None, bounds)


def test_mismatched_groups_and_negative_margin_are_refused():
    klein = GroupSpec(1, -1)
    phi = valid_map(klein, 3, 0, 2, word([]))
    other = valid_map(GroupSpec(1, 2), 1, 0, 1, word([]))
    cert = certify_infinite(other).certificate
    for call in (lambda: enumerate_classes_ball(klein, other),
                 lambda: enumerate_classes_ball(klein, phi, other),
                 lambda: witnesses_stay_separated(cert, other, phi)):
        with pytest.raises(GroupMismatch):
            call()
    with pytest.raises(ValueError):
        enumerate_classes_ball(klein, phi, inner_margin=-1)
    affine = GroupSpec(1, 2)
    with pytest.raises(ValueError):
        enumerate_classes_ball(affine, valid_map(affine, 1, 0, 1, word([])),
                               bounds={"k": 2, "t": 4, "e": -1})
