"""Substrate twist columns and the ball enumerator against model arithmetic.

Each family lays its box out as an index grid (rows times one axis) and
keeps a twist as its row runs.  The runs give the twist's column, and read
backwards the column of the inverse twist (the back column); both are
rebuilt here from the runs.  Every entry of those columns is compared with
the box index (`index_of`) of the product (psi(g) x) phi(g)^-1 of the
model classes, the runs' edge cases are pinned, the runs are checked to
cover the columns disjointly, the runs of both producers (the twist grids
and the selftest's lattice boxes) are checked to have two sides of one
length, each inside one row, as the union-find assumes, the run-at-a-time
union-find (one call per box: whole-row translations in closed form,
halved self-reverse runs, disjoint sides copied onto an untouched row,
other runs one period each, boxes of different sizes in turn) is compared
with one taken edge by edge, and the byte-mask erosion is compared with a
set erosion and checked to stop at its fixpoint.  Whole reports are
compared with a copy of the enumerator that works on model elements
directly and with `golden/enumeration_reports.json`.
"""

import json
import pathlib
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from bstwist.errors import BoxTooSmall, GroupMismatch, RelationViolated
from bstwist.homs import EndoSpec, endo_apply, endo_validate, parse_endo_file
from bstwist import homs, reidemeister, selftest
from bstwist.models import (
    AFFINE, KLEIN, AffineElement, KleinElement, PermutedProduct, _Columns,
    _free_reduce, _lowest, _permuted_heads, _permuted_rows, _shift, model_embed,
    model_family,
)
from bstwist.reidemeister import (
    INV_A_SUM, BallReport, Certificate, _merge_box, _root,
    _stable_roots, certify_infinite, check_certificate, coincidence_certify,
    enumerate_classes_ball, union_runs, witnesses_stay_separated,
)
from bstwist.words import A, B, GroupSpec, invert, multiply, parse_word, word

from test_homs import identity_spec


# ---------------------------------------------------------------------------
# Reference: the enumerator on model elements and a dict-keyed union-find


class _RefUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.merges = 0

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry
            self.merges += 1


def _ref_length(w):
    return sum(abs(e) for _, e in w)


def _ref_free_words(m, max_len):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for idx in range(1, m + 1):
                for exp in (1, -1):
                    candidate = _free_reduce(w, ((idx, exp),))
                    if _ref_length(candidate) == _ref_length(w) + 1:
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
        membership = {(p, k): AffineElement(*_lowest(p, denom_exp, abs(n)), k, n)
                      for p in range(-bounds["t"], bounds["t"] + 1)
                      for k in range(-bounds["k"], bounds["k"] + 1)}

        def key(e):
            if e.exp > denom_exp:
                return None
            return (e.num * abs(e.n) ** (denom_exp - e.exp), e.k)
        return membership, key
    m = abs(group.m)
    membership = {(w, k): PermutedProduct(w, k, m)
                  for w in _ref_free_words(m, bounds["l"])
                  for k in range(-bounds["k"], bounds["k"] + 1)}
    return membership, lambda e: (e.w, e.k)


# all four twist generators, independent of the enumerator's (a, b): the
# reference merges and erodes along a^-1 and b^-1 edges computed directly
_REF_GENERATORS = (word([(A, 1)]), word([(A, -1)]), word([(B, 1)]), word([(B, -1)]))
_GENERATORS = _REF_GENERATORS[::2]  # a and b, the twists the enumerator builds


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
    psi = identity_spec(group) if psi is None else psi
    uf, roots_all, roots_inner, membership, _ = _ref_once(group, phi, psi, bounds, margin)
    if not roots_inner:
        raise BoxTooSmall(str(bounds))
    return BallReport(model_family(group).name, dict(bounds), len(membership), uf.merges,
                      len(roots_inner), len(roots_all))


def reference_separated(cert, phi, psi, bounds):
    group = phi.group
    psi = identity_spec(group) if psi is None else psi
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


def _model_columns(group, phi, psi, bounds, generators=_REF_GENERATORS):
    """For each generator g, the column of index_of((psi(g) x) phi(g)^-1)
    over the reference box, placed at index_of(x).  Checks on the way that
    an image has an index exactly when its reference key is in the box."""
    family = model_family(group)
    membership, key = _ref_membership(group, bounds)
    columns = []
    for gen in generators:
        pg = model_embed(endo_apply(psi, gen), group)
        fg = model_embed(endo_apply(phi, gen), group).inverse()
        column = [None] * len(membership)
        for x in membership.values():
            image = (pg * x) * fg
            index = family.index_of(image, bounds)
            assert (index is None) == (key(image) not in membership)
            column[family.index_of(x, bounds)] = index
        columns.append(column)
    return columns


def _off_lattice(group, phi, psi, bounds, gen):
    """How many twists by gen of box elements have no key on the lattice."""
    membership, key = _ref_membership(group, bounds)
    pg = model_embed(endo_apply(psi, gen), group)
    fg = model_embed(endo_apply(phi, gen), group).inverse()
    return sum(key((pg * x) * fg) is None for x in membership.values())


def _direct_grid(group, phi, psi, bounds, gen):
    """The grid (column and runs) the family writes for the twist by gen."""
    return model_family(group).columns(
        model_embed(endo_apply(psi, gen), group),
        model_embed(endo_apply(phi, gen), group).inverse(), bounds)


def _column(grid):
    """The column of a grid, rebuilt from its runs: column[src] = dst,
    None where the image leaves the box."""
    indices = range(grid.rows * grid.width)
    column = [None] * len(indices)
    for src, dst in grid.runs:
        column[src] = indices[dst]
    return column


def _back(grid):
    """The back column of a grid, rebuilt from its runs: back[dst] = src,
    None where no run lands."""
    indices = range(grid.rows * grid.width)
    back = [None] * len(indices)
    for src, dst in grid.runs:
        back[dst] = indices[src]
    return back


def _direct_columns(group, phi, psi, bounds, gen):
    """(column, back) of the grid the family writes for the twist by gen."""
    grid = _direct_grid(group, phi, psi, bounds, gen)
    return _column(grid), _back(grid)


def _merged_columns(family, group, phi, psi, bounds):
    """The enumerator's a, a^-1, b and b^-1 columns: the column and the
    back column of each grid `_merge_box` returns."""
    *_, grids = _merge_box(family, group, phi, psi, bounds)
    return [column for grid in grids for column in (_column(grid), _back(grid))]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=maps)
@example(case=CASES[2], phi_args=(1, 1, -1, word([(A, -2)])),
         psi_args=(1, 0, 1, word([(A, 2), (B, 1)])))
def test_twist_kernels_match_model_products(case, phi_args, psi_args):
    # the enumerator's a, a^-1, b and b^-1 columns, entry by entry, against
    # the box index of the model product, None included
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = valid_map(group, *psi_args)
    columns = _merged_columns(model_family(group), group, phi, psi, bounds)
    assert columns == _model_columns(group, phi, psi, bounds)


def test_affine_kernel_leaves_the_lattice():
    # conjugating by a^-2 puts denominators 2^2 into psi(a); the image of
    # (p/2, k) then has no key on the 1/2 lattice for odd p
    group, bounds = GroupSpec(1, 2), {"k": 2, "t": 4, "e": 1}
    psi = valid_map(group, 1, 1, 1, word([(A, -2), (B, 1), (A, 2)]))
    phi = identity_spec(group)
    columns = _merged_columns(AFFINE, group, phi, psi, bounds)
    assert columns == _model_columns(group, phi, psi, bounds)
    assert sum(_off_lattice(group, phi, psi, bounds, gen) for gen in _REF_GENERATORS)
    entries = [entry for column in columns for entry in column]
    assert None in entries and any(entry is not None for entry in entries)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=maps)
@example(case=CASES[2], phi_args=(1, 1, -1, word([(A, -3)])),
         psi_args=(1, 0, 1, word([(A, 3), (B, 1)])))
@example(case=CASES[6], phi_args=(2, 1, -1, word([(A, 1), (B, -1)])),
         psi_args=(-1, 0, 1, word([])))
def test_inverted_columns_are_the_inverse_twist_columns(case, phi_args, psi_args):
    # tau_{g^-1} = tau_g^-1: the back column read from g's runs is
    # exactly the column written for g^-1, None where it leaves the box
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = valid_map(group, *psi_args)
    for gen in _GENERATORS:
        _, back = _direct_columns(group, phi, psi, bounds, gen)
        assert back == _direct_columns(group, phi, psi, bounds, invert(gen))[0]


def test_inverted_columns_of_an_affine_map_off_the_lattice():
    # conjugating by a^-2 puts denominators 2^2 into psi(a), so twists of
    # (p/2, k) leave the 1/2 lattice both ways; the back columns still agree
    group, bounds = GroupSpec(1, 2), {"k": 2, "t": 4, "e": 1}
    psi = valid_map(group, 1, 1, 1, word([(A, -2), (B, 1), (A, 2)]))
    phi = identity_spec(group)
    off_lattice = 0
    for gen in _GENERATORS:
        _, back = _direct_columns(group, phi, psi, bounds, gen)
        direct, _ = _direct_columns(group, phi, psi, bounds, invert(gen))
        assert back == direct
        off_lattice += _off_lattice(group, phi, psi, bounds, invert(gen))
    assert off_lattice


def test_box_keys_match_model_boxes():
    # index_of is a bijection from the reference box onto the index range
    # of the columns, and sends the elements of a wider box outside it to None
    for case in CASES + [Case(GroupSpec(2, 2), {"l": 4, "k": 1}),
                         Case(GroupSpec(3, 3), {"l": 3, "k": 0})]:
        group, bounds = case.group, case.bounds
        family = model_family(group)
        phi = identity_spec(group)
        membership, _ = _ref_membership(group, bounds)
        size = len(_direct_columns(group, phi, phi, bounds, word([(A, 1)]))[0])
        indices = [family.index_of(x, bounds) for x in membership.values()]
        assert sorted(indices) == list(range(size))
        wider = {name: value + (name != "e") for name, value in bounds.items()}
        if family is AFFINE:
            wider["e"] = bounds.get("e", min(bounds["k"], 4))
        for x_key, x in _ref_membership(group, wider)[0].items():
            if x_key not in membership:
                assert family.index_of(x, bounds) is None


# ---------------------------------------------------------------------------
# Slice edges: runs that end at index 0, stride along the axis, or are cut
# at both ends, each against the model products


def test_reversing_klein_run_ending_at_index_0():
    # the a-twist of the identity map reverses every row in place: row
    # v = -3 runs u = -6..6 onto u' = 6..-6, so its back run ends at index 0
    group, bounds = GroupSpec(1, -1), {"u": 6, "v": 3}
    phi = identity_spec(group)
    column, back = _direct_columns(group, phi, phi, bounds, word([(A, 1)]))
    assert column[12] == 0 and back[0] == 12
    assert [column, back] == _model_columns(group, phi, phi, bounds, _REF_GENERATORS[:2])


def test_affine_runs_with_strides():
    group, bounds = GroupSpec(1, 2), {"k": 3, "t": 12, "e": 1}
    phi, psi = valid_map(group, 1, 0, -1, word([(B, 1)])), identity_spec(group)
    # a: scale 2^(lift - 1) and unit 2^lift share 2^(lift - 1) > 1, so on a
    # row only every second p has an image; a^-1 has pk = -1 < 0, so p runs
    # over every p while p' strides by 2
    a_column, a_back = _direct_columns(group, phi, psi, bounds, word([(A, 1)]))
    inverse, _ = _direct_columns(group, phi, psi, bounds, word([(A, -1)]))
    assert [a_column, a_back] == _model_columns(group, phi, psi, bounds,
                                                _REF_GENERATORS[:2])
    assert inverse == a_back
    strided = 0
    for row in range(7):
        entries = a_column[row * 25:(row + 1) * 25]
        assert any(all(entry is None for entry in entries[s::2]) for s in (0, 1))
        images = [entry for entry in inverse[row * 25:(row + 1) * 25] if entry is not None]
        assert all(abs(y - x) == 2 for x, y in zip(images, images[1:]))
        strided += len(images) > 1
    assert strided


def test_permuted_runs_cut_at_both_ends():
    # B(3,3): k steps by 3 on a 9-wide axis, and the b-twist shifts k by
    # 1 - j = 2 (b^-1: -2), so runs lose their last (first) entries
    group, bounds = GroupSpec(3, 3), {"l": 1, "k": 4}
    phi, psi = valid_map(group, 2, 1, -1, word([(A, 1)])), identity_spec(group)
    assert _merged_columns(model_family(group), group, phi, psi, bounds) == \
        _model_columns(group, phi, psi, bounds)


@pytest.mark.parametrize("m,max_len", [(2, 3), (2, 4), (3, 2)])
def test_permuted_rows_are_built_once(m, max_len):
    rows = _permuted_rows(m, max_len)
    assert set(rows) == set(_ref_free_words(m, max_len))
    assert sorted(rows.values()) == list(range(len(rows)))
    assert _permuted_rows(m, max_len) is rows
    # the sigma table the twist grids read their heads from, in row order
    for k in range(m):
        heads = _permuted_heads(m, max_len, k)
        assert list(heads) == [_shift(w, k, m) for w in rows]
        assert _permuted_heads(m, max_len, k) is heads


def test_permuted_rows_are_one_run_when_phi_g_has_no_free_part():
    # B(3,3), b -> b^-1: phi(b)^-1 = (1, 1) has no free part, so the
    # b-twist's free part does not depend on k and each row is one run of
    # step 1; phi(a)^-1 = (x3^-2, -1) keeps one run per residue of k mod 3
    group, bounds = GroupSpec(3, 3), {"l": 2, "k": 4}
    phi, psi = valid_map(group, 2, 1, -1, word([])), identity_spec(group)
    assert _merged_columns(model_family(group), group, phi, psi, bounds) == \
        _model_columns(group, phi, psi, bounds)
    rows = len(_ref_free_words(3, 2))
    a_grid, b_grid = (_direct_grid(group, phi, psi, bounds, gen) for gen in _GENERATORS)
    assert len(b_grid.runs) == rows
    assert all(src.step == dst.step == 1 for src, dst in b_grid.runs)
    assert a_grid.runs and all(src.step == dst.step == 3 for src, dst in a_grid.runs)


# ---------------------------------------------------------------------------
# Runs and the erosion: the byte-mask erosion reads each grid's runs in
# place of its columns, so the runs must say exactly what the columns say


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=st.none() | maps)
def test_runs_cover_the_columns_disjointly(case, phi_args, psi_args):
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = identity_spec(group) if psi_args is None else valid_map(group, *psi_args)
    for gen in _GENERATORS:
        grid = _direct_grid(group, phi, psi, bounds, gen)
        column, back = _column(grid), _back(grid)
        indices = range(len(column))
        srcs = [indices[src] for src, _ in grid.runs]
        dsts = [indices[dst] for _, dst in grid.runs]
        assert _meets_the_run_contract(grid.runs, len(column), grid.width)
        for src, dst in zip(srcs, dsts):
            assert [column[i] for i in src] == list(dst)
            assert [back[i] for i in dst] == list(src)
        for spans, entries in ((srcs, column), (dsts, back)):
            covered = [i for span in spans for i in span]
            assert len(covered) == len(set(covered))  # pairwise disjoint
            assert set(covered) == {i for i in indices if entries[i] is not None}


def _set_erosion(parent, columns, inner_margin):
    """The erosion as sets: each step keeps the indices whose entry in
    every column is in the previous step's region."""
    inner = set(range(len(parent)))
    for _ in range(inner_margin):
        kept = inner
        for column in columns:
            kept = {i for i in kept if column[i] in inner}
        inner = kept
    return inner, {_root(parent, i) for i in inner}


def _erosion_pair(group, phi, psi, bounds, margin):
    """(inner region, roots) from `_stable_roots` and from `_set_erosion`.
    Over a union-find with no merges every index is its own root, so
    `_stable_roots` of it is the inner region itself."""
    family = model_family(group)
    parent, _, grids = _merge_box(family, group, phi, psi, bounds)
    columns = _merged_columns(family, group, phi, psi, bounds)
    runs = [grid.runs for grid in grids]
    got = (_stable_roots(list(range(len(parent))), runs, margin),
           _stable_roots(parent, runs, margin))
    return got, _set_erosion(parent, columns, margin)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=st.none() | maps,
       margin=st.integers(0, 4))
@example(case=CASES[1], phi_args=(3, 0, 1, word([])), psi_args=None, margin=0)
@example(case=CASES[1], phi_args=(3, 0, 1, word([])), psi_args=None, margin=3)
@example(case=CASES[6], phi_args=(1, 0, -1, word([(A, 1), (B, -1)])), psi_args=None,
         margin=1)
def test_mask_erosion_matches_the_set_erosion(case, phi_args, psi_args, margin):
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = identity_spec(group) if psi_args is None else valid_map(group, *psi_args)
    got, want = _erosion_pair(group, phi, psi, bounds, margin)
    assert got == want


def test_mask_erosion_keeps_the_whole_box_and_can_erode_all_of_it():
    # Klein a -> a^3: the a-twist moves v by 1 - 3 = -2 on a 5-row box
    # (|v| <= 2), so margin 0 keeps all 45 elements; one step keeps row
    # v = 0 only, and no element survives a second or third step
    group, bounds = GroupSpec(-1, 1), {"u": 4, "v": 2}
    phi, psi = valid_map(group, 3, 0, 1, word([])), identity_spec(group)
    (inner, _), (want, _) = _erosion_pair(group, phi, psi, bounds, 0)
    assert inner == want == set(range(45))
    (inner, roots), (want, want_roots) = _erosion_pair(group, phi, psi, bounds, 3)
    assert inner == want == set() and roots == want_roots == set()
    with pytest.raises(BoxTooSmall):
        enumerate_classes_ball(group, phi, psi, bounds=bounds, inner_margin=3)


def test_erosion_stops_at_its_fixpoint():
    # a step that keeps the region keeps it forever, so a margin of 10^9
    # answers as a small margin past the fixpoint does, and in no longer
    # than that: both when the region empties (Klein a -> a^3, b -> b^2 at
    # the default box) and when it keeps the even rows (the Klein identity,
    # whose b-twist moves the odd rows by 2)
    klein = GroupSpec(1, -1)
    flip = valid_map(klein, 3, 0, 2, word([]))
    for margin in (8, 10 ** 9):
        with pytest.raises(BoxTooSmall):
            enumerate_classes_ball(klein, flip, inner_margin=margin)
    identity, bounds = identity_spec(klein), {"u": 16, "v": 4}
    reports = [enumerate_classes_ball(klein, identity, bounds=bounds, inner_margin=margin)
               for margin in (0, 20, 10 ** 9)]
    assert reports[1] == reports[2] != reports[0]


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


def _report_or_none(call):
    try:
        return call()
    except BoxTooSmall:
        return None


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), phi_args=maps, psi_args=st.none() | maps,
       margin=st.integers(0, 2))
def test_random_reports_match_the_model_enumerator(case, phi_args, psi_args, margin):
    group, bounds = case.group, case.bounds
    phi = valid_map(group, *phi_args)
    psi = None if psi_args is None else valid_map(group, *psi_args)
    want = _report_or_none(lambda: reference_report(group, phi, psi, bounds, margin))
    got = _report_or_none(lambda: enumerate_classes_ball(group, phi, psi, bounds=bounds,
                                                         inner_margin=margin))
    assert got == want


def test_a_run_that_fixes_every_element_merges_nothing():
    # the chain 0 -> 1 -> 2 -> 3 is left as it is: a find from 0 would halve it
    chain = [(slice(x, x + 1), slice(x + 1, x + 2)) for x in range(3)]
    fixed = [(slice(0, 4), slice(0, 4)), (slice(3, None, -1), slice(3, None, -1))]
    assert union_runs(4, 4, chain + fixed) == ([1, 2, 3, 3], 3)


def _partition(find, size):
    """Each index mapped to the least index of its class under `find`."""
    classes = {}
    for x in range(size):
        classes.setdefault(find(x), x)
    return [classes[find(x)] for x in range(size)]


def _merged_by_edges(runs, size):
    """(partition, merges) of the reference union-find, one edge at a time."""
    uf, cells = _RefUnionFind(range(size)), range(size)
    for src, dst in runs:
        for x, y in zip(cells[src], cells[dst]):
            uf.union(x, y)
    return _partition(uf.find, size), uf.merges


def _meets_the_run_contract(runs, size, width):
    """Whether every run has what `union_runs` assumes: two non-empty
    sides of one length, each inside one row of the box."""
    cells = range(size)
    return all(len(s) == len(d) > 0 and s[0] // width == s[-1] // width
               and d[0] // width == d[-1] // width
               for s, d in ((cells[src], cells[dst]) for src, dst in runs))


def test_selftest_box_oracle_runs_meet_the_run_contract(monkeypatch):
    # the other producer of runs: the snf check's lattice boxes
    boxes, real = [], union_runs

    def recording(size, width, runs):
        boxes.append(_meets_the_run_contract(runs, size, width))
        return real(size, width, runs)

    monkeypatch.setattr(selftest, "union_runs", recording)
    assert selftest.check_snf_oracle()[0]
    assert len(boxes) == selftest.SNF_SAMPLES and all(boxes)


def _merged_by_runs(runs, size, width):
    parent, merges = union_runs(size, width, runs)
    return _partition(lambda x: _root(parent, x), size), merges


def _translation(lo, width, c, trim=(0, 0)):
    """Row lo // width shifted by c, less `trim` edges at either end."""
    start, stop = lo + max(0, -c) + trim[0], lo + width - max(0, c) - trim[1]
    return slice(start, stop), slice(start + c, stop + c)


@st.composite
def box_runs(draw, rows=st.integers(1, 4), width=st.integers(2, 9)):
    """(runs, rows * width, width): a rows x width box and a mix of runs."""
    rows, width = draw(rows), draw(width)
    size, runs = rows * width, []
    steps = st.sampled_from((1, -1, 2))
    for kind in draw(st.lists(st.sampled_from(
            ("whole", "partial", "reflect", "cross")), max_size=8)):
        lo = draw(st.integers(0, rows - 1)) * width
        c = draw(st.integers(1, width - 1)) * draw(st.sampled_from((1, -1)))
        if kind == "whole":
            runs.append(_translation(lo, width, c))
        elif kind == "partial" and width - abs(c) > 1:  # at least one edge left
            cut = draw(st.integers(1, width - abs(c) - 1))
            head = draw(st.integers(0, cut))
            runs.append(_translation(lo, width, c, (head, cut - head)))
        elif kind == "reflect":  # positions a..b-1 of the row, reversed
            a = draw(st.integers(0, width - 1))
            b = draw(st.integers(a + 1, width))
            runs.append((slice(lo + a, lo + b),
                         slice(lo + b - 1, lo + a - 1 if lo + a else None, -1)))
        elif kind == "cross":
            grid = _Columns(rows, width)
            grid.run(((lo // width, draw(st.integers(0, rows - 1))),),
                     draw(st.integers(0, width - 1)), draw(steps),
                     draw(st.integers(0, width - 1)), draw(steps))
            runs += grid.runs
    return runs, size, width


@settings(max_examples=300, deadline=None)
@given(box=box_runs())
@example(box=([(slice(0, 3), slice(2, 5)), (slice(0, 4), slice(4, 0, -1)),
               (slice(5, 7), slice(8, 10)), (slice(5, 8), slice(7, 10))], 10, 5))
# off a row start: sides in rows 0 and 1 that step 1 and together span a
# row's width are no translation
@example(box=([(slice(3, 5), slice(6, 8)), (slice(5, 9), slice(6, 10)),
               (slice(0, 5), slice(5, 10))], 10, 5))
# a copy onto an untouched row: src's row 0 onto the merged row 1 ...
@example(box=([_translation(5, 5, 2), (slice(0, 5), slice(9, 4, -1))], 15, 5))
# ... and dst's untouched row 2 from it, then a row with a modulus from both
@example(box=([_translation(5, 5, 2), (slice(5, 10, 2), slice(12, 15)),
               (slice(10, 15), slice(5, 10))], 15, 5))
# self-reverse runs of odd and even length, with steps 1 and 2, in an
# untouched row, in a row with a modulus and in a merged row without one;
# a reflected row is touched, so the last run below merges it edge by edge
@example(box=([(slice(0, 2), slice(3, 5)), (slice(5, 10), slice(9, 4, -1)),
               (slice(11, 15), slice(14, 10, -1)), (slice(0, 5), slice(5, 10))], 15, 5))
@example(box=([(slice(0, 5, 2), slice(4, None, -2)), (slice(1, 5), slice(4, 0, -1))], 10, 5))
@example(box=([_translation(5, 5, 2), _translation(10, 5, -3), (slice(5, 10), slice(9, 4, -1)),
               (slice(10, 14), slice(13, 9, -1))], 15, 5))
@example(box=([(slice(5, 6), slice(7, 8)), (slice(5, 10), slice(9, 4, -1)),
               (slice(0, 2), slice(3, 5)), (slice(0, 4), slice(3, None, -1))], 15, 5))
def test_runs_merge_as_their_edges(box):
    # closed-form rows, untouched-row copies, halved self-reverse runs,
    # one-period runs and every other run give the partition and the merge
    # count of the edges taken one at a time
    runs, size, width = box
    assert _meets_the_run_contract(runs, size, width)
    assert _merged_by_runs(runs, size, width) == _merged_by_edges(runs, size)


@pytest.mark.parametrize("runs", [
    # a step-1 run from a row start that covers the row: on an untouched
    # row (steps 1 and None), then on a row an earlier one touched
    [(slice(5, 8, 1), slice(7, 10, 1))],
    [_translation(5, 5, -3)],
    [_translation(5, 5, 2), (slice(5, 7, 1), slice(8, 10, 1))],
    # step 1 on both sides off a row start: with c = width - len, and in
    # one row
    [(slice(3, 5, 1), slice(6, 8, 1)), (slice(7, 9, 1), slice(10, 12, 1)),
     (slice(11, 13, 1), slice(13, 15, 1))],
    # descending through index 0, so the stop is None: self-reverse, onto
    # another row, and from a row with a modulus
    [(slice(0, 3, 1), slice(2, None, -1))],
    [(slice(5, 9, 1), slice(3, None, -1)), (slice(11, 14), slice(2, None, -1))],
    [_translation(0, 5, 3), (slice(4, None, -1), slice(10, 15))],
    # src == dst merges nothing, stepping up or down through index 0
    [(slice(5, 10, 1), slice(5, 10, 1)), (slice(4, None, -1), slice(4, None, -1)),
     _translation(5, 5, 1)],
])
def test_each_kind_of_run_merges_as_its_edges(runs):
    size, width = 15, 5
    assert _meets_the_run_contract(runs, size, width)
    assert _merged_by_runs(runs, size, width) == _merged_by_edges(runs, size)


def test_a_row_translation_from_its_row_start_takes_the_closed_form():
    # the one slice write points each element of the row at the first of
    # its residue class; edge by edge, x would point at x + c
    for run, c in (((slice(5, 8, 1), slice(7, 10, 1)), 2), (_translation(5, 5, -3), 3)):
        parent, merges = union_runs(15, 5, [run])
        assert parent[5:10] == [5 + x % c for x in range(5)] and merges == 5 - c


@settings(max_examples=100, deadline=None)
@given(large=box_runs(st.just(4), st.just(9)), small=box_runs(st.just(1), st.just(2)))
# the large box joins 0 and 1, which the small box, with no run, keeps apart
@example(large=([(slice(0, 1), slice(1, 2)), _translation(9, 9, 4)], 36, 9),
         small=([], 2, 2))
def test_boxes_of_different_sizes_merge_in_turn(large, small):
    # every box copies its prefix of the shared index list, so a large box,
    # a small one and the large one again each merge as their own edges
    for runs, size, width in (large, small, large):
        assert _meets_the_run_contract(runs, size, width)
        assert _merged_by_runs(runs, size, width) == _merged_by_edges(runs, size)


def test_a_whole_row_translation_leaves_its_residue_classes():
    width, lo = 7, 7  # row 1 of a 3 x 7 box
    for c in (1, 3, -3, 6, -6):
        parent, merges = union_runs(3 * width, width, [_translation(lo, width, c)])
        assert merges == width - abs(c)
        assert _partition(lambda x: _root(parent, x), 3 * width) == \
            list(range(lo)) + [lo + x % abs(c) for x in range(width)] + \
            list(range(lo + width, 3 * width))
    # a second translation of the row takes the period path: shifts by 3
    # and then 2 join the whole row, as the edges do
    runs = [_translation(lo, width, 3), _translation(lo, width, -2)]
    got = _merged_by_runs(runs, 3 * width, width)
    assert got == _merged_by_edges(runs, 3 * width)
    assert got[1] == width - 1


def test_only_given_specs_are_validated(monkeypatch):
    # an omitted psi is the identity, with images a and b and no spec to
    # validate; phi and a given psi apply the relator once each across
    # both box users
    calls, real = [], homs._check_relator

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(homs, "_check_relator", counting)
    klein, bounds = GroupSpec(1, -1), {"u": 8, "v": 4}
    cert = Certificate(INV_A_SUM, "Z", {}, "a", "a^2", ("a", "a^3"), ("1", "3"))
    for psi_given in (False, True):
        calls.clear()
        phi = EndoSpec(klein, word([(A, 3)]), word([(B, 2)]))
        psi = EndoSpec(klein, word([(A, -1)]), word([(B, 1)])) if psi_given else None
        enumerate_classes_ball(klein, phi, psi, bounds=bounds, inner_margin=0)
        witnesses_stay_separated(cert, phi, psi, bounds=bounds)
        assert calls == [phi] + [psi] * psi_given
    bad = EndoSpec(klein, word([(A, 2)]), word([(B, 1)]))
    for call in (lambda: enumerate_classes_ball(klein, bad, bounds=bounds),
                 lambda: witnesses_stay_separated(cert, bad, bounds=bounds)):
        with pytest.raises(RelationViolated):
            call()


def test_stabilized_is_never_true_for_a_certified_infinite_map():
    group = GroupSpec(1, 5)
    phi = identity_spec(group)
    outcome = certify_infinite(phi)
    assert outcome.kind == "infinite" and check_certificate(outcome.certificate, phi)
    assert not enumerate_classes_ball(group, phi).stabilized


def test_each_twist_grid_is_built_once(monkeypatch):
    # one pass: the a and b grids of the box, and nothing else
    built = []

    def counting_family(group):
        family = model_family(group)

        def columns(pg, fg, bounds):
            built.append(bounds)
            return family.columns(pg, fg, bounds)
        return replace(family, columns=columns)

    monkeypatch.setattr(reidemeister, "model_family", counting_family)
    for case in CASES:
        built.clear()
        phi = valid_map(case.group, 1, 0, -1, word([]))
        _report_or_none(lambda: enumerate_classes_ball(case.group, phi, bounds=case.bounds))
        assert built == [case.bounds] * 2


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
        assert witnesses_stay_separated(fake, identity_spec(klein), bounds=bounds) == \
            reference_separated(fake, identity_spec(klein), None, bounds)


@pytest.mark.parametrize("text,text2", [
    ("group 1 -1\na -> b a b^-1\nb -> b^-1", None),
    ("group 1 2\na -> a\nb -> a b^-1 a^-1", None),
    ("group 2 2\na -> b a b^-1\nb -> b^-1", None),
    ("group 1 2\na -> a\nb -> b", "group 1 2\na -> a\nb -> b^-1"),
])
def test_a_spec_reused_across_boxes_reports_as_fresh_parses(text, text2):
    # each spec caches its model images: one spec object through both box
    # users, in either order, gives what fresh parses of its text give
    def parse():
        return parse_endo_file(text), text2 and parse_endo_file(text2)

    phi, psi = parse()
    group = phi.group
    outcome = certify_infinite(phi) if psi is None else coincidence_certify(phi, psi)
    assert outcome.kind == "infinite"
    # the catalog's witnesses, and conjugates that may merge
    certs = (outcome.certificate,
             Certificate(INV_A_SUM, "Z", {}, "1", "a", ("1", "b", "a", "b a b^-1"),
                         ("0", "0", "1", "1")))
    report = enumerate_classes_ball(group, phi, psi)
    verdicts = [witnesses_stay_separated(cert, phi, psi) for cert in certs]
    assert report == enumerate_classes_ball(group, *parse())
    assert verdicts == [witnesses_stay_separated(cert, *parse()) for cert in certs]
    phi, psi = parse()
    assert [witnesses_stay_separated(cert, phi, psi) for cert in certs] == verdicts
    assert enumerate_classes_ball(group, phi, psi) == report


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


# ---------------------------------------------------------------------------
# Pinned reports: the enumerate workload's ten shapes with fixed conjugators
# at its boxes, and each family's default bounds

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "enumeration_reports.json"

_WORKLOAD_BOXES = {"klein": ({"u": 80, "v": 10}, {"u": 24, "v": 4}),
                   "affine": ({"k": 6, "t": 80, "e": 3}, {"k": 3, "t": 30, "e": 2}),
                   "permuted-product": ({"l": 2, "k": 6}, {"l": 1, "k": 3})}

# name: (group, phi args, psi args or None, margin, workload boxes?)
PINS = {
    "klein-acceptance": (GroupSpec(1, -1), (3, 0, 2, word([])), None, 2, True),
    "klein-flip": (GroupSpec(1, -1), (-1, 0, 1, word([(B, 1), (A, -1)])), None, 2, True),
    "klein-invert-b": (GroupSpec(1, -1), (1, 0, -1, word([(A, 1)])), None, 2, True),
    "klein-pair": (GroupSpec(1, -1), (1, 1, -1, word([])), (-1, 0, 1, word([])), 2, True),
    "affine-2-invert-b": (GroupSpec(1, 2), (1, 0, -1, word([(A, -1), (B, 1)])), None, 2,
                          True),
    "affine-minus2": (GroupSpec(1, -2), (1, 0, 1, word([(B, -1)])), None, 2, True),
    "affine-2-pair": (GroupSpec(1, 2), (1, 0, 1, word([])), (1, 0, -1, word([])), 2, True),
    "permuted-invert-b": (GroupSpec(2, 2), (1, 0, -1, word([(A, 1), (B, 1)])), None, 1,
                          True),
    "permuted-square-a": (GroupSpec(2, 2), (2, 0, 1, word([(B, -1), (A, -1)])), None, 1,
                          True),
    "permuted-pair": (GroupSpec(2, 2), (3, 0, 1, word([])), (1, 0, -1, word([])), 1, True),
    "klein-default": (GroupSpec(1, -1), (3, 0, 2, word([])), None, 2, False),
    "affine-2-default": (GroupSpec(1, 2), (1, 1, 1, word([])), None, 2, False),
    "affine-minus3-default": (GroupSpec(1, -3), (1, 0, 1, word([(A, -1)])), None, 2, False),
    "permuted-cube-a-default": (GroupSpec(2, 2), (3, 0, 1, word([])), None, 2, False),
}


def _pinned_entry(group, phi_args, psi_args, margin, workload):
    phi = valid_map(group, *phi_args)
    psi = None if psi_args is None else valid_map(group, *psi_args)
    bounds, witness_bounds = (_WORKLOAD_BOXES[model_family(group).name] if workload
                              else (None, None))
    try:
        report = enumerate_classes_ball(group, phi, psi, bounds=bounds,
                                        inner_margin=margin).as_dict()
    except BoxTooSmall:
        report = "box-too-small"
    outcome = certify_infinite(phi) if psi is None else coincidence_certify(phi, psi)
    separated = None
    if outcome.kind == "infinite":
        separated = witnesses_stay_separated(outcome.certificate, phi, psi,
                                             bounds=witness_bounds)
    return {"report": report, "separated": separated}


def pinned_reports_text() -> str:
    entries = {name: _pinned_entry(*pin) for name, pin in PINS.items()}
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def test_reports_match_the_pinned_file():
    assert pinned_reports_text() == GOLDEN.read_text()


if __name__ == "__main__":  # rewrite the pinned file: PYTHONPATH=src python tests/...
    GOLDEN.write_text(pinned_reports_text())
