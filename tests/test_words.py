"""Word arithmetic, pinch reduction, and canonical normal forms."""

import copy
import pickle
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bstwist.errors import WordSyntaxError
from bstwist.models import AffineElement, KleinElement, PermutedProduct
from bstwist.words import (
    A, B, GroupSpec, NormalForm, Syllable, Word, _carry_pass, _conjugate_form,
    are_equal, britton_reduce, exp_sum, format_word, invert, multiply,
    normal_form, parse_word, power, relator, standardize, substitute, word,
)

GRID = [GroupSpec(1, 2), GroupSpec(1, 3), GroupSpec(1, -2), GroupSpec(2, 3),
        GroupSpec(2, -3), GroupSpec(2, -2), GroupSpec(2, 2), GroupSpec(3, 3)]


def random_word(rng, max_syllables=12):
    return word([(rng.choice((A, B)), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randrange(max_syllables + 1))])


class TestParsing:
    def test_basic(self):
        w = parse_word("a^-1 b^2 a")
        assert [(s.base, s.exp) for s in w] == [(A, -1), (B, 2), (A, 1)]

    def test_capitals_are_inverses(self):
        assert parse_word("A B") == word([(A, -1), (B, -1)])

    def test_capitals_with_exponent(self):
        assert parse_word("B^3") == word([(B, -3)])

    def test_free_reduction_on_parse(self):
        # b B cancels, then the b after it stands alone
        w = parse_word("A b B b a")
        assert [(s.base, s.exp) for s in w] == [(A, -1), (B, 1), (A, 1)]

    def test_compact_text(self):
        assert parse_word("a^2b^-1") == word([(A, 2), (B, -1)])

    def test_identity_token(self):
        assert parse_word("1") == Word()
        assert parse_word(" 1 ") == Word()

    def test_empty_text(self):
        assert parse_word("") == Word()
        assert parse_word("   ") == Word()

    def test_syntax_error_position(self):
        with pytest.raises(WordSyntaxError) as info:
            parse_word("a c")
        assert info.value.position == 1
        assert info.value.token == "c"

    def test_bad_caret(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a^x")

    def test_format_round_trip(self):
        rng = random.Random(7)
        for _ in range(300):
            w = random_word(rng)
            assert parse_word(format_word(w)) == w

    def test_format_identity(self):
        assert format_word(Word()) == "1"


class TestFreeArithmetic:
    def test_multiply_cascades(self):
        u = parse_word("a b a")
        v = parse_word("a^-1 b^-1 a^-1")
        assert multiply(u, v) == Word()

    def test_invert_involutive_and_inverse(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng)
            assert invert(invert(w)) == w
            assert multiply(w, invert(w)) == Word()

    def test_power(self):
        w = parse_word("a b")
        assert power(w, 3) == parse_word("a b a b a b")
        assert power(w, -2) == invert(power(w, 2))
        assert power(w, 0) == Word()

    def test_word_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word((Syllable(A, 1), Syllable(A, 2)))

    def test_word_rejects_exponents_that_are_not_exact_ints(self):
        # b^0.5 once normalized as it stood, and b^2.0 as b^2
        for pairs in ([(B, 0.5), (A, 1)], [(A, 1), (B, 2.0)], [(B, True)],
                      [(B, 0.5), (B, 0.5)]):
            with pytest.raises(TypeError, match="exact int"):
                word(pairs)
            with pytest.raises(TypeError, match="exact int"):
                Word(tuple(Syllable(*pair) for pair in pairs))

    def test_word_rejects_a_bad_base_or_a_zero_exponent(self):
        # a Syllable is a plain pair; Word checks every syllable
        for bad in (Syllable("c", 1), Syllable(A, 0), Syllable(B, 0)):
            with pytest.raises(ValueError):
                Word((bad,))
            with pytest.raises(ValueError):
                Word((Syllable(A, 1), bad))

    def test_exp_sum(self):
        w = parse_word("a^-1 b^2 a b^-5")
        assert exp_sum(w, A) == 0
        assert exp_sum(w, B) == -3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((A, B)), st.integers(-3, 3)),
                    max_size=12))
    @example([])
    @example([(B, 2), (A, -1), (B, 3)])
    def test_exp_sum_is_the_naive_sum(self, pairs):
        # every other syllable from the first of the base, against a scan
        # of all of them; the empty word sums to 0
        w = word(pairs)
        for base in (A, B):
            assert exp_sum(w, base) == sum(e for b, e in w.syllables if b == base)


class TestBritton:
    def test_forward_pinch(self):
        g = GroupSpec(2, 3)
        assert britton_reduce(parse_word("a^-1 b^2 a"), g) == parse_word("b^3")

    def test_backward_pinch(self):
        g = GroupSpec(2, 3)
        assert britton_reduce(parse_word("a b^3 a^-1"), g) == parse_word("b^2")

    def test_blocked_pinch_left_alone(self):
        g = GroupSpec(2, 3)
        w = parse_word("a^-1 b a")
        assert britton_reduce(w, g) == w

    def test_nested_pinches(self):
        g = GroupSpec(1, 2)
        w = parse_word("a^-2 b a^2")
        assert britton_reduce(w, g) == parse_word("b^4")

    def test_relator_trivial_on_grid(self):
        for g in GRID:
            assert britton_reduce(relator(g), g) == Word()

    def test_pinch_grid(self):
        for g in GRID:
            for t in range(-5, 6):
                lhs = word([(A, -1), (B, g.m * t), (A, 1)])
                assert britton_reduce(lhs, g) == word([(B, g.n * t)])

    def test_negative_m_pinch(self):
        g = GroupSpec(-2, 3)
        assert britton_reduce(parse_word("a^-1 b^-2 a"), g) == parse_word("b^3")

    def test_reduced_word_is_fixed_point(self):
        rng = random.Random(5)
        for g in GRID:
            for _ in range(100):
                r = britton_reduce(random_word(rng), g)
                assert britton_reduce(r, g) == r


class TestNormalForm:
    def test_coset_range_positive_a(self):
        g = GroupSpec(2, 3)
        nf = normal_form(parse_word("b^5 a"), g).word
        # b-exponent before a must lie in [0, m)
        assert nf == parse_word("b a b^6")

    def test_coset_range_negative_a(self):
        g = GroupSpec(2, 3)
        nf = normal_form(parse_word("b^5 a^-1"), g).word
        # b-exponent before a^-1 must lie in [0, n)
        assert nf == parse_word("b^2 a^-1 b^2")

    def test_idempotent(self):
        rng = random.Random(13)
        for g in GRID:
            for _ in range(100):
                nf = normal_form(random_word(rng), g).word
                assert normal_form(nf, g).word == nf

    def test_canonical_iff_equal(self):
        rng = random.Random(17)
        for g in GRID:
            for _ in range(150):
                u, v = random_word(rng), random_word(rng)
                same = are_equal(u, v, g)
                assert (normal_form(u, g).word == normal_form(v, g).word) == same

    def test_normal_form_preserves_element(self):
        rng = random.Random(19)
        for g in GRID:
            for _ in range(100):
                w = random_word(rng)
                assert are_equal(w, normal_form(w, g).word, g)


class TestEquality:
    def test_relation_instances(self):
        g = GroupSpec(2, 3)
        assert are_equal(parse_word("a^-1 b^2 a"), parse_word("b^3"), g)
        assert not are_equal(parse_word("a^-1 b a"), parse_word("b"), g)

    def test_equality_is_congruence(self):
        rng = random.Random(23)
        g = GroupSpec(2, 3)
        for _ in range(50):
            u, c = random_word(rng), random_word(rng)
            v = multiply(multiply(c, relator(g)), multiply(invert(c), u))
            assert are_equal(u, v, g)

    def test_torsion_free_sample(self):
        g = GroupSpec(2, 3)
        for text in ("a", "b", "a b", "a^-1 b^2"):
            w = parse_word(text)
            for k in (2, 3):
                assert not are_equal(power(w, k), Word(), g)


class TestSubstitute:
    def test_simple(self):
        w = parse_word("a b^2")
        out = substitute(w, parse_word("a^3"), parse_word("b a"))
        assert out == parse_word("a^3 b a b a")

    def test_homomorphism_property(self):
        rng = random.Random(29)
        ia, ib = parse_word("a b"), parse_word("b^2")
        for _ in range(100):
            u, v = random_word(rng), random_word(rng)
            assert substitute(multiply(u, v), ia, ib) == \
                multiply(substitute(u, ia, ib), substitute(v, ia, ib))


class TestStandardize:
    @pytest.mark.parametrize("m,n,mm,nn", [
        (2, 3, 2, 3),
        (-2, -3, 2, 3),
        (3, 2, 2, 3),
        (-3, 2, 2, -3),
        (2, -3, 2, -3),
        (1, 1, 1, 1),
        (-1, -1, 1, 1),
        (1, -1, 1, -1),
        (-5, -5, 5, 5),
    ])
    def test_target_indices(self, m, n, mm, nn):
        target, _ = standardize(GroupSpec(m, n))
        assert (target.m, target.n) == (mm, nn)
        assert 0 < target.m <= abs(target.n)

    def test_map_kills_relator(self):
        # the generator map must send the source relator to 1 in the target
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m == 0 or n == 0:
                    continue
                source = GroupSpec(m, n)
                target, (ia, ib) = standardize(source)
                image = substitute(relator(source), ia, ib)
                assert are_equal(image, Word(), target), (m, n)

    def test_closed_form_matches_the_search(self):
        # the first of (m,n), (-m,-n), (n,m), (-n,-m) with 0 < m' <= |n'|,
        # the last two through a -> a^-1
        def search(m, n):
            for mm, nn, ia in ((m, n, "a"), (-m, -n, "a"), (n, m, "a^-1"), (-n, -m, "a^-1")):
                if 0 < mm <= abs(nn):
                    return GroupSpec(mm, nn), (parse_word(ia), parse_word("b"))

        for m in range(-9, 10):
            for n in range(-9, 10):
                if m and n:
                    assert standardize(GroupSpec(m, n)) == search(m, n), (m, n)

    def test_map_is_invertible_on_generators(self):
        # images are a or a^-1 and b, so the map is onto
        for source in (GroupSpec(3, 2), GroupSpec(-2, -3), GroupSpec(-3, 2)):
            _, (ia, ib) = standardize(source)
            assert ia in (parse_word("a"), parse_word("a^-1"))
            assert ib == parse_word("b")


class TestGroupSpec:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            GroupSpec(0, 2)
        with pytest.raises(ValueError):
            GroupSpec(2, 0)

    def test_indices_that_are_not_exact_ints_rejected(self):
        # 2.0 and True compare and hash equal to ints, so they would share
        # an int group's cached relator
        class Int(int):
            pass

        for bad in (2.0, True, Int(2)):
            with pytest.raises(TypeError):
                GroupSpec(bad, 3)
            with pytest.raises(TypeError):
                GroupSpec(3, bad)


class TestValueClasses:
    """`GroupSpec`, `Word`, `NormalForm` and the model elements
    `AffineElement`, `KleinElement` and `PermutedProduct` behave as the
    frozen dataclasses they replaced: the same equality, hash (so set and
    dict orders stay the same), repr, immutability and copies."""

    VALUES = [
        (GroupSpec(2, 3), (2, 3)),
        (Word((Syllable(A, 1),)), ((Syllable(A, 1),),)),
        (Word(), ((),)),
        (normal_form(parse_word("b^5 a"), GroupSpec(2, 3)),
         (parse_word("b a b^6"), GroupSpec(2, 3))),
        (AffineElement(-3, 2, -1, -2), (-3, 2, -1, -2)),
        (KleinElement(4, -1), (4, -1)),
        (PermutedProduct(((1, 2), (2, -1)), 3, 2), (((1, 2), (2, -1)), 3, 2)),
        (PermutedProduct((), 0, 3), ((), 0, 3)),
    ]

    @pytest.mark.parametrize("value,fields", VALUES)
    def test_equal_and_hashed_by_field_tuple(self, value, fields):
        again = type(value)(*fields)
        assert again == value and not again != value
        assert hash(value) == hash(again) == hash(fields)
        assert value != fields

    def test_equality_needs_the_same_type(self):
        assert GroupSpec(2, 3) != (2, 3)
        assert GroupSpec(2, 3) != GroupSpec(3, 2)
        assert Word() != NormalForm(Word(), GroupSpec(1, 1))
        assert parse_word("a") != parse_word("a^-1")
        assert KleinElement(1, 2) != (1, 2)
        assert AffineElement(1, 0, 0, 2) != AffineElement(1, 0, 0, -2)
        assert PermutedProduct((), 1, 2) != KleinElement(0, 1)

    def test_repr_is_pinned(self):
        assert repr(GroupSpec(2, 3)) == "GroupSpec(m=2, n=3)"
        assert repr(parse_word("a")) == \
            "Word(syllables=(Syllable(base='a', exp=1),))"
        assert repr(normal_form(parse_word("b"), GroupSpec(1, 2))) == (
            "NormalForm(word=Word(syllables=(Syllable(base='b', exp=1),)), "
            "group=GroupSpec(m=1, n=2))")
        assert repr(AffineElement(1, 0, 2, 2)) == "AffineElement(num=1, exp=0, k=2, n=2)"
        assert repr(KleinElement(-1, 3)) == "KleinElement(u=-1, v=3)"
        assert repr(PermutedProduct(((1, -2),), 0, 2)) == \
            "PermutedProduct(w=((1, -2),), k=0, m=2)"

    @pytest.mark.parametrize("value,fields", VALUES)
    def test_assignment_and_deletion_raise(self, value, fields):
        for name in ("m", "n", "syllables", "word", "group", "num", "exp", "k",
                     "u", "v", "w", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == type(value)(*fields)

    @pytest.mark.parametrize("value,fields", VALUES)
    def test_copies_and_pickles_are_equal(self, value, fields):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)

    def test_constructors_still_check(self):
        with pytest.raises(ValueError):
            GroupSpec(0, 1)
        with pytest.raises(ValueError):
            Word(((A, 0),))

    def test_operators_agree_with_the_functions(self):
        # Word's * and str, and NormalForm's str, are public spellings of
        # multiply and format_word
        rng = random.Random(19)
        assert str(Word()) == "1" and Word() * Word() == Word()
        for group in GRID:
            for _ in range(30):
                u, v = random_word(rng), random_word(rng)
                assert u * v == multiply(u, v)
                assert str(u) == format_word(u)
                form = normal_form(u, group)
                assert str(form) == format_word(form.word)


# ---------------------------------------------------------------------------
# Differential tests of the syllable kernel against the unit-by-unit rules
# it replaces: a-syllables split into +-1 units, one pinch check and one
# carry step per unit, w^k built from k copies, and a stack push that
# cascades merges for as long as equal bases meet.

def _ref_push(stack, base, exp):
    if exp == 0:
        return
    stack.append([base, exp])
    # merge adjacent equal bases; a zero merge exposes a new adjacency
    while len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
        top = stack.pop()
        stack[-1][1] += top[1]
        if stack[-1][1] == 0:
            stack.pop()


def _ref_word(pairs):
    stack = []
    for base, exp in pairs:
        _ref_push(stack, base, exp)
    return Word(tuple(Syllable(b, e) for b, e in stack))


def _ref_tokens(w):
    for s in w:
        if s.base == B:
            yield (B, s.exp)
        else:
            step = 1 if s.exp > 0 else -1
            for _ in range(abs(s.exp)):
                yield (A, step)


def _ref_britton_reduce(w, group):
    m, n = group.m, group.n
    stack = []
    for base, exp in _ref_tokens(w):
        if base == B:
            _ref_push(stack, B, exp)
            continue
        if len(stack) >= 2 and stack[-1][0] == B and stack[-2][0] == A:
            t = stack[-1][1]
            p = stack[-2][1]
            if exp > 0 and p < 0 and t % m == 0:
                stack.pop()
                _ref_push(stack, A, 1)
                _ref_push(stack, B, (t // m) * n)
                continue
            if exp < 0 and p > 0 and t % n == 0:
                stack.pop()
                _ref_push(stack, A, -1)
                _ref_push(stack, B, (t // n) * m)
                continue
        _ref_push(stack, A, exp)
    return Word(tuple(Syllable(b, e) for b, e in stack))


def _ref_carry_pass(w, group):
    m, n = group.m, group.n
    stack = []
    carry = 0
    for base, exp in _ref_tokens(w):
        if base == B:
            carry += exp
            continue
        if exp > 0:
            r = carry % abs(m)
            q = (carry - r) // m
            _ref_push(stack, B, r)
            _ref_push(stack, A, 1)
            carry = q * n
        else:
            r = carry % abs(n)
            q = (carry - r) // n
            _ref_push(stack, B, r)
            _ref_push(stack, A, -1)
            carry = q * m
    _ref_push(stack, B, carry)
    return Word(tuple(Syllable(b, e) for b, e in stack))


def _ref_normal_form(w, group):
    current = _ref_britton_reduce(w, group)
    while True:
        candidate = _ref_carry_pass(current, group)
        if candidate == current:
            return current
        current = _ref_britton_reduce(candidate, group)


def _ref_power(w, k):
    if k < 0:
        return _ref_power(invert(w), -k)
    return _ref_word((s.base, s.exp) for _ in range(k) for s in w)


# Non-coprime, negative and m = +-n indices, B(1,n), B(+-1,-+1), B(1,1) and
# B(-1,-1): every branch of the pinch and carry rules.
DIFF_GRID = [GroupSpec(m, n) for m, n in (
    (2, 4), (4, 6), (6, 4), (-4, 2), (2, 3), (-2, 3), (2, -3), (3, 3),
    (-2, -2), (3, -3), (2, -2), (1, 2), (1, -3), (1, 1), (-1, -1), (1, -1),
    (-1, 1), (2, 1))]


@st.composite
def group_and_word(draw):
    group = draw(st.sampled_from(DIFF_GRID))
    m, n = group.m, group.n
    sign = st.sampled_from((1, -1))
    a_exp = st.one_of(st.integers(1, 3), st.integers(1, 50))
    b_exp = st.sampled_from(sorted({m, n, m * n, 1, 2, 3}))
    syllable = st.one_of(
        st.tuples(st.just(A), st.builds(lambda e, s: e * s, a_exp, sign)),
        st.tuples(st.just(B), st.builds(lambda e, s: e * s, b_exp, sign)))
    w = word(draw(st.lists(syllable, max_size=14)))
    if draw(st.booleans()):
        # conjugate: u w u^-1 cancels across the copies of a power
        u = word(draw(st.lists(syllable, max_size=4)))
        w = multiply(multiply(u, w), invert(u))
    return group, w


@st.composite
def unreduced_pairs(draw):
    """Pair lists with zero exponents, equal bases side by side, and runs
    that cancel to nothing in the middle."""
    pair = st.tuples(st.sampled_from((A, B)), st.integers(-3, 3))
    pairs = draw(st.lists(pair, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        run = draw(st.lists(pair, max_size=5))
        cut = draw(st.integers(0, len(pairs)))
        inverse = [(base, -exp) for base, exp in reversed(run)]
        pairs = pairs[:cut] + run + inverse + pairs[cut:]
    return pairs


class TestSyllableKernel:
    @settings(max_examples=400, deadline=None)
    @given(group_and_word(), st.integers(-8, 8))
    def test_same_text_as_unit_rules(self, case, k):
        group, w = case
        assert format_word(britton_reduce(w, group)) == \
            format_word(_ref_britton_reduce(w, group))
        assert format_word(normal_form(w, group).word) == \
            format_word(_ref_normal_form(w, group))
        assert format_word(power(w, k)) == format_word(_ref_power(w, k))

    @settings(max_examples=400, deadline=None)
    @given(group_and_word())
    def test_one_carry_pass_is_a_fixed_point(self, case):
        # normal_form is one Britton pass and one carry pass: the carry
        # exposes no pinch, and a second carry changes nothing
        group, w = case
        c = _carry_pass(britton_reduce(w, group), group)
        assert britton_reduce(c, group) == c
        assert _carry_pass(c, group) == c

    @settings(max_examples=400, deadline=None)
    @given(unreduced_pairs())
    @example([(A, 1), (B, 2), (B, 0), (B, -2), (A, -1), (A, 3)])
    @example([(B, 1), (A, 2), (B, 3), (B, -3), (A, -2), (B, -1), (A, 0)])
    def test_word_matches_cascading_push(self, pairs):
        assert word(pairs) == _ref_word(pairs)

    @pytest.mark.parametrize("m,n,text,reduced", [
        (2, 2, "a^-3 b^2 a^2 b^-2 a^3 b^-2 a^-2", "b^-2"),
        # a^3 cancels the a^-1 left on top once b^4 b^-4 is gone, then
        # pinches twice against the exposed b^2 with a^-2 below it
        (2, 2, "a^-2 b^2 a^-1 b^2 a^-1 b^2 a b^-4 a^3", "b^2"),
        (1, 2, "a^-1 b a^-1 b a^-1 b a b^-3 a^2", "b^2"),
    ])
    def test_cancel_then_pinch(self, m, n, text, reduced):
        group = GroupSpec(m, n)
        w = parse_word(text)
        assert format_word(britton_reduce(w, group)) == reduced
        assert format_word(_ref_britton_reduce(w, group)) == reduced

    def test_carry_stops_then_rest_whole(self):
        # b^5 a = b^2 a b^2 in B(3,2); the carry 2 then leaves b^2 a as it
        # is, and the remaining a^999999 goes on in one push
        nf = normal_form(parse_word("b^5 a^1000000"), GroupSpec(3, 2))
        assert format_word(nf.word) == "b^2 a b^2 a^999999"


class TestLargeInputs:
    def test_power_is_one_pass(self):
        pairs = [(A, 1), (B, 1), (A, 2), (B, -1)]
        assert power(word(pairs), 2000) == word(pairs * 2000)

    def test_long_a_syllables_without_pinch(self):
        w = parse_word("a^1000000 b a^-1000000")
        assert normal_form(w, GroupSpec(2, 3)).word == w

    def test_long_conjugates_equal(self):
        g, big = GroupSpec(2, 3), 10 ** 6
        lhs = word([(A, big), (B, g.m), (A, -big)])
        rhs = word([(A, big + 1), (B, g.n), (A, -(big + 1))])
        assert are_equal(lhs, rhs, g)


# ---------------------------------------------------------------------------
# Differential tests of the conjugate-form power and substitute against the
# copy-by-copy kernel they replace


def _copy_substitute(w, image_a, image_b):
    """Each syllable x^e of w becomes the word image(x)^e, built a copy at
    a time, whose syllables are then pushed one at a time into the result."""
    return _ref_word((syl.base, syl.exp) for s in w
                     for syl in _ref_power(image_a if s.base == A else image_b, s.exp))


_syllable = st.tuples(st.sampled_from((A, B)),
                      st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)))
_exp = st.integers(1, 4) | st.integers(-4, -1)


def _conjugate(g, core):
    return multiply(multiply(g, core), invert(g))


@st.composite
def images(draw):
    """A conjugated image g·a^i b^l·g^-1 or g·b^j·g^-1, the trivial image, a
    conjugated core whose first and last syllables share a base (with equal
    or opposite signs), or any word."""
    g = word(draw(st.lists(_syllable, max_size=4)))
    shape = draw(st.sampled_from(("ab", "b", "one", "same-base", "any")))
    if shape == "ab":
        return _conjugate(g, word([(A, draw(_exp)), (B, draw(_exp))]))
    if shape == "b":
        return _conjugate(g, word([(B, draw(_exp))]))
    if shape == "one":
        return Word()
    if shape == "same-base":
        base = draw(st.sampled_from((A, B)))
        other = B if base == A else A
        core = [(base, draw(_exp)), (other, draw(_exp))]
        core += draw(st.lists(_syllable, max_size=3))
        core += [(other, draw(_exp)), (base, draw(_exp))]
        return _conjugate(g, word(core))
    return word(draw(st.lists(_syllable, max_size=8)))


_A3 = word([(A, 3)])
_B2 = word([(B, 2)])
_G = word([(A, 2), (B, -1)])
_SAME_BASE = word([(A, 2), (B, 1), (A, -3)])


class TestConjugateForm:
    @settings(max_examples=300, deadline=None)
    @given(images(), st.integers(-7, 7))
    @example(_conjugate(_G, word([(A, 1), (B, 2)])), -3)
    @example(_conjugate(_G, _B2), -5)
    @example(Word(), 4)
    @example(_SAME_BASE, -2)
    @example(_conjugate(_G, word([(A, 2), (B, 1), (A, 3)])), -2)
    def test_power_matches_copies(self, w, k):
        assert power(w, k) == _ref_power(w, k)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_syllable, max_size=8).map(word), images(), images())
    @example(parse_word("a^-1 b^2 a b^-2"), _conjugate(_G, word([(A, 1), (B, 2)])),
             _conjugate(_G, _B2))
    @example(parse_word("a^2 b^-3 a^-1 b"), _A3, Word())
    @example(parse_word("b^-2 a b^3"), _SAME_BASE, _conjugate(_G, _SAME_BASE))
    def test_substitute_matches_copies(self, w, image_a, image_b):
        assert substitute(w, image_a, image_b) == _copy_substitute(w, image_a, image_b)

    @settings(max_examples=300, deadline=None)
    @given(images())
    @example(_SAME_BASE)
    @example(parse_word("a^3 b a^-1"))
    def test_split_is_u_c_u_inverse_with_a_cyclically_reduced_core(self, w):
        u, c = _conjugate_form(w)
        assert _conjugate(word(u), word(c)) == w
        # u and c, and consecutive copies of c, merge at their ends at most
        assert len(word(u + c)) >= len(u) + len(c) - 1
        assert len(word(c + c)) >= 2 * len(c) - 1

    def test_huge_exponent_on_a_conjugate_is_one_push(self):
        u = parse_word("a^2 b^-1 a")
        w = _conjugate(u, word([(B, 1)]))
        k = 10 ** 5
        start = time.process_time()
        powers = (power(w, k), power(w, -k), substitute(word([(A, -k)]), _A3, w),
                  substitute(word([(B, k)]), _A3, w))
        assert time.process_time() - start < 0.05
        assert powers[0] == powers[3] == _conjugate(u, word([(B, k)]))
        assert powers[1] == _conjugate(u, word([(B, -k)]))
        assert powers[2] == word([(A, -3 * k)])


class TestResultsPassTheWordCheck:
    """The word operations build their results without running `Word`'s
    check; every result must still pass it."""

    @settings(max_examples=300, deadline=None)
    @given(group_and_word(), group_and_word(), unreduced_pairs(), images(),
           images(), st.integers(-8, 8))
    def test_every_result_is_a_checked_word(self, case, other, pairs, image_a,
                                            image_b, k):
        group, w = case
        text = " ".join(f"{base}^{exp}" for base, exp in pairs)
        results = [parse_word(text), parse_word(format_word(w)),
                   multiply(w, other[1]), invert(w), power(w, k),
                   britton_reduce(w, group), normal_form(w, group).word,
                   substitute(w, image_a, image_b)]
        for result in results:
            assert result == Word(result.syllables)
            assert all(type(s) is Syllable for s in result)

    def test_words_from_outside_are_checked(self):
        for pairs in ([("c", 1)], [(A, 1), ("x", 2)]):
            with pytest.raises(ValueError, match="bad syllable base"):
                word(pairs)
        with pytest.raises(ValueError, match="not freely reduced"):
            Word((Syllable(A, 1), Syllable(A, 2)))
        with pytest.raises(ValueError, match="nonzero"):
            Word((Syllable(B, 0),))
