"""Workload `wordproblem`: normalize, equal, mult and model-check over a grid
of (m,n), on four input shapes.

Most operations take short random words with relators spliced in, so that
pinches fire.  One in `heavy_every` operations takes one of three heavy
shapes, each aimed at a measured hot path of `bstwist.words`:

- `conjugate`: a^N b^s a^-N with N in the thousands, where every a-unit is
  scanned one at a time;
- `pinch`: a^-k b a^k in B(1,n), a pinch chain whose answer b^(n^k) has
  about k*log2|n| bits;
- `power`: w^k for a four-syllable word whose copies do not cancel, with k
  in the low hundreds, which `words.power` builds by repeated copying.

Heavy sizes cycle through fixed ladders, so every seed gets the same mix of
sizes and only the random parts of the words change.
"""

from __future__ import annotations

from bstwist.words import GroupSpec

from common import (
    Op, a_units, b_bits, conjugate, exp_total, inverse, modeled, pairs_of,
    random_pairs, reduce, relator, rng_for, text,
)

# coprime, non-coprime, m = n, m = -n, B(1,n) and the Klein group
GRID = ((2, 3), (-2, 3), (3, 5), (2, 4), (4, 6), (2, 2), (3, 3), (2, -2),
        (3, -3), (1, 2), (1, 3), (1, -2), (1, -1))
MODELED = tuple(g for g in GRID if modeled(*g))
PINCH_GROUPS = ((1, 2), (1, 3), (1, -2))
SHORT_KINDS = ("normalize", "equal", "mult", "model-check")
HEAVY_KINDS = {"conjugate": ("normalize", "equal", "model-check"),
               "pinch": ("normalize", "equal", "model-check"),
               "power": ("mult",)}

SIZES = {
    "ops_per_pass": 64,
    "heavy_every": 8,
    "short_syllables": [2, 8],
    "conjugate_N": [1500, 2500, 3500, 4500],
    "pinch_k": [1000, 1800, 2600, 3400],
    "power_k": [60, 80, 100, 120],
}
TINY = dict(SIZES, ops_per_pass=16, heavy_every=4, conjugate_N=[40, 60],
            pinch_k=[20, 30], power_k=[5, 7])


def sizes(tiny: bool) -> dict:
    return TINY if tiny else SIZES


def _short(rng, sz):
    return random_pairs(rng, rng.randint(*sz["short_syllables"]))


def _spliced(rng, pairs, insert):
    """pairs with `insert`, conjugated by a short random word, spliced in."""
    cut = rng.randint(0, len(pairs))
    c = random_pairs(rng, rng.randint(1, 3))
    return pairs[:cut] + conjugate(c, insert) + pairs[cut:]


def _equal_pair(rng, sz, m, n, want_equal):
    """(u, v) with u = v exactly when want_equal: v splices a relator into
    u, or a conjugate of a nonzero b-power, which is never trivial."""
    u = _short(rng, sz)
    insert = relator(m, n) if want_equal else [("b", rng.choice((1, -1, 2)))]
    if rng.random() < 0.5:
        insert = inverse(insert)
    return u, _spliced(rng, u, insert)


def _short_op(rng, sz, i):
    kind = SHORT_KINDS[i % len(SHORT_KINDS)]
    groups = MODELED if kind == "model-check" else GRID
    m, n = groups[(i // len(SHORT_KINDS)) % len(groups)]
    if kind == "normalize":
        w = _spliced(rng, _short(rng, sz), relator(m, n))
        return Op(kind, "short", (m, n), {"w": w})
    if kind == "mult":
        factors = [_spliced(rng, _short(rng, sz), relator(m, n))
                   for _ in range(3)]
        return Op(kind, "short", (m, n), {"factors": factors, "power": None})
    want = bool((i // len(SHORT_KINDS)) % 2)
    u, v = _equal_pair(rng, sz, m, n, want)
    return Op(kind, "short", (m, n), {"u": u, "v": v, "expect": want})


def _heavy_op(rng, sz, j):
    shape = ("conjugate", "pinch", "power")[j % 3]
    step = j // 3
    kinds = HEAVY_KINDS[shape]
    kind = kinds[step % len(kinds)]
    want = bool((step // len(kinds)) % 2)
    if shape == "power":
        m, n = GRID[step % len(GRID)]
        k = sz["power_k"][step % len(sz["power_k"])]
        w = random_pairs(rng, 4)
        if w[0][0] == "b":  # a ... b, so consecutive copies never cancel
            w = w[1:] + [("b", rng.choice((1, -1, 2)))]
        return Op(kind, shape, (m, n),
                  {"factors": [w, _short(rng, sz)], "power": k})
    if shape == "conjugate":
        groups = MODELED if kind == "model-check" else GRID
        m, n = groups[step % len(groups)]
        N = sz["conjugate_N"][step % len(sz["conjugate_N"])]
        if kind == "normalize":
            w = [("a", N), ("b", rng.choice((1, -1, 2, 3))), ("a", -N)]
            return Op(kind, shape, (m, n), {"w": w})
        # a^N b^m a^-N = a^(N+1) b^n a^-(N+1), from a b^n a^-1 = b^m
        u = [("a", N), ("b", m), ("a", -N)]
        v = [("a", N + 1), ("b", n), ("a", -N - 1)]
    else:
        m, n = PINCH_GROUPS[step % len(PINCH_GROUPS)]
        k = sz["pinch_k"][step % len(sz["pinch_k"])]
        if kind == "normalize":
            w = [("a", -k), ("b", rng.choice((1, -1, 3))), ("a", k)]
            return Op(kind, shape, (m, n), {"w": w})
        # a^-k b a^k = a^-(k-1) b^n a^(k-1), from a^-1 b a = b^n
        u = [("a", -k), ("b", 1), ("a", k)]
        v = [("a", -k + 1), ("b", n), ("a", k - 1)]
    if not want:
        v = v + [("b", rng.choice((1, -1)))]
    return Op(kind, shape, (m, n), {"u": u, "v": v, "expect": want})


def make_pass(seed: int, index: int, tiny: bool = False) -> list[Op]:
    sz = sizes(tiny)
    rng = rng_for("wordproblem", seed, index)
    ops, short_i, heavy_j = [], 0, 0
    for i in range(sz["ops_per_pass"]):
        if i % sz["heavy_every"] == sz["heavy_every"] - 1:
            ops.append(_heavy_op(rng, sz, heavy_j))
            heavy_j += 1
        else:
            ops.append(_short_op(rng, sz, short_i))
            short_i += 1
    for op in ops:  # the library receives text only
        for key in ("w", "u", "v"):
            if key in op.args:
                op.args[key + "_text"] = text(op.args[key], rng)
        if "factors" in op.args:
            op.args["factor_texts"] = [text(f, rng) for f in op.args["factors"]]
    return ops


def run(op: Op, lib):
    """The timed operation; returns (answer, objects the checks reuse)."""
    group = GroupSpec(*op.group)
    if op.kind == "normalize":
        w = lib.parse_word(op.args["w_text"], group)
        nf = lib.normal_form(w, group)
        return lib.format_word(nf.word), ([w], nf.word)
    if op.kind == "mult":
        words = [lib.parse_word(t, group) for t in op.args["factor_texts"]]
        product = words[0]
        if op.args["power"] is not None:
            product = lib.power(product, op.args["power"])
        for w in words[1:]:
            product = lib.multiply(product, w)
        nf = lib.normal_form(product, group)
        return lib.format_word(nf.word), (words, nf.word)
    u = lib.parse_word(op.args["u_text"], group)
    v = lib.parse_word(op.args["v_text"], group)
    britton = lib.are_equal(u, v, group)
    if op.kind == "equal":
        return britton, (u, v)
    model = lib.model_embed(u, group) == lib.model_embed(v, group)
    return (britton, model), (u, v)


def _check_normal_form(op, answer, kept, lib, group, counts):
    words, nf_word = kept
    k = op.args.get("power") or 1
    if op.kind == "normalize":
        source = reduce(op.args["w"])
    else:
        factors = op.args["factors"]
        source = reduce(factors[0] * k + [p for f in factors[1:] for p in f])
    counts["words.a_units_in"] += a_units(source)
    counts["words.b_bits_max"] = max(counts["words.b_bits_max"], b_bits(answer))

    again = lib.format_word(lib.normal_form(nf_word, group).word)
    if again != answer:
        return f"normal form not idempotent: {answer[:60]} -> {again[:60]}"
    if op.kind == "normalize" and not lib.are_equal(nf_word, words[0], group):
        return "normal form is not equal to its input"
    # exponent sums: |.|_a is a homomorphism to Z, |.|_b to Z_{|n-m|}
    got = pairs_of(answer)
    modulus = abs(group.n - group.m)
    b_diff = exp_total(got, "b") - exp_total(source, "b")
    if exp_total(got, "a") != exp_total(source, "a") or (
            b_diff % modulus if modulus else b_diff):
        return "normal form changes an exponent-sum invariant"
    if modeled(group.m, group.n):
        elements = [lib.model_embed(w, group) for w in words]
        expected = elements[0]
        for _ in range(k - 1):
            expected = expected * elements[0]
        for e in elements[1:]:
            expected = expected * e
        if lib.model_embed(nf_word, group) != expected:
            counts["models.oracle_mismatches"] += 1
            return "normal form differs from its input in the model"
    return None


def check(op: Op, output, lib, counts: dict) -> str | None:
    """Verify one answer with the untraced library; None when correct."""
    answer, kept = output
    group = GroupSpec(*op.group)
    if op.kind in ("normalize", "mult"):
        return _check_normal_form(op, answer, kept, lib, group, counts)
    counts["words.a_units_in"] += a_units(op.args["u"]) + a_units(op.args["v"])
    if op.kind == "equal":
        britton = answer
        model = britton
        if modeled(group.m, group.n):
            u, v = kept
            model = lib.model_embed(u, group) == lib.model_embed(v, group)
    else:
        britton, model = answer
    if britton != model:
        counts["models.oracle_mismatches"] += 1
        return f"Britton says {britton}, model says {model}"
    if britton != op.args["expect"]:
        return f"equal returned {britton}, expected {op.args['expect']}"
    return None
