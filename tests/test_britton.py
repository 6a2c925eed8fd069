import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bsgroups.britton as britton
from bsgroups.britton import (
    AbImage,
    BrittonNF,
    BSParams,
    abelianize,
    bs_group,
    nf_equal,
    nf_invert,
    nf_multiply,
    normalize,
)
from bsgroups.errors import DomainError, ExponentCapExceeded, WordSizeExceeded
from bsgroups.words import Word, parse_word, power

from helpers import (
    commutator,
    eager_multiply,
    eager_normalize,
    insert_relator,
    least_cap,
    nf_is_valid,
    nf_to_word,
    rand_word,
)

GRID = [BSParams(m, n) for m in (1, 2, 3) for n in (-3, -2, -1, 1, 2, 3) ]


def test_params_reject_zero():
    with pytest.raises(DomainError):
        BSParams(0, 3)
    with pytest.raises(DomainError):
        BSParams(2, 0)
    assert BSParams(4, -6).d == 2


def test_normalize_examples():
    p = BSParams(2, 3)
    nf = normalize(p, parse_word("t^-1 a^2 t"))
    assert nf == BrittonNF(3, ())
    assert str(nf) == "a^3"

    assert normalize(p, parse_word("a t t^-1 a^-1")).is_identity

    q = BSParams(1, 3)
    nf = normalize(q, parse_word("t a^-1 t^-1"))
    assert nf == BrittonNF(-1, ((1, 2), (-1, 0)))
    assert str(nf) == "a^-1 (t a^2) (t^-1)"
    assert str(BrittonNF()) == "1"


def test_nf_equal_examples():
    p = BSParams(2, 3)
    assert nf_equal(p, parse_word("t^-1 a^2 t"), parse_word("a^3"))
    assert not nf_equal(p, parse_word("a"), parse_word("t"))
    assert nf_equal(p, parse_word("[a^2, t]"), parse_word("a"))


def test_nf_multiply_example():
    p = BSParams(2, 3)
    x = normalize(p, parse_word("a"))
    y = normalize(p, parse_word("t^-1 a^2 t"))
    assert nf_multiply(p, x, y) == normalize(p, parse_word("a^4"))


def test_abelianize_examples():
    assert abelianize(BSParams(2, 3), parse_word("a")) == AbImage(0, 0, 1)
    assert abelianize(BSParams(2, 2), parse_word("a")) == AbImage(0, 1, 0)
    assert abelianize(BSParams(2, 4), parse_word("a^3")) == AbImage(0, 1, 2)


def test_soundness_random():
    rng = random.Random(42)
    for p in GRID:
        for _ in range(25):
            w = rand_word(rng)
            assert normalize(p, w * w.inverse()).is_identity
            assert normalize(p, insert_relator(rng, p, w)) == normalize(p, w)


def test_multiply_matches_normalize_of_product():
    rng = random.Random(43)
    for p in GRID:
        for _ in range(15):
            u, v = rand_word(rng), rand_word(rng)
            lhs = nf_multiply(p, normalize(p, u), normalize(p, v))
            assert lhs == normalize(p, u * v)


def test_invert_matches_normalize_of_inverse():
    rng = random.Random(44)
    for p in GRID:
        for _ in range(15):
            w = rand_word(rng)
            assert nf_invert(p, normalize(p, w)) == normalize(p, w.inverse())


def test_multiply_associative():
    rng = random.Random(45)
    p = BSParams(2, -3)
    for _ in range(30):
        x, y, z = (normalize(p, rand_word(rng)) for _ in range(3))
        assert nf_multiply(p, nf_multiply(p, x, y), z) == nf_multiply(p, x, nf_multiply(p, y, z))


def test_outputs_are_structurally_valid():
    rng = random.Random(46)
    for p in GRID:
        for _ in range(20):
            nf = normalize(p, rand_word(rng))
            assert nf_is_valid(p, nf)
            assert normalize(p, nf_to_word(nf)) == nf
    # the oracle rejects each way a tail can fail: sign, residue range, pinch
    p = BSParams(2, 3)
    for tail in (((2, 0),), ((1, 3),), ((-1, 2),), ((-1, 0), (1, 1)), ((1, 0), (-1, 1))):
        assert not nf_is_valid(p, BrittonNF(0, tail)), tail
    for tail in (((1, 2),), ((-1, 1),), ((-1, 0), (-1, 1))):
        assert nf_is_valid(p, BrittonNF(0, tail)), tail


def test_m_equals_one_shape():
    # For m = 1 every t^-1 residue is 0 and pinch-freeness forces all
    # ascending letters before all descending ones: t^k a^l t^-r shape.
    rng = random.Random(47)
    for p in (BSParams(1, 3), BSParams(1, -2)):
        for _ in range(80):
            nf = normalize(p, rand_word(rng))
            seen_down = False
            for eps, r in nf.tail:
                if eps == -1:
                    seen_down = True
                    assert r == 0
                else:
                    assert not seen_down


def test_abelianize_factors_through_normalize():
    rng = random.Random(48)
    for p in GRID:
        for _ in range(10):
            w = rand_word(rng)
            assert abelianize(p, w) == abelianize(p, nf_to_word(normalize(p, w)))


def test_exponent_cap_triggers():
    p = BSParams(1, 2)
    w = parse_word("t^-40 a t^40")
    assert normalize(p, w) == BrittonNF(1 << 40, ())
    with pytest.raises(ExponentCapExceeded):
        normalize(p, w, max_bits=16)


@settings(max_examples=50)
@given(
    st.sampled_from(GRID),
    st.lists(
        st.tuples(st.sampled_from("at"), st.integers(-4, 4).filter(lambda e: e != 0)),
        max_size=8,
    ),
)
def test_normalize_idempotent(p, pairs):
    nf = normalize(p, Word.from_pairs(pairs))
    assert normalize(p, nf_to_word(nf)) == nf


# The deferred-carry scan against the eager scan it replaced (tests/helpers.py).

params = st.builds(BSParams, st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool))
small_syllables = st.tuples(st.sampled_from("at"), st.integers(-3, 3).filter(bool))
syllables = st.one_of(
    small_syllables,
    st.tuples(st.just("a"), st.integers(-10**6, 10**6).filter(bool)),
    st.tuples(st.just("t"), st.integers(-1000, 1000).filter(bool)),
)


@st.composite
def spliced_words(draw, p):
    """Random syllables with relator conjugates u^-1 R^+-1 u spliced in."""
    pairs = draw(st.lists(syllables, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        u = Word.from_pairs(draw(st.lists(small_syllables, max_size=3)))
        rel = Word.from_pairs((("t", -1), ("a", p.m), ("t", 1), ("a", -p.n)))
        if draw(st.booleans()):
            rel = rel.inverse()
        cut = draw(st.integers(0, len(pairs)))
        pairs[cut:cut] = (u.inverse() * rel * u).syllables
    return Word.from_pairs(pairs)


@st.composite
def commutator_words(draw):
    """Left-normed commutator of depth <= 8 of short words."""
    factors = draw(st.lists(st.lists(small_syllables, min_size=1, max_size=2), min_size=2, max_size=9))
    w = Word.from_pairs(factors[0])
    for f in factors[1:]:
        w = commutator(w, Word.from_pairs(f))
    return w


@st.composite
def group_words(draw):
    p = draw(params)
    return p, draw(st.one_of(spliced_words(p), commutator_words()))


@settings(max_examples=150, deadline=None)
@given(group_words(), st.data())
def test_scan_matches_eager_oracle(pw, data):
    p, w = pw
    nf = normalize(p, w)
    assert nf == eager_normalize(p, w) and nf_is_valid(p, nf)
    assert nf_invert(p, nf) == eager_normalize(p, w.inverse())
    x = normalize(p, data.draw(spliced_words(p)))
    assert nf_multiply(p, x, nf) == eager_multiply(p, x, nf)


@settings(max_examples=60, deadline=None)
@given(params.flatmap(lambda p: st.tuples(st.just(p), spliced_words(p))))
def test_bit_cap_contract(pw):
    # Deferred carries may meet the cap at another intermediate than the
    # eager scan, but within 1 + bit_length(L) bits of it, where L counts the
    # scan's steps (one per a-syllable, |e| per t^e).
    p, w = pw
    want = eager_normalize(p, w)
    least = least_cap(lambda cap: normalize(p, w, cap))
    assert normalize(p, w, least) == want
    steps = sum(1 if g == "a" else abs(e) for g, e in w.syllables)
    oracle_least = least_cap(lambda cap: eager_normalize(p, w, cap))
    assert least <= oracle_least + 1 + steps.bit_length()


def test_alternating_runs_match_eager_oracle():
    # (t^+-1 a^r)^N keeps the top entry in locals through N pushes; residues
    # outside [0, |m|) or [0, |n|) make every push carry into the entry below.
    # A run of one canonical +-1 block is pushed in one step: t^+-2 blocks,
    # and runs that start right after a pinch, must not be taken for one
    for p in GRID + [BSParams(-2, 3), BSParams(4, -3)]:
        for r in (-7, -1, 0, 1, 2, 5):
            for eps in (1, -1):
                run = Word.from_pairs([("t", eps), ("a", r)] * 30)
                back = Word.from_pairs([("t", -eps), ("a", -r)] * 20)
                lead = Word.from_pairs([("t", eps), ("a", r)] * 2)
                # t^e a^(mn) ends in a residue 0, which pinches with a next
                # t of the other sign
                mn = p.m * p.n
                if eps == 1:
                    mod, z = abs(p.n), -p.m if p.n > 0 else p.m
                else:
                    mod, z = abs(p.m), -p.n if p.m > 0 else p.n
                periodic = (
                    Word.from_pairs([("t", 2 * eps), ("a", r)] * 12),
                    # t^-eps cancels one t of the first t^2eps block
                    lead * Word.from_pairs([("t", -eps), ("a", mn)] + [("t", 2 * eps), ("a", r)] * 12),
                    Word.from_pairs([("t", -eps), ("a", mn)] + [("t", 2 * eps), ("a", r)] * 12),
                    # t^3eps loses one t to each of the first blocks t^-eps a^r
                    lead * Word.from_pairs([("t", 3 * eps), ("a", mn)] + [("t", -eps), ("a", r)] * 12),
                    # the carries into the entry below the top cancel, so a
                    # t^2eps block that pops once leaves the top equal to it
                    Word.from_pairs([("t", eps), ("a", r + mod)] * 2 + [("t", -eps), ("a", z)]
                                    + [("t", 2 * eps), ("a", r)] * 12),
                )
                for w in (run, run * back, back * run, run * Word((("t", eps * 5),)) * back, *periodic):
                    nf = normalize(p, w)
                    assert nf == eager_normalize(p, w) and nf_is_valid(p, nf)
                    assert nf_invert(p, nf) == eager_normalize(p, w.inverse())
                    assert nf_multiply(p, nf, normalize(p, back)) == eager_normalize(p, w * back)
                    # a tail of (eps, 0) entries meets nf's tail at the seam
                    y = normalize(p, Word((("t", eps * 9),)))
                    xy = nf_multiply(p, nf, y)
                    assert xy == eager_multiply(p, nf, y) and nf_is_valid(p, xy)


@pytest.mark.parametrize(
    "m, n, text, bits",
    [
        # the carry 4 * 2^20 waits in the (t a) entry; only 2^20 reaches r0
        (1, 4, "t a T a^1048576 T", 23),
        # the final pass doubles a^2 through 40 T entries, then halves it back
        (2, 4, "(t a)^40 T^40 a^2", 42),
        # the final pass carries 2^40 into r0
        (1, 2, "T^40 a", 41),
        # the top's sum is checked as it is read, before T reduces it to 2^18
        (4, 1, "T a^1048576 T", 21),
    ],
)
def test_bit_cap_sees_every_intermediate(m, n, text, bits):
    p, w = BSParams(m, n), parse_word(text)
    assert normalize(p, w, bits) == eager_normalize(p, w)
    with pytest.raises(ExponentCapExceeded):
        normalize(p, w, bits - 1)


def test_scan_work_is_linear(monkeypatch):
    # the scan reduces each residue with one divmod; a module global of that
    # name shadows the builtin for britton alone
    calls = 0

    def counting(e, d):
        nonlocal calls
        calls += 1
        return divmod(e, d)

    monkeypatch.setattr(britton, "divmod", counting, raising=False)
    p = BSParams(2, 3)
    rng = random.Random(9)
    factors = []
    for _ in range(10):
        f = [("a", rng.choice((-2, -1, 1, 2))), ("t", rng.choice((-1, 1)))]
        factors.append(Word.from_pairs(f if rng.random() < 0.5 else f[::-1]))
    w = factors[0]
    for f in factors[1:]:
        w = commutator(w, f)  # depth 9, as in the towers benchmark
    nf = normalize(p, w)
    # the eager scan makes about 68 000 calls here, for about 1 200 t-syllables
    assert calls <= 4 * (len(w.syllables) + len(nf.tail))
    assert nf == eager_normalize(p, w)

    for w, tail in (
        (Word((("t", 10**6),)), ((1, 0),) * 10**6),
        (Word((("t", 1), ("a", 7), ("t", -(10**6)))), ((1, 1),) + ((-1, 0),) * 10**6),
    ):
        calls = 0
        nf = normalize(p, w)
        assert calls <= 10
        assert nf.tail == tail

    # a product reads y up to its seam with x and copies the rest: a^8 pops
    # the three T of x and leaves a carry waiting in x's first (t a) entry,
    # which a settle after all of y would reach only past every entry of y
    w = Word((("a", 8), ("t", 10**5)))
    x, y = normalize(p, parse_word("a t a t a T^3")), normalize(p, w)
    calls = 0
    xy = nf_multiply(p, x, y)
    assert calls <= 10
    assert xy == eager_multiply(p, x, y)
    assert nf_invert(p, y) == eager_normalize(p, w.inverse())


# bs_group's own rules against the five-operation commutator x^-1 y^-1 x y
# and square-and-multiply (words.power).


def _outcome(f, *args):
    try:
        return f(*args)
    except (ExponentCapExceeded, WordSizeExceeded) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(
    params.flatmap(lambda p: st.tuples(st.just(p), spliced_words(p), spliced_words(p))),
    st.integers(-12, 12),
    st.integers(-10**6, 10**6),
    st.one_of(st.none(), st.integers(8, 48)),
)
@example(puv=(BSParams(1, 1), Word(), Word()), e=2, r=-511, cap=8)
def test_group_rules_match_five_operations(puv, e, r, cap):
    p, u, v = puv
    G = bs_group(p, cap)
    # a generator run is normalized once per group
    value = _outcome(G.word, u)
    assert value == _outcome(normalize, p, u, cap)
    if isinstance(value, BrittonNF):
        assert G.word(u) is value
    x, y = normalize(p, u), normalize(p, v)
    got = _outcome(G.commutator, x, y)
    want = _outcome(lambda: G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y)))
    if isinstance(got, BrittonNF) and isinstance(want, BrittonNF):
        assert got == want and nf_is_valid(p, got)
    if cap is None:
        assert got == eager_normalize(p, commutator(u, v))
    # deferred carries may meet the cap elsewhere in a tail, so only the
    # answers are compared there; a^r powers refuse exactly as the oracle
    got, want = _outcome(G.power, x, e), _outcome(power, G, x, e)
    if isinstance(got, BrittonNF) and isinstance(want, BrittonNF):
        assert got == want
    if cap is None:
        assert got == eager_normalize(p, Word.from_pairs(u.syllables * abs(e)) if e > 0
                                      else Word.from_pairs(u.inverse().syllables * -e))
    # a value of the group is within its cap: the magnitude is shifted, as a
    # shift of a negative r floors (-511 >> 1 is a^-256, one bit too many at 8)
    mag = abs(r) >> max(0, r.bit_length() - (cap or r.bit_length()))
    a_r = BrittonNF(mag if r >= 0 else -mag)
    assert _outcome(G.power, a_r, e) == _outcome(power, G, a_r, e)


def test_commutator_costs_no_more_than_five_operations(monkeypatch):
    calls = 0

    def counting(e, d):
        nonlocal calls
        calls += 1
        return divmod(e, d)

    monkeypatch.setattr(britton, "divmod", counting, raising=False)
    rng = random.Random(12)
    for p in (BSParams(2, 3), BSParams(-3, 2), BSParams(4, -3)):
        # nonzero residues leave no pinch in a tail
        x, y = (
            BrittonNF(rng.randint(-9, 9), tuple(
                (eps, rng.randrange(1, abs(p.m if eps < 0 else p.n)))
                for eps in (rng.choice((-1, 1)) for _ in range(10**4))
            ))
            for _ in range(2)
        )
        assert nf_is_valid(p, x) and nf_is_valid(p, y)
        G = bs_group(p)
        t = G.word(Word((("t", 1),)))
        for u, v in ((x, y), (x, x), (x, G.inv(x)), (y, G.mul(x, y)), (x, t), (t, x)):
            calls = 0
            want = G.mul(G.mul(G.inv(u), G.inv(v)), G.mul(u, v))
            five = calls
            calls = 0
            assert G.commutator(u, v) == want
            assert calls <= five, (p, calls, five)
        # x^-1 costs a step and a settle per entry, and x is copied: a settle
        # put off to the end would walk the copy as well
        calls = 0
        G.commutator(x, t)
        assert calls <= 2 * len(x.tail) + 10


def test_group_power_and_commutator_refusals(monkeypatch):
    monkeypatch.setattr("bsgroups.words._MAX_SYLLABLES", 1000)
    p = BSParams(2, 3)
    G = bs_group(p)
    # [a, t] has two tail entries and x x pops nothing at its seam, so the
    # size of x^e is known, and refused, before any squaring
    x = normalize(p, parse_word("[a, t]"))
    assert len(G.power(x, 500).tail) == len(G.power(x, -500).tail) == 1000
    for e in (513, -513):
        # square-and-multiply would first build x^512, of 1024 entries
        with pytest.raises(WordSizeExceeded, match="^word would reach 1026 syllables, limit 1000$"):
            G.power(x, e)
    # t a T pops its T at the seam of x x, so its power squares as before
    x = normalize(p, parse_word("t a T"))
    assert G.power(x, 10**9) == normalize(p, parse_word("t a^1000000000 T"))
    # the scan builds x^-1 y^-1 x, which the five operations never do: here
    # it passes the limit although y cancels most of it again
    x, y = normalize(p, parse_word("t^400")), normalize(p, parse_word("T^400 a"))
    five = G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
    assert five == normalize(p, parse_word("T^400 A t^400 a")) and len(five.tail) == 800
    with pytest.raises(WordSizeExceeded, match="^word would reach 1200 syllables, limit 1000$"):
        G.commutator(x, y)
    # a^r powers are closed forms with square-and-multiply's refusal
    G = bs_group(p, 8)
    assert G.power(BrittonNF(3), 85) == BrittonNF(255)
    with pytest.raises(ExponentCapExceeded, match="^exponent needs 9 bits, cap is 8$"):
        G.power(BrittonNF(3), -86)
