import random
import time

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
from bsgroups.words import Word, free_group, parse_word, power

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


@st.composite
def _generator_powers(draw):
    """A small cap, a^alpha within it, and e with |e| >= 2."""
    cap = draw(st.integers(1, 12))
    alpha = draw(st.integers(1, min(3, 2**cap - 1)) | st.integers(1, 2**cap - 1))
    e = draw(st.integers(2, 8) | st.integers(2, 2**14))
    return cap, alpha * draw(st.sampled_from((1, -1))), e * draw(st.sampled_from((1, -1)))


def _exponent_or_refusal(power_of):
    try:
        return power_of()
    except ExponentCapExceeded as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_generator_powers(), st.sampled_from(GRID))
@example((8, 200, 2), BSParams(2, 3))  # "(a^200)^2": 400 needs 9 bits
@example((8, 3, 85), BSParams(2, 3))  # 255 fits in 8 bits
@example((8, -128, -2), BSParams(1, 3))  # 256 needs 9 bits
def test_generator_powers_share_one_rule(case, p):
    # (a^alpha)^e in the free group, in BS(m, n) and by square-and-multiply
    # in the free group: one exponent, or one refusal at cap + 1 bits
    cap, alpha, e = case
    a = Word.from_pairs((("a", alpha),))
    F, G = free_group(cap), bs_group(p, cap)
    x = F.word(a)

    def free_power():
        w, wi = F.power(x, e)
        assert wi == w.inverse() and len(w.syllables) == 1
        return w.syllables[0][1]

    def group_power():
        nf = G.power(G.word(a), e)
        assert not nf.tail
        return nf.r0

    want = _exponent_or_refusal(lambda: power(F, x, e)[0].syllables[0][1])
    assert _exponent_or_refusal(free_power) == _exponent_or_refusal(group_power) == want
    if (alpha * e).bit_length() > cap:
        assert want == f"exponent needs {cap + 1} bits, cap is {cap}"
    else:
        assert want == alpha * e


# The run stack: a run of britton._RUN or more equal canonical entries is one
# stack item, so a t^e block, a run of equal blocks and a run read off an
# inverse's tail push in one step, a pinch chain pops down a run in one pow,
# and a carry into a run is written out as its digits in the rational base
# mod/f by halves.

RUN_GROUPS = [BSParams(1, 3), BSParams(2, 4), BSParams(3, -2), BSParams(-2, 3)]


@st.composite
def run_words(draw, p):
    """t^L a^x, (t^+-1 a^r)^N and T^k a^x t^k' pieces, with carries of up
    to about 700 bits."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        L, s = draw(st.integers(1, 300)), draw(st.sampled_from((1, -1)))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            x = draw(st.one_of(st.integers(-1000, 1000), st.integers(-(2**700), 2**700),
                               st.just(abs(p.n) ** L - 1), st.just(-abs(p.m) ** L)))
            pairs += [("t", s * L), ("a", x)]
        elif kind == 1:
            pairs += [("t", s), ("a", draw(st.integers(-4, 6)))] * L
        else:
            base = draw(st.sampled_from((abs(p.m), abs(p.n), abs(p.m * p.n))))
            x = draw(st.one_of(st.integers(-9, 9), st.integers(0, L).map(lambda j: base**j)))
            pairs += [("t", -s * L), ("a", x), ("t", s * max(1, L + draw(st.integers(-3, 3))))]
    return Word.from_pairs(pairs)


def _assert_matches_eager(p, u, v):
    x, y = normalize(p, u), normalize(p, v)
    assert x == eager_normalize(p, u) and nf_is_valid(p, x)
    assert type(x.tail) is tuple and all(type(e) is tuple and len(e) == 2 for e in x.tail)
    assert nf_invert(p, x) == eager_normalize(p, u.inverse())
    assert nf_multiply(p, x, y) == eager_multiply(p, x, y)
    assert nf_multiply(p, x, nf_invert(p, x)).is_identity
    assert bs_group(p).commutator(x, y) == eager_normalize(p, commutator(u, v))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(RUN_GROUPS).flatmap(lambda p: st.tuples(st.just(p), run_words(p), run_words(p))))
def test_run_stack_matches_eager_oracle(puv):
    _assert_matches_eager(*puv)


@pytest.mark.parametrize("p", RUN_GROUPS)
def test_long_runs_match_eager_oracle(p):
    # runs and carries past the sizes at which a carry is converted by halves
    L = 400
    am, an = abs(p.m), abs(p.n)
    pieces = [
        [("t", L), ("a", an**L - 1)],
        [("t", -L), ("a", am**L - 1)],
        [("t", L), ("a", -1)],
        [("t", -L), ("a", 1), ("t", L)],
        [("t", L), ("a", 1), ("t", -L)],
        [("t", -L), ("a", am ** (L // 2)), ("t", L)],
        [("t", 1), ("a", 2)] * L,
        [("t", -1), ("a", -1)] * L,
        [("t", L // 2), ("a", 3**700 + 1), ("t", L // 2), ("a", -(2**900))],
        # a pinch pops onto a run of (-1, 1): its carry splits the run, as
        # the run is no chain of (-1, 0)
        [("t", -1), ("a", 1)] * L + [("t", -1), ("a", 2), ("t", 2)],
    ]
    words = [Word.from_pairs(w) for w in pieces]
    for u, v in zip(words, words[1:] + words[:1]):
        _assert_matches_eager(p, u, v)


@pytest.mark.parametrize("p", [BSParams(10**20 + 1, 10**20), BSParams(10**20, -(10**20 + 1)),
                               BSParams(10**400, 3), BSParams(-3, 10**400)])
def test_run_carries_at_extreme_ratios_match_eager_oracle(p, monkeypatch):
    # |f|/mod just off 1, or past the range of a float: the steps a long
    # carry may take under the cap are bounded by bit lengths, and a carry
    # is split into pieces no larger than itself
    split = []
    convert = britton._convert

    def recording(z, *args):
        split.append(z.bit_length())
        return convert(z, *args)

    monkeypatch.setattr(britton, "_convert", recording)
    near_one = abs(p.m).bit_length() == abs(p.n).bit_length()
    for L, X in [(100, 2**300), (-100, 2**300), (400, 2**3000 + 5), (-400, -(3**2000))] + [
            (20000, -(3**3000)), (-20000, 3**3000)] * near_one:
        u = Word.from_pairs([("t", L), ("a", X)])
        x = normalize(p, u)
        assert x == eager_normalize(p, u)
        assert nf_invert(p, x) == eager_normalize(p, u.inverse())
    assert split and max(split) <= 3**3000 .bit_length() + 1


@pytest.mark.parametrize("n, cap", [(10**30, 5000), (10**1000, 5000), (10**1000, 10**6)],
                         ids=["1e30-5000", "1e1000-5000", "1e1000-1000000"])
def test_pinch_chains_with_a_large_base_stop_at_the_cap(n, cap):
    # In BS(1, n), T^k a t^k pinches at every level, and level i holds n^i.
    # The bit length of n bounds how many levels can fit the cap, so no
    # power past the first level past it is built, however long the chain.
    k = 10**6
    first = n
    while first.bit_length() <= cap:
        first *= n
    w = Word((("t", -k), ("a", 1), ("t", k)))
    start = time.perf_counter()
    with pytest.raises(ExponentCapExceeded,
                       match=f"^exponent needs {first.bit_length()} bits, cap is {cap}$"):
        normalize(BSParams(1, n), w, cap)
    assert time.perf_counter() - start < 2


def test_run_work_does_not_grow_with_the_run(monkeypatch):
    # counted like test_scan_work_is_linear: a pinch chain down the run of
    # T^k crosses it in one pow, and an inverse reads the run of t^L in one
    # step
    calls = 0

    def counting(e, d):
        nonlocal calls
        calls += 1
        return divmod(e, d)

    monkeypatch.setattr(britton, "divmod", counting, raising=False)
    counts = []
    for k in (100, 1000, 100000):
        calls = 0
        assert normalize(BSParams(1, 3), Word((("t", -k), ("a", 1), ("t", k)))) == BrittonNF(3**k)
        counts.append(calls)
    assert counts == [counts[0]] * 3
    # a carry that dies in a run leaves the rest of it as it is, and the
    # final pass stops there, above the 6000 entries below the run
    p = BSParams(2, 3)
    calls = 0
    nf = normalize(p, parse_word("(t a t a^2)^3000 t^100 a^5"))
    assert calls <= 10 and nf.tail[-100:] == ((1, 0),) * 98 + ((1, 2), (1, 2))
    # an inverse's blocks come from one zip: count those the scan reads
    reads = 0

    def counting_zip(*its):
        nonlocal reads
        for block in zip(*its):
            reads += 1
            yield block

    monkeypatch.setattr(britton, "zip", counting_zip, raising=False)
    counts = []
    for L in (100, 1000, 100000):
        x = normalize(p, Word((("t", L),)))
        calls = reads = 0
        assert nf_invert(p, x) == BrittonNF(0, ((-1, 0),) * L)
        counts.append((calls, reads))
    assert counts == [counts[0]] * 3 and counts[0][1] < 10


@st.composite
def short_run_words(draw):
    """Words of short runs, for scans whose runs start at a few entries."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        s, r = draw(st.sampled_from((1, -1))), draw(st.integers(-3, 3))
        pairs += draw(st.one_of(
            st.integers(3, 8).map(lambda N: [("t", s), ("a", r)] * N),
            st.integers(1, 8).map(lambda k: [("t", -s * k), ("a", r), ("t", s * (k + 1))]),
            st.tuples(st.integers(-3, 3).filter(bool), st.integers(-9, 9)).map(
                lambda ex: [("t", ex[0]), ("a", ex[1])]),
        ))
    return Word.from_pairs(pairs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RUN_GROUPS + [BSParams(-3, 1), BSParams(2, -3)]), short_run_words(),
       st.integers(2, 4))
# t^5 pinches down to a run of (-1, 1) and pops one of its entries, before
# T^20 pushes up to the longest prefix
@example(BSParams(-3, 1), Word.from_pairs(
    [("t", -1), ("a", -2)] * 3 + [("t", -1), ("a", -5)] + [("t", -1), ("a", 1)] * 5
    + [("t", -1), ("a", -6), ("t", 5), ("a", 1), ("t", -20)]), 2)
def test_run_sizes_are_counted_in_entries(p, w, shortest):
    # With runs from a few entries on, every tail the scan checks against
    # the size limit is the normal form of a prefix of w that ends in a
    # t-syllable: w passes a limit of the longest of them, and not one less.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(britton, "_RUN", shortest)
        syl = w.syllables
        top = max((len(normalize(p, Word(syl[: i + 1])).tail)
                   for i, (g, _) in enumerate(syl) if g == "t"), default=0)
        mp.setattr("bsgroups.words._MAX_SYLLABLES", top)
        assert normalize(p, w) == eager_normalize(p, w)
        if top:
            mp.setattr("bsgroups.words._MAX_SYLLABLES", top - 1)
            with pytest.raises(WordSizeExceeded, match=" syllables, limit "):
                normalize(p, w)


def _first_past(values, cap):
    """The outcome of checking values in order against the cap."""
    for v in values:
        if v.bit_length() > cap:
            return f"exponent needs {v.bit_length()} bits, cap is {cap}"
    return None


def _outcome_text(f):
    try:
        f()
    except ExponentCapExceeded as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (2, 4), (-2, 3), (3, 2)])
def test_pinch_chains_meet_the_cap_at_the_first_level(m, n):
    # T^k a^x t^k with x = |m|^k pinches at every level: level j holds
    # x (f/|m|)^j, and the first of them past the cap is the one refused
    k = 150
    x = abs(m) ** k
    f = n if m > 0 else -n
    levels = [x * f**j // abs(m) ** j for j in range(k + 1)]
    w = Word((("t", -k), ("a", x), ("t", k)))
    top = max(v.bit_length() for v in levels)
    for cap in range(max(1, x.bit_length() - 2), top + 2):
        assert _outcome_text(lambda: normalize(BSParams(m, n), w, cap)) == _first_past(levels, cap)
    assert normalize(BSParams(m, n), w, top) == BrittonNF(levels[-1])


@pytest.mark.parametrize("m, n, s", [(3, 2, 1), (2, 3, 1), (2, 3, -1), (-2, 3, -1), (2, -2, 1), (1, 2, 1)])
def test_run_carries_meet_the_cap_at_the_first_state(m, n, s):
    # t^(sL) a^X settles the top, then carries through L - 1 entries (s, 0):
    # z -> f (z div mod), each state checked, one divmod per entry or by
    # halves under a bound
    L, X = 300, 3**400 + 12345
    mod = abs(n) if s > 0 else abs(m)
    f = (m if n > 0 else -m) if s > 0 else (n if m > 0 else -n)
    states, z = [X], f * (X // mod)
    for _ in range(L - 1):
        if not z:
            break
        states.append(z)
        z = f * (z // mod)
    states.append(z)  # the carry into r0
    w = Word((("t", s * L), ("a", X)))
    want = eager_normalize(BSParams(m, n), w)
    top = max(v.bit_length() for v in states)
    for cap in range(X.bit_length() - 1, top + 2):
        got = _outcome_text(lambda: normalize(BSParams(m, n), w, cap))
        assert got == _first_past(states, cap), cap
    assert normalize(BSParams(m, n), w, top) == want


def test_inverse_runs_are_refused_as_block_by_block(monkeypatch):
    # an inverse's run is pushed whole, but refused where blocks pushed one
    # at a time would be, one past the limit; a word's run of equal blocks
    # names its whole size, as before
    monkeypatch.setattr("bsgroups.words._MAX_SYLLABLES", 1000)
    p = BSParams(2, 3)
    G = bs_group(p)
    x = normalize(p, parse_word("t^600"))
    with pytest.raises(WordSizeExceeded, match="^word would reach 1001 syllables, limit 1000$"):
        G.commutator(x, x)
    assert nf_invert(p, normalize(p, parse_word("t^1000"))).tail == ((-1, 0),) * 1000
    with pytest.raises(WordSizeExceeded, match="^word would reach 1200 syllables, limit 1000$"):
        normalize(p, parse_word("t^600 " + "t a " * 600))


# nf_equal cuts the shared prefix and suffix, rejects on G/G' and scans the
# middles; comparing the two full normal forms is its oracle.

@st.composite
def equality_pairs(draw):
    """(p, cap, u, v): a shared prefix and suffix around two middles.  The
    second middle is the first with a relator conjugate spliced in, with a
    t-power spliced in (another t-sum), with a^(k(n - m)) or a commutator
    spliced in (the same image in G/G'), or the empty word.  Among the
    groups are n = m and n = -m."""
    p = draw(st.one_of(params, params.map(lambda p: BSParams(p.m, p.m)),
                       params.map(lambda p: BSParams(p.m, -p.m))))
    prefix, mid, suffix = (draw(st.lists(small_syllables, max_size=6)) for _ in range(3))
    cut = draw(st.integers(0, len(mid)))
    kind = draw(st.sampled_from(("splice", "t-sum", "a-sum", "commutator", "empty")))
    if kind == "splice":
        c = Word.from_pairs(draw(st.lists(small_syllables, max_size=3)))
        rel = Word.from_pairs((("t", -1), ("a", p.m), ("t", 1), ("a", -p.n)))
        if draw(st.booleans()):
            rel = rel.inverse()
        insert = (c.inverse() * rel * c).syllables
    elif kind == "t-sum":
        insert = (("t", draw(st.integers(-3, 3).filter(bool))),)
    elif kind == "a-sum":
        insert = (("a", draw(st.integers(-2, 2)) * (p.n - p.m)),)
    elif kind == "commutator":
        x, y = (Word.from_pairs(draw(st.lists(small_syllables, min_size=1, max_size=2))) for _ in "xy")
        insert = commutator(x, y).syllables
    other = [] if kind == "empty" else mid[:cut] + list(insert) + mid[cut:]
    if draw(st.booleans()):
        mid, other = other, mid
    u, v = (Word.from_pairs(prefix + w + suffix) for w in (mid, other))
    return p, draw(st.integers(3, 12)), u, v


@settings(max_examples=300, deadline=None)
@given(equality_pairs())
# middles that pass the cap where the full forms do not, among them n = -m
@example((BSParams(2, 4), 5, parse_word("a^-3 t^-3 a^4 t^-3 a t"), parse_word("a^-3 t^-6 a t")))
@example((BSParams(1, 4), 3, parse_word("t^3 a^4"), parse_word("t^3 a^-4 t^-1 a^3 t a^5")))
@example((BSParams(3, 4), 3, parse_word("a^3 t^-1 a^-4"), parse_word("a^3 t a^-1 t^-2 a^-2")))
@example((BSParams(3, 1), 3, parse_word("t^-3 a^-1 t^-1 a^3 t a"), parse_word("t^-3 a^-1 t^-1 a^3 t^2 a^3 t^-1")))
@example((BSParams(2, 4), 10, parse_word("a^-3 t^-8 a^5"), parse_word("a^-3 t^-9 a^2 t a")))
@example((BSParams(3, -3), 3, parse_word("t^-3 a^-4"), parse_word("t^-3 a^-5 t^2 a^-6 t^-1 a^-3 t a^3 t^-2 a")))
@example((BSParams(3, 1), 3, parse_word("a^-2"), parse_word("a^-2 t a^3 t a^-1 t^-2")))
@example((BSParams(1, 2), 7, parse_word("a^3 t^-7 a^-1 t^3 a^2"), parse_word("a^3 t^-8 a t a^-3 t^3 a^2")))
def test_nf_equal_matches_full_normal_forms(case):
    p, cap, u, v = case
    try:
        want = normalize(p, u, cap) == normalize(p, v, cap)
    except ExponentCapExceeded:
        # the full forms are refused: nf_equal may answer, as they do uncapped
        try:
            got = nf_equal(p, u, v, cap)
        except ExponentCapExceeded:
            return
        assert got is (normalize(p, u, 4096) == normalize(p, v, 4096))
        return
    assert nf_equal(p, u, v, cap) is want
    assert nf_equal(p, v, u, cap) is want


def test_nf_equal_falls_back_to_the_full_forms(monkeypatch):
    monkeypatch.setattr("bsgroups.words._MAX_SYLLABLES", 1000)
    # the middles a^2 t^1200 a^-1 and a t^1200 pass the limit, and the full
    # forms, a t^200 both, do not
    p = BSParams(1, 1)
    assert nf_equal(p, parse_word("T^1000 a^2 t^1200 a^-1"), parse_word("T^1000 a t^1200"))
    # where the full forms are refused too, the refusal is theirs
    with pytest.raises(WordSizeExceeded, match="^word would reach 3000 syllables, limit 1000$"):
        nf_equal(BSParams(2, 3), parse_word("t^3000 a"), parse_word("t^2999 a^2 t"))


def test_nf_equal_answers_past_the_full_forms_limit():
    # the shared t^1000000 a blocks are cut: only T a^3 t and a^-2 (equal, as
    # t^-1 a^3 t = a^-2) or a^-7 (the same image in Z x Z_5) are scanned
    p = BSParams(3, -2)
    u = parse_word("(t^1000000 a)^3 T a^3 t")
    with pytest.raises(WordSizeExceeded):
        normalize(p, u)
    assert nf_equal(p, u, parse_word("(t^1000000 a)^3 a^-2"))
    assert not nf_equal(p, u, parse_word("(t^1000000 a)^3 a^-7"))


def _periodic_run_loop(seq, j, period):
    c = 0
    while j + c < len(seq) and seq[j + c] == seq[j + c - period]:
        c += 1
    return c


@pytest.mark.parametrize("period", [1, 2])
def test_periodic_run_matches_a_plain_loop(period):
    # breaks at and around each boundary of the doubling slices, at the
    # sequence end, and none at all
    ref = ((1, 0), (-1, 2))[:period]
    head = ((1, 5),)
    j = len(head) + period
    for length in (0, 1, 7, 8, 9, 100, 300):
        body = ref * (1 + (length + period - 1) // period)
        seq = head + body[: period + length]
        breaks = {b + d for b in (8, 16, 24, 32, 56, 64, 120, 128, 248, 256) for d in (-1, 0, 1)}
        breaks |= {0, 1, length - 1}
        for b in sorted(x for x in breaks if 0 <= x < length):
            for bad in {(0, 0), ref[(b + 1) % period]} - {ref[b % period]}:
                broken = seq[: j + b] + (bad,) + seq[j + b + 1 :]
                assert britton._periodic_run(broken, j, period) == _periodic_run_loop(broken, j, period) == b
        assert britton._periodic_run(seq, j, period) == _periodic_run_loop(seq, j, period) == length
