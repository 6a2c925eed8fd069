import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsgroups.affine as affine
import bsgroups.intmath as intmath
from bsgroups.affine import (
    IDENTITY,
    AffineElem,
    Weight,
    ZnElement,
    affine_compose,
    affine_invert,
    canonical_word,
    gamma_quot_image,
    lcs_weight,
    to_affine,
    zn_add,
    zn_canon,
    zn_divexact_int,
)
from bsgroups.britton import BSParams, nf_equal, normalize
from bsgroups.errors import DomainError, ExponentCapExceeded
from bsgroups.words import Word, parse_word

from helpers import (
    commutator,
    insert_relator,
    least_cap,
    rand_word,
    reference_affine_compose,
    reference_affine_invert,
    reference_to_affine,
    reference_zn_add,
    reference_zn_canon,
    syllable_fold_to_affine,
)

N_SET = (-3, -2, -1, 2, 3, 4, 5)


def test_zn_canonical_forms():
    assert zn_canon(2, 4, 2) == ZnElement(1, 0)
    assert zn_canon(2, 3, 1) == ZnElement(3, 1)
    assert zn_canon(-1, 5, 3) == ZnElement(-5, 0)
    assert zn_canon(3, 0, 7) == ZnElement(0, 0)
    assert zn_canon(3, 2, -2) == ZnElement(18, 0)
    assert zn_add(3, ZnElement(1, 1), ZnElement(2, 2)) == ZnElement(5, 2)
    with pytest.raises(DomainError):
        zn_divexact_int(4, ZnElement(5, 1), 3)


def test_to_affine_examples():
    assert to_affine(2, parse_word("a")) == AffineElem(0, ZnElement(1, 0))
    assert to_affine(2, parse_word("t^-1 a t")) == to_affine(2, parse_word("a^2"))
    assert to_affine(3, parse_word("t a^2 t^-1")) == AffineElem(0, ZnElement(2, 1))
    assert str(ZnElement(2, 1)) == "2/n^1"
    with pytest.raises(DomainError):
        to_affine(0, parse_word("a"))


def test_canonical_word_examples():
    assert canonical_word(2, AffineElem(0, ZnElement(3, 1))) == parse_word("t a^3 t^-1")
    assert canonical_word(2, IDENTITY).is_identity
    assert canonical_word(2, AffineElem(0, ZnElement(1, 2))) == parse_word("t^2 a t^-2")


def test_canonical_word_round_trip():
    rng = random.Random(50)
    for n in N_SET:
        for _ in range(25):
            g = to_affine(n, rand_word(rng))
            w = canonical_word(n, g)
            assert to_affine(n, w) == g


def test_homomorphism():
    rng = random.Random(51)
    for n in N_SET:
        for _ in range(20):
            u, v = rand_word(rng), rand_word(rng)
            assert to_affine(n, u * v) == affine_compose(n, to_affine(n, u), to_affine(n, v))
            g = to_affine(n, u)
            assert affine_compose(n, g, affine_invert(n, g)) == IDENTITY


def test_matches_britton_equality():
    rng = random.Random(52)
    for n in N_SET:
        p = BSParams(1, n)
        for _ in range(40):
            u = rand_word(rng)
            v = insert_relator(rng, p, u) if rng.random() < 0.5 else rand_word(rng)
            assert nf_equal(p, u, v) == (to_affine(n, u) == to_affine(n, v))


def test_weight_examples():
    assert lcs_weight(3, to_affine(3, parse_word("a^2"))) == Weight.finite(2)
    for s in range(0, 21):
        g = to_affine(-1, parse_word(f"a^{2 ** s}"))
        assert lcs_weight(-1, g) == Weight.finite(s + 1)
    w = lcs_weight(2, to_affine(2, parse_word("[a, t]")))
    assert w.is_omega and str(w) == "omega"
    assert lcs_weight(3, IDENTITY).is_omega
    assert lcs_weight(1, to_affine(1, parse_word("a t"))) == Weight.finite(1)
    assert lcs_weight(3, to_affine(3, parse_word("t a"))) == Weight.finite(1)


def test_weight_exactness():
    for n in (3, 4, 5, -2):
        q = abs(n - 1)
        for i in (1, 2, 3, 4):
            for alpha in (1, q + 1, 2 * q + 1):
                if math.gcd(alpha, q) != 1:
                    continue
                for l in (0, 1, 3):
                    w = parse_word(f"t^{l} a^{alpha * (n - 1) ** (i - 1)} t^-{l}")
                    assert lcs_weight(n, to_affine(n, w)) == Weight.finite(i)
            # numerator with a shared factor climbs at least one level higher
            w = parse_word(f"a^{q * (n - 1) ** (i - 1)}")
            assert lcs_weight(n, to_affine(n, w)).at_least(i + 1)


def test_weight_superadditive_on_commutators():
    rng = random.Random(53)
    for n in (3, 4, 5, -2, -3):
        for _ in range(25):
            u, v = rand_word(rng, max_syllables=4), rand_word(rng, max_syllables=4)
            wu = lcs_weight(n, to_affine(n, u))
            wv = lcs_weight(n, to_affine(n, v))
            wc = lcs_weight(n, to_affine(n, commutator(u, v)))
            if not (wu.is_omega or wv.is_omega):
                assert wc.at_least(wu.index + wv.index)


def test_finite_weight_outside_special_n():
    # for n not in {1, 2} only the identity has weight omega
    rng = random.Random(54)
    for n in (3, 4, 5, -1, -2, -3):
        for _ in range(30):
            g = to_affine(n, rand_word(rng))
            assert g.is_identity == lcs_weight(n, g).is_omega


def test_quot_image_examples():
    assert gamma_quot_image(4, 2, to_affine(4, parse_word("a^3"))) == 1
    assert gamma_quot_image(4, 2, to_affine(4, parse_word("a^9"))) == 0
    assert gamma_quot_image(4, 3, to_affine(4, parse_word("a^9"))) == 1
    assert gamma_quot_image(4, 2, to_affine(4, parse_word("t a^3 t^-1"))) == 1


def test_quot_image_additive_and_kernel():
    rng = random.Random(55)
    n, q = 4, 3
    for i in (2, 3):
        base = (n - 1) ** (i - 1)
        for _ in range(40):
            l1, l2 = rng.randrange(3), rng.randrange(3)
            w1 = parse_word(f"t^{l1} a^{rng.randrange(1, 9) * base} t^-{l1}")
            w2 = parse_word(f"t^{l2} a^{rng.randrange(1, 9) * base} t^-{l2}")
            g1, g2 = to_affine(n, w1), to_affine(n, w2)
            total = gamma_quot_image(n, i, affine_compose(n, g1, g2))
            assert total == (gamma_quot_image(n, i, g1) + gamma_quot_image(n, i, g2)) % q
        # gamma_{i+1} maps to zero
        deeper = to_affine(n, parse_word(f"a^{base * (n - 1)}"))
        assert gamma_quot_image(n, i, deeper) == 0


def test_quot_image_of_the_identity_at_any_depth():
    # the identity lies in every term and maps to 0; (n-1)^(i-1) is not formed
    start = time.perf_counter()
    for n in (4, -1, 3, -7, 10**30):
        for g in (IDENTITY, to_affine(n, parse_word("a A")), to_affine(n, parse_word("[t, T]"))):
            assert gamma_quot_image(n, 10**9, g) == 0
    assert time.perf_counter() - start < 1.0
    # any other element still answers below its weight and is refused past it
    g = to_affine(4, parse_word("a^9"))
    assert lcs_weight(4, g) == Weight.finite(3)
    assert gamma_quot_image(4, 3, g) == 1
    with pytest.raises(DomainError, match="below gamma_1000000000"):
        gamma_quot_image(4, 10**9, g)


def test_quot_image_preconditions():
    with pytest.raises(DomainError):
        gamma_quot_image(2, 2, IDENTITY)
    with pytest.raises(DomainError):
        gamma_quot_image(4, 1, IDENTITY)
    with pytest.raises(DomainError):
        gamma_quot_image(4, 2, to_affine(4, parse_word("a")))
    with pytest.raises(DomainError):
        gamma_quot_image(4, 2, to_affine(4, parse_word("t")))


def test_weight_agrees_with_britton_on_identity():
    rng = random.Random(56)
    p = BSParams(1, 3)
    for _ in range(30):
        w = rand_word(rng)
        u = w * w.inverse()
        assert normalize(p, u).is_identity
        assert lcs_weight(3, to_affine(3, u)).is_omega


# The per-level Horner fold against the per-syllable fold it replaced
# (tests/helpers.py).

ns = st.integers(-6, 6).filter(bool)
small_syllables = st.tuples(st.sampled_from("at"), st.integers(-3, 3).filter(bool))
syllables = st.one_of(
    small_syllables,
    st.tuples(st.just("a"), st.integers(-10**6, 10**6).filter(bool)),
    st.tuples(st.just("t"), st.integers(-1000, 1000).filter(bool)),
)


@st.composite
def spliced_words(draw):
    """n and random syllables with conjugates u^-1 R^+-1 u of BS(1, n)'s relator."""
    n = draw(ns)
    pairs = draw(st.lists(syllables, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        u = Word.from_pairs(draw(st.lists(syllables, max_size=3)))
        rel = Word.from_pairs((("t", -1), ("a", 1), ("t", 1), ("a", -n)))
        if draw(st.booleans()):
            rel = rel.inverse()
        cut = draw(st.integers(0, len(pairs)))
        pairs[cut:cut] = (u.inverse() * rel * u).syllables
    return n, Word.from_pairs(pairs)


def _levels(w: Word) -> dict[int, int]:
    """Sum of the a-exponents read at each level k = -sigma_t so far."""
    k, coeffs = 0, {}
    for g, e in w.syllables:
        if g == "t":
            k -= e
        else:
            coeffs[k] = coeffs.get(k, 0) + e
    return coeffs


@settings(max_examples=150, deadline=None)
@given(spliced_words())
def test_level_fold_matches_syllable_fold(nw):
    n, w = nw
    try:
        want = syllable_fold_to_affine(n, w)
    except ExponentCapExceeded:
        return
    assert to_affine(n, w) == want


@settings(max_examples=60, deadline=None)
@given(spliced_words())
def test_level_fold_bit_cap_contract(nw):
    """The Horner sums are partial sums by level, not by word position, so
    either fold can meet the cap first.  Each Horner sum at level l is at most
    C |n|^(top - l), C the sum of |a-exponents|; the final numerator is formed
    by both folds.  So the least cap exceeds the old fold's by no more than
    bit_length(C) + span * bit_length(|n|), span the distance between the
    highest and the lowest level with a nonzero exponent sum.
    """
    n, w = nw
    least = least_cap(lambda cap: to_affine(n, w, cap))
    assert to_affine(n, w, least) == syllable_fold_to_affine(n, w)
    oracle_least = least_cap(lambda cap: syllable_fold_to_affine(n, w, cap))
    levels = [l for l, c in _levels(w).items() if c]
    span = max(levels) - min(levels) if levels else 0
    c = sum(abs(e) for g, e in w.syllables if g == "a")
    assert least <= max(oracle_least, c.bit_length() + span * abs(n).bit_length())


def test_level_fold_work(monkeypatch):
    calls = 0
    check = affine._check_cap

    def counting(x, cap):
        nonlocal calls
        calls += 1
        return check(x, cap)

    monkeypatch.setattr(affine, "_check_cap", counting)
    text = "a"
    for _ in range(14):
        text = f"[{text}, t]"
    w = parse_word(text)  # 32 769 syllables over 15 levels
    for n in (-5, -1, 3, 6):
        calls = 0
        g = to_affine(n, w)
        # the per-syllable fold makes two checks per a-syllable, about 32 000
        assert calls <= len(_levels(w)) + 2
        assert g == AffineElem(0, ZnElement((n - 1) ** 14, 0))


def test_powers_are_refused_before_they_are_formed():
    # n^(10^8) would take minutes to build; its size is known beforehand
    for k in (10**7, 10**8):
        start = time.perf_counter()
        for text in (f"t^-{k} a t^{k}", f"t^-{k} [a, t] t^{k}"):
            w = parse_word(text)
            for n in (3, -2, 6):
                with pytest.raises(ExponentCapExceeded):
                    to_affine(n, w)
        g = AffineElem(-k, ZnElement(1, 0))
        with pytest.raises(ExponentCapExceeded):
            canonical_word(3, g)
        with pytest.raises(ExponentCapExceeded):
            affine_compose(3, AffineElem(k, ZnElement(0, 0)), to_affine(3, parse_word("a")))
        with pytest.raises(ExponentCapExceeded):
            zn_add(3, ZnElement(1, k), ZnElement(1, 0))
        with pytest.raises(ExponentCapExceeded):
            zn_canon(3, 1, -k)
        # a zero factor still answers, and so do the unit powers of n = +-1
        assert canonical_word(3, AffineElem(-k, ZnElement(0, 0))) == Word((("t", k),))
        assert zn_add(3, ZnElement(1, k), ZnElement(0, 0)) == ZnElement(1, k)
        cancel = parse_word(f"t^-{k} a t^{k} a t^-{k} a^-1 t^{k}")
        assert to_affine(3, cancel) == to_affine(3, parse_word("a"))
        for n in (1, -1):
            assert to_affine(n, parse_word(f"t^-{k} a^3 t^{k}")) == AffineElem(0, ZnElement(3 * n**k, 0))
        assert time.perf_counter() - start < 1.0
    # the refusal is the cap check made early: 2^20 fits in 21 bits
    assert zn_canon(2, 1, -20, 21) == ZnElement(1 << 20, 0)
    with pytest.raises(ExponentCapExceeded):
        zn_canon(2, 1, -20, 20)
    # the final numerator is checked against the cap passed in
    w = parse_word("t^-40 a t^40")
    assert to_affine(2, w, 41) == AffineElem(0, ZnElement(1 << 40, 0))
    with pytest.raises(ExponentCapExceeded):
        to_affine(2, w, 40)


def test_canonical_factors_divide_out_quickly(monkeypatch):
    # 3^100000 / 3^100000: the factors of n leave in O(log l) divisions,
    # counted through intmath's divmod, which a module global shadows there
    calls = 0

    def counting(x, p):
        nonlocal calls
        calls += 1
        return divmod(x, p)

    monkeypatch.setattr(intmath, "divmod", counting, raising=False)
    w = Word((("t", 100_000), ("a", 3**100_000), ("t", -100_000)))
    assert to_affine(3, w) == AffineElem(0, ZnElement(1, 0))
    # one division per factor would make 100 000 calls
    assert 0 < calls <= 2 * math.log2(100_000) + 2
    assert zn_canon(3, 2 * 3**40, 50) == ZnElement(2, 10)
    assert zn_canon(-2, 3 << 7, 5) == ZnElement(-12, 0)


# The arithmetic of Z[1/n] against the ladder arithmetic that the one fold
# replaced (helpers.reference_*): each operation gives the same value or the
# same refusal.
ORACLE_NS = (1, -1, 2, -2, 3, -5, 6, 10)


@st.composite
def _oracle_case(draw):
    n = draw(st.sampled_from(ORACLE_NS))
    # exponents with a high power of n make the canonical division run long
    high = st.builds(lambda c, j: c * n**j, st.integers(1, 10**4), st.integers(0, 20))
    syllable = st.one_of(
        st.tuples(st.just("t"), st.integers(-(10**4), 10**4).filter(bool)),
        st.tuples(st.just("a"), st.integers(-(10**30), 10**30).filter(bool)),
        st.tuples(st.just("a"), high),
    )
    words = [Word.from_pairs(draw(st.lists(syllable, max_size=6))) for _ in range(2)]
    g, h = (to_affine(n, w, 1 << 24) for w in words)
    num = draw(st.sampled_from((g.b.num, h.b.num or 1))) * n ** draw(st.integers(0, 300))
    l = draw(st.integers(-(10**4), 10**4))
    slack = draw(st.one_of(st.integers(0, 64), st.integers(0, 40_000)))
    return n, words, g, h, num, l, slack


def _outcome(f, *args):
    try:
        return f(*args)
    except ExponentCapExceeded as exc:
        return "refused", str(exc)


@settings(max_examples=400, deadline=None)
@given(_oracle_case())
def test_arithmetic_matches_the_ladder_arithmetic(case):
    n, words, g, h, num, l, slack = case
    bits = max(g.b.num.bit_length(), h.b.num.bit_length(), 1)
    cap = bits + slack
    for ours, theirs, args in (
        (affine_compose, reference_affine_compose, (n, g, h, cap)),
        (affine_compose, reference_affine_compose, (n, h, g, cap)),
        (affine_invert, reference_affine_invert, (n, g, cap)),
        (zn_add, reference_zn_add, (n, g.b, h.b, cap)),
        (zn_canon, reference_zn_canon, (n, num, l, num.bit_length() + slack)),
    ):
        assert _outcome(ours, *args) == _outcome(theirs, *args), (ours.__name__, args)
    for w in words:
        bits = max((abs(e).bit_length() for x, e in w.syllables if x == "a"), default=1)
        cap = bits + slack
        assert _outcome(to_affine, n, w, cap) == _outcome(reference_to_affine, n, w, cap)
