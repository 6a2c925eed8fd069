import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgroups.britton import BSParams, nf_equal
from bsgroups.errors import DomainError
from bsgroups.freeprod import (
    BasisWord,
    FreeProdWord,
    fp_normalize,
    fp_rewrite_basis,
    lift_basis,
    split_central,
)
from bsgroups.words import Word, parse_word

from helpers import rand_gamma2_word, rand_word, reference_rewrite_basis


def test_fp_normalize_examples():
    assert fp_normalize(2, parse_word("a^2")).is_identity
    w = fp_normalize(2, parse_word("t a t^-1 a"))
    assert w.syllables == (("t", 1), ("a", 1), ("t", -1), ("a", 1))
    assert fp_normalize(3, parse_word("a^4 t")).syllables == (("a", 1), ("t", 1))
    assert str(fp_normalize(3, parse_word("a^4 t"))) == "(a^1)(t^1)"
    assert str(FreeProdWord(2)) == "1"
    with pytest.raises(DomainError):
        fp_normalize(1, parse_word("a"))


def test_fp_normalize_structure():
    rng = random.Random(60)
    for d in (2, 3, 4, 6):
        for _ in range(30):
            w = fp_normalize(d, rand_word(rng))
            for i, (g, e) in enumerate(w.syllables):
                if g == "a":
                    assert 1 <= e <= d - 1
                else:
                    assert e != 0
                if i:
                    assert w.syllables[i - 1][0] != g


def test_fp_normalize_is_homomorphism():
    rng = random.Random(61)
    for d in (2, 3, 5):
        for _ in range(25):
            u, v = rand_word(rng), rand_word(rng)
            direct = fp_normalize(d, u * v)
            glued = fp_normalize(
                d, tuple(fp_normalize(d, u).syllables) + tuple(fp_normalize(d, v).syllables)
            )
            assert direct == glued


def test_rewrite_examples():
    assert fp_rewrite_basis(fp_normalize(2, Word())).is_identity
    bw = fp_rewrite_basis(fp_normalize(2, parse_word("t a t^-1 a")))
    assert bw.tokens == ((-1, 1, 1),)
    assert str(bw) == "c(-1,1)"
    bw = fp_rewrite_basis(fp_normalize(2, parse_word("a t a t^-1")))
    assert bw.tokens == ((-1, 1, -1),)
    assert str(bw) == "c(-1,1)^-1"


def test_rewrite_requires_cartesian_subgroup():
    with pytest.raises(DomainError):
        fp_rewrite_basis(fp_normalize(2, parse_word("t")))
    with pytest.raises(DomainError):
        fp_rewrite_basis(fp_normalize(3, parse_word("a")))


_SYLLABLES = st.lists(st.tuples(st.sampled_from("at"), st.integers(-6, 6)), max_size=12)


@settings(max_examples=500)
@given(st.integers(2, 5), _SYLLABLES, st.booleans())
def test_rewrite_matches_letter_by_letter_rewrite(d, pairs, close):
    if close:  # return to the identity coset: a Cartesian-subgroup word
        sigma_a = sum(e for g, e in pairs if g == "a")
        sigma_t = sum(e for g, e in pairs if g == "t")
        pairs = pairs + [("a", -sigma_a), ("t", -sigma_t)]
    w = fp_normalize(d, pairs)
    try:
        want = reference_rewrite_basis(w)
    except DomainError:
        with pytest.raises(DomainError):
            fp_rewrite_basis(w)
        return
    assert fp_rewrite_basis(w) == want


def test_rewrite_takes_one_step_per_t_syllable():
    w = FreeProdWord(2, (("t", 10**7), ("a", 1), ("t", -(10**7)), ("a", 1)))
    start = time.perf_counter()
    bw = fp_rewrite_basis(w)
    assert time.perf_counter() - start < 0.1
    assert bw.tokens == ((-(10**7), 1, 1),)
    assert str(bw) == "c(-10000000,1)"


def test_lift_examples():
    p = BSParams(2, 2)
    assert lift_basis(p, BasisWord(2, ((1, 1, 1),))) == parse_word("t^-1 a^-1 t a")
    assert lift_basis(p, BasisWord(2, ((2, 1, -1),))) == parse_word("a^-1 t^-2 a t^2")
    with pytest.raises(DomainError):
        lift_basis(p, BasisWord(3, ()))


def rand_basis(rng, d, max_tokens=6):
    tokens = []
    for _ in range(rng.randrange(0, max_tokens + 1)):
        tok = (rng.choice([-2, -1, 1, 2]), rng.randrange(1, d), rng.choice([-1, 1]))
        if tokens and tokens[-1] == (tok[0], tok[1], -tok[2]):
            continue
        tokens.append(tok)
    return BasisWord(d, tuple(tokens))


def test_lift_rewrite_round_trip():
    rng = random.Random(62)
    for m in (2, 3, 4):
        p = BSParams(m, m)
        for _ in range(60):
            bw = rand_basis(rng, m)
            again = fp_rewrite_basis(fp_normalize(m, lift_basis(p, bw)))
            assert again == bw


def test_split_examples():
    res = split_central(BSParams(2, 2), parse_word("[t, a]"))
    assert res.c == 0 and res.basis.tokens == ((1, 1, 1),)

    res = split_central(BSParams(2, -2), parse_word("a^4 [t, a]"))
    assert res.c == 1 and res.basis.tokens == ((1, 1, 1),)

    res = split_central(BSParams(2, -2), Word())
    assert res.c == 0 and res.basis.is_identity


def test_split_preconditions():
    with pytest.raises(DomainError):
        split_central(BSParams(2, 3), parse_word("[t, a]"))
    with pytest.raises(DomainError):
        split_central(BSParams(1, 1), parse_word("[t, a]"))
    with pytest.raises(DomainError):
        split_central(BSParams(2, 2), parse_word("a"))
    with pytest.raises(DomainError):
        split_central(BSParams(2, -2), parse_word("a^2"))


def test_split_random_same_sign():
    rng = random.Random(63)
    for m in (2, 3):
        p = BSParams(m, m)
        for _ in range(40):
            w = rand_gamma2_word(rng, p)
            res = split_central(p, w)
            assert res.c == 0
            assert nf_equal(p, lift_basis(p, res.basis), w)


def test_split_random_opposite_sign():
    rng = random.Random(64)
    for m in (2, 3):
        p = BSParams(m, -m)
        for _ in range(40):
            w = rand_gamma2_word(rng, p, central=rng.randrange(-2, 3))
            res = split_central(p, w)
            back = Word.from_pairs((("a", 2 * m * res.c),)) * lift_basis(p, res.basis)
            assert nf_equal(p, back, w)


def test_central_power_is_pure_center():
    p = BSParams(3, -3)
    res = split_central(p, parse_word("a^6"))
    assert res.c == 1 and res.basis.is_identity
    res = split_central(p, parse_word("a^-12"))
    assert res.c == -2 and res.basis.is_identity
