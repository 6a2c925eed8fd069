import math
import random
import sys
import time
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsgroups.affine import ZnElement, affine_group, to_affine
from bsgroups.britton import AbImage, BSParams, abelianize, bs_group, normalize
from bsgroups.errors import ExponentCapExceeded, ParseError, WordSizeExceeded
from bsgroups.finquot import build_semidirect, build_wreath
from bsgroups.freeprod import BasisWord, FreeProdWord
from bsgroups.words import (
    Commutator,
    DEFAULT_MAX_BITS,
    Gen,
    Group,
    Power,
    Product,
    Word,
    evaluate,
    evaluate_text,
    gamma_weight_lower_bound,
    MAX_NESTING,
    free_group,
    parse_expr,
    parse_word,
    pretty_print,
    power,
    decimal,
)
from helpers import reference_free_group, reference_parse_expr

# Trees evaluate to free Words in F; its cap is the package default.
F = free_group(DEFAULT_MAX_BITS)

word_pairs = st.lists(
    st.tuples(st.sampled_from("at"), st.integers(-4, 4).filter(lambda e: e != 0)),
    max_size=10,
)


def test_free_reduce_examples():
    assert Word.from_pairs([("a", 1), ("t", 1), ("t", -1), ("a", -1)]).is_identity
    assert Word.from_pairs([("a", 2), ("a", -1)]) == Word((("a", 1),))
    w = Word.from_pairs([("a", 1), ("t", 1), ("a", 1)])
    assert Word.from_pairs(w.syllables) == w


@settings(max_examples=50)
@given(word_pairs)
def test_free_reduce_idempotent(pairs):
    w = Word.from_pairs(pairs)
    assert Word.from_pairs(w.syllables) == w


@settings(max_examples=50)
@given(word_pairs)
def test_word_times_inverse_reduces_to_identity(pairs):
    w = Word.from_pairs(pairs)
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


# The exponent sums (sigma_a, sigma_t) are read through abelianize: in
# BS(m, m) its image is (sigma_t, sigma_a) exactly, and in BS(m, n) the
# a-part is sigma_a mod |n - m|.
ZZ = BSParams(1, 1)


def test_exp_sums_examples():
    assert abelianize(ZZ, Word.from_pairs([])) == AbImage(0, 0, 0)
    comm = parse_word("[a, t]")
    assert abelianize(ZZ, comm) == AbImage(0, 0, 0)
    assert abelianize(ZZ, parse_word("t^-1 a^2 t")) == AbImage(t_part=0, a_part=2, modulus=0)
    assert abelianize(BSParams(2, 5), parse_word("t^-1 a^7 t^4")) == AbImage(3, 1, 3)


@settings(max_examples=50)
@given(word_pairs, word_pairs, st.sampled_from([(1, 1), (3, 3), (2, 5), (-3, 4), (4, -6)]))
def test_exp_sums_additive(p1, p2, mn):
    p = BSParams(*mn)
    u, v = Word.from_pairs(p1), Word.from_pairs(p2)
    su, sv, sw = abelianize(p, u), abelianize(p, v), abelianize(p, u * v)
    mod = abs(p.n - p.m)
    a_part = su.a_part + sv.a_part
    assert sw == AbImage(su.t_part + sv.t_part, a_part % mod if mod else a_part, mod)
    # the sums of the syllables' exponents, generator by generator
    sigma_a = sum(e for g, e in p1 if g == "a") + sum(e for g, e in p2 if g == "a")
    sigma_t = sum(e for g, e in p1 if g == "t") + sum(e for g, e in p2 if g == "t")
    assert sw == AbImage(sigma_t, sigma_a % mod if mod else sigma_a, mod)


def test_parse_structure():
    assert parse_expr("a") == Gen("a")
    assert parse_expr("[a^2, t]") == Commutator(Power(Gen("a"), 2), Gen("t"))
    e = parse_expr("t^-1 a^2 t")
    assert e == Product((Power(Gen("t"), -1), Power(Gen("a"), 2), Gen("t")))
    # uppercase shorthand for inverses
    assert evaluate(F, parse_expr("A T"))[0] == Word.from_pairs([("a", -1), ("t", -1)])
    assert parse_expr("ta") == Product((Gen("t"), Gen("a")))
    # a trailing "^ int" binds to the last letter of a run only
    a, t, A, T = Gen("a"), Gen("t"), Power(Gen("a"), -1), Power(Gen("t"), -1)
    assert parse_expr("aT^2") == Product((a, Power(T, 2)))
    assert parse_expr("ta^-3") == Product((t, Power(a, -3)))
    assert parse_expr("AT ^ \t2") == Product((A, Power(T, 2)))
    assert parse_expr("a^ -1") == Power(a, -1)


def test_parse_errors_carry_position():
    # "²" and "٣" pass str.isdigit, but exponents are ASCII digits only
    for bad in ["a^", "[a t", "b", "(a", "a^x", "]", "a^²", "a^٣"]:
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert exc.value.position >= 0
    # an exponent without digits is reported where its digits should start
    for bad, position in [("a^- 1", 3), ("a^", 2), ("ta^x", 3), ("a t^ -", 6)]:
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert str(exc.value) == f"expected an integer (at position {position})"


def test_nesting_limit():
    # The deepest accepted nesting parses, evaluates and prints without
    # reaching the recursion limit; one more bracket is a ParseError there.
    deep = "(" * MAX_NESTING + "a" + ")^2" * MAX_NESTING
    expr = parse_expr(deep)
    assert evaluate(F, expr)[0] == Word((("a", 2**MAX_NESTING),))
    assert parse_expr(pretty_print(expr)) == expr
    for bracket in "([":
        with pytest.raises(ParseError) as exc:
            parse_expr(bracket + deep)
        assert exc.value.position == MAX_NESTING


def test_eval_examples():
    assert parse_word("[a, t]") == parse_word("a^-1 t^-1 a t")
    assert evaluate(F, Power(Gen("a"), 0))[0].is_identity
    lhs = parse_word("[t, a]")
    rhs = parse_word("[a, t]").inverse()
    assert lhs == rhs


def test_conjugate_expands():
    # y^-1 x y has no node of its own: it is a product, or x [x, y]
    a, t = Gen("a"), Gen("t")
    want = parse_word("t^-1 a t")
    assert evaluate(F, Product((Power(t, -1), a, t)))[0] == want
    assert evaluate(F, Product((a, Commutator(a, t))))[0] == want


def rand_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return Gen(rng.choice("at"))
    kind = rng.randrange(3)
    if kind == 0:
        return Power(rand_expr(rng, depth - 1), rng.choice([-2, -1, 2, 3]))
    if kind == 1:
        return Product(tuple(rand_expr(rng, depth - 1) for _ in range(rng.randrange(1, 4))))
    return Commutator(rand_expr(rng, depth - 1), rand_expr(rng, depth - 1))


def test_eval_inverse_pair_is_identity():
    rng = random.Random(7)
    for _ in range(40):
        e = rand_expr(rng)
        w = evaluate(F, Product((e, Power(e, -1))))[0]
        assert w.is_identity


def _flatten(e):
    if isinstance(e, Product):
        out = []
        for f in e.factors:
            g = _flatten(f)
            if isinstance(g, Product):
                out.extend(g.factors)
            else:
                out.append(g)
        if len(out) == 1:
            return out[0]
        return Product(tuple(out))
    if isinstance(e, Power):
        return Power(_flatten(e.base), e.exp)
    if isinstance(e, Commutator):
        return Commutator(_flatten(e.left), _flatten(e.right))
    return e


def test_pretty_print_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        e = rand_expr(rng)
        again = parse_expr(pretty_print(e))
        assert _flatten(again) == _flatten(e)


def test_expression_equality_is_structural():
    # repr spells out the whole tree, so equal reprs are the reference
    rng = random.Random(5)
    a, t = Gen("a"), Gen("t")
    exprs = [rand_expr(rng, 2) for _ in range(150)]
    exprs += [
        Power(Commutator(a, t), 2),
        Product((Product((a, t)),)), Product((Product((a,)), t)),
    ]
    reprs = [repr(x) for x in exprs]
    # the same text as the generated dataclass __repr__
    assert reprs[-3] == "Power(base=Commutator(left=Gen(name='a'), right=Gen(name='t')), exp=2)"
    assert reprs[-1] == "Product(factors=(Product(factors=(Gen(name='a'),)), Gen(name='t')))"
    assert repr(Product(())) == "Product(factors=())"
    for x, rx in zip(exprs, reprs):
        for y, ry in zip(exprs, reprs):
            assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
            assert rx != ry or hash(x) == hash(y)
    assert a != "a" and a == Gen("a")


@pytest.mark.parametrize("text, weight", [
    ("[a, t] [[a, t], t]", 2),  # a product takes the least weight of its factors
    ("[[a,t],t] [[a,t],t]", 3),
    ("(a^0 [a, t])", 2),  # an identity factor does not count
    ("a^0", None),
    ("[a^0, t]", None),
    ("[a, t]^0", None),
])
def test_gamma_weight_lower_bound(text, weight):
    assert gamma_weight_lower_bound(parse_expr(text)) == weight


def test_commutator_exp_sums_vanish():
    rng = random.Random(3)
    for _ in range(30):
        e = Commutator(rand_expr(rng, 2), rand_expr(rng, 2))
        assert abelianize(ZZ, evaluate(F, e)[0]) == AbImage(0, 0, 0)


def test_word_str_forms():
    assert str(Word.from_pairs([("t", -1), ("a", 2), ("t", 1)])) == "t^-1 a^2 t"
    assert str(Word.from_pairs([])) == "1"


def test_free_group_power():
    F = free_group(64)
    w = parse_word("a t")
    x = F.word(w)
    assert power(F, x, 3) == (w * w * w, (w * w * w).inverse())
    assert power(F, x, -1) == (w.inverse(), w)
    assert power(F, x, 0) == F.identity == (Word(), Word())


def test_exponent_cap():
    with pytest.raises(ExponentCapExceeded):
        parse_expr("a^123456789", max_bits=8)
    with pytest.raises(ExponentCapExceeded):
        evaluate(free_group(16), Power(Gen("a"), 1 << 40))


def test_evaluate_in_britton_matches_normalizing_the_free_word():
    rng = random.Random(17)
    sizes = [k for k in range(-6, 7) if k]
    for _ in range(100):
        p = BSParams(rng.choice(sizes), rng.choice(sizes))
        for e in (rand_expr(rng, 4) for _ in range(6)):
            assert evaluate(bs_group(p), e) == normalize(p, evaluate(F, e)[0])


def test_evaluate_in_affine_matches_the_free_word():
    rng = random.Random(19)
    for n in (k for k in range(-6, 7) if k):
        for e in (rand_expr(rng, 4) for _ in range(60)):
            assert evaluate(affine_group(n), e) == to_affine(n, evaluate(F, e)[0])


def test_power_matches_repeated_mul():
    F, w = free_group(64), parse_word("a t^2 A")
    groups = [
        (F, F.word(w)),
        (bs_group(BSParams(2, 3)), normalize(BSParams(2, 3), parse_word("t a"))),
        (affine_group(3), to_affine(3, parse_word("t a"))),
        (build_semidirect(2, 3, 1, 1, 3), (3, 1)),
        (build_wreath(2, 1, 2), ((1, 0, 1, 1), 3)),
    ]
    for G, x in groups:
        acc = G.identity
        for e in range(12):
            assert power(G, x, e) == acc
            assert power(G, x, -e) == G.inv(acc)
            acc = G.mul(acc, x)
    # each free value is the oracle's word with its inverse
    R = reference_free_group(64)
    for e in range(-11, 12):
        we = power(R, w, e)
        assert power(F, F.word(w), e) == (we, we.inverse())


_syllable = st.tuples(st.sampled_from("at"), st.integers(-4, 4).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.lists(_syllable, max_size=4), st.lists(_syllable, min_size=1, max_size=5),
       st.integers(-12, 12), st.integers(1, 8))
@example([("t", 2), ("a", -1)], [("t", 3)], -7, 8)  # a strip, a one-syllable core
@example([("a", 1)], [("t", 1), ("a", 2), ("t", -3)], 9, 8)  # a strip, a merged seam
@example([], [("a", 3), ("t", 1), ("a", 3)], 5, 2)  # the merged seam passes the cap
@example([("t", 1)], [("a", 3)], 3, 2)  # a^9 passes the cap by two bits, a^6 by one
def test_free_power_repeats_the_cyclic_core(u, c, e, cap):
    # w = u c u^-1, reduced, against square-and-multiply in the Word-valued
    # free group: the same pair, or the same cap error
    u = Word.from_pairs(u)
    w = u * Word.from_pairs(c) * u.inverse()
    R, F = reference_free_group(cap), free_group(cap)
    try:
        we = power(R, R.word(w), e)
    except ExponentCapExceeded as exc:
        with pytest.raises(ExponentCapExceeded) as got:
            F.power(F.word(w), e)
        assert (str(got.value), got.value.bits) == (str(exc), exc.bits)
        return
    assert F.power(F.word(w), e) == (we, we.inverse())


def test_free_power_refusals(monkeypatch):
    # the size of w^e is known before anything is built
    monkeypatch.setattr("bsgroups.words._MAX_SYLLABLES", 1000)
    assert parse_word("(t a)^500").syllables == (("t", 1), ("a", 1)) * 500
    with pytest.raises(WordSizeExceeded, match="^word would reach 1002 syllables, limit 1000$"):
        parse_word("(t a)^501")
    # a^2 t a^2 squared merges a^2 a^2 = a^4, which needs 3 bits
    F = free_group(2)
    x = F.word(parse_word("a^2 t a^2"))
    assert F.power(x, 1) == x
    with pytest.raises(ExponentCapExceeded, match="^exponent needs 3 bits, cap is 2$"):
        F.power(x, 2)


def test_free_words_are_size_capped():
    tower = "a"
    for _ in range(20):
        tower = f"[{tower}, t]"
    # 2^21 + 1 syllables, just past the limit
    with pytest.raises(WordSizeExceeded):
        parse_word(tower)
    with pytest.raises(WordSizeExceeded):
        parse_word("(a t)^1000000000")


@settings(max_examples=50)
@given(word_pairs, word_pairs)
def test_free_mul_matches_word_product(p1, p2):
    u, v = Word.from_pairs(p1), Word.from_pairs(p2)
    F = free_group(64)
    assert F.mul(F.word(u), F.word(v)) == (u * v, (u * v).inverse())
    assert F.mul(F.inv(F.word(u)), F.word(v)) == (u.inverse() * v, v.inverse() * u)


def test_merged_exponents_are_capped():
    with pytest.raises(ExponentCapExceeded):
        evaluate(free_group(16), Power(Power(Gen("a"), 1 << 10), 1 << 10))


def test_britton_products_are_size_capped(monkeypatch):
    monkeypatch.setattr("bsgroups.words._MAX_SYLLABLES", 1000)
    G = bs_group(BSParams(2, 3))
    assert len(evaluate(G, parse_expr("[a, t]^100")).tail) == 200
    with pytest.raises(WordSizeExceeded):
        evaluate(G, parse_expr("[a, t]^1000000000"))
    # the limit holds for the result, not for the operands
    x = normalize(BSParams(2, 3), parse_word("t^600 a"))
    assert G.mul(x, G.inv(x)).is_identity
    # a t-run is pushed whole, so its length is checked before the push
    assert len(normalize(BSParams(2, 3), parse_word("a t^999")).tail) == 999
    with pytest.raises(WordSizeExceeded):
        normalize(BSParams(2, 3), parse_word("a t^999 a t^2"))
    with pytest.raises(WordSizeExceeded):
        normalize(BSParams(2, 3), parse_word("t^1000000000000"))
    # a run of equal blocks is pushed in one step, and checked before it
    # (built directly: parse_word would stop at the free word's size first)
    assert len(normalize(BSParams(2, 3), Word((("t", 1), ("a", 1)) * 1000)).tail) == 1000
    with pytest.raises(WordSizeExceeded, match="word would reach 1001 syllables"):
        normalize(BSParams(2, 3), Word((("t", 1), ("a", 1)) * 1001))


def test_huge_exponents_parse_and_print_outside_the_cli(digit_limit):
    # 4516 and 5000 digits: past the default limit
    assert str(normalize(BSParams(1, 2), parse_word("t^-15000 a t^15000"))) == f"a^{decimal(2**15000)}"
    w = parse_word("a^" + "9" * 5000)
    assert w.syllables == (("a", 10**5000 - 1),)
    assert str(w) == "a^" + "9" * 5000
    assert repr(parse_expr("a^" + "9" * 5000)) == f"Power(base=Gen(name='a'), exp={'9' * 5000})"
    assert str(ZnElement(-(10**5000), 3)) == "-1" + "0" * 5000 + "/n^3"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digit_limit


def test_huge_exponents_print_in_expressions_and_free_products(digit_limit):
    big = 10**5000 - 1  # 5000 digits, past the default limit
    nines = "9" * 5000
    assert pretty_print(Commutator(Power(Gen("a"), -big), Gen("t"))) == f"[a^-{nines}, t]"
    assert str(FreeProdWord(2, (("t", big), ("a", 1)))) == f"(t^{nines})(a^1)"
    assert str(BasisWord(2, ((-big, 1, 1), (big, 1, -1)))) == f"c(-{nines},1) c({nines},1)^-1"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digit_limit


@settings(max_examples=200)
@given(st.integers(1, 30000), st.integers(0, 2**64), st.booleans())
def test_decimal_matches_builtin_conversion(bits, low, negative):
    x = ((1 << bits) + low) * (-1 if negative else 1)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = str(x)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert decimal(x) == text
    assert decimal(text) == x
    assert decimal(text.replace("-", "-000") if negative else "000" + text) == x


def test_oversized_integer_literal_is_refused_before_conversion():
    # 3 * (D - 1) < bits of a D-digit number: the boundary cases stay exact
    for digits in ("9" * 4, "1000", "0009999", "9" * 12):
        for cap in range(1, 45):
            fits = int(digits).bit_length() <= cap
            try:
                parse_word("a^" + digits, cap)
            except ExponentCapExceeded:
                assert not fits
            else:
                assert fits
    # the digit count refuses it (a lower bound on the bits), not int()
    with pytest.raises(ExponentCapExceeded) as exc:
        parse_word("a^" + "9" * 2_000_000)
    assert exc.value.bits == 3 * (2_000_000 - 1) + 1
    assert str(exc.value) == "exponent needs at least 5999998 bits, cap is 1000000"
    # past the estimate the value itself is measured, and its need is exact
    with pytest.raises(ExponentCapExceeded) as exc:
        parse_word("a^" + "9" * 12, 39)
    assert str(exc.value) == "exponent needs 40 bits, cap is 39"
    # the digit run is matched in one call, not walked a character at a time
    start = time.perf_counter()
    with pytest.raises(ExponentCapExceeded):
        parse_word("a^" + "9" * 10**7)
    assert time.perf_counter() - start < 1.0
    # leading zeros are dropped before the conversion, which would otherwise
    # build powers of ten as long as the zero run
    start = time.perf_counter()
    assert parse_word("a^-" + "0" * 10**7 + "5") == Word((("a", -5),))
    assert time.perf_counter() - start < 1.0
    assert parse_word("a^-0007 t^000") == Word((("a", -7),))


class _CountingStr(str):
    """A text that counts the index and slice reads made on it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_whitespace_runs_are_skipped_in_one_step():
    # every character str.isspace() accepts separates tokens, non-ASCII too
    assert parse_word("a\t\n\u00a0\u3000t ^ \x1c-2 ") == parse_word("a t^-2")
    # a run of 10^7 spaces costs a few reads of the text, in parse_word's flat
    # read and in the parser, whose skip_ws steps over the run after "a"
    for text, want in (("a" + " " * 10**7, Word((("a", 1),))), ("\n" * 10**7 + "t", Word((("t", 1),)))):
        for read in (parse_word, lambda s: evaluate(F, parse_expr(s))[0]):
            counted = _CountingStr(text)
            assert read(counted) == want
            assert counted.reads <= 4, counted.reads
    with pytest.raises(ParseError) as exc:
        parse_word("a" + " " * 1000 + "b")
    assert exc.value.position == 1001


# Texts for the parser oracle.  Two kinds are lists of (atom, exponent,
# separator) pieces: well formed ones, and ones with unbalanced brackets,
# broken exponents and junk ("b", and "\u00b2", which str.isdigit accepts).
# The third kind is any text over those characters.
_ATOMS = ["a", "t", "A", "T", "aT", "tAt", "[a, t]", "(a T)", "[(tA)^2,a]"]
_EXPONENTS = ["", "", "", "^2", "^-3", "^ 12", "^-0042", "^99999", "^ \t-7"]
_SEPARATORS = ["", "", " ", "\t", "\n", "\u00a0", "\u3000"]
_JUNK_ATOMS = ["(", ")", "[", "]", ",", "b", "\u00b2", "7"]
_BROKEN_EXPONENTS = ["^", "^-", "^- 1", "^x"]


def _pieces(atoms, exponents):
    pieces = st.tuples(st.sampled_from(atoms), st.sampled_from(exponents), st.sampled_from(_SEPARATORS))
    return st.lists(pieces, max_size=8).map(lambda ps: "".join(map("".join, ps)))


_texts = st.one_of(
    _pieces(_ATOMS, _EXPONENTS),
    _pieces(_ATOMS + _JUNK_ATOMS, _EXPONENTS + _BROKEN_EXPONENTS),
    st.text(alphabet="aAtT0123456789-^()[], \t\u00a0\u3000b\u00b2", max_size=40),
)


def _outcome(parse, text, cap):
    try:
        expr = parse(text, cap)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position
    except ExponentCapExceeded as exc:
        return "ExponentCapExceeded", str(exc), exc.bits
    return "tree", expr, repr(expr)


@settings(max_examples=1000, deadline=None)
@given(_texts, st.integers(1, 40))
def test_parser_matches_reference_parser(text, cap):
    # the same tree (== and repr), or the same error, message and position
    assert _outcome(parse_expr, text, cap) == _outcome(reference_parse_expr, text, cap)


def _tree_word(text, cap):
    return evaluate(free_group(cap), parse_expr(text, cap))[0]


# Bracket-free texts, which parse_word reads without building a tree: the
# oracle's texts with blanks for brackets, and runs with broken exponents and
# junk.  A text with brackets takes the tree path itself.
_flat_texts = st.one_of(
    _texts.map(lambda text: text.translate(str.maketrans("()[]", "    "))),
    _pieces(["a", "t", "A", "T", "aT", "tAt", "b", ","], _EXPONENTS + _BROKEN_EXPONENTS),
)


@settings(max_examples=1000, deadline=None)
@given(_flat_texts, st.integers(1, 40))
def test_parse_word_matches_tree_evaluation(text, cap):
    # the same Word, or the same error, message and position
    assert _outcome(parse_word, text, cap) == _outcome(_tree_word, text, cap)


@pytest.mark.parametrize(
    "text, cap",
    [
        ("aa^3", 40),
        ("AA^-2", 40),
        ("A^-2", 40),
        ("a^0", 40),
        ("a^-0042", 40),
        ("t\u00a0a^2\u3000A T^-3 \u00a0", 40),
        ("\u3000", 40),
        ("a^2 t^", 40),
        ("a^5 A^5", 2),
        ("a^3 a^3", 2),
        ("a^" + "9" * 30, 40),
    ],
)
def test_parse_word_flat_cases(text, cap):
    assert _outcome(parse_word, text, cap) == _outcome(_tree_word, text, cap)


def test_parse_word_flat_values():
    assert parse_word("aa^3") == Word((("a", 4),))
    assert parse_word("AA^-2") == Word((("a", 1),))
    assert parse_word("A^-2") == Word((("a", 2),))
    assert parse_word("a^0") == Word()
    assert parse_word("a^-0042 t A") == Word((("a", -42), ("t", 1), ("a", -1)))
    assert parse_word("t\u00a0a^2\u3000A") == Word((("t", 1), ("a", 1)))
    with pytest.raises(ParseError) as exc:
        parse_word("a^2 t^")
    assert (str(exc.value), exc.value.position) == ("expected an integer (at position 6)", 6)
    # each literal is under the cap, the reduced word is not
    with pytest.raises(ExponentCapExceeded):
        parse_word("a^3 a^3", 2)
    with pytest.raises(ExponentCapExceeded):
        parse_word("a^5 A^5", 2)  # the literal 5 is refused before anything cancels


def _agrees_with_tree(G, text, cap):
    # evaluate_text against evaluating the parsed tree: the same value, or the
    # same error, message and position
    return _outcome(lambda s, c: evaluate_text(G, s, c), text, cap) == _outcome(
        lambda s, c: evaluate(G, parse_expr(s, c)), text, cap
    )


@settings(max_examples=500, deadline=None)
@given(_flat_texts, st.integers(1, 40))
def test_evaluate_text_matches_tree_evaluation(text, cap):
    # in the affine model, where no text of _flat_texts builds a long value
    assert _agrees_with_tree(affine_group(3, cap), text, cap)


@pytest.mark.parametrize("text", ["T a^2 t", "a^-0042 t A", "aTt^-2 a", "(T a^2) t", "a^2 t^", "A b"])
def test_evaluate_text_in_britton_forms(text):
    assert _agrees_with_tree(bs_group(BSParams(2, 3), 64), text, 64)


_letter_exprs = st.sampled_from([Gen("a"), Gen("t"), Power(Gen("a"), -1), Power(Gen("t"), -1)])
_exprs = st.recursive(
    _letter_exprs,
    lambda kids: st.one_of(
        st.builds(Power, kids, st.integers(-3, 3)),
        st.builds(lambda fs: Product(tuple(fs)), st.lists(kids, max_size=4)),
        st.builds(Commutator, kids, kids),
    ),
    max_leaves=8,
)
_nonzero = st.integers(-5, 5).filter(bool)
_groups = st.one_of(
    st.just(free_group(10_000)),
    st.builds(lambda m, n: bs_group(BSParams(m, n)), _nonzero, _nonzero),
    st.builds(affine_group, _nonzero),
)


def _free_outcome(G, expr):
    try:
        return evaluate(G, expr)
    except ExponentCapExceeded as exc:
        return "ExponentCapExceeded", str(exc), exc.bits


@settings(max_examples=300, deadline=None)
@given(_exprs, st.integers(1, 12))
def test_free_values_are_the_word_and_its_inverse(expr, cap):
    # the same pair as the Word-valued free group's word and its inverse, or
    # the same cap error
    w = _free_outcome(reference_free_group(cap), expr)
    want = (w, w.inverse()) if isinstance(w, Word) else w
    assert _free_outcome(free_group(cap), expr) == want


def test_free_values_invert_no_long_word(monkeypatch):
    # Work, not time: every bracket joins the halves of pairs, so only the
    # generator runs are inverted, each once per group.
    calls = 0
    inverse = Word.inverse

    def counting(w):
        nonlocal calls
        calls += 1
        return inverse(w)

    monkeypatch.setattr(Word, "inverse", counting)
    tower = "a"
    for _ in range(16):
        tower = f"[{tower}, t]"
    assert len(parse_word(tower).syllables) == 2**17 + 1
    assert calls <= 2
    calls = 0
    assert parse_word("a t^3 A^-2 T " * 1000).syllables[:2] == (("a", 1), ("t", 3))
    assert calls == 0


@settings(max_examples=200, deadline=None)
@given(_exprs, st.integers(-12, 12), st.integers(1, 12))
def test_parse_word_of_a_power_is_its_word_half(expr, e, cap):
    # the same Word as the free group's value of the text, or the same error
    text = pretty_print(Power(expr, e))
    want = _outcome(lambda s, c: evaluate(free_group(c), parse_expr(s, c))[0], text, cap)
    assert _outcome(parse_word, text, cap) == want


def test_parse_word_of_a_power_builds_no_inverse(monkeypatch):
    # Work, not time: the free group repeats the cores of both halves of a
    # power, parse_word that of the word half alone.
    from bsgroups import words

    calls = 0
    repeat = words._repeat

    def counting(*args):
        nonlocal calls
        calls += 1
        return repeat(*args)

    monkeypatch.setattr(words, "_repeat", counting)
    assert parse_word("(t a)^60000") == Word((("t", 1), ("a", 1)) * 60000)
    assert calls == 1
    # a one-syllable core reports the cap + 1 bits where square-and-multiply
    # stops, not the 14 bits of a^10000
    with pytest.raises(ExponentCapExceeded) as exc:
        parse_word("(a^100)^100", 8)
    assert str(exc.value) == "exponent needs 9 bits, cap is 8"
    with pytest.raises(WordSizeExceeded) as exc:
        parse_word("(t a)^1000000000")
    assert str(exc.value) == "word would reach 2000000000 syllables, limit 2000000"


@settings(max_examples=150, deadline=None)
@given(_groups, st.lists(_exprs, max_size=12))
def test_product_in_pairs_matches_left_fold(G, factors):
    values = [evaluate(G, f) for f in factors]
    assert evaluate(G, Product(tuple(factors))) == reduce(G.mul, values, G.identity)


def test_product_in_pairs_does_log_work_per_factor():
    # Tuples under concatenation: the work of mul is the size of its operands.
    k = 1000
    work = []

    def mul(x, y):
        work.append(len(x) + len(y))
        return x + y

    G = Group((), lambda w: (w,), mul, lambda x: x[::-1])
    at = Product((Gen("a"), Gen("t")))
    # (a t) is no generator power, so each factor is a value of its own
    assert evaluate(G, Product((at,) * k)) == (Word((("a", 1), ("t", 1))),) * k
    assert len(work) == k - 1
    assert sum(work) <= k * math.ceil(math.log2(k))


def test_long_products_finish():
    # A left fold copies its accumulator per factor, O(k^2): it takes over a
    # minute on the first product and over a second on the second.
    start = time.perf_counter()
    nf = evaluate(bs_group(BSParams(2, 3)), parse_expr("[a,t] " * 10000))
    assert nf == normalize(BSParams(2, 3), parse_word("[a,t] " * 10000))
    # A^k and T^k are generator powers, so this is one run of 20,000 syllables
    w = evaluate(F, parse_expr("a^2 T^-3 " * 10000))[0]
    assert w.syllables == (("a", 2), ("t", 3)) * 10000
    assert time.perf_counter() - start < 10.0
