import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsgroups.finquot as finquot
from bsgroups.britton import BSParams, nf_equal
from bsgroups.classify import json_fields
from bsgroups.errors import DomainError, ParseError, VerificationError
from bsgroups.finquot import (
    Certificate,
    SearchBudget,
    Semidirect,
    Wreath,
    _group,
    _howell,
    _in_span,
    bs_relation_holds,
    build_semidirect,
    build_wreath,
    certify_not_in_gamma,
    fq_eval,
    fq_gamma_series,
    quotient_family,
)
from bsgroups.intmath import prime_factors, valuation
from bsgroups.words import (
    Commutator,
    Gen,
    Group,
    Power,
    Product,
    Word,
    decimal,
    evaluate,
    level_sums,
    parse_expr,
    parse_word,
    power,
    pretty_print,
)

from helpers import (
    assert_same_json,
    brute_gamma_series,
    commutator,
    elements,
    generator_images,
    insert_relator,
    multiplicative_order,
    product_fq_eval,
    rand_word,
    reference_certificate_json,
    reference_certificate_text,
    reference_certify,
    reference_quotient_family,
    reference_wreath_terms,
)

DEFAULT_ORDER_CAP = SearchBudget().order_cap
CERT_GRID = list(itertools.product(
    ((1, 3), (1, 5), (2, 4), (2, -2), (6, 6), (3, -5), (2, 6), (4, 8)),
    ("a", "a^2", "a^4", "[a, t]", "t a^2 T a", "[[a, t], t]"),
    range(2, 6),
))


def test_build_semidirect_examples():
    q = build_semidirect(2, 2, 1, 1, 3)
    assert (q.p, q.k, q.j, q.u) == (2, 2, 1, 3)
    assert q.order == 8
    assert q.describe() == "Z_4 x|_3 Z_2"

    q = build_semidirect(3, 2, 1, 1, 4)
    assert q.u == 4 and q.order == 27


def test_build_semidirect_rejections():
    with pytest.raises(DomainError):
        build_semidirect(4, 1, 1, 1, 5)  # p not prime
    with pytest.raises(DomainError):
        build_semidirect(2, 2, 1, 2, 4)  # p divides m
    with pytest.raises(DomainError):
        build_semidirect(2, 2, 1, 1, 2)  # u = 2, not 1 mod 2
    with pytest.raises(DomainError):
        build_semidirect(2, 4, 1, 1, 3)  # ord(3 mod 16) = 4 > 2^1
    with pytest.raises(DomainError):
        build_semidirect(2, 20, 5, 1, 3)  # order cap
    with pytest.raises(DomainError):
        build_semidirect(2, 0, 1, 1, 3)  # k = 0
    with pytest.raises(DomainError):
        build_semidirect(2, 1, 0, 1, 3)  # j = 0


def test_zero_parameters_are_refused():
    # every prime divides 0, so the search for two primes not dividing m = 0
    # never ended: a fresh interpreter with a timeout turns a hang into a failure
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from bsgroups.finquot import quotient_family\n"
        "try:\n    quotient_family(0, 0)\nexcept Exception as exc:\n    print(type(exc).__name__, exc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.stdout == "DomainError parameters must be nonzero\n", proc.stderr
    # one zero gave quotients, and certificates, for a group that does not exist
    for m, n in ((3, 0), (0, 3), (0, 0)):
        with pytest.raises(DomainError, match="parameters must be nonzero"):
            certify_not_in_gamma(m, n, parse_word("a"), 2)
        with pytest.raises(DomainError, match="parameters must be nonzero"):
            build_semidirect(2, 1, 1, m, n)


def test_huge_parameters_in_build_errors(digit_limit):
    # each message spells the parameter in full, past the default digit limit
    m = 2 * (2**20000 + 1)
    with pytest.raises(DomainError, match="divides m = ") as exc:
        build_semidirect(2, 1, 1, m, 3)
    assert str(exc.value).endswith(decimal(m))
    with pytest.raises(DomainError, match="exceeds the construction cap") as exc:
        build_wreath(2, 2**20000, 1)
    assert f"({decimal(2**20000)} * 2^1 + 1)" in str(exc.value)


def test_build_wreath():
    q = build_wreath(2, 1, 1)
    assert q.order == 8
    assert q.describe() == "Z_2 wr Z_2"
    with pytest.raises(DomainError):
        build_wreath(2, 2, 4)  # 2^36 over the cap
    with pytest.raises(DomainError):
        build_wreath(4, 1, 1)  # p not prime
    with pytest.raises(DomainError):
        build_wreath(2, 0, 1)  # e = 0
    with pytest.raises(DomainError):
        build_wreath(2, 1, 0)  # j = 0


def test_group_axioms_brute():
    for q in (build_semidirect(2, 3, 1, 1, 3), build_wreath(2, 1, 2)):
        elems = list(elements(q))
        assert len(elems) == q.order
        for g in elems:
            assert q.mul(g, q.inv(g)) == q.identity
            assert q.mul(q.identity, g) == g
        rng = random.Random(70)
        for _ in range(60):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert q.mul(q.mul(x, y), z) == q.mul(x, q.mul(y, z))


def test_fq_pow_matches_repeated_mul():
    q = build_semidirect(2, 2, 1, 1, 3)
    g = (1, 1)
    acc = q.identity
    for e in range(10):
        assert power(q, g, e) == acc
        acc = q.mul(acc, g)
    assert power(q, g, -3) == q.inv(power(q, g, 3))


def test_gamma_chain_frozen_values():
    assert fq_gamma_series(build_semidirect(2, 2, 1, 1, 3)).sizes == [8, 2, 1]
    assert fq_gamma_series(build_semidirect(2, 3, 1, 1, 3)).sizes == [16, 4, 2, 1]
    assert fq_gamma_series(build_wreath(2, 1, 1)).sizes == [8, 2, 1]
    # u = 1 makes the group abelian
    assert fq_gamma_series(build_semidirect(3, 1, 1, 1, 1)).sizes == [9, 1]


def test_gamma2_of_semidirect_is_cyclic_on_u_minus_1():
    for q in (
        build_semidirect(2, 3, 1, 1, 3),
        build_semidirect(3, 2, 1, 1, 4),
        build_semidirect(2, 4, 2, 1, 5),
    ):
        pk = q.p**q.k
        expected = frozenset(((z * (q.u - 1)) % pk, 0) for z in range(pk))
        chain = fq_gamma_series(q)
        for g in elements(q):
            assert chain.contains(2, g) == (g in expected)
        with pytest.raises(DomainError, match="gamma index"):
            chain.contains(0, q.identity)


# Brute force lists every element; this bound keeps the sweep near a second
# and still reaches Z_5 wr Z_5 (order 15625) in the BS(5, 10) family.
BRUTE_ORDER_CAP = 20_000


def test_closed_form_matches_brute_force():
    seen = set()
    for m, n in ((1, 3), (1, 4), (1, 5), (2, 4), (2, -2), (3, 9), (4, 8), (5, 10)):
        for q in quotient_family(m, n):
            if q.order > BRUTE_ORDER_CAP or q in seen:
                continue
            seen.add(q)
            brute = brute_gamma_series(q)
            chain = fq_gamma_series(q)
            assert chain.sizes == [len(s) for s in brute], q.describe()
            for g in elements(q):
                for i in range(1, len(brute) + 3):
                    expected = g in brute[i - 1] if i <= len(brute) else g == q.identity
                    assert chain.contains(i, g) == expected, (q.describe(), g, i)
    assert Wreath(5, 1, 1) in seen and any(isinstance(q, Wreath) and q.e > 1 for q in seen)


def test_large_wreath_chains_frozen():
    # brute force agreed with these once (4.6 s and 12.0 s); too slow to repeat
    assert fq_gamma_series(Wreath(3, 1, 2)).sizes == [177147, 6561, 2187, 729, 243, 81, 27, 9, 3, 1]
    assert fq_gamma_series(Wreath(2, 2, 3)).sizes == [
        524288, 16384, 4096, 1024, 256, 128, 64, 32, 16, 8, 4, 2, 1,
    ]


# Every e = 1 wreath that build_wreath admits: p^j in {2, 4, 8, 16, 3, 9, 5, 7}.
E1_WREATHS = [Wreath(2, 1, j) for j in range(1, 5)] + [
    Wreath(3, 1, 1), Wreath(3, 1, 2), Wreath(5, 1, 1), Wreath(7, 1, 1),
]


def test_e1_wreath_terms_are_the_howell_terms(monkeypatch):
    for q in E1_WREATHS:
        build_wreath(q.p, q.e, q.j)  # admitted
        terms, want = finquot._wreath_terms(q), reference_wreath_terms(q)
        assert len(terms) == len(want) == q.p**q.j, q.describe()
        for got, ref in zip(terms, want):
            assert got == ref and repr(got) == repr(ref), q.describe()
    for p, j in ((2, 5), (3, 3), (5, 2), (7, 2), (11, 1)):  # and no others
        with pytest.raises(DomainError, match="exceeds the construction cap"):
            build_wreath(p, 1, j)
    # e >= 2 chains are still Howell forms, term for term as before; e = 1
    # writes its terms without one
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _howell(*args)

    monkeypatch.setattr(finquot, "_howell", counting)
    for q in E1_WREATHS:
        finquot._wreath_terms(q)
    assert calls == 0
    for q in (Wreath(2, 2, 3), Wreath(3, 2, 1), Wreath(2, 3, 1), Wreath(5, 2, 1)):
        assert finquot._wreath_terms(q) == reference_wreath_terms(q), q.describe()
    assert calls > 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))),
    st.integers(1, 3),
    st.data(),
)
def test_howell_form_matches_enumerated_span(pe, width, data):
    p, e = pe
    mod = p**e
    vectors = st.lists(st.integers(-mod, 2 * mod), min_size=width, max_size=width)
    gens = data.draw(st.lists(vectors, min_size=0, max_size=3))
    span = {
        tuple(sum(c * g[col] for c, g in zip(cs, gens)) % mod for col in range(width))
        for cs in itertools.product(range(mod), repeat=len(gens))
    }
    rows = _howell(gens, p, e)
    assert math.prod(mod // pa for _, pa, _ in rows) == len(span)
    for v in itertools.product(range(mod), repeat=width):
        assert _in_span(rows, v, mod) == (v in span)


def _shifted_power_combination(q: Wreath, i: int, coeffs) -> tuple:
    """sum_s coeffs[s] * x^s (x - 1)^(i-1) in Z_{p^e}[x]/(x^L - 1)."""
    L, pe = q.p**q.j, q.p**q.e
    g = [1] + [0] * (L - 1)
    for _ in range(i - 1):
        g = [(g[s - 1] - g[s]) % pe for s in range(L)]
    return tuple(
        sum(c * g[(r - s) % L] for s, c in enumerate(coeffs)) % pe for r in range(L)
    )


@st.composite
def _wreath_gamma_elements(draw):
    """(q, i, g, h) with g, h in gamma_i, built from the generators of gamma_i."""
    q = draw(st.sampled_from((Wreath(2, 1, 4), Wreath(3, 1, 2), Wreath(2, 2, 3))))
    L, pe = q.p**q.j, q.p**q.e
    i = draw(st.integers(1, len(fq_gamma_series(q).sizes) + 1))
    pair = []
    for _ in range(2):
        coeffs = draw(st.lists(st.integers(0, pe - 1), min_size=L, max_size=L))
        if i == 1:
            pair.append((tuple(coeffs), draw(st.integers(0, L - 1))))
        else:
            pair.append((_shifted_power_combination(q, i, coeffs), 0))
    return q, i, *pair


@settings(max_examples=150, deadline=None)
@given(_wreath_gamma_elements())
def test_wreath_chain_is_a_central_series(case):
    # gamma_i normal and [gamma_i, G] <= gamma_{i+1} mean the chain contains
    # the lower central series term by term, which is what certificates need.
    q, i, g, h = case
    chain = fq_gamma_series(q)
    mul, inv = q.mul, q.inv
    assert chain.contains(i, g) and chain.contains(i, h)
    assert chain.contains(i, mul(g, h)) and chain.contains(i, inv(g))
    for x in generator_images(q):
        assert chain.contains(i, mul(mul(inv(x), g), x))
        assert chain.contains(i + 1, mul(mul(inv(g), inv(x)), mul(g, x)))


def test_verify_rebuilds_the_chain(monkeypatch):
    cert = certify_not_in_gamma(1, 3, parse_word("a^2"), 3)
    # a poisoned cache does not change the verdict: verify builds its own chain
    monkeypatch.setattr("bsgroups.finquot.fq_gamma_series", lambda q: None)
    assert cert.verify()
    # a^2 lies in gamma_2 of BS(1, 3), so a claim at i = 2 must be refused
    forged = Certificate(1, 3, cert.levels, cert.quotient, cert.image, 2, cert.gamma_sizes)
    assert not forged.verify()
    # each recomputed fact is checked: the image, the chain, the relation
    assert cert.levels == (((0, 2),), 0)
    assert cert.image == (2, 0) and cert.gamma_sizes == (8, 2, 1)
    assert not cert._replace(image=(3, 0)).verify()
    # the image is refolded from the stored levels: a^3 for a^2, or a t-sum
    # of -1 for 0, folds to another image
    assert not cert._replace(levels=(((0, 3),), 0)).verify()
    assert not cert._replace(levels=(((0, 2),), 1)).verify()
    assert cert._replace(levels=(((0, 2), (1, 4)), 0)).verify()  # 4 u = 0 mod 4
    assert not cert._replace(gamma_sizes=(8, 2, 2)).verify()
    # Z_4 x| Z_2 with t acting trivially is abelian, so t^-1 a t = a^3 fails
    # in it; with its own image and chain, only the relation check refuses it
    q = Semidirect(2, 2, 1, 1)
    assert not bs_relation_holds(q, 1, 3)
    forged = cert._replace(quotient=q, image=q.fold({0: 2}, 0),
                           gamma_sizes=tuple(fq_gamma_series(q).sizes))
    assert not forged.verify()


def test_certify_sums_the_levels_once(monkeypatch):
    # all 18 quotients of BS(1, 3) fold the same level sums, and verify()
    # refolds the certificate's copy of them: one call for both
    from bsgroups import finquot

    w = parse_word("[a, t]^2 T a^2 t")
    searched = 0

    def counting(v):
        nonlocal searched
        searched += v == w
        return level_sums(v)

    monkeypatch.setattr(finquot, "level_sums", counting)
    assert len(quotient_family(1, 3)) == 18
    cert = certify_not_in_gamma(1, 3, w, 3)
    assert cert is not None and searched == 1
    assert cert.verify() and searched == 1
    # an inconclusive search also reads the word once: a 4-fold
    # [..[a, t].., t] lies in gamma_5
    w = parse_word("[[[[a, t], t], t], t]")
    searched = 0
    assert certify_not_in_gamma(1, 3, w, 5) is None
    assert searched == 1


CACHED_GROUPS = ((1, 3), (1, 4), (2, 4), (2, -2), (4, 8), (5, 10))
TIGHT_BUDGET = SearchBudget(k_max=2, j_max=2, order_cap=2_000)


@st.composite
def _certify_cases(draw):
    """A group, a budget, an index and a word: a free word of up to six
    syllables, nested in up to four commutators with t or a^m."""
    m, n = draw(st.sampled_from(CACHED_GROUPS))
    syllable = st.tuples(st.sampled_from("at"), st.integers(-4, 4).filter(bool))
    w = Word.from_pairs(draw(st.lists(syllable, max_size=6)))
    for _ in range(draw(st.integers(0, 4))):
        x = parse_word("t") if draw(st.booleans()) else Word.from_pairs((("a", m),))
        w = commutator(w, x)
    budget = draw(st.sampled_from((SearchBudget(), TIGHT_BUDGET)))
    return m, n, w, draw(st.integers(2, 6)), budget


@settings(max_examples=300, deadline=None)
@given(_certify_cases())
def test_cached_family_certifies_as_the_search_per_query(case):
    m, n, w, i, budget = case
    want = reference_certify(m, n, w, i, budget)
    assert certify_not_in_gamma(m, n, w, i, budget) == want
    assert certify_not_in_gamma(m, n, w, i, budget) == want  # from the warm cache


def test_family_is_built_and_checked_once_per_group(monkeypatch):
    finquot._checked_family.cache_clear()
    built, checked = 0, 0

    def counting_family(*args):
        nonlocal built
        built += 1
        return quotient_family(*args)

    def counting_relation(*args):
        nonlocal checked
        checked += 1
        return bs_relation_holds(*args)

    monkeypatch.setattr(finquot, "quotient_family", counting_family)
    monkeypatch.setattr(finquot, "bs_relation_holds", counting_relation)
    for text in ("a", "[[[[a, t], t], t], t]", "a^2", "[a, t]"):
        certify_not_in_gamma(1, 3, parse_word(text), 5)
    assert built == 1 and checked == len(quotient_family(1, 3)) == 18


def test_refused_family_is_never_cached(monkeypatch):
    finquot._checked_family.cache_clear()
    family = quotient_family(1, 3)
    refused = family[-1]  # "a" is certified by family[0]: the search never reaches it
    monkeypatch.setattr(
        finquot, "bs_relation_holds", lambda q, m, n: q != refused and bs_relation_holds(q, m, n)
    )
    for _ in range(3):
        with pytest.raises(VerificationError, match=r"invalid quotient Z_\d+ x\|_3 Z_\d+"):
            certify_not_in_gamma(1, 3, parse_word("a"), 2)
    assert finquot._checked_family.cache_info().currsize == 0
    monkeypatch.undo()
    cert = certify_not_in_gamma(1, 3, parse_word("a"), 2)
    assert cert == reference_certify(1, 3, parse_word("a"), 2)
    assert cert.quotient == family[0]


def test_two_budgets_keep_two_families():
    finquot._checked_family.cache_clear()
    w = parse_word("a^2")
    tight = SearchBudget(k_max=1)
    # a^2 lies outside gamma_3 only in Z_4 x|_3 Z_2, which needs k = 2
    assert certify_not_in_gamma(1, 3, w, 3, tight) is None
    cert = certify_not_in_gamma(1, 3, w, 3)
    assert cert.quotient == Semidirect(2, 2, 1, 3)
    assert certify_not_in_gamma(1, 3, w, 3, tight) is None
    assert finquot._checked_family.cache_info().currsize == 2
    assert finquot._checked_family(1, 3, tight) == tuple(quotient_family(1, 3, tight))
    assert finquot._checked_family(1, 3, SearchBudget()) == tuple(quotient_family(1, 3))


def test_relation_holds_across_family():
    for m, n in ((1, 3), (1, 5), (2, 4), (2, -2), (6, 6)):
        fam = quotient_family(m, n)
        assert fam, (m, n)
        orders = [q.order for q in fam]
        assert orders == sorted(orders)
        relator = Word.from_pairs((("t", -1), ("a", m), ("t", 1), ("a", -n)))
        for q in fam:
            assert bs_relation_holds(q, m, n)
            assert product_fq_eval(q, relator) == q.identity  # by the product rule
            assert q.order <= DEFAULT_ORDER_CAP


def test_family_respects_budget():
    tight = SearchBudget(k_max=2, j_max=1, order_cap=100)
    for q in quotient_family(1, 3, tight):
        assert q.order <= 100
    assert quotient_family(2, 3) == []  # |n - m| = 1 and gcd = 1: nothing fits


# The groups of the certify benchmark and of the CLI goldens.
FAMILY_GROUPS = [
    (1, 3), (1, 4), (2, 4), (2, -2), (5, 10),
    (1, -999962000356), (1, -5), (1, -1), (1, 2), (1, 9999399974), (1, 999962000358),
    (2, -4), (2, -3), (2, 3), (2, 5), (2, 6), (6, 6), (999962000357, -999962000357),
]


def test_family_matches_the_family_that_formed_every_order():
    for (m, n), cap in itertools.product(FAMILY_GROUPS, (1, 100, 10**6, 10**9)):
        for k_max, j_max in itertools.product(range(9), range(7)):
            # the old family formed p^(e p^j + j) for each p | gcd(m, n), which
            # never ends for p = 999962000357 and j >= 1
            if any(p**j_max > 10**4 for p in prime_factors(math.gcd(m, n))):
                continue
            budget = SearchBudget(k_max, j_max, cap)
            assert quotient_family(m, n, budget) == reference_quotient_family(m, n, budget)


def test_sizes_past_the_cap_are_refused_without_forming_them():
    start = time.perf_counter()
    # |Z_2 wr Z_2^40| = 2^(2^40 + 40) and p^(3000 + j) are compared as exponents
    assert quotient_family(2, 4, SearchBudget(j_max=40)) == quotient_family(2, 4)
    assert quotient_family(1, 3, SearchBudget(k_max=3000)) == quotient_family(
        1, 3, SearchBudget(k_max=20)
    )
    huge = 10**30
    assert quotient_family(2, 4, SearchBudget(huge, huge, huge)) == quotient_family(
        2, 4, SearchBudget(100, 100, huge)
    )
    for build in (
        lambda: build_wreath(3, 1, 25),
        lambda: build_wreath(2, 1, huge),
        lambda: build_wreath(2, huge, 1),
        lambda: build_semidirect(2, huge, 1, 1, 3),
        lambda: build_semidirect(2, 1, huge, 1, 3),
    ):
        with pytest.raises(DomainError, match="construction cap"):
            build()
    assert time.perf_counter() - start < 1.0


def test_family_starts_at_the_p_part_of_the_order_of_u():
    # m = 1, n = u puts u itself on the action; its order mod p^k is a power of p
    for p, k_max in ((2, 8), (3, 5), (5, 3), (7, 3)):
        budget = SearchBudget(k_max=k_max, j_max=k_max, order_cap=p ** (2 * k_max))
        for u in range(1 + p, p**k_max, p):
            fam = quotient_family(1, u, budget)
            for k in range(1, k_max + 1):
                want = max(1, valuation(multiplicative_order(u, p**k), p))
                js = [q.j for q in fam if isinstance(q, Semidirect) and (q.p, q.k) == (p, k)]
                assert js == list(range(want, k_max + 1)), (p, k, u)


def test_fq_eval_is_well_defined_on_the_group():
    rng = random.Random(71)
    cases = [
        ((1, 3), build_semidirect(2, 3, 1, 1, 3)),
        ((2, 4), build_wreath(2, 1, 2)),
    ]
    for (m, n), q in cases:
        p = BSParams(m, n)
        for _ in range(40):
            w = rand_word(rng)
            assert fq_eval(q, insert_relator(rng, p, w)) == fq_eval(q, w)
            assert fq_eval(q, w * w.inverse()) == q.identity


class _CountingQuotient:
    """Forwards to a quotient and counts its mul and inv calls."""

    def __init__(self, q):
        self.q = q
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.q, name)

    def mul(self, g, h):
        self.calls += 1
        return self.q.mul(g, h)

    def inv(self, g):
        self.calls += 1
        return self.q.inv(g)


def test_fq_eval_inverse_syllable_costs_one_inverse():
    q = _CountingQuotient(build_wreath(2, 1, 4))  # Z_2 wr Z_16, order 2^20
    for text in ("t^-1", "a^-1"):
        q.calls = 0
        image = fq_eval(q, parse_word(text))
        assert q.calls == 0  # a closed form: no group product at all
        assert image == q.inv(fq_eval(q.q, parse_word(text[0])))


# Quotients whose closed-form images are checked against the product rule:
# the families of these groups (BS(8, -8) brings e = 3 wreaths, BS(4, 8) and
# BS(9, -18) e = 2), and the semidirect quotient of BS(3, -5) of order 2^363.
IMAGE_QUOTIENTS = {
    (m, n): quotient_family(m, n)
    for m, n in ((1, 3), (1, 4), (2, 4), (2, -2), (5, 10), (4, 8), (3, -5), (8, -8), (9, -18))
}
IMAGE_QUOTIENTS[3, -5].append(Semidirect(2, 183, 180, -5 * pow(3, -1, 2**183) % 2**183))


@st.composite
def _image_cases(draw):
    """A group of IMAGE_QUOTIENTS and a word over it with t-runs up to 10^12,
    a-exponents up to 10^30 and up to two spliced relators."""
    m, n = draw(st.sampled_from(sorted(IMAGE_QUOTIENTS)))
    exps = {
        "a": st.one_of(st.integers(-4, 4), st.integers(-10**30, 10**30)),
        "t": st.one_of(st.integers(-4, 4), st.integers(-10**12, 10**12)),
    }
    syllable = st.sampled_from("at").flatmap(lambda g: st.tuples(st.just(g), exps[g]))
    pairs = draw(st.lists(syllable, max_size=10))
    relator = [("t", -1), ("a", m), ("t", 1), ("a", -n)]
    for _ in range(draw(st.integers(0, 2))):
        cut = draw(st.integers(0, len(pairs)))
        pairs[cut:cut] = relator if draw(st.booleans()) else [(g, -e) for g, e in relator[::-1]]
    return (m, n), Word.from_pairs(pairs)


def test_image_quotients_are_quotients():
    kinds = {(type(q), getattr(q, "e", 1)) for qs in IMAGE_QUOTIENTS.values() for q in qs}
    assert kinds >= {(Semidirect, 1), (Wreath, 1), (Wreath, 2), (Wreath, 3)}
    for (m, n), qs in IMAGE_QUOTIENTS.items():
        assert all(bs_relation_holds(q, m, n) for q in qs), (m, n)
    big = IMAGE_QUOTIENTS[3, -5][-1]
    assert big.order == 2**363 and pow(big.u, 2**180, 2**183) == 1 != pow(big.u, 2**179, 2**183)


@settings(max_examples=200, deadline=None)
@given(_image_cases())
def test_closed_form_image_matches_products(case):
    group, w = case
    for q in IMAGE_QUOTIENTS[group]:
        assert fq_eval(q, w) == product_fq_eval(q, w), (q, str(w))


def test_quotients_are_groups_for_evaluate():
    # a record is a fold, not a Group; wrapped in one with its product rule,
    # it evaluates expressions to the images that fq_eval folds
    for q in (build_semidirect(2, 3, 1, 1, 3), build_wreath(2, 2, 2)):
        G = Group(q.identity, lambda w, q=q: q.fold(*level_sums(w)), q.mul, q.inv)
        for text in ("[[a, t], t]", "(a^3 T)^5 [a^2, t^-1]", "T^7 a t^7"):
            assert evaluate(G, parse_expr(text)) == fq_eval(q, parse_word(text)), text


# Semidirect primes, wreath primes, n = m and n = -m.
TEXT_GROUPS = ((1, 3), (2, 4), (3, -5), (2, -2), (4, 8), (6, 6), (1, -7), (9, -9), (5, 10))
_LETTERS = st.sampled_from([Gen("a"), Gen("t"), Power(Gen("a"), -1), Power(Gen("t"), -1)])


def _exprs(depth: int):
    """Expressions of depth at most `depth`, with powers up to +-9."""
    if depth == 0:
        return _LETTERS
    kids = _exprs(depth - 1)
    return st.one_of(
        _LETTERS,
        st.builds(Power, kids, st.integers(-9, 9)),
        st.builds(lambda fs: Product(tuple(fs)), st.lists(kids, min_size=1, max_size=3)),
        st.builds(Commutator, kids, kids),
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TEXT_GROUPS), _exprs(5), st.integers(2, 6))
def test_text_certifies_as_its_word(group, expr, i):
    # a text is evaluated in each quotient by its law, a Word folded: the
    # same search answer, and every member's value is the product rule's
    m, n = group
    text = pretty_print(expr)
    w = parse_word(text)
    got, want = certify_not_in_gamma(m, n, text, i), certify_not_in_gamma(m, n, w, i)
    assert (got is None) == (want is None), text
    if got is not None:
        assert got[3:] == want[3:], text  # quotient, image, i, gamma_sizes
        assert got.verify()
    tree = parse_expr(text)
    for q in quotient_family(m, n):
        assert evaluate(_group(q), tree) == product_fq_eval(q, w), (q, text)


def test_text_powers_cost_no_word():
    # (10^290000)-th powers are taken in each quotient with the exponent
    # reduced mod p^(k + j): no free word, and no squaring per bit
    huge = "1" + "0" * 290_000
    start = time.perf_counter()
    assert certify_not_in_gamma(1, 3, f"[a,t]^{huge}", 3) is None  # [a, t]^even is 2^k a^2k
    odd = certify_not_in_gamma(1, 3, f"[a,t]^{huge[:-1]}1", 3)
    assert time.perf_counter() - start < 1.0
    assert odd[3:] == certify_not_in_gamma(1, 3, parse_word("[a,t]"), 3)[3:]
    assert odd.levels == (((0, 2),), 0) and odd.verify()


def test_text_parse_error_comes_first():
    # read before the index and the parameters are checked, as the CLI did
    with pytest.raises(ParseError, match=r"^expected an integer \(at position 2\)$"):
        certify_not_in_gamma(0, 3, "a^", 1)
    with pytest.raises(DomainError, match="index"):
        certify_not_in_gamma(0, 3, "a^2", 1)


def test_certify_examples():
    cert = certify_not_in_gamma(1, 3, parse_word("a^2"), 3)
    assert cert is not None
    assert cert.verify()
    assert cert.i == 3
    assert "lies outside gamma_3" in cert.statement

    # a^2 does lie in gamma_2, so no sound certificate can exist there
    assert certify_not_in_gamma(1, 3, parse_word("a^2"), 2) is None

    cert = certify_not_in_gamma(2, 4, parse_word("a"), 4)
    assert cert is not None and cert.verify()

    assert certify_not_in_gamma(2, 3, parse_word("a"), 2) is None

    with pytest.raises(DomainError):
        certify_not_in_gamma(1, 3, parse_word("a"), 1)


def test_certificate_json_schema():
    cert = certify_not_in_gamma(1, 3, parse_word("a^2"), 3)
    d = cert.to_json_dict()
    assert set(d) == {"quotient", "p", "k", "j", "image", "i", "gamma_sizes"}
    assert d["i"] == 3
    assert isinstance(d["image"], list)
    assert d["gamma_sizes"][-1] == 1


def test_certificate_json_matches_hand_written_json():
    kinds = set()
    for (m, n), text, i in CERT_GRID:
        cert = certify_not_in_gamma(m, n, parse_word(text), i)
        if cert is None:
            continue
        kinds.add(type(cert.quotient))
        assert_same_json(cert.to_json_dict(), reference_certificate_json(cert))
    assert kinds == {Semidirect, Wreath}


def test_certificate_json_does_not_walk_the_word(monkeypatch):
    # the JSON leaves the word out, so rendering it must not walk the word:
    # every json_fields call, nested ones too, is counted
    w = parse_word("(T [[a, t], t] t)^100001")
    assert len(w.syllables) == 800_009
    cert = certify_not_in_gamma(1, 3, w, 4)
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return json_fields(x)

    monkeypatch.setitem(json_fields.__globals__, "json_fields", counting)  # its recursion
    monkeypatch.setattr(finquot, "json_fields", counting)
    d = cert.to_json_dict()
    assert calls < 100
    assert d["image"] == [4, 0]
    assert_same_json(d, reference_certificate_json(cert))


def test_certificate_text_matches_handler_text():
    kinds = set()
    for (m, n), text, i in CERT_GRID:
        cert = certify_not_in_gamma(m, n, parse_word(text), i)
        if cert is not None:
            kinds.add(type(cert.quotient))
            assert str(cert) == reference_certificate_text(cert)
    assert kinds == {Semidirect, Wreath}


def test_certify_deeper_weights():
    # weight(a^4) = 3 in BS(1, 3): certifiable outside gamma_4, silent at 3
    cert = certify_not_in_gamma(1, 3, parse_word("a^4"), 4)
    assert cert is not None and cert.verify()
    assert certify_not_in_gamma(1, 3, parse_word("a^4"), 3) is None


def test_certificate_survives_word_rewriting():
    # equal words get equal images, so certificates transfer along nf_equal
    p = BSParams(1, 3)
    u, v = parse_word("a^2"), parse_word("t^-1 a^2 t a^-4")
    assert nf_equal(p, u, v)
    ca = certify_not_in_gamma(1, 3, u, 3)
    cb = certify_not_in_gamma(1, 3, v, 3)
    assert ca is not None and cb is not None
    assert ca.image == cb.image and ca.quotient == cb.quotient


def test_semidirect_identity_action_for_equal_params():
    fam = quotient_family(3, 3)
    assert fam
    assert all(isinstance(q, (Semidirect,)) or q.p == 3 for q in fam)
    for q in fam:
        if isinstance(q, Semidirect):
            assert q.u == 1
            assert bs_relation_holds(q, 3, 3)
