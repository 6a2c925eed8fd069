import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgroups.britton import BSParams, nf_equal
from bsgroups.errors import DomainError
from bsgroups.finquot import (
    Certificate,
    SearchBudget,
    Semidirect,
    Wreath,
    _howell,
    _in_span,
    bs_relation_holds,
    build_semidirect,
    build_wreath,
    certify_not_in_gamma,
    fq_eval,
    fq_gamma_series,
    fq_pow,
    quotient_family,
)
from bsgroups.words import parse_word

from helpers import brute_gamma_series, elements, insert_relator, rand_word

DEFAULT_ORDER_CAP = SearchBudget().order_cap


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


def test_build_wreath():
    q = build_wreath(2, 1, 1)
    assert q.order == 8
    assert q.describe() == "Z_2 wr Z_2"
    with pytest.raises(DomainError):
        build_wreath(2, 2, 4)  # 2^36 over the cap


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
        assert fq_pow(q, g, e) == acc
        acc = q.mul(acc, g)
    assert fq_pow(q, g, -3) == q.inv(fq_pow(q, g, 3))


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
    for x in (q.a_img, q.t_img):
        assert chain.contains(i, mul(mul(inv(x), g), x))
        assert chain.contains(i + 1, mul(mul(inv(g), inv(x)), mul(g, x)))


def test_verify_rebuilds_the_chain(monkeypatch):
    cert = certify_not_in_gamma(1, 3, parse_word("a^2"), 3)
    # a poisoned cache does not change the verdict: verify builds its own chain
    monkeypatch.setattr("bsgroups.finquot.fq_gamma_series", lambda q: None)
    assert cert.verify()
    # a^2 lies in gamma_2 of BS(1, 3), so a claim at i = 2 must be refused
    forged = Certificate(1, 3, cert.word, cert.quotient, cert.image, 2, cert.gamma_sizes)
    assert not forged.verify()


def test_relation_holds_across_family():
    for m, n in ((1, 3), (1, 5), (2, 4), (2, -2), (6, 6)):
        fam = quotient_family(m, n)
        assert fam, (m, n)
        orders = [q.order for q in fam]
        assert orders == sorted(orders)
        for q in fam:
            assert bs_relation_holds(q, m, n)
            assert q.order <= DEFAULT_ORDER_CAP


def test_family_respects_budget():
    tight = SearchBudget(k_max=2, j_max=1, order_cap=100)
    for q in quotient_family(1, 3, tight):
        assert q.order <= 100
    assert quotient_family(2, 3) == []  # |n - m| = 1 and gcd = 1: nothing fits


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
