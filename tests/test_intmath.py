import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgroups import intmath
from bsgroups.errors import DomainError
from bsgroups.intmath import MR_EXACT_BOUND, is_prime, prime_factors, valuation

from helpers import reference_valuation, trial_factors


def test_prime_factors_match_trial_division():
    for n in range(1, 10**5):
        assert prime_factors(n) == trial_factors(n), n
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        assert prime_factors(n) == trial_factors(n), n


def test_prime_factors_beyond_trial_division():
    # products of two primes near 10^9 and 10^12, and a square of a prime
    assert prime_factors(998244359987710471) == {998244353: 1, 1000000007: 1}
    assert prime_factors(999999999959 * 999999999989) == {999999999959: 1, 999999999989: 1}
    assert prime_factors(-(1000003**2) * 12) == {2: 2, 3: 1, 1000003: 2}
    assert prime_factors(2**61 - 1) == {2**61 - 1: 1}
    assert is_prime(2**61 - 1) and not is_prime(561) and not is_prime(1)


# The primes rho has to find: trial division takes every factor below 100.
_RHO_PRIMES = [p for p in range(101, 10**4) if trial_factors(p) == {p: 1}]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_RHO_PRIMES), min_size=1, max_size=12), st.integers(0, 10**4))
def test_prime_factors_of_products_of_rho_primes(primes, small):
    n = small + 1
    for p in primes:
        n *= p
    assert prime_factors(n) == trial_factors(n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_RHO_PRIMES), min_size=1, max_size=8, unique=True))
def test_rho_splits_a_product_of_k_primes_k_minus_1_times(primes):
    # both pieces of a split are kept, so no prime has to be found twice
    n = 1
    for p in primes:
        n *= p
    splits = []
    rho = intmath._rho
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intmath, "_rho", lambda c: splits.append(c) or rho(c))
        assert prime_factors(n) == dict.fromkeys(primes, 1)
    assert len(splits) == len(primes) - 1


def test_prime_powers_are_divided_out_at_once():
    # each distinct cofactor gets one Miller-Rabin test, not one per rho split
    start = time.perf_counter()
    assert prime_factors(101**400) == {101: 400}
    assert prime_factors(101**150 * 9973**60 * 7) == {7: 1, 101: 150, 9973: 60}
    assert time.perf_counter() - start < 1.0


def test_unsplittable_cofactor_is_a_domain_error():
    p = 2**89 - 1  # a prime above the bound where Miller-Rabin is exact
    assert p > MR_EXACT_BOUND
    with pytest.raises(DomainError):
        prime_factors(p)
    with pytest.raises(DomainError):
        prime_factors(p * (2**61 - 1))  # both factors too large for the rho budget


def test_rho_budget_charges_for_the_cofactor_size():
    # up to 128 bits a cofactor gets 2^20 steps, as before
    p, q = 1125899906842679, 1125899906854711  # primes just above 2^50
    with pytest.raises(DomainError, match="within 1048576 Pollard rho steps"):
        prime_factors(p * q)
    # past 128 bits a step costs the square of the size in 128-bit units, so a
    # search that fails takes about the same time at any size
    for k in (100, 400):  # 281 and 1123 bits; test_cli runs 5615 bits through bs classify
        start = time.perf_counter()
        with pytest.raises(DomainError, match="Pollard rho steps"):
            prime_factors(7**k + 1)
        assert time.perf_counter() - start < 3.0, k


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from((2, 3, -2, -3, 4, 6, -6, 10, -12, 30, 2**61 - 1)), st.integers(2, 1000)),
    st.integers(-(10**12), 10**12).filter(bool),
    st.one_of(st.integers(0, 70), st.integers(0, 10**4)),
)
def test_valuation_matches_one_division_per_factor(p, c, v):
    # c may hold factors of p too: the valuation of c * p^v is v or more
    x = c * p**v
    assert valuation(x, p) == reference_valuation(x, p)
    assert valuation(-x, -p) == reference_valuation(x, p)


def test_valuation_below_two_costs_one_or_two_divisions(monkeypatch):
    # a module global divmod shadows the builtin for intmath alone
    calls = 0

    def counting(x, p):
        nonlocal calls
        calls += 1
        return divmod(x, p)

    monkeypatch.setattr(intmath, "divmod", counting, raising=False)
    for p in (2, 3, -5, 7, 2**61 - 1):
        for c in (1, -1, 11, 2**89 + 1, -(10**30 + 3)):
            if c % p == 0:
                continue
            for v, most in ((0, 1), (1, 2), (2, 3)):
                calls = 0
                assert valuation(c * p**v, p) == reference_valuation(c * p**v, p) == v
                assert calls == most, (p, c, v)


def test_valuation_refuses_units_zero_and_zero_modulus():
    for p in (-1, 0, 1):
        with pytest.raises(ValueError):
            valuation(12, p)
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_valuation_costs_o_log_v_divisions(monkeypatch):
    # a module global divmod shadows the builtin for intmath alone
    calls = 0

    def counting(x, p):
        nonlocal calls
        calls += 1
        return divmod(x, p)

    monkeypatch.setattr(intmath, "divmod", counting, raising=False)
    assert valuation(3 * 2**400_000, 2) == 400_000
    # one division per factor would make 400 000 calls
    assert 0 < calls <= 2 * math.log2(400_000) + 2
    calls = 0
    assert prime_factors(3 * 2**400_000) == {2: 400_000, 3: 1}
    assert 0 < calls <= 2 * math.log2(400_000) + 2
