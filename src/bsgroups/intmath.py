"""Small integer helpers: factoring and valuations.

Factoring is trial division by small numbers, then Brent-Pollard rho
(Pollard, BIT 15, 1975) with deterministic Miller-Rabin, exact below
MR_EXACT_BOUND (about 3.3 * 10**24).
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import DomainError


# Prime factors below this bound are found by trial division; larger ones
# by Pollard rho, certified by Miller-Rabin.
_TRIAL_BOUND = 100
# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981
# Rho steps spent on a cofactor above MR_EXACT_BOUND, of at most
# _RHO_BUDGET_BITS bits, before giving up.  A step on a larger cofactor is
# charged by the square of its size in units of _RHO_BUDGET_BITS, as its
# multiply and schoolbook reduction cost, so a search that fails takes
# about the same time at any size.
_RHO_BUDGET = 1 << 20
_RHO_BUDGET_BITS = 128


def prime_factors(n: int) -> dict[int, int]:
    """Factor |n| > 0, returned as {prime: multiplicity}.

    Exact below MR_EXACT_BOUND.  Above it, a cofactor that passes every
    Miller-Rabin base, or that Pollard rho cannot split within its budget,
    raises DomainError.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    f = 2
    while f < _TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    # n has no factor below f now.  Both pieces of every rho split wait on
    # `pending`, the smaller one on top, and each piece is tested once.  A
    # prime takes its whole valuation in n at once and is divided out of every
    # piece still waiting.
    pending = [n] if n > 1 else []
    while pending:
        c = pending.pop()
        if c < f * f or _is_prime_cofactor(c):
            out[c] = 1 if c == n else valuation(n, c)
            if pending:
                pending = [r for r in (x // c ** valuation(x, c) for x in pending) if r > 1]
        else:
            d = _rho(c)
            pending += sorted((d, c // d), reverse=True)
    return out


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_cofactor(c: int) -> bool:
    """Primality of c >= _TRIAL_BOUND**2 with no prime factor below _TRIAL_BOUND."""
    if not all(_strong_probable_prime(c, a) for a in _MR_BASES):
        return False
    if c < MR_EXACT_BOUND:
        return True
    raise DomainError(f"cannot factor {c}: Miller-Rabin is exact only below {MR_EXACT_BOUND}")


def _rho(n: int) -> int:
    """A proper factor of the odd composite n (Brent's variant of Pollard rho).

    Below MR_EXACT_BOUND it retries until it succeeds, which takes about
    sqrt(p) steps for the smallest prime factor p <= 1.9 * 10**12.
    """
    budget = None
    if n >= MR_EXACT_BOUND:
        budget = _RHO_BUDGET * _RHO_BUDGET_BITS**2 // max(_RHO_BUDGET_BITS, n.bit_length()) ** 2
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget is not None and steps > budget:
                raise DomainError(f"cannot factor {n} within {budget} Pollard rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Exact below MR_EXACT_BOUND; above it, a prime n raises DomainError."""
    return n > 1 and prime_factors(n) == {n: 1}


def prime_power(n: int) -> tuple[int, int] | None:
    """If |n| = p**e with e >= 1, return (p, e); otherwise None.

    1 is not treated as a prime power.
    """
    n = abs(n)
    if n < 2:
        return None
    fac = prime_factors(n)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return p, e


def valuation(x: int, p: int) -> int:
    """p-adic valuation of x != 0 (of |x|; sign is ignored)."""
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v

