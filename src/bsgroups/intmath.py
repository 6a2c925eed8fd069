"""Small integer helpers: factoring, valuations and decimal text.

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
        if n % f == 0:
            out[f] = valuation(n, f)
            n //= f ** out[f]
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
    s = valuation(n - 1, 2)
    d = (n - 1) >> s
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
    raise DomainError(f"cannot factor {decimal(c)}: Miller-Rabin is exact only below {MR_EXACT_BOUND}")


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
                raise DomainError(f"cannot factor {decimal(n)} within {budget} Pollard rho steps")
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
    """Largest v with p^v dividing x != 0, for |p| >= 2 (p need not be prime).

    v = 0 and v = 1, the common cases, cost one and two divisions.  Past
    them a squaring ladder divides by p, p^2, p^4, ... while each divides,
    then tries the same squares on the way down, so v costs O(log v)
    divisions.
    """
    if not x:
        raise ValueError("valuation of 0 is infinite")
    if -2 < p < 2:
        raise ValueError(f"valuation needs |p| >= 2, got p = {p}")
    q, r = divmod(x, p)
    if r:
        return 0
    x, r = divmod(q, p)
    if r:
        return 1
    # p^2 is out: the ladder counts the factors of p left in x
    squares = []
    q, r = divmod(x, p)
    while not r:
        squares.append(p)
        x, p = q, p * p
        q, r = divmod(x, p)
    # 2 + 2^len(squares) - 1 factors are out, and fewer than 2^len(squares)
    # are left: read the binary digits of their count from the largest square
    # down
    v = 0
    for s in reversed(squares):
        q, r = divmod(x, s)
        x, v = (x, 2 * v) if r else (q, 2 * v + 1)
    return v + (1 << len(squares)) + 1


# CPython (3.10.7 on) refuses int <-> str conversions past a process-wide
# digit limit, 4300 by default and never below 640.
_PIECE = 640


def decimal(x):
    """str(x) for an int, int(x) for a decimal string, at any length.

    Long numbers are converted in pieces of at most _PIECE digits, so the
    process-wide limit is never met and never changed.
    """
    if isinstance(x, str):
        if x[:1] == "-":
            return -decimal(x[1:])
        if len(x) <= _PIECE:
            return int(x)
        h = len(x) // 2
        return decimal(x[:-h]) * 10**h + decimal(x[-h:])
    if x < 0:
        return "-" + decimal(-x)
    if x.bit_length() <= 3 * _PIECE:  # under 10^_PIECE
        return str(x)
    h = int(x.bit_length() * 0.30103) // 2  # about half the digits
    hi, lo = divmod(x, 10**h)
    return decimal(hi) + decimal(lo).zfill(h)
