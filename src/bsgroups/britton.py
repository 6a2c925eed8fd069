"""Britton normal forms for BS(m, n) = < a, t | t^-1 a^m t = a^n >.

An element is written a^{r0} t^{e1} a^{r1} ... t^{ek} a^{rk} with each t
exponent e_i = +-1.  The canonical (Britton) form requires

  * 0 <= r_i < |m| whenever e_i = -1, and 0 <= r_i < |n| whenever e_i = +1
    (r0 is unconstrained);
  * no pinch: never (e_i, r_i) = (-1, 0) followed by e_{i+1} = +1, and never
    (+1, 0) followed by -1.

Normalization pushes a-power multiples leftward through t letters,

    t^-1 a^{m q + r} -> a^{n q} t^-1 a^r      (0 <= r < |m|)
    t    a^{n q + r} -> a^{m q} t    a^r      (0 <= r < |n|)

and cancels pinches as they surface.  Each reduction is one divmod by |m| or
|n|; its quotient times n or m, signed once per call by the sign of m or n,
is the carry.  Two words are equal in BS(m, n) exactly
when their canonical forms coincide, for any nonzero m, n (no parameter
canonicalization happens here).  Exponents can grow like n^k, so every
addition is bit-capped.

The scan is linear in syllables plus tail entries.  One stack holds (0, r0)
and then the tail as (eps, r) tuples, and t^e is one step: canonicalize the
top, pop while it is (-sign e, 0), push the rest of the run whole.  While
the scan runs, the top lives in two locals and the list holds the entries
below it, so an a-syllable is one int add and a bit-length check, and a
t-syllable pushes the old top as one tuple.  The top's
carry waits in the entry below; every entry below a low-water mark lo stays
canonical.  A final top-down pass settles the deferred carries and stops at
the first entry at or below lo that passes on no carry.  It meets no pinch: a
carry from an upper neighbour of the other sign is a multiple of the entry's
modulus (t a^{nq} = a^{mq} t), and an entry gets a new upper neighbour only as
the top, where it is settled at once.  Every step applies a relation and the
result is canonical and pinch-free, so by uniqueness it is the same whenever
carries settle.  Only the bit cap can tell: a deferred sum holds up to one
carry per step, so it may need up to 1 + bit_length(steps) bits more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd

from .errors import DomainError, ExponentCapExceeded
from .words import ExpSums, Group, Word, decimal, exp_sums, resolve_max_bits
from . import words
from .words import _check_cap, _check_size


@dataclass(frozen=True, slots=True)
class BSParams:
    m: int
    n: int

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise DomainError("BS(m, n) requires nonzero m and n")

    @property
    def d(self) -> int:
        return gcd(abs(self.m), abs(self.n))


@dataclass(frozen=True, slots=True)
class BrittonNF:
    """Canonical form data: leading a-exponent plus (t-sign, a-residue) tail."""

    r0: int = 0
    tail: tuple[tuple[int, int], ...] = ()

    @property
    def is_identity(self) -> bool:
        return self.r0 == 0 and not self.tail

    def to_word(self) -> Word:
        pairs: list[tuple[str, int]] = [("a", self.r0)]
        for eps, r in self.tail:
            pairs.append(("t", eps))
            pairs.append(("a", r))
        return Word.from_pairs(pairs)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.r0 != 0:
            parts.append("a" if self.r0 == 1 else f"a^{decimal(self.r0)}")
        for eps, r in self.tail:
            bit = "t" if eps == 1 else "t^-1"
            if r != 0:
                bit += " a" if r == 1 else f" a^{decimal(r)}"
            parts.append(f"({bit})")
        return " ".join(parts) if parts else "1"


def _carry_factors(m: int, n: int) -> tuple[int, int]:
    """(fm, fn) with t^-1 a^(|m| q) = a^(fm q) t^-1 and t a^(|n| q) = a^(fn q) t."""
    return (n if m > 0 else -n), (m if n > 0 else -m)


def _settle(m: int, n: int, st: list, lo: int, cap: int) -> None:
    """The final pass: settle the deferred carries from the top down."""
    am, an = abs(m), abs(n)
    fm, fn = _carry_factors(m, n)
    carry = 0
    for i in range(len(st) - 1, 0, -1):
        eps, r = st[i]
        mod, f = (am, fm) if eps < 0 else (an, fn)
        q, rem = divmod(_check_cap(r + carry, cap) if carry else r, mod)
        if rem != r:
            st[i] = (eps, rem)
        carry = q * f
        if carry == 0 and i <= lo:
            return
    st[0] = (0, _check_cap(st[0][1] + carry, cap))


def _scan(m: int, n: int, st: list, lo: int, syllables, cap: int) -> None:
    """Read syllables onto the stack [(0, r0), (eps, r), ...], then settle it."""
    am, an = abs(m), abs(n)
    fm, fn = _carry_factors(m, n)
    # The top entry lives in (eps, r) and st holds the entries below it, so
    # the full stack is st + [(eps, r)] and its length is len(st) + 1.
    eps, r = st.pop()
    limit = words._MAX_SYLLABLES
    for g, e in syllables:
        if g == "a":
            r += e
            if r.bit_length() > cap:
                raise ExponentCapExceeded(r.bit_length(), cap)
            continue
        s, k = (1, e) if e > 0 else (-1, -e)
        while st:
            # canonicalize the top only; its carry waits in the entry below
            mod, f = (am, fm) if eps < 0 else (an, fn)
            if not 0 <= r < mod:
                q, r = divmod(r, mod)
                below_eps, below_r = st[-1]
                below_r += q * f
                if below_r.bit_length() > cap:
                    raise ExponentCapExceeded(below_r.bit_length(), cap)
                st[-1] = (below_eps, below_r)
                if len(st) <= lo:
                    lo = len(st) - 1 or 1  # st[0] is never settled
            if not k or r or eps != -s:
                break
            eps, r = st.pop()
            k -= 1
        size = len(st) + k  # the tail's length after the push
        if lo >= len(st):  # a push onto a clean stack keeps it clean
            lo = size + 1
        if size > limit:
            _check_size(size)  # bounds the tail before it is built
        if k:
            st.append((eps, r))
            if k > 1:
                st.extend([(s, 0)] * (k - 1))
            eps, r = s, 0
    st.append((eps, r))
    _settle(m, n, st, lo, cap)


def normalize(p: BSParams, w: Word, max_bits: int | None = None) -> BrittonNF:
    """Britton normal form of a word; solves the word problem for BS(m, n)."""
    st = [(0, 0)]
    _scan(p.m, p.n, st, 1, w.syllables, resolve_max_bits(max_bits))
    return BrittonNF(st[0][1], tuple(st[1:]))


def nf_multiply(p: BSParams, x: BrittonNF, y: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """Product of two canonical forms, computed by resuming the scan of x."""
    st = [(0, x.r0), *x.tail]
    ys = chain((("a", y.r0),), chain.from_iterable((("t", eps), ("a", r)) for eps, r in y.tail))
    _scan(p.m, p.n, st, len(st), ys, resolve_max_bits(max_bits))
    return BrittonNF(st[0][1], tuple(st[1:]))


def nf_invert(p: BSParams, x: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    return normalize(p, x.to_word().inverse(), max_bits)


def nf_equal(p: BSParams, u: Word, v: Word, max_bits: int | None = None) -> bool:
    return normalize(p, u, max_bits) == normalize(p, v, max_bits)


def bs_group(p: BSParams, max_bits: int | None = None) -> Group:
    """BS(m, n) on Britton normal forms."""
    cap = resolve_max_bits(max_bits)
    return Group(BrittonNF(), lambda w: normalize(p, w, cap),
                 lambda x, y: nf_multiply(p, x, y, cap), lambda x: nf_invert(p, x, cap))


def nf_is_valid(p: BSParams, nf: BrittonNF) -> bool:
    """Structural check used by tests: residue ranges plus pinch-freeness."""
    am, an = abs(p.m), abs(p.n)
    for i, (eps, r) in enumerate(nf.tail):
        if eps not in (-1, 1):
            return False
        if not 0 <= r < (am if eps == -1 else an):
            return False
        if r == 0 and i + 1 < len(nf.tail) and nf.tail[i + 1][0] == -eps:
            return False
    return True


@dataclass(frozen=True, slots=True)
class AbImage:
    """Image in the abelianization Z x Z_{|n-m|} (free part from t).

    modulus == 0 means n = m, where the a-part stays a full integer.
    """

    t_part: int
    a_part: int
    modulus: int = field(default=0)


def abelianize(p: BSParams, w: Word) -> AbImage:
    s: ExpSums = exp_sums(w)
    mod = abs(p.n - p.m)
    return AbImage(s.sigma_t, s.sigma_a % mod if mod else s.sigma_a, mod)
