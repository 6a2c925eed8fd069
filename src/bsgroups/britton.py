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

The scan starts from a normal form x and reads segments after it. A
segment is an a^x0 to add to the top, then blocks t^e a^x as plain (e, x)
pairs: a reduced Word's syllables alternate, so after a leading a-syllable
their exponents come in (t, a) pairs from one iterator; a normal form read
forward is its r0, then its tail's (eps, r) entries as they stand; read as
an inverse, a^-rk t^-ek ... t^-e1 a^-r0 is a^-rk, then the blocks
(-e_i, -r_(i-1)) off the reversed tail. normalize is one word segment,
nf_invert one inverse segment, nf_multiply x then y forward, and
bs_group's commutator [x, y] = x^-1 y^-1 x y four segments from the
identity: x and y inverse, then x and y forward. The scan builds its one
stack from x: (0, r0) and then the tail as (eps, r) tuples, all
canonical, and a block is one step: canonicalize the top, pop while it is
(-sign e, 0), push the rest of t^e whole, add x to the new top. While the
scan runs, the top lives in two locals and the list holds the entries below
it, so a push appends the old top as one tuple. The top's carry waits in the
entry below; every entry below a low-water mark lo stays canonical. A final
top-down pass settles the deferred carries and stops at the first entry at
or below lo that passes on no carry. It meets no pinch: a carry from an
upper neighbour of the other sign is a multiple of the entry's modulus
(t a^{nq} = a^{mq} t), and an entry gets a new upper neighbour only as the top,
where it is settled at once. Every step applies a relation and the result is
canonical and pinch-free, so by uniqueness it is the same whenever carries
settle. Only the bit cap can tell: a deferred sum holds up to one carry per
step, so it may need up to 1 + bit_length(steps) bits more.

Two kinds of input skip the per-block step. A forward segment is canonical
and has no pinch, so once one of its blocks pushes, every later one pushes
too, unchanged and with no carry: the scan settles the carries that wait
below, checks the size with the rest of the segment, and copies the rest
as it is. A product so costs its seam plus a copy, and so does each forward
half of a commutator, whose scan holds x^-1 y^-1 x on its way: that prefix,
which x^-1 y^-1 x y built from products never builds, must fit the size
limit even where y would cancel it. And when a block t^s a^x with |s| = 1
finds the canonicalized top equal to (s, x), x is canonical for s
(0 <= x < |m| if s = -1, 0 <= x < |n| if s = +1), so this block and every
equal one after it push (s, x) and leave the top as it is: a run of c
copies is one extend of the stack, counted by comparing slices of the
word's syllables at C speed. The scan looks for the run only when the entry
below the top equals (s, x) as well, at a third copy, so the pairs of equal
blocks that random words hold cost one comparison each. The test is on the
block's own exponent: a t^{2s} block that pops once also ends with one t to
push, but each further copy of it pushes two entries. Neither shortcut adds
a carry or a step, so the cap slack above is unchanged. A run push, of a
t^e block or of equal blocks, builds no temporary list: the stack is
extended from itertools.repeat.

bs_group's power of a^r is a^(re). Any other x^e is square-and-multiply,
after one size check: when x x pops nothing at its seam, neither does any
seam of x^j with x, since the last entry of x^j is x's own and decides the
seam the same way, so x^e has exactly |e| times x's tail entries, and a
power past the limit is refused before any squaring.
"""

from __future__ import annotations

from itertools import chain, compress, count, islice, repeat, zip_longest
from math import gcd
from operator import itemgetter, length_hint, ne, neg
from typing import NamedTuple

from .errors import DomainError, ExponentCapExceeded
from .words import Group, Word, decimal, level_sums, power, resolve_max_bits
from . import words
from .words import _check_cap, _check_size


class BSParams(NamedTuple("BSParams", [("m", int), ("n", int)])):
    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m == 0 or n == 0:
            raise DomainError("BS(m, n) requires nonzero m and n")
        return super().__new__(cls, m, n)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)

    @property
    def d(self) -> int:
        return gcd(abs(self.m), abs(self.n))


class BrittonNF(NamedTuple):
    """Canonical form data: leading a-exponent plus (t-sign, a-residue) tail."""

    r0: int = 0
    tail: tuple[tuple[int, int], ...] = ()

    @property
    def is_identity(self) -> bool:
        return self.r0 == 0 and not self.tail

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


_SIGN, _EXP = itemgetter(0), itemgetter(1)


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


def _period_two_run(syl: tuple, j: int) -> int:
    """How many syllables from syl[j] on equal the one two places before
    them: counted at C speed in slices that double, so a run of c costs O(c)
    and no run one short slice."""
    c, h = 0, 8
    while True:
        part = syl[j + c : j + c + h]
        before = syl[j + c - 2 : j + c - 2 + len(part)]
        if part != before:
            return c + next(compress(count(), map(ne, part, before)))
        c += len(part)
        if len(part) < h:
            return c
        h *= 2


def _scan(p: BSParams, x: BrittonNF, segments, cap: int,
          runs: tuple | None = None) -> BrittonNF:
    """The normal form of x followed by the segments.

    A segment is a triple (x0, blocks, forward): a^x0, then the blocks t^e a^x
    that blocks yields as (e, x) pairs.  A forward segment iterates over a
    canonical tail: from its first block that pushes on, the rest of it is
    copied as it is.  With runs = (syl, it), blocks are read from the
    syllables syl that the iterator it yields, and a run of equal blocks is
    pushed in one step.
    """
    m, n = p
    am, an = abs(m), abs(n)
    fm, fn = _carry_factors(m, n)
    st = [(0, x.r0), *x.tail]
    lo = len(st)  # every entry of x is canonical
    # The top entry lives in (eps, r) and st holds the entries below it, so
    # the full stack is st + [(eps, r)] and its length is len(st) + 1.
    eps, r = st.pop()
    limit = words._MAX_SYLLABLES
    for x0, blocks, forward in segments:
        r += x0
        if r.bit_length() > cap:
            raise ExponentCapExceeded(r.bit_length(), cap)
        for e, x in blocks:
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
            if k:
                if r == x and eps == e and st[-1] == (e, x) and runs:
                    # a third copy of the block: e = +-1 and x is canonical, so
                    # it and the c - 1 equal blocks after it push (e, x) and
                    # leave the top as it is.  Kept apart from the push below,
                    # which then pays nothing for runs but the test above.
                    syl, it = runs
                    c = 1 + _period_two_run(syl, len(syl) - length_hint(it)) // 2
                    size = len(st) + c
                    if lo >= len(st):
                        lo = size + 1
                    if size > limit:
                        _check_size(size)
                    st.extend(repeat((e, x), c))
                    next(islice(it, 2 * c - 2, 2 * c - 2), None)  # skip the run
                    continue
                size = len(st) + k  # the tail's length after the push
                if forward:
                    size += length_hint(blocks)
                if lo >= len(st):  # a push onto a clean stack keeps it clean
                    lo = size + 1
                if size > limit:
                    _check_size(size)  # bounds the tail before it is built
                st.append((eps, r))
                if forward:
                    # (e, x) and the rest of the segment are canonical: settle
                    # the carries that wait below them, then copy them
                    if lo <= size:
                        _settle(m, n, st, lo, cap)
                        lo = size + 1
                    st.append((e, x))
                    st.extend(blocks)
                    eps, r = st.pop()
                    break
                if k > 1:
                    st.extend(repeat((s, 0), k - 1))
                eps, r = s, 0
            r += x
            if r.bit_length() > cap:
                raise ExponentCapExceeded(r.bit_length(), cap)
    st.append((eps, r))
    _settle(m, n, st, lo, cap)
    r0 = st[0][1]
    del st[0]
    return BrittonNF(r0, tuple(st))  # the tail copied once


def _forward(x: BrittonNF) -> tuple:
    """x as a segment: a^r0, then its canonical tail."""
    return x.r0, iter(x.tail), True


def _inverse(x: BrittonNF) -> tuple:
    """x^-1 = a^-rk t^-ek ... a^-r1 t^-e1 a^-r0 as a segment: a^-rk, then the
    blocks (-e_i, -r_(i-1)) read off the reversed tail."""
    if not x.tail:
        return -x.r0, (), False
    rev = x.tail[::-1]
    es = map(neg, map(_SIGN, rev))
    xs = map(neg, chain(map(_EXP, islice(rev, 1, None)), (x.r0,)))
    return -rev[0][1], zip(es, xs), False


_ONE = BrittonNF()


def normalize(p: BSParams, w: Word, max_bits: int | None = None) -> BrittonNF:
    """Britton normal form of a word; solves the word problem for BS(m, n).

    w must be freely reduced, as every Word built by from_pairs, a product
    or an inverse is: its a- and t-syllables alternate, and a block is a
    t-syllable with the a-syllable after it, if any."""
    syl = w.syllables
    it = iter(syl)
    x0 = next(it)[1] if syl and syl[0][0] == "a" else 0
    exps = map(_EXP, it)
    return _scan(p, _ONE, ((x0, zip_longest(exps, exps, fillvalue=0), False),),
                 resolve_max_bits(max_bits), runs=(syl, it))


def nf_multiply(p: BSParams, x: BrittonNF, y: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """Product of two canonical forms: the scan of x resumes on y's tail up
    to y's first push, and the rest of y's tail is copied."""
    return _scan(p, x, (_forward(y),), resolve_max_bits(max_bits))


def nf_invert(p: BSParams, x: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """The inverse of a canonical form, scanned block by block."""
    return _scan(p, _ONE, (_inverse(x),), resolve_max_bits(max_bits))


def nf_equal(p: BSParams, u: Word, v: Word, max_bits: int | None = None) -> bool:
    cap = resolve_max_bits(max_bits)
    return normalize(p, u, cap) == normalize(p, v, cap)


def bs_group(p: BSParams, max_bits: int | None = None) -> Group:
    """BS(m, n) on Britton normal forms.

    Each distinct generator run is normalized once per group.  [x, y] is one
    scan of x^-1, y^-1, x and y.  A power of a^r is a^(re); any other power
    is square-and-multiply, refused first when its size is known to pass
    the limit: if x x pops nothing at its seam, x^e has |e| times x's tail.
    """
    cap = resolve_max_bits(max_bits)
    values: dict[Word, BrittonNF] = {}

    def word(w: Word) -> BrittonNF:
        value = values.get(w)
        if value is None:
            value = values[w] = normalize(p, w, cap)
        return value

    def commutator(x: BrittonNF, y: BrittonNF) -> BrittonNF:
        return _scan(p, _ONE, (_inverse(x), _inverse(y), _forward(x), _forward(y)), cap)

    def pow_(x: BrittonNF, e: int) -> BrittonNF:
        if not x.tail:
            # square-and-multiply grows the exponent by at most one bit a
            # step, so it stops at cap + 1 bits: report what it reports
            r = x.r0 * e
            if r.bit_length() > cap:
                raise ExponentCapExceeded(cap + 1, cap)
            return BrittonNF(r)
        if e < 0:
            x, e = G.inv(x), -e
        # the last entry of x^j is x's own, so every seam of x^j with x
        # decides as the seam of x x does; power() starts with x x too
        if e > 1 and len(G.mul(x, x).tail) == 2 * len(x.tail):
            _check_size(e * len(x.tail))
        return power(G, x, e)

    G = Group(_ONE, word, lambda x, y: nf_multiply(p, x, y, cap), lambda x: nf_invert(p, x, cap),
              pow_, commutator)
    return G


class AbImage(NamedTuple):
    """Image in the abelianization Z x Z_{|n-m|} (free part from t).

    modulus == 0 means n = m, where the a-part stays a full integer.
    """

    t_part: int
    a_part: int
    modulus: int = 0


def abelianize(p: BSParams, w: Word) -> AbImage:
    sums, end = level_sums(w)
    sigma_a, mod = sum(sums.values()), abs(p.n - p.m)
    return AbImage(-end, sigma_a % mod if mod else sigma_a, mod)
