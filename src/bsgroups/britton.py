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

The scan starts from a normal form x and an a^x0 to add to it, and reads
blocks t^e a^x as plain (e, x) pairs from every caller: a reduced Word's
syllables alternate, so after a leading a-syllable their exponents come in
(t, a) pairs from one iterator; a tail's (eps, r) entries are blocks as they
stand; an inverse reads its blocks off the reversed tail. The scan builds
its one stack from x: (0, r0) and then the tail as (eps, r) tuples, all
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

Two kinds of input skip the per-block step. In a product x y, y's tail is
canonical and has no pinch, so once one of its blocks pushes, every later
one pushes too, unchanged and with no carry: the scan settles the stack
there, checks the final size and copies the rest of y's tail, so a product
costs its seam plus a copy. And when a block t^s a^x with |s| = 1 finds the
canonicalized top equal to (s, x), x is canonical for s (0 <= x < |m| if s =
-1, 0 <= x < |n| if s = +1), so this block and every equal one after it push
(s, x) and leave the top as it is: a run of c copies is one list extend,
counted by comparing slices of the word's syllables at C speed. The scan
looks for the run only when the entry below the top equals (s, x) as well,
at a third copy, so the pairs of equal blocks that random words hold cost
one comparison each. The test is on the block's own exponent: a t^{2s} block
that pops once also ends with one t to push, but each further copy of it
pushes two entries. Neither shortcut adds a carry or a step, so the cap
slack above is unchanged.
"""

from __future__ import annotations

from itertools import chain, compress, count, islice, zip_longest
from math import gcd
from operator import itemgetter, length_hint, ne, neg
from typing import NamedTuple

from .errors import DomainError, ExponentCapExceeded
from .words import Group, Word, decimal, level_sums, resolve_max_bits
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


def _scan(p: BSParams, x: BrittonNF, x0: int, blocks, cap: int,
          runs: tuple | None = None, seam: bool = False) -> BrittonNF:
    """The normal form of x a^x0 followed by the blocks t^e a^x.

    blocks yields (e, x) pairs. With runs = (syl, it), they are read from
    the syllables syl that the iterator it yields, and a run of equal blocks
    is pushed in one step. With seam, blocks iterates over a canonical tail:
    from the first block that pushes on, the rest of it is copied as it is.
    """
    m, n = p
    am, an = abs(m), abs(n)
    fm, fn = _carry_factors(m, n)
    st = [(0, x.r0), *x.tail]
    lo = len(st)  # every entry of x is canonical
    # The top entry lives in (eps, r) and st holds the entries below it, so
    # the full stack is st + [(eps, r)] and its length is len(st) + 1.
    eps, r = st.pop()
    r += x0
    if r.bit_length() > cap:
        raise ExponentCapExceeded(r.bit_length(), cap)
    limit = words._MAX_SYLLABLES
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
                st.extend([(e, x)] * c)
                next(islice(it, 2 * c - 2, 2 * c - 2), None)  # skip the run
                continue
            size = len(st) + k  # the tail's length after the push
            if seam:
                size += length_hint(blocks)
            if lo >= len(st):  # a push onto a clean stack keeps it clean
                lo = size + 1
            if size > limit:
                _check_size(size)  # bounds the tail before it is built
            st.append((eps, r))
            if seam:  # (e, x) is canonical: it and the rest are copied
                eps, r = e, x
                break
            if k > 1:
                st.extend([(s, 0)] * (k - 1))
            eps, r = s, 0
        r += x
        if r.bit_length() > cap:
            raise ExponentCapExceeded(r.bit_length(), cap)
    st.append((eps, r))
    _settle(m, n, st, lo, cap)
    if seam:
        st.extend(blocks)
    r0 = st[0][1]
    del st[0]
    return BrittonNF(r0, tuple(st))  # the tail copied once


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
    return _scan(p, _ONE, x0, zip_longest(exps, exps, fillvalue=0), resolve_max_bits(max_bits),
                 runs=(syl, it))


def nf_multiply(p: BSParams, x: BrittonNF, y: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """Product of two canonical forms: the scan of x resumes on y's tail up
    to y's first push, and the rest of y's tail is copied."""
    return _scan(p, x, y.r0, iter(y.tail), resolve_max_bits(max_bits), seam=True)


def nf_invert(p: BSParams, x: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """a^-rk t^-ek ... a^-r1 t^-e1 a^-r0, scanned as the blocks (-e_i, -r_(i-1))."""
    rev = x.tail[::-1]
    es = map(neg, map(_SIGN, rev))
    xs = map(neg, chain(map(_EXP, islice(rev, 1, None)), (x.r0,)))
    return _scan(p, _ONE, -(rev[0][1] if rev else x.r0), zip(es, xs), resolve_max_bits(max_bits))


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
