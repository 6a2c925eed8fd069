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
(-e_i, -r_(i-1)) off the tail from its end. normalize is one word segment,
nf_invert one inverse segment, nf_multiply x then y forward, and
bs_group's commutator [x, y] = x^-1 y^-1 x y four segments from the
identity: x and y inverse, then x and y forward.

The stack holds (0, r0) and then the tail, as items: an entry (eps, r), or
a run (eps, r, c) of c >= _RUN equal canonical entries; fewer are pushed as
entries, as the t^e blocks of small |e| that most words hold would cost
more as runs than they save. Sizes are counted in entries. A block is one
step: canonicalize the top, pop while it is (-sign e, 0), push the rest of
t^e, add x to the new top. While the scan runs, the top entry lives in two
locals and the list holds the items below it. The top's carry waits in the
item below; every item below a low-water mark lo stays canonical. A final
top-down pass settles the deferred carries and stops at the first item at
or below lo that passes on no carry. It meets no pinch: a carry from an
upper neighbour of the other sign is a multiple of the entry's modulus
(t a^{nq} = a^{mq} t), and an entry gets a new upper neighbour only as the
top, where it is settled at once. Every step applies a relation and the
result is canonical and pinch-free, so by uniqueness it is the same
whenever carries settle. Only the bit cap can tell: a deferred sum holds up
to one carry per step, so it may need up to 1 + bit_length(steps) bits
more. The tail is built once at the end, a run by tuple repetition.

Runs come from three places, each pushed in one step: the k - 1 entries
(s, 0) that a t^e block leaves below its top; a run of equal blocks
t^s a^x with |s| = 1, which, found at a third copy with the canonicalized
top and the item below both equal to (s, x), push (s, x) and leave the top
as it is, so c copies are counted in slices of the word's syllables at C
speed; and a run of equal entries (eps, 0) at the end of an inverse's
tail, counted the same way, whose blocks would each push one entry. Blocks read one at a time would be refused one past the size limit,
so an inverse's run is cut there; a word's run of equal blocks names its
whole size, as it always has.

A run changes in O(1) steps. A pop takes one entry off it. A carry into a
run in the scan splits its last entry off. A pinch chain down a run of
(eps, 0) under a top (eps, v) that pinches with the next t pops one entry
per level, and level i holds v (f/mod)^i, where mod is eps's modulus and f
its carry factor: it goes on while mod divides the value, that is for
1 + v_m1(v / mod) levels, where f/mod = g/m1 in lowest terms, so one pow
crosses as many levels as that, k and the run allow; when |m| or |n| is 1,
every level. A carry z into a run of entries x in the final pass repeats
z -> x + f (z div mod), writing z in the rational base mod/f (Akiyama,
Frougny & Sakarovitch, Israel J. Math. 168, 2008); for z = A + mod^h B
with 0 <= A < mod^h, the first h residues are A's own and z after them is
A's plus f^h B, so a long carry splits into halves (Brent & Zimmermann,
Modern Computer Arithmetic, 2010, 1.7), or into pieces no larger than z,
instead of one divmod per entry. The residues stop where the carry dies,
and the rest of the run stays one item. The cap is checked on every value
one step per entry would build: the levels of a chain grow or shrink with
i, so the first past the cap is found by bisection, among the levels that
bit lengths allow to fit, and the states of a split carry are bounded all
at once by bit lengths, one step at a time near the cap.

A forward segment is canonical and has no pinch, so once one of its blocks
pushes, every later one pushes too, unchanged and with no carry: the scan
settles the carries that wait below, checks the size with the rest of the
segment, and copies the rest as it is. A product so costs its seam plus a
copy, and so does each forward half of a commutator, whose scan holds
x^-1 y^-1 x on its way: that prefix, which x^-1 y^-1 x y built from
products never builds, must fit the size limit even where y would cancel
it.

bs_group's power of a^r is a^(re). Any other x^e is square-and-multiply,
after one size check: when x x pops nothing at its seam, neither does any
seam of x^j with x, since the last entry of x^j is x's own and decides the
seam the same way, so x^e has exactly |e| times x's tail entries, and a
power past the limit is refused before any squaring.

nf_equal pays for where two words differ.  Their longest common syllable
prefix P and suffix S are cut, as P u S = P v S exactly when u = v.  Middles
u and v with different images in the abelianization G/G' = Z x Z_|n-m| (the
t-exponent sum, and the a-exponent sum mod |n - m|, exact when n = m) are
unequal; other middles are normalized and compared.  A middle's form can
pass the bit cap or the size limit where the full forms do not, as P or S
may cancel part of it; then the full forms are compared.  So nf_equal
answers wherever the full forms do, with their answer, and may answer
pairs whose full forms are refused.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, compress, count, cycle, islice, repeat, zip_longest
from math import gcd
from operator import eq, itemgetter, length_hint, ne, neg
from typing import NamedTuple

from .errors import DomainError, ExponentCapExceeded, WordSizeExceeded
from .intmath import valuation
from .words import Group, Word, decimal, power, resolve_max_bits
from . import words
from .words import _check_cap, _check_size, _power_exponent


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

# Fewer than _RUN equal entries are pushed as entries: short runs, such as
# the t^e blocks of small |e| that most words hold, would cost more as runs
# than they save.  A carry through a run is converted by halves when it has
# more bits than _BIG and reaches more than _LEAF entries; a half of at most
# _LEAF entries takes one divmod per entry.
_RUN, _LEAF, _BIG = 16, 32, 256


def _moduli(m: int, n: int) -> tuple:
    """(modulus, carry factor) of an entry, indexed by its sign.  As
    t^-1 a^(|m| q) = a^(fm q) t^-1 and t a^(|n| q) = a^(fn q) t, an entry
    (-1, r) reduces mod |m| and carries fm, and an entry (1, r), or (0, r0),
    reduces mod |n| and carries fn."""
    fm, fn = (n if m > 0 else -n), (m if n > 0 else -m)
    return (abs(n), fn), (abs(n), fn), (abs(m), fm)


def _run(eps: int, r: int, c: int) -> tuple:
    """c entries (eps, r) as stack items: one run, or c entries."""
    return ((eps, r, c),) if c >= _RUN else ((eps, r),) * c


def _pinch(st: list, run: tuple, q: int, k: int, mod: int, f: int, cap: int) -> tuple[int, int, int]:
    """A pinch chain down a run (eps, 0, c), just taken off the stack, under
    a top (eps, 0) that pinches with the next t and owes the run's last entry
    the carry q f.  Level i pops one entry, whose value v_i = q f (f/mod)^(i-1)
    becomes the top; it pinches again while k allows and mod | v_i, that is,
    while m1^i divides q, where f/mod = g/m1 in lowest terms.  So one pow
    crosses j = min(k, c, levels) entries.  Returns v_j, j and how many
    fewer entries than items the stack holds now."""
    eps, _, c = run
    j, v = min(k, c), 0
    if q:
        d = gcd(mod, f)
        m1, g = mod // d, f // d
        if m1 > 1:
            j = min(j, 1 + valuation(q, m1))
        # |v_i| has at least bit_length(q f) + (i - 1) rise bits, so no
        # level past the first one past the cap is built
        rise = g.bit_length() - 1 - (m1.bit_length() if m1 > 1 else 0)
        if rise > 0:
            j = min(j, max(1, (cap - (q * f).bit_length()) // rise + 2))
        v = q * f * g ** (j - 1) // m1 ** (j - 1)
        if abs(g) > m1 and v.bit_length() > cap:
            # |v_i| grows with i: report the first v_i past the cap
            def level(i):
                return (q * f * g ** (i - 1) // m1 ** (i - 1)).bit_length()

            fits, past = 0, j
            while past - fits > 1:
                mid = (fits + past) // 2
                fits, past = (fits, mid) if level(mid) > cap else (mid, past)
            raise ExponentCapExceeded(level(past), cap)
    rest = _run(eps, 0, c - j)
    st += rest
    return v, j, j - 1 + len(rest)


def _safe_steps(z: int, left: int, mod: int, f: int, cap: int) -> int:
    """How many of the next left states of a carry through a run a bound
    keeps within the cap.  With 0 <= x < mod, z -> x + f (z div mod) never
    takes |z| past max(|z|, 2 mod^2) + 2 mod when |f| <= mod, and multiplies
    |z| + 2 |f| mod by at most |f|/mod a step otherwise, which adds fewer
    than bit_length(f) - bit_length(mod) + 1 bits."""
    if abs(f) <= mod:
        return left if max(z.bit_length(), (2 * mod * mod).bit_length()) + 1 <= cap else 0
    room = cap - 1 - (abs(z) + 2 * abs(f) * mod).bit_length()
    return 0 if room < 0 else min(left, room // (f.bit_length() - mod.bit_length() + 1) + 1)


def _convert(z: int, h: int, x: int, mod: int, f: int, out: list, last: bool) -> int:
    """Append the residues of the next h entries x that a carry reaches to
    out, and return z after them.  Each step is (q, residue) = divmod(z, mod)
    and z = x + q f: z is written in the rational base mod/f.  For
    z = A + mod^k B with 0 <= A < mod^k, the first k residues are A's own and
    z after them is A's plus f^k B, so z splits into halves, and into pieces
    of its own size where mod^(h/2) would be larger than z.  With last, a
    carry that dies (z = x) leaves the rest of the run unwritten."""
    while h:
        q, d = divmod(z, mod)
        if x + q * f == z:  # a fixed point: every residue is d
            if z != x or not last:
                out += repeat(d, h)
            return z
        k = min(h // 2, z.bit_length() // mod.bit_length())
        if k < _LEAF:  # one divmod per entry, for up to _LEAF entries
            for i in range(min(h, _LEAF)):
                if z == x:
                    if not last:
                        out += repeat(x, h - i)
                    return x
                q, d = divmod(z, mod)
                out.append(d)
                z = x + q * f
            h -= i + 1
            continue
        if mod & (mod - 1):
            b, a = divmod(z, mod**k)
        else:  # a power of two
            s = k * (mod.bit_length() - 1)
            b, a = z >> s, z & ((1 << s) - 1)
        z, h = _convert(a, k, x, mod, f, out, False) + f**k * b, h - k
    return z


def _run_digits(z: int, c: int, x: int, mod: int, f: int, cap: int) -> tuple[list, int]:
    """The new residues, top down, of a run of c entries x whose top entry
    holds z = x + carry, and the carry out of the run.  The residues stop
    where the carry dies, and the rest of the run keeps x.  Each state z is
    checked against the cap, one at a time or, for a long conversion, all at
    once by a bound."""
    digits: list = []
    while z != x and len(digits) < c:
        left = c - len(digits)
        if left > _LEAF and z.bit_length() > _BIG:
            h = _safe_steps(z, left, mod, f, cap)
            if h > _LEAF:
                z = _convert(z, h, x, mod, f, digits, True)
                continue
        if z.bit_length() > cap:
            raise ExponentCapExceeded(z.bit_length(), cap)
        q, d = divmod(z, mod)
        digits.append(d)
        z = x + q * f
    return digits, z - x


def _settle(moduli: tuple, st: list, lo: int, cap: int) -> int:
    """The final pass: settle the deferred carries from the top down.  A
    carry into a run writes out the entries it reaches; returns how many
    items that adds to the stack."""
    carry = added = 0
    for i in range(len(st) - 1, 0, -1):
        try:
            eps, r = st[i]
        except ValueError:  # a run
            if carry:
                eps, x, c = st[i]
                mod, f = moduli[eps]
                digits, carry = _run_digits(x + carry, c, x, mod, f, cap)
                items = [*_run(eps, x, c - len(digits)), *zip(repeat(eps), reversed(digits))]
                st[i : i + 1] = items
                added += len(items) - 1
            if carry == 0 and i <= lo:
                return added
            continue
        mod, f = moduli[eps]
        q, rem = divmod(_check_cap(r + carry, cap) if carry else r, mod)
        if rem != r:
            st[i] = (eps, rem)
        carry = q * f
        if carry == 0 and i <= lo:
            return added
    st[0] = (0, _check_cap(st[0][1] + carry, cap))
    return added


def _flatten(items: list) -> tuple:
    """The tail that stack items stand for, runs (eps, r, c) among them."""
    at = list(compress(count(), map(ne, map(len, items), repeat(2))))
    if len(at) == 1:
        eps, r, c = items[at[0]]
        if items.count((eps, r)) == len(items) - 1:  # one repetition
            return ((eps, r),) * (len(items) - 1 + c)
    pieces, start = [], 0
    for i in at:
        eps, r, c = items[i]
        pieces += items[start:i], repeat((eps, r), c)
        start = i + 1
    pieces.append(items[start:])
    return tuple(chain.from_iterable(pieces))


def _periodic_run(seq: tuple, j: int, period: int) -> int:
    """How many items from seq[j] on equal the one period places before
    them.  Such a run repeats seq[j - period : j]: each of its period lanes
    holds one item, counted at C speed in strided slices of seq that double,
    so a run of c costs O(c) and no run one short slice.  Only the slice
    that holds a break is copied whole, to find it."""
    ref, c, h = seq[j - period : j], 0, 8
    while True:
        # c is a multiple of 8, so of period: lane i starts at j + c + i
        at = j + c
        k = min(h, len(seq) - at)
        if sum(seq[at + i : at + k : period].count(v) for i, v in enumerate(ref)) < k:
            return c + next(compress(count(), map(ne, seq[at : at + k], cycle(ref))))
        c += k
        if k < h:
            return c
        h *= 2


def _scan(p: BSParams, x: BrittonNF, segments, cap: int) -> BrittonNF:
    """The normal form of x followed by the segments.

    A segment is (x0, blocks, forward, more): a^x0, then the blocks t^e a^x
    that blocks yields as (e, x) pairs.  A forward segment iterates over a
    canonical tail: from its first block that pushes on, the rest of it is
    copied as it is.  more(room), where not None, counts the blocks after
    the one just read that equal it, and skips them; room is how many of
    them fit the size limit.
    """
    moduli = _moduli(*p)
    st = [(0, x.r0), *x.tail]
    lo = len(st)  # every item below index lo is canonical; lo may pass the top
    # The top entry lives in (eps, r) and st holds the items below it, so the
    # full stack is st + [(eps, r)].  An item is an entry (eps, r) or a run
    # (eps, r, c) of c >= _RUN equal canonical entries; the tail below the
    # top has len(st) + extra entries.
    eps, r = st.pop()
    extra = 0
    limit = words._MAX_SYLLABLES
    for x0, blocks, forward, more in segments:
        r += x0
        if r.bit_length() > cap:
            raise ExponentCapExceeded(r.bit_length(), cap)
        for e, x in blocks:
            s, k = (1, e) if e > 0 else (-1, -e)
            while st:
                # canonicalize the top only; its carry waits in the item below
                mod, f = moduli[eps]
                if not 0 <= r < mod:
                    q, r = divmod(r, mod)
                    try:
                        below_eps, below_r = st[-1]
                    except ValueError:  # a run
                        below = st[-1]
                        if not r and k and eps == -s and below[0] == eps and not below[1]:
                            r, j, dropped = _pinch(st, st.pop(), q, k, mod, f, cap)
                            k -= j
                            extra -= dropped
                            continue
                        # the carry lands on the run's last entry: split it off
                        below_eps, below_r, c = below
                        rest = _run(below_eps, below_r, c - 1)
                        st[-1:] = rest
                        st.append(below)  # the slot of the entry written below
                        extra -= len(rest)
                    below_r += q * f
                    if below_r.bit_length() > cap:
                        raise ExponentCapExceeded(below_r.bit_length(), cap)
                    st[-1] = (below_eps, below_r)
                    if len(st) <= lo:
                        lo = len(st) - 1 or 1  # st[0] is never settled
                if not k or r or eps != -s:
                    break
                below = st.pop()
                try:
                    eps, r = below
                except ValueError:  # a run
                    if below[0] == eps and not below[1]:
                        # (eps, 0) pinches on down the run
                        r, j, dropped = _pinch(st, below, 0, k, mod, f, cap)
                        k -= j
                        extra -= dropped
                        continue
                    # its last entry becomes the top
                    eps, r, c = below
                    rest = _run(eps, r, c - 1)
                    st += rest
                    extra -= len(rest)
                k -= 1
            if k:
                if r == x and eps == e and st[-1] == (e, x) and more:
                    # a third copy of the block: e = +-1 and x is canonical, so
                    # it and the c - 1 equal blocks after it push (e, x) and
                    # leave the top as it is.  Kept apart from the push below,
                    # which then pays nothing for runs but the test above.
                    c = 1 + more(limit - len(st) - extra - 1)
                    size = len(st) + extra + c
                    if lo >= len(st):
                        lo = size + 1
                    if size > limit:
                        _check_size(size)
                    rest = _run(e, x, c)
                    st += rest
                    extra += c - len(rest)
                    continue
                size = len(st) + extra + k  # the tail's length after the push
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
                        extra -= _settle(moduli, st, lo, cap)
                        lo = size + 1
                    st.append((e, x))
                    st.extend(blocks)
                    eps, r = st.pop()
                    break
                if k > 1:
                    if k > _RUN:
                        # the rest of t^e, k - 1 entries (s, 0), as one run
                        st.append((s, 0, k - 1))
                        extra += k - 2
                    else:
                        st.extend(repeat((s, 0), k - 1))
                eps, r = s, 0
            r += x
            if r.bit_length() > cap:
                raise ExponentCapExceeded(r.bit_length(), cap)
    st.append((eps, r))
    extra -= _settle(moduli, st, lo, cap)
    r0 = st[0][1]
    del st[0]
    return BrittonNF(r0, _flatten(st) if extra else tuple(st))  # the tail built once


def _forward(x: BrittonNF) -> tuple:
    """x as a segment: a^r0, then its canonical tail."""
    return x.r0, iter(x.tail), True, None


def _inverse(x: BrittonNF) -> tuple:
    """x^-1 = a^-rk t^-ek ... a^-r1 t^-e1 a^-r0 as a segment: a^-rk, then the
    blocks (-e_i, -r_(i-1)) read off the reversed tail."""
    if not x.tail:
        return -x.r0, (), False, None
    rev = x.tail[::-1]
    signs, exps, more = rev, islice(rev, 1, None), None
    if len(rev) > _RUN:
        # a run of _RUN entries (eps, 0) holds two equal marks in a row, one
        # every _RUN // 2 entries: only then read through iterators that jump
        marks = rev[_RUN // 2 - 1 :: _RUN // 2]
        if 0 in map(_EXP, compress(marks, map(eq, marks, marks[1:]))):
            signs, exps = iter(rev), iter(rev)
            next(exps)
            more = partial(_inverse_run, rev, signs, exps)
    blocks = zip(map(neg, map(_SIGN, signs)), map(neg, chain(map(_EXP, exps), (x.r0,))))
    return -rev[0][1], blocks, False, more


def _inverse_run(rev: tuple, signs, exps, room: int) -> int:
    """more() of an inverse segment.  The block just read is (E, 0), with
    -E = rev[j - 1][0]: each entry (-E, 0) from rev[j] on gives one more,
    but the last, whose a comes from the entry after it.  Blocks read one at
    a time would be refused one past the size limit: those past room are
    left to that, and so is a run shorter than _RUN."""
    j = len(rev) - length_hint(signs)
    v = rev[j - 1][0], 0
    if j + _RUN > len(rev) or rev[j] != v or rev[j + _RUN - 1] != v:
        return 0
    c = max(0, min(room, _periodic_run(rev, j + 1, 1)))
    signs.__setstate__(j + c)  # tuple iterators jump in O(1)
    exps.__setstate__(j + c + 1)
    return c


def _word_run(syl: tuple, it, room: int) -> int:
    """more() of a word segment: a run of equal blocks is pushed whole,
    past room or not."""
    j = len(syl) - length_hint(it)
    c = _periodic_run(syl, j, 2) // 2
    it.__setstate__(j + 2 * c)
    return c


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
    return _scan(p, _ONE, ((x0, zip_longest(exps, exps, fillvalue=0), False, partial(_word_run, syl, it)),),
                 resolve_max_bits(max_bits))


def nf_multiply(p: BSParams, x: BrittonNF, y: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """Product of two canonical forms: the scan of x resumes on y's tail up
    to y's first push, and the rest of y's tail is copied."""
    return _scan(p, x, (_forward(y),), resolve_max_bits(max_bits))


def nf_invert(p: BSParams, x: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """The inverse of a canonical form, scanned block by block, and a run of
    equal entries (eps, 0) in one step."""
    return _scan(p, _ONE, (_inverse(x),), resolve_max_bits(max_bits))


def _exponent_sums(syl: tuple) -> tuple[int, int]:
    """The t- and a-exponent sums of a reduced word's syllables, which
    alternate: every other one from the first t-syllable on is a t."""
    k = 1 if syl and syl[0][0] == "a" else 0
    return sum(map(_EXP, syl[k::2])), sum(map(_EXP, syl[1 - k :: 2]))


def nf_equal(p: BSParams, u: Word, v: Word, max_bits: int | None = None) -> bool:
    """Whether u = v in BS(m, n), at the cost of where they differ.

    The longest common syllable prefix P and suffix S are cut: u = P u' S
    and v = P v' S are equal exactly when u' = v'.  Middles with different
    images in G/G' = Z x Z_|n-m| (the t-exponent sum, and the a-exponent sum
    mod |n - m|, exact when n = m) are not equal; other middles are compared
    by their normal forms.  Where a middle's form passes the bit cap
    or the size limit, the full forms are compared, so every pair whose full
    forms answer gets their answer, and the refusal is theirs.  Pairs whose
    full forms pass a limit may be answered all the same.
    """
    cap = resolve_max_bits(max_bits)
    us, vs = u.syllables, v.syllables
    i = next(compress(count(), map(ne, us, vs)), min(len(us), len(vs)))
    us, vs = us[i:], vs[i:]  # the suffix is cut from what is left: no overlap
    j = next(compress(count(), map(ne, reversed(us), reversed(vs))), min(len(us), len(vs)))
    us, vs = us[: len(us) - j], vs[: len(vs) - j]
    (tu, au), (tv, av) = _exponent_sums(us), _exponent_sums(vs)
    mod = abs(p.n - p.m)
    if tu != tv or ((au - av) % mod if mod else au != av):
        return False
    try:
        # a slice of a reduced word is reduced
        return normalize(p, Word(us), cap) == normalize(p, Word(vs), cap)
    except (ExponentCapExceeded, WordSizeExceeded):
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
            return BrittonNF(_power_exponent(x.r0, e, cap))
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
    sigma_t, sigma_a = _exponent_sums(w.syllables)
    mod = abs(p.n - p.m)
    return AbImage(sigma_t, sigma_a % mod if mod else sigma_a, mod)
