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

and cancels pinches as they surface.  Two words are equal in BS(m, n) exactly
when their canonical forms coincide, for any nonzero m, n (no parameter
canonicalization happens here).  Exponents can grow like n^k, so every
addition is bit-capped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import DomainError
from .intmath import euclid_divmod
from .words import ExpSums, Group, Word, exp_sums, resolve_max_bits, _check_cap, _check_size


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
            parts.append("a" if self.r0 == 1 else f"a^{self.r0}")
        for eps, r in self.tail:
            bit = "t" if eps == 1 else "t^-1"
            if r != 0:
                bit += " a" if r == 1 else f" a^{r}"
            parts.append(f"({bit})")
        return " ".join(parts) if parts else "1"


def _letters(w: Word):
    for g, e in w.syllables:
        if g == "a":
            yield "a", e
        else:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield "t", step


def _settle(m: int, n: int, r0: int, st: list[list[int]], cap: int) -> int:
    """Canonicalize the top entry; ripple quotients and pinches downward.

    Everything below the top is canonical and pinch-free on entry; the same
    holds for the whole stack on exit.
    """
    i = len(st) - 1
    while i >= 0:
        eps, r = st[i]
        if eps < 0:
            q, rem = euclid_divmod(r, m)
            carry = n * q
        else:
            q, rem = euclid_divmod(r, n)
            carry = m * q
        st[i][1] = rem
        if rem == 0 and i + 1 < len(st) and st[i + 1][0] == -eps:
            # t^eps a^0 t^-eps cancels; its trailing exponent falls through
            carry += st[i + 1][1]
            del st[i : i + 2]
        elif carry == 0:
            break
        i -= 1
        if i >= 0:
            st[i][1] = _check_cap(st[i][1] + carry, cap)
        else:
            r0 = _check_cap(r0 + carry, cap)
    return r0


def _scan(m: int, n: int, r0: int, st: list[list[int]], letters, cap: int):
    for g, e in letters:
        if g == "a":
            if st:
                st[-1][1] = _check_cap(st[-1][1] + e, cap)
            else:
                r0 = _check_cap(r0 + e, cap)
        else:
            r0 = _settle(m, n, r0, st, cap)
            if st and st[-1][1] == 0 and st[-1][0] == -e:
                st.pop()
            else:
                st.append([e, 0])
    r0 = _settle(m, n, r0, st, cap)
    return r0, st


def normalize(p: BSParams, w: Word, max_bits: int | None = None) -> BrittonNF:
    """Britton normal form of a word; solves the word problem for BS(m, n)."""
    cap = resolve_max_bits(max_bits)
    r0, st = _scan(p.m, p.n, 0, [], _letters(w), cap)
    return BrittonNF(r0, tuple((eps, r) for eps, r in st))


def nf_multiply(p: BSParams, x: BrittonNF, y: BrittonNF, max_bits: int | None = None) -> BrittonNF:
    """Product of two canonical forms, computed by resuming the scan of x."""
    cap = resolve_max_bits(max_bits)
    _check_size(len(x.tail) + len(y.tail))  # bounds the product's tail
    st = [list(entry) for entry in x.tail]
    r0, st = _scan(p.m, p.n, x.r0, st, _letters(y.to_word()), cap)
    return BrittonNF(r0, tuple((eps, r) for eps, r in st))


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
