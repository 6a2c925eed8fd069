"""Affine representation of BS(1, n) over Z[1/n] and exact gamma weights.

BS(1, n) acts faithfully by affine maps of the line: a is the translation
x -> x + 1 and t is the scaling x -> x / n, so a word w with t-exponent sum
sigma_t becomes x -> n^{-sigma_t} x + b.  We store k = -sigma_t together
with the translation part b as data, which keeps the map faithful even in
the degenerate cases n = 1 (giving Z x Z) and n = -1 (the Klein bottle
group).  Composition follows function application, left factor applied
last:

    (k1, b1) * (k2, b2) = (k1 + k2, b1 + n^{k1} b2)

Conjugates t^l a^s t^-l land on the translation s / n^l, which is how the
lower central series becomes visible: for n not in {0, 1, 2} the i-th term
consists exactly of the translations by (n-1)^{i-1} Z[1/n], so the weight
of an element is read off p-adic valuations of the numerator at the primes
dividing n - 1.

A word's translation part is b = sum of e * n^k over its a-syllables a^e,
where k is the running value of -sigma_t.  to_affine sums the exponents per
level k with small-int adds (words.level_sums), then evaluates sum c_k n^k by
Horner over the distinct nonzero levels (_fold): one big-int multiply-add per
level, not one per syllable.  zn_add and the group law use the same fold: a
sum num1 / n^l1 + num2 / n^l2 is the fold of two levels, and the unit n^k in
b1 + n^k b2 only shifts b2's level, which zn_canon settles.  Every power n^j
is refused before it is formed once it alone reaches 2^(cap+1): no term of at
most cap bits can then bring the result back under the cap, so the refusal
is the cap check made early and no huge power is ever built.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, ExponentCapExceeded
from .intmath import decimal, prime_factors, valuation
from .words import Group, Word, level_sums, resolve_max_bits, _check_cap


class ZnElement(NamedTuple):
    """Element num / n^l of Z[1/n], canonical: l == 0 or n does not divide num."""

    num: int
    l: int = 0

    def __str__(self) -> str:
        return decimal(self.num) if self.l == 0 else f"{decimal(self.num)}/n^{self.l}"


_ZERO = ZnElement(0, 0)


def _pow(n: int, j: int, cap: int) -> int:
    """n^j for j >= 0, refused before it is formed when |n^j| >= 2^(cap+1)."""
    # |n|^j has at least j * (bit_length(|n|) - 1) + 1 bits
    bits = j * (abs(n).bit_length() - 1) + 1
    if bits > cap + 1:
        raise ExponentCapExceeded(bits, cap, at_least=True)
    return n**j


def zn_canon(n: int, num: int, l: int, cap: int | None = None) -> ZnElement:
    if num == 0:
        return _ZERO
    if n in (1, -1):
        # n^l is a unit sign; fold it into the numerator
        if n == -1 and l % 2:
            num = -num
        return ZnElement(num, 0)
    if l > 0:
        j = min(valuation(num, n), l)
        num, l = num // n**j, l - j
    elif l < 0:
        cap = resolve_max_bits(cap)
        num, l = _check_cap(num * _pow(n, -l, cap), cap), 0
    return ZnElement(num, l)


def _fold(n: int, coeffs: dict[int, int], cap: int) -> ZnElement:
    """The sum of c * n^level over coeffs {level: c}, by Horner from the top level down."""
    acc = 0
    level = 0
    for l in sorted((l for l, c in coeffs.items() if c), reverse=True):
        # acc * n^level is the sum so far
        acc = _check_cap((acc * _pow(n, level - l, cap) if acc else 0) + coeffs[l], cap)
        level = l
    return zn_canon(n, acc, -level, cap)


def zn_add(n: int, x: ZnElement, y: ZnElement, cap: int | None = None) -> ZnElement:
    coeffs = {-x.l: x.num + y.num} if x.l == y.l else {-x.l: x.num, -y.l: y.num}
    return _fold(n, coeffs, resolve_max_bits(cap))


def zn_divexact_int(n: int, x: ZnElement, c: int) -> ZnElement:
    if x.num % c != 0:
        raise DomainError(f"{x} is not divisible by {c} in Z[1/n]")
    return zn_canon(n, x.num // c, x.l)


class AffineElem(NamedTuple):
    """The affine map x -> n^k x + b with k = -sigma_t."""

    k: int
    b: ZnElement

    @property
    def is_identity(self) -> bool:
        return self.k == 0 and self.b.num == 0

    def __str__(self) -> str:
        return f"(k={self.k}, b={self.b})"


IDENTITY = AffineElem(0, _ZERO)


def affine_compose(n: int, g: AffineElem, h: AffineElem, max_bits: int | None = None) -> AffineElem:
    cap = resolve_max_bits(max_bits)
    return AffineElem(g.k + h.k, zn_add(n, g.b, zn_canon(n, h.b.num, h.b.l - g.k, cap), cap))


def affine_invert(n: int, g: AffineElem, max_bits: int | None = None) -> AffineElem:
    return AffineElem(-g.k, zn_canon(n, -g.b.num, g.b.l + g.k, resolve_max_bits(max_bits)))


def to_affine(n: int, w: Word, max_bits: int | None = None) -> AffineElem:
    """Image of a word under a -> x+1, t -> x/n; faithful as stored data."""
    if n == 0:
        raise DomainError("affine representation needs n != 0")
    coeffs, k = level_sums(w)
    return AffineElem(k, _fold(n, coeffs, resolve_max_bits(max_bits)))


def affine_group(n: int, max_bits: int | None = None) -> Group:
    """BS(1, n) as affine maps of the line over Z[1/n]."""
    cap = resolve_max_bits(max_bits)
    return Group(IDENTITY, lambda w: to_affine(n, w, cap),
                 lambda g, h: affine_compose(n, g, h, cap), lambda g: affine_invert(n, g, cap))


def canonical_word(n: int, g: AffineElem, max_bits: int | None = None) -> Word:
    """Unique word t^k a^l t^-r (k, r >= 0) with the given affine data.

    The minimal choice of k makes the triple unique: either r = 0, or k = 0,
    or n does not divide l.
    """
    if n == 0:
        raise DomainError("affine representation needs n != 0")
    cap = resolve_max_bits(max_bits)
    k1 = max(0, -g.k, g.b.l)
    l1 = _check_cap(g.b.num * _pow(n, k1 - g.b.l, cap) if g.b.num else 0, cap)
    r1 = k1 + g.k
    return Word.from_pairs([("t", k1), ("a", l1), ("t", -r1)])


class Weight(NamedTuple):
    """Position in the lower central series: gamma_index, or omega (index None)."""

    index: int | None

    @classmethod
    def finite(cls, i: int) -> "Weight":
        return cls(i)

    @classmethod
    def omega(cls) -> "Weight":
        return cls(None)

    @property
    def is_omega(self) -> bool:
        return self.index is None

    def at_least(self, i: int) -> bool:
        return self.index is None or self.index >= i

    def __str__(self) -> str:
        return "omega" if self.index is None else str(self.index)


def lcs_weight(n: int, g: AffineElem) -> Weight:
    """Largest i with g in gamma_i(BS(1, n)), or omega if g lies in them all.

    For |n - 1| > 1 the weight of a nonidentity element with k = 0 is
    1 + min over primes p | (n-1) of floor(v_p(num) / v_p(n-1)); any element
    with k != 0 sits only in gamma_1.  n = 2 collapses everything with k = 0
    into gamma_omega, and n = 1 is the abelian group Z x Z.
    """
    if n == 0:
        raise DomainError("weights need n != 0")
    if g.is_identity:
        return Weight.omega()
    if n == 1:
        return Weight.finite(1)
    if g.k != 0:
        return Weight.finite(1)
    if n == 2:
        return Weight.omega()
    q = n - 1
    num = abs(g.b.num)
    depth = min(valuation(num, p) // e for p, e in prime_factors(q).items())
    return Weight.finite(1 + depth)


def gamma_quot_image(n: int, i: int, g: AffineElem) -> int:
    """Image of g in gamma_i / gamma_{i+1} identified with Z_{|n-1|}.

    Dividing the translation by (n-1)^{i-1} and reducing the numerator mod
    |n-1| is well defined because n = 1 there, making all denominators act
    trivially.  Requires |n-1| > 1 and weight(g) >= i.  The identity, which
    lies in every term, maps to 0 without forming (n-1)^{i-1}; any other g
    has i <= weight(g), which its translation's size bounds.
    """
    if n in (0, 1, 2):
        raise DomainError("gamma quotients need |n-1| > 1")
    if i < 2:
        raise DomainError("the cyclic quotient map starts at gamma_2/gamma_3's level i = 2")
    weight = lcs_weight(n, g)
    if not weight.at_least(i):
        raise DomainError(f"element has weight {weight}, below gamma_{i}")
    if weight.is_omega:
        return 0
    c = zn_divexact_int(n, g.b, (n - 1) ** (i - 1))
    return c.num % abs(n - 1)
