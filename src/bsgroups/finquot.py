"""Finite nilpotent quotients of BS(m, n) and non-membership certificates.

Two families of finite p-group quotients are built explicitly:

  * Semidirect: Z_{p^k} x| Z_{p^j} with t acting on a by multiplication by
    u = n * m^{-1} mod p^k.  Needs gcd(m, p) = 1 and u = 1 mod p (so the
    group is a p-group and the action has p-power order).
  * Wreath: Z_{p^e} wr Z_{p^j} with a the base generator at position 0 and
    t the cyclic shift.  This receives BS(m, n) whenever p^e divides both
    exponents, by factoring through the quotient that kills a^gcd.

Both are metabelian, so a word's image is a closed form in its a-exponent
sums per t-level (words.level_sums), whose cost does not depend on |Q|.
A record's image of a word is its fold of those sums (fq_eval), and its
mul and inv are its law, the product rule that the fold obeys.  A search
folds a Word's sums, or evaluates a bracketed text by that law, in each
quotient; its certificate keeps the sums or the image as levels.

Their lower central series have closed forms.  From gamma_2 on, every
term lies in the abelian base: p^min(k, (i-1)v) Z_{p^k} for the semidirect
product, v = v_p(u - 1), and the ideal (x - 1)^(i-1) of
Z_{p^e}[x]/(x^{p^j} - 1) for the wreath product.  Membership in a term is
decided by forward elimination against an echelon basis, so no element set
is listed and the cost is polynomial in p^j, not in the group order.  For
e = 1 that basis is written down, the shifts (x - 1)^(i-1) x^c; only e >= 2
needs a Howell form over Z/p^e.

Since any homomorphism maps gamma_i into gamma_i, an image lying outside
gamma_i(Q) certifies that the element lies outside gamma_i(G).
certify_not_in_gamma searches a budgeted family of quotients, smallest
first, for such a certificate.  Each (m, n, budget) family is built and its
relation checked once per process.  A None result is inconclusive: it
never proves membership.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial
from typing import NamedTuple

from .classify import canonical_form, json_fields
from .errors import DomainError, VerificationError
from .intmath import decimal, is_prime, prime_factors, valuation
from .words import Group, Word, evaluate, level_sums, power, read_text

CONSTRUCTION_ORDER_CAP = 10_000_000


def _max_exponent(p: int, cap: int) -> int:
    """The largest e with p^e <= cap, found without forming a power past cap.

    Orders are compared with a cap through their exponents of p, so a
    budget or a size past the cap costs nothing however large it is.
    """
    e, power = 0, p
    while power <= cap:
        e, power = e + 1, power * p
    return e


def _quotient_json(q) -> dict:
    """Name, prime and size exponents: k is the base exponent (e for a wreath)."""
    p, k, j = q[:3]  # both families declare p, the base exponent and j first
    return {"quotient": q.describe(), "p": p, "k": k, "j": j}


class Semidirect(NamedTuple):
    """Z_{p^k} x| Z_{p^j}; elements (x, y), a -> (1, 0), t -> (0, 1).

    Normal form x^alpha y^beta with y^-1 x y = x^u gives the product rule
    (x1, y1)(x2, y2) = (x1 + x2 * u^-y1, y1 + y2).  So an a^e read after
    t-exponent s adds e u^-s: the affine fold of BS(1, n) with n = u.
    """

    p: int
    k: int
    j: int
    u: int

    @property
    def order(self) -> int:
        return self.p ** (self.k + self.j)

    @property
    def identity(self):
        return (0, 0)

    def fold(self, sums: dict[int, int], end: int):
        """x = sum of c_l u^(l mod p^j) over the level sums c_l (u^(p^j) = 1), y = -end."""
        pk, pj = self.p**self.k, self.p**self.j
        x = sum(c * pow(self.u, l % pj, pk) for l, c in sums.items())
        return (x % pk, -end % pj)

    def mul(self, g, h):
        pk = self.p**self.k
        x = (g[0] + h[0] * pow(self.u, -g[1], pk)) % pk
        return (x, (g[1] + h[1]) % self.p**self.j)

    def inv(self, g):
        pk = self.p**self.k
        return ((-g[0] * pow(self.u, g[1], pk)) % pk, -g[1] % self.p**self.j)

    def describe(self) -> str:
        return f"Z_{self.p**self.k} x|_{self.u} Z_{self.p**self.j}"

    to_json_dict = _quotient_json


class Wreath(NamedTuple):
    """Z_{p^e} wr Z_{p^j}; elements (f, s) with f a length-p^j tuple.

    a -> delta at position 0, t -> shift by one.  Product rule
    (f1, s1)(f2, s2) = (i -> f1[i] + f2[i - s1], s1 + s2).
    """

    p: int
    e: int
    j: int

    @property
    def order(self) -> int:
        return self.p ** (self.e * self.p**self.j + self.j)

    @property
    def identity(self):
        return ((0,) * self.p**self.j, 0)

    def fold(self, sums: dict[int, int], end: int):
        """The level sum c_l sits at position -l mod p^j, and the shift is -end."""
        L, pe = self.p**self.j, self.p**self.e
        f = [0] * L
        for l, c in sums.items():
            f[-l % L] += c
        return (tuple(x % pe for x in f), -end % L)

    def mul(self, g, h):
        L = self.p**self.j
        pe = self.p**self.e
        f1, s1 = g
        f2, s2 = h
        return (
            tuple((f1[i] + f2[(i - s1) % L]) % pe for i in range(L)),
            (s1 + s2) % L,
        )

    def inv(self, g):
        L = self.p**self.j
        pe = self.p**self.e
        f, s = g
        return (tuple(-f[(i + s) % L] % pe for i in range(L)), -s % L)

    def describe(self) -> str:
        return f"Z_{self.p**self.e} wr Z_{self.p**self.j}"

    to_json_dict = _quotient_json


FinQuot = Semidirect | Wreath


def fq_eval(q: FinQuot, w: Word):
    """Image of w in q: the fold of its level sums, whose cost does not depend on |Q|."""
    return q.fold(*level_sums(w))


def _group(q: FinQuot) -> Group:
    """q as a Group for words.evaluate; every element's order divides p^(k + j)."""
    p, k, j = q[:3]
    return Group(q.identity, partial(fq_eval, q), q.mul, q.inv,
                 lambda x, e: power(q, x, e % p ** (k + j)))


def bs_relation_holds(q: FinQuot, m: int, n: int) -> bool:
    """Check t^-1 a^m t = a^n on the generator images: the relator's level
    sums are a^m at level 1 and a^-n at level 0."""
    return q.fold({1: m, 0: -n}, 0) == q.identity


def build_semidirect(p: int, k: int, j: int, m: int, n: int) -> Semidirect:
    canonical_form(m, n)  # refuses a zero parameter
    if not is_prime(p):
        raise DomainError(f"p = {decimal(p)} is not prime")
    if k < 1 or j < 1:
        raise DomainError("k and j must be positive")
    if k + j > _max_exponent(p, CONSTRUCTION_ORDER_CAP):
        raise DomainError(f"order {decimal(p)}^{decimal(k + j)} exceeds the construction cap")
    pk = p**k
    if m % p == 0:
        raise DomainError(f"gcd(m, p) != 1: p = {decimal(p)} divides m = {decimal(m)}")
    u = n * pow(m, -1, pk) % pk
    if u % p != 1:
        raise DomainError(
            f"u = n/m = {decimal(u % p)} mod {decimal(p)}, but u = 1 mod p is required"
        )
    if pow(u, p**j, pk) != 1:
        raise DomainError(
            f"order of u = {decimal(u)} mod {decimal(pk)} does not divide {decimal(p)}^{decimal(j)}"
        )
    q = Semidirect(p, k, j, u)
    if not bs_relation_holds(q, m, n):
        raise VerificationError("defining relation fails in the semidirect quotient")
    return q


def build_wreath(p: int, e: int, j: int) -> Wreath:
    if not is_prime(p):
        raise DomainError(f"p = {decimal(p)} is not prime")
    if e < 1 or j < 1:
        raise DomainError("e and j must be positive")
    top = _max_exponent(p, CONSTRUCTION_ORDER_CAP)
    if j > top or e * p**j + j > top:  # |Q| = p^(e p^j + j)
        p_, e_, j_ = map(decimal, (p, e, j))
        raise DomainError(f"wreath order {p_}^({e_} * {p_}^{j_} + {j_}) exceeds the construction cap")
    return Wreath(p, e, j)


# A Howell row (c, p^a, row): the row is zero before column c and has the
# pivot p^a at column c.
HowellRow = tuple[int, int, tuple[int, ...]]


def _howell(gens, p: int, e: int) -> tuple[HowellRow, ...]:
    """Howell form of the Z/p^e-span of gens (Howell, 1986).

    Pivot columns strictly increase, and every element of the span that is
    zero before column c is a combination of the rows with pivot column >= c.
    That property lets _in_span decide membership by forward elimination,
    and makes the span's size the product of p^e / p^a over the rows.
    """
    mod = p**e
    todo = [[x % mod for x in g] for g in gens]
    rows: list[HowellRow] = []
    for c in range(len(todo[0]) if todo else 0):
        live = [r for r in todo if r[c]]
        if not live:
            continue
        piv = min(live, key=lambda r: valuation(r[c], p))
        todo = [r for r in todo if r is not piv]
        pa = p ** valuation(piv[c], p)
        unit = pow(piv[c] // pa, -1, mod)
        piv = [x * unit % mod for x in piv]
        for r in todo:
            f = r[c] // pa
            if f:
                r[c:] = [(x - f * y) % mod for x, y in zip(r[c:], piv[c:])]
        # Howell's extra row: the multiple of the pivot row that kills column c.
        todo.append([x * (mod // pa) % mod for x in piv])
        todo = [r for r in todo if any(r)]
        rows.append((c, pa, tuple(piv)))
    return tuple(rows)


def _in_span(rows: tuple[HowellRow, ...], vec, mod: int) -> bool:
    vec = [x % mod for x in vec]
    for c, pa, row in rows:
        if vec[c] % pa:
            return False
        f = vec[c] // pa
        if f:
            vec[c:] = [(x - f * y) % mod for x, y in zip(vec[c:], row[c:])]
    return not any(vec)


class GammaChain(NamedTuple):
    """gamma_1 > gamma_2 > ... > {id} of a finite quotient, in closed form.

    For i >= 2, gamma_i lies in the abelian base (the Z_{p^k} of a
    semidirect product, the (Z_{p^e})^{p^j} of a wreath product): it is the
    set of (f, 0) with f in the Z/modulus-span of terms[i - 2], a Howell
    form.  The last term spans {0}.
    """

    order: int
    modulus: int
    terms: tuple[tuple[HowellRow, ...], ...]

    @property
    def sizes(self) -> list[int]:
        sizes = [self.order]
        for rows in self.terms:
            sizes.append(math.prod(self.modulus // pa for _, pa, _ in rows))
        return sizes

    def contains(self, i: int, g) -> bool:
        """Is g in gamma_i?  Beyond the chain's end gamma_i is {id}."""
        if i < 1:
            raise DomainError("gamma index must be >= 1")
        if i == 1:
            return True
        f, s = g
        if s != 0:
            return False
        rows = self.terms[i - 2] if i - 2 < len(self.terms) else ()
        # a semidirect base element is one int, a wreath one a tuple
        return _in_span(rows, f if isinstance(f, tuple) else (f,), self.modulus)


def _semidirect_terms(q: Semidirect) -> tuple:
    """gamma_i = p^min(k, (i-1)v) Z_{p^k} x 0 for i >= 2, v = v_p(u - 1).

    gamma_2 is generated by [a, t] = x^(u-1) up to a unit, and each further
    commutator with t multiplies by u - 1 up to a unit, of valuation v again.
    """
    v = valuation(q.u - 1, q.p) if q.u != 1 else q.k  # u = 1: abelian
    return tuple(((0, q.p**c, (q.p**c,)),) for c in range(v, q.k, v)) + ((),)


def _wreath_terms(q: Wreath) -> tuple:
    """gamma_i = (x - 1)^(i-1) B for i >= 2, B = Z_{p^e}[x]/(x^L - 1), L = p^j.

    This is the rule for A wr C with C cyclic (Liebeck, 1962): gamma_2 is
    the augmentation ideal (x - 1)B, and [gamma_i, G] = (x - 1) gamma_i.
    As a Z/p^e-module the ideal is spanned by the L cyclic shifts of
    (x - 1)^(i-1).  (x - 1)^L = x^L - 1 mod p, so (x - 1)^(eL) = 0 in B.

    For e = 1, B = F_p[x]/((x - 1)^L), and the ideal has the basis
    (x - 1)^(i-1) x^c, c = 0..L-i: no shift wraps, and each has its first
    nonzero coefficient at column c.  Scaled by (-1)^(i-1) to pivot 1, they
    are the rows _howell returns for these shifts, so only e >= 2 runs it.
    """
    L = q.p**q.j
    pe = q.p**q.e
    g = [1] + [0] * (L - 1)
    terms = []
    for i in range(2, q.e * L + 2):
        g = [(g[s - 1] - g[s]) % pe for s in range(L)]  # times (x - 1)
        if q.e == 1:
            h = tuple(g if i % 2 else [-x % pe for x in g])  # (1 - x)^(i-1)
            terms.append(tuple((c, 1, (0,) * c + h[:L - c]) for c in range(L - i + 1)))
        else:
            terms.append(_howell([g[L - s:] + g[:L - s] for s in range(L)], q.p, q.e))
        if not terms[-1]:
            break
    return tuple(terms)


def _gamma_chain(q: FinQuot) -> GammaChain:
    if isinstance(q, Semidirect):
        chain = GammaChain(q.order, q.p**q.k, _semidirect_terms(q))
    else:
        chain = GammaChain(q.order, q.p**q.e, _wreath_terms(q))
    sizes = chain.sizes
    if sizes[-1] != 1 or any(b >= a for a, b in zip(sizes, sizes[1:])):
        raise VerificationError("lower central series failed to descend to 1")
    return chain


@lru_cache(maxsize=256)
def fq_gamma_series(q: FinQuot) -> GammaChain:
    """Lower central series of q, gamma_{i+1} = [gamma_i, G], in closed form."""
    return _gamma_chain(q)


class SearchBudget(NamedTuple):
    k_max: int = 6
    j_max: int = 4
    order_cap: int = 1_000_000


DEFAULT_BUDGET = SearchBudget()


class Certificate(NamedTuple):
    """Proof that an element of BS(m, n) lies outside gamma_i.

    Sound because images of gamma_i(G) land in gamma_i(Q) under any
    homomorphism: if the image avoids gamma_i(Q), the element avoids
    gamma_i(G).  The element is kept as levels (tuple(sums.items()), end)
    that the quotient folds to the image: a Word's level sums, or a
    bracketed text's image (f, s) with f[c] at level -c (f is one entry in
    a semidirect product) and end -s.
    """

    m: int
    n: int
    levels: tuple[tuple[tuple[int, int], ...], int]
    quotient: FinQuot
    image: object
    i: int
    gamma_sizes: tuple[int, ...]

    @property
    def statement(self) -> str:
        i, m, n = map(decimal, (self.i, self.m, self.n))
        return (
            f"image {self.image} of the element in {self.quotient.describe()} "
            f"lies outside gamma_{i}(Q), hence the element lies outside gamma_{i}(BS({m},{n}))"
        )

    def __str__(self) -> str:
        return f"{self.statement}\ngamma sizes: {list(self.gamma_sizes)}"

    def verify(self) -> bool:
        """Refold the image, rebuild the chain, and recheck the verdict."""
        q, (sums, end) = self.quotient, self.levels
        if not bs_relation_holds(q, self.m, self.n):
            return False
        if q.fold(dict(sums), end) != self.image:
            return False
        chain = _gamma_chain(q)  # not the cached chain that found it
        if tuple(chain.sizes) != self.gamma_sizes:
            return False
        return not chain.contains(self.i, self.image)

    def to_json_dict(self) -> dict:
        # m, n and the levels are the question and are left out; the
        # quotient is spelled by its own JSON.
        return {
            **self.quotient.to_json_dict(),
            "image": json_fields(self.image),
            "i": self.i,
            "gamma_sizes": json_fields(self.gamma_sizes),
        }


def _semidirect_primes(m: int, n: int) -> list[int]:
    if n == m:
        # action is trivial for every p coprime to m; two small ones suffice
        out = []
        c = 2
        while len(out) < 2:
            if is_prime(c) and m % c != 0:
                out.append(c)
            c += 1
        return out
    return [p for p in prime_factors(abs(n - m)) if m % p != 0]


def quotient_family(m: int, n: int, budget: SearchBudget = DEFAULT_BUDGET) -> list[FinQuot]:
    """All in-budget quotients receiving BS(m, n), smallest first."""
    canonical_form(m, n)  # refuses a zero parameter: every prime divides 0
    d = math.gcd(abs(m), abs(n))
    out: list[FinQuot] = []
    for p in _semidirect_primes(m, n):
        top = _max_exponent(p, budget.order_cap)  # |Q| = p^(k + j) <= p^top
        for k in range(1, min(budget.k_max, top - 1) + 1):
            pk = p**k
            u = n * pow(m, -1, pk) % pk
            if u % p != 1:
                continue
            j_min = next(j for j in itertools.count(1) if pow(u, p**j, pk) == 1)
            for j in range(j_min, min(budget.j_max, top - k) + 1):
                out.append(Semidirect(p, k, j, u))
    for p, v in prime_factors(d).items():
        top = _max_exponent(p, budget.order_cap)  # |Q| = p^(e p^j + j) <= p^top
        for e in range(1, v + 1):
            for j in range(1, min(budget.j_max, top) + 1):
                if e * p**j + j > top:
                    break
                out.append(Wreath(p, e, j))
    out.sort(key=lambda q: q.order)
    return out


@lru_cache(maxsize=64)
def _checked_family(m: int, n: int, budget: SearchBudget) -> tuple[FinQuot, ...]:
    """quotient_family with the defining relation checked on every member.

    A refused family raises before any member is used, and lru_cache keeps
    no failed call, so only a fully checked family is ever cached.
    """
    family = tuple(quotient_family(m, n, budget))
    for q in family:
        if not bs_relation_holds(q, m, n):
            raise VerificationError(f"family produced an invalid quotient {q.describe()}")
    return family


def certify_not_in_gamma(
    m: int,
    n: int,
    w: Word | str,
    i: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    max_bits: int | None = None,
) -> Certificate | None:
    """Search the budgeted quotient family for a gamma_i exclusion proof for
    a Word or a text, read under the bit cap max_bits.

    None means no quotient in the family separated the element; that is
    inconclusive, not a membership proof.
    """
    x = read_text(w, max_bits) if isinstance(w, str) else w
    if i < 2:
        raise DomainError("certification index must be >= 2")
    if isinstance(x, Word):
        sums, end = level_sums(x)  # every image is a fold of these
    for q in _checked_family(m, n, budget):
        image = q.fold(sums, end) if isinstance(x, Word) else evaluate(_group(q), x)
        if image == q.identity:
            continue
        chain = fq_gamma_series(q)
        if not chain.contains(i, image):
            if not isinstance(x, Word):  # the image as levels that q folds back to it
                f, s = image
                sums, end = {-c: y for c, y in enumerate(f if isinstance(f, tuple) else (f,))}, -s
            return Certificate(m, n, (tuple(sums.items()), end), q, image, i, tuple(chain.sizes))
    return None
