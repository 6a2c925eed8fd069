"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import random
import re

from bsgroups.affine import AffineElem, ZnElement, _pow
from bsgroups.britton import BrittonNF, BSParams
from bsgroups.errors import DomainError, ExponentCapExceeded, ParseError, VerificationError
from bsgroups.finquot import (
    DEFAULT_BUDGET,
    Certificate,
    FinQuot,
    Semidirect,
    Wreath,
    _howell,
    bs_relation_holds,
    fq_gamma_series,
    quotient_family,
)
from bsgroups.freeprod import BasisWord, FreeProdWord, _emit
from bsgroups.words import (
    MAX_NESTING,
    Commutator,
    Gen,
    Group,
    Power,
    Product,
    Word,
    _check_cap,
    _check_size,
    decimal,
    evaluate,
    free_group,
    level_sums,
    power,
    resolve_max_bits,
)


def rand_word(rng: random.Random, max_syllables: int = 8, max_exp: int = 3) -> Word:
    pairs = []
    for _ in range(rng.randrange(0, max_syllables + 1)):
        g = rng.choice("at")
        e = rng.choice([x for x in range(-max_exp, max_exp + 1) if x != 0])
        pairs.append((g, e))
    return Word.from_pairs(pairs)


def rand_letters(rng: random.Random, length: int) -> Word:
    """A word of exactly `length` single letters before free reduction."""
    pairs = [(rng.choice("at"), rng.choice((-1, 1))) for _ in range(length)]
    return Word.from_pairs(pairs)


def insert_relator(rng: random.Random, p: BSParams, w: Word) -> Word:
    """Splice t^-1 a^m t a^-n (or its inverse) into w at a random point."""
    relator = [("t", -1), ("a", p.m), ("t", 1), ("a", -p.n)]
    if rng.random() < 0.5:
        relator = [(g, -e) for g, e in reversed(relator)]
    letters = list(w.syllables)
    cut = rng.randrange(0, len(letters) + 1)
    return Word.from_pairs(letters[:cut] + relator + letters[cut:])


def commutator(u: Word, v: Word) -> Word:
    return u.inverse() * v.inverse() * u * v


def least_cap(f) -> int:
    """Smallest bit cap at which f(cap) raises no ExponentCapExceeded."""

    def ok(cap):
        try:
            f(cap)
        except ExponentCapExceeded:
            return False
        return True

    lo, hi = 0, 1
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def rand_gamma2_word(rng: random.Random, p: BSParams, central: int = 0) -> Word:
    """Product of commutators times a central a-power; lies in gamma_2."""
    w = Word.from_pairs((("a", (p.m - p.n) * central),))
    for _ in range(rng.randrange(2, 6)):
        u = rand_word(rng, max_syllables=3, max_exp=2)
        v = rand_word(rng, max_syllables=3, max_exp=2)
        w = w * commutator(u, v)
    return w


# Brute-force images and lower central series of a finite quotient: the
# oracles that the closed forms in bsgroups.finquot are tested against.


def generator_images(q: FinQuot) -> tuple:
    """The images of a and t, spelled from the product rule: a is (1, 0) or
    (delta_0, 0), t is (0, 1) or (the zero function, 1)."""
    if isinstance(q, Semidirect):
        return (1, 0), (0, 1)
    L = q.p**q.j
    return ((1,) + (0,) * (L - 1), 0), ((0,) * L, 1)


def product_fq_eval(q: FinQuot, w: Word):
    """Image of a word as a product of one power of a generator image per
    syllable, exponents first reduced into [-|Q|/2, |Q|/2)."""
    order = q.order
    half = order // 2
    images = dict(zip("at", generator_images(q)))
    acc = q.identity
    for g, e in w.syllables:
        e = (e + half) % order - half
        acc = q.mul(acc, power(q, images[g], e))
    return acc


def elements(q: FinQuot):
    if isinstance(q, Semidirect):
        return itertools.product(range(q.p**q.k), range(q.p**q.j))
    L = q.p**q.j
    return ((f, s) for f in itertools.product(range(q.p**q.e), repeat=L) for s in range(L))


def _closure(q: FinQuot, gens) -> frozenset:
    """Subgroup generated by gens, skipping generators already reached."""
    elems = {q.identity}
    order = [q.identity]
    active: list = []
    for s in gens:
        if s in elems:
            continue
        active.append(s)
        frontier = list(order)
        while frontier:
            h = frontier.pop()
            for g in active:
                x = q.mul(h, g)
                if x not in elems:
                    elems.add(x)
                    order.append(x)
                    frontier.append(x)
    return frozenset(elems)


def _conjugation_closure(q: FinQuot, seed: set) -> set:
    gens = generator_images(q)
    conjugators = [*gens, *map(q.inv, gens)]
    out = set(seed)
    frontier = list(seed)
    while frontier:
        g = frontier.pop()
        for c in conjugators:
            x = q.mul(q.mul(q.inv(c), g), c)
            if x not in out:
                out.add(x)
                frontier.append(x)
    return out


def brute_gamma_series(q: FinQuot) -> list[frozenset]:
    """gamma_1 > gamma_2 > ... > {id} as element sets, gamma_{i+1} = [gamma_i, G]."""
    gens = generator_images(q)
    current = frozenset(elements(q))
    chain = [current]
    trivial = frozenset([q.identity])
    while current != trivial:
        seed = set()
        for g in current:
            gi = q.inv(g)
            for x in gens:
                seed.add(q.mul(q.mul(q.mul(gi, q.inv(x)), g), x))
        nxt = _closure(q, _conjugation_closure(q, seed))
        assert nxt < current, "lower central series failed to descend"
        chain.append(nxt)
        current = nxt
    return chain


def reference_wreath_terms(q: Wreath) -> tuple:
    """gamma_i = (x - 1)^(i-1) B as the Howell form of the L cyclic shifts of
    (x - 1)^(i-1), for every e: the oracle for finquot._wreath_terms, which
    writes the e = 1 terms down in closed form."""
    L, pe = q.p**q.j, q.p**q.e
    g = [1] + [0] * (L - 1)
    terms = []
    for _ in range(q.e * L):
        g = [(g[s - 1] - g[s]) % pe for s in range(L)]  # times (x - 1)
        terms.append(_howell([g[L - s:] + g[:L - s] for s in range(L)], q.p, q.e))
        if not terms[-1]:
            break
    return tuple(terms)


def reference_certify(m: int, n: int, w: Word, i: int, budget=DEFAULT_BUDGET):
    """certify_not_in_gamma as it searched before families were cached: a
    fresh quotient_family per query and the relation checked on each quotient
    it reaches.  The oracle for the search over the checked, cached family."""
    if i < 2:
        raise DomainError("certification index must be >= 2")
    sums, end = level_sums(w)
    for q in quotient_family(m, n, budget):
        if not bs_relation_holds(q, m, n):
            raise VerificationError(f"family produced an invalid quotient {q.describe()}")
        image = q.fold(sums, end)
        if image == q.identity:
            continue
        chain = fq_gamma_series(q)
        if not chain.contains(i, image):
            return Certificate(m, n, (tuple(sums.items()), end), q, image, i, tuple(chain.sizes))
    return None


def multiplicative_order(u: int, mod: int) -> int:
    """Order of the unit u in (Z/mod)* by walking its powers: the oracle for
    the least j with u^(p^j) = 1 in finquot.quotient_family."""
    u %= mod
    k, acc = 1, u
    while acc != 1 % mod:
        acc = acc * u % mod
        k += 1
    return k


def trial_factors(n: int) -> dict[int, int]:
    """Factor |n| > 0 by trial division: the oracle for intmath.prime_factors."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Eager Britton scan: t^e letter by letter, every carry rippled down the whole
# stack at once.  Quadratic on deep commutators, but each step is one
# relation; the oracle for bsgroups.britton's deferred-carry scan.


def euclid_divmod(e: int, d: int) -> tuple[int, int]:
    """Return (q, r) with e = d*q + r and 0 <= r < |d|, for negative d too."""
    r = e % abs(d)
    return (e - r) // d, r


def _eager_letters(w: Word):
    for g, e in w.syllables:
        if g == "a":
            yield "a", e
        else:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield "t", step


def _eager_settle(m: int, n: int, r0: int, st: list[list[int]], cap: int) -> int:
    # Everything below the top is canonical and pinch-free on entry; the same
    # holds for the whole stack on exit.
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


def _eager_scan(p: BSParams, r0: int, st: list[list[int]], w: Word, cap: int) -> BrittonNF:
    for g, e in _eager_letters(w):
        if g == "a":
            if st:
                st[-1][1] = _check_cap(st[-1][1] + e, cap)
            else:
                r0 = _check_cap(r0 + e, cap)
        else:
            r0 = _eager_settle(p.m, p.n, r0, st, cap)
            if st and st[-1][1] == 0 and st[-1][0] == -e:
                st.pop()
            else:
                st.append([e, 0])
    r0 = _eager_settle(p.m, p.n, r0, st, cap)
    return BrittonNF(r0, tuple((eps, r) for eps, r in st))


def eager_normalize(p: BSParams, w: Word, max_bits: int = 1 << 40) -> BrittonNF:
    return _eager_scan(p, 0, [], w, max_bits)


def eager_multiply(p: BSParams, x: BrittonNF, y: BrittonNF, max_bits: int = 1 << 40) -> BrittonNF:
    return _eager_scan(p, x.r0, [list(entry) for entry in x.tail], nf_to_word(y), max_bits)


def nf_to_word(nf: BrittonNF) -> Word:
    """The free word a^r0 t^e1 a^r1 ... t^ek a^rk that a normal form spells."""
    pairs: list[tuple[str, int]] = [("a", nf.r0)]
    for eps, r in nf.tail:
        pairs.append(("t", eps))
        pairs.append(("a", r))
    return Word.from_pairs(pairs)


def nf_is_valid(p: BSParams, nf: BrittonNF) -> bool:
    """Structural check: residue ranges plus pinch-freeness."""
    am, an = abs(p.m), abs(p.n)
    for i, (eps, r) in enumerate(nf.tail):
        if eps not in (-1, 1):
            return False
        if not 0 <= r < (am if eps == -1 else an):
            return False
        if r == 0 and i + 1 < len(nf.tail) and nf.tail[i + 1][0] == -eps:
            return False
    return True


# The Z[1/n] arithmetic that bsgroups.affine's one Horner fold replaced:
# zn_canon with its own squaring ladder, zn_add by one scaled term, and the
# group law through zn_scale_pow and zn_neg.  The oracle for the fold's values
# and cap refusals.

_ZERO = ZnElement(0, 0)


def reference_zn_canon(n: int, num: int, l: int, cap: int | None = None) -> ZnElement:
    if num == 0:
        return _ZERO
    if n in (1, -1):
        # n^l is a unit sign; fold it into the numerator
        if n == -1 and l % 2:
            num = -num
        return ZnElement(num, 0)
    # divide out n^min(v_n(num), l) by the binary digits of the exponent,
    # so a long run of factors n costs O(log l) divisions, not l
    squares = []
    p, j = n, 1
    while j <= l and num % p == 0:
        squares.append((p, j))
        p, j = p * p, 2 * j
    for p, j in reversed(squares):
        if j <= l and num % p == 0:
            num //= p
            l -= j
    if l < 0:
        cap = resolve_max_bits(cap)
        num = _check_cap(num * _pow(n, -l, cap), cap)
        l = 0
    return ZnElement(num, l)


def reference_zn_add(n: int, x: ZnElement, y: ZnElement, cap: int | None = None) -> ZnElement:
    cap = resolve_max_bits(cap)
    if x.l < y.l:
        x, y = y, x
    num = x.num + (y.num * _pow(n, x.l - y.l, cap) if y.num else 0)
    _check_cap(num, cap)
    return reference_zn_canon(n, num, x.l, cap)


def reference_zn_neg(x: ZnElement) -> ZnElement:
    return ZnElement(-x.num, x.l)


def reference_zn_scale_pow(n: int, x: ZnElement, k: int, cap: int | None = None) -> ZnElement:
    """Multiply by the unit n^k (k of either sign)."""
    cap = resolve_max_bits(cap)
    out = reference_zn_canon(n, x.num, x.l - k, cap)
    _check_cap(out.num, cap)
    return out


def reference_affine_compose(
    n: int, g: AffineElem, h: AffineElem, max_bits: int | None = None
) -> AffineElem:
    cap = resolve_max_bits(max_bits)
    b = reference_zn_add(n, g.b, reference_zn_scale_pow(n, h.b, g.k, cap), cap)
    return AffineElem(g.k + h.k, b)


def reference_affine_invert(n: int, g: AffineElem, max_bits: int | None = None) -> AffineElem:
    cap = resolve_max_bits(max_bits)
    return AffineElem(-g.k, reference_zn_neg(reference_zn_scale_pow(n, g.b, -g.k, cap)))


def reference_to_affine(n: int, w: Word, max_bits: int | None = None) -> AffineElem:
    """to_affine's Horner fold over level sums, canonicalised by reference_zn_canon."""
    if n == 0:
        raise DomainError("affine representation needs n != 0")
    cap = resolve_max_bits(max_bits)
    coeffs, k = level_sums(w)
    # Horner from the top level down: acc * n^level is the sum so far
    acc = 0
    level = 0
    for l in sorted((l for l, c in coeffs.items() if c), reverse=True):
        acc = _check_cap((acc * _pow(n, level - l, cap) if acc else 0) + coeffs[l], cap)
        level = l
    return AffineElem(k, reference_zn_canon(n, acc, -level, cap))


def reference_free_group(cap: int) -> Group:
    """The free group with Words as its values, inverted by Word.inverse: the
    oracle for words.free_group, whose values are (word, inverse) pairs."""

    def word(w: Word) -> Word:
        _check_cap(max((abs(e) for _, e in w.syllables), default=0), cap)
        return w

    def mul(x: Word, y: Word) -> Word:
        # both factors are reduced, so they cancel or merge only at the seam
        xs, ys = x.syllables, y.syllables
        k, i, seam = len(xs), 0, ()
        while not seam and k and i < len(ys) and xs[k - 1][0] == ys[i][0]:
            k, i = k - 1, i + 1
            e = xs[k][1] + ys[i - 1][1]
            seam = ((ys[i - 1][0], _check_cap(e, cap)),) if e else ()
        _check_size(k + len(seam) + len(ys) - i)
        return Word(xs[:k] + seam + ys[i:])

    return Group(Word(), word, mul, Word.inverse)


def reference_valuation(x: int, p: int) -> int:
    """The p-adic valuation one division per factor: the oracle for intmath.valuation."""
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# The per-syllable fold that bsgroups.affine.to_affine replaced: three Z[1/n]
# calls per a-syllable, each bit-capped.  The oracle for its per-level form.


def syllable_fold_to_affine(n: int, w: Word, max_bits: int | None = None) -> AffineElem:
    if n == 0:
        raise DomainError("affine representation needs n != 0")
    cap = resolve_max_bits(max_bits)
    k = 0
    b = ZnElement(0, 0)
    for g, e in w.syllables:
        if g == "t":
            k -= e
        else:
            b = reference_zn_add(n, b, reference_zn_scale_pow(n, ZnElement(e, 0), k, cap), cap)
    return AffineElem(k, b)


# The expression parser that bsgroups.words.parse_expr replaced: a token at a
# time, one call chain and one new node per letter.  The oracle for the
# run-at-a-time parser: the same trees, errors, positions and cap refusals.

_DIGITS = re.compile("[0-9]+")
_SPACES = re.compile(r"\s+")


class _ReferenceParser:
    def __init__(self, text: str, cap: int):
        self.text = text
        self.pos = 0
        self.cap = cap
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def peek(self) -> str:
        if self.text[self.pos : self.pos + 1].isspace():
            self.pos = _SPACES.match(self.text, self.pos).end()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_expr(self):
        terms = []
        while True:
            c = self.peek()
            if c == "" or c in ")],":
                break
            terms.append(self.parse_term())
        if not terms:
            raise self.error("empty expression")
        return terms[0] if len(terms) == 1 else Product(tuple(terms))

    def parse_term(self):
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return Power(atom, self.parse_int())
        return atom

    def parse_atom(self):
        c = self.peek()
        if c in ("a", "t"):
            self.pos += 1
            return Gen(c)
        if c in ("A", "T"):
            self.pos += 1
            return Power(Gen(c.lower()), -1)
        if c in ("(", "["):
            if self.depth == MAX_NESTING:
                raise self.error(f"brackets nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            node = self.parse_expr()
            if c == "[":
                self.expect(",")
                node = Commutator(node, self.parse_expr())
            self.expect(")" if c == "(" else "]")
            self.depth -= 1
            return node
        raise self.error(f"unexpected character {c!r}" if c else "unexpected end of input")

    def parse_int(self) -> int:
        self.peek()
        start = self.pos
        if self.text.startswith("-", start):
            self.pos += 1
        run = _DIGITS.match(self.text, self.pos)
        if run is None:
            raise self.error("expected an integer")
        digits, self.pos = self.pos, run.end()
        body = self.text[digits : self.pos].lstrip("0") or "0"
        bits = 3 * (len(body) - 1) + 1
        if bits > self.cap:
            raise ExponentCapExceeded(bits, self.cap, at_least=True)
        value = _check_cap(decimal(body), self.cap)
        return -value if digits > start else value


def reference_parse_expr(text: str, max_bits: int | None = None):
    parser = _ReferenceParser(text, resolve_max_bits(max_bits))
    expr = parser.parse_expr()
    if parser.peek() != "":
        raise parser.error("trailing input")
    return expr


def reference_rewrite_basis(w: FreeProdWord) -> BasisWord:
    """Reidemeister-Schreier rewriting letter by letter: |e| steps per t^e.
    The oracle for freeprod.fp_rewrite_basis, which takes one step per t^e."""
    d, k, l = w.d, 0, 0
    tokens: list[tuple[int, int, int]] = []
    for g, e in w.syllables:
        if g == "a":
            l = (l + e) % d
            continue
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if l != 0:
                _emit(tokens, -k, d - l, 1)
                _emit(tokens, -k - step, d - l, -1)
            k += step
    if k != 0 or l != 0:
        raise DomainError(f"coset state ({k}, {l}) after scanning")
    return BasisWord(d, tuple(tokens))


# The JSON of each report, field by field as it was written by hand before
# to_json_dict was derived from the report's dataclass fields.


def assert_same_json(got: dict, want: dict) -> None:
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # same key order too


def reference_class_json(r) -> dict:
    return {
        "m": r.m,
        "n": r.n,
        "canonical_m": r.canonical[0],
        "canonical_n": r.canonical[1],
        "abelianization": r.abelianization,
        "residually_finite": r.residually_finite,
        "residually_p": {
            "kind": r.residually_p.kind,
            "primes": list(r.residually_p.primes),
            "condition": r.residually_p.condition,
        },
        "residually_nilpotent": r.residually_nilpotent,
        "residually_torsionfree_nilpotent": r.residually_torsionfree_nilpotent,
        "lcs_length": r.lcs_length,
        "gamma_omega": {"kind": r.gamma_omega.kind, "d": r.gamma_omega.d},
        "class_diffs": {
            "in_rf": r.class_diffs.in_rf,
            "in_rn": r.class_diffs.in_rn,
            "in_rp_any": r.class_diffs.in_rp_any,
            "strict": r.class_diffs.strict,
        },
    }


def reference_chain_json(r) -> dict:
    return {
        "m": r.m,
        "n": r.n,
        "canonical_m": r.canonical[0],
        "canonical_n": r.canonical[1],
        "case": r.case,
        "chain": list(r.chain),
        "quotients": {q: v for q, v in r.quotients},
        "notes": list(r.notes),
    }


def reference_probe_json(r) -> dict:
    return {
        "d": r.d,
        "K": r.K,
        "trials": r.trials,
        "max_len": r.max_len,
        "checked": r.checked,
        "nontrivial": r.nontrivial,
        "skipped_empty": r.skipped_empty,
        "failures": list(r.failures),
        "ok": r.ok,
    }


def reference_omega_json(r) -> dict:
    return {
        "m": r.m,
        "n": r.n,
        "d": r.d,
        "k": r.k,
        "identity": r.identity,
        "verified": r.verified,
        "note": "stable under [., G] on generators; evidence, not proof",
    }


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def reference_certificate_json(c) -> dict:
    q = c.quotient
    return {
        "quotient": q.describe(),
        "p": q.p,
        "k": q.k if isinstance(q, Semidirect) else q.e,
        "j": q.j,
        "image": _jsonable(c.image),
        "i": c.i,
        "gamma_sizes": list(c.gamma_sizes),
    }


# The text of each report, as the bs handlers built it before each report
# type rendered its own text with __str__.


def _bool(v: bool) -> str:
    return "true" if v else "false"


def reference_class_text(rep) -> str:
    rp = rep.residually_p
    lines = [
        f"BS({rep.m},{rep.n}) canonical ({rep.canonical[0]},{rep.canonical[1]})",
        f"abelianization: {rep.abelianization}",
        f"residually finite: {_bool(rep.residually_finite)}",
        f"residually p: {rp} ({rp.condition})",
        f"residually nilpotent: {_bool(rep.residually_nilpotent)}",
        f"residually torsion-free nilpotent: {_bool(rep.residually_torsionfree_nilpotent)}",
        f"lcs length: {rep.lcs_length}",
        f"gamma_omega: {rep.gamma_omega}",
    ]
    if rep.class_diffs.strict:
        lines.append(f"strict class difference: {rep.class_diffs.strict}")
    return "\n".join(lines)


def reference_sweep_row(rep) -> list[str]:
    from bsgroups.classify import prop5_chain

    return [
        str(rep.m),
        str(rep.n),
        str(rep.canonical[0]),
        str(rep.canonical[1]),
        rep.abelianization,
        _bool(rep.residually_finite),
        str(rep.residually_p),
        _bool(rep.residually_nilpotent),
        _bool(rep.residually_torsionfree_nilpotent),
        rep.lcs_length,
        str(rep.gamma_omega),
        str(prop5_chain(rep.m, rep.n).case),
    ]


def reference_chain_text(rep) -> str:
    lines = [f"BS({rep.m},{rep.n}) case {rep.case}", "chain: " + " >= ".join(rep.chain)]
    lines += [f"{q} = {v}" for q, v in rep.quotients]
    lines += [f"note: {t}" for t in rep.notes]
    return "\n".join(lines)


def reference_witness_text(w) -> str:
    data = w.to_json_dict()
    return (
        f"{data['expr']} = {data['target']} in BS({w.m},{w.n}); "
        f"value lies in gamma_{w.depth} (verified)"
    )


def reference_omega_text(rep) -> str:
    return (
        f"BS({rep.m},{rep.n}): {rep.identity}; "
        "stable under [., G] on generators (evidence, not proof)"
    )


def reference_probe_text(rep) -> str:
    return (
        f"d={rep.d} K={rep.K}: checked {rep.checked} reduced words "
        f"(skipped {rep.skipped_empty} empty), nontrivial {rep.nontrivial}, "
        f"{'OK' if rep.ok else 'FAILURES: ' + '; '.join(rep.failures)}"
    )


def reference_certificate_text(cert) -> str:
    """The certificate's lines of `bs oracle certify`, all but `re-verified:`."""
    return f"{cert.statement}\ngamma sizes: {list(cert.gamma_sizes)}"



def reference_probe_words(d: int, K: int, trials: int, max_len: int, seed: int):
    """The basis words free_subgroup_probe sampled when it listed every
    letter (k, s) and drew with rng.choice: the oracle for its draw by index."""
    from random import Random

    rng = Random(seed)
    letters = [(k, s) for k in range(-K, K + 1) if k != 0 for s in range(1, d)]
    words = []
    for _ in range(trials):
        length = rng.randint(0, max_len)
        tokens: list[tuple[int, int, int]] = []
        while len(tokens) < length:
            k, s = rng.choice(letters)
            sign = rng.choice((1, -1))
            if tokens and tokens[-1] == (k, s, -sign):
                continue
            tokens.append((k, s, sign))
        if tokens:
            words.append(tuple(tokens))
    return words


def reference_quotient_family(m: int, n: int, budget) -> list:
    """finquot.quotient_family as it was when it formed each order p^(k+j),
    or p^(e p^j + j), before comparing it with the cap: the oracle for the
    family that compares exponents."""
    from math import gcd

    from bsgroups.finquot import _semidirect_primes
    from bsgroups.intmath import prime_factors, valuation

    d = gcd(abs(m), abs(n))
    out: list = []
    for p in _semidirect_primes(m, n):
        for k in range(1, budget.k_max + 1):
            pk = p**k
            u = n * pow(m, -1, pk) % pk
            if u % p != 1:
                continue
            j_min = next(j for j in itertools.count(1) if pow(u, p**j, pk) == 1)
            for j in range(j_min, budget.j_max + 1):
                if p ** (k + j) <= budget.order_cap:
                    out.append(Semidirect(p, k, j, u))
    for p in prime_factors(d):
        for e in range(1, valuation(d, p) + 1):
            for j in range(1, budget.j_max + 1):
                q = Wreath(p, e, j)
                if q.order <= budget.order_cap:
                    out.append(q)
    out.sort(key=lambda q: q.order)
    return out


def reference_r_generators(p: BSParams, K: int) -> list[Word]:
    """freeprod.r_generators as it was when it evaluated a commutator tree in
    the free group: the oracle for the closed form spelled by Word.from_pairs."""
    if K < 0:
        raise DomainError("K must be >= 0")
    a, t = Gen("a"), Gen("t")
    a_d = Power(a, p.d)
    # t^k a^d t^-k = y^-1 x y, spelled x [x, y] so that x = a^d meets the cap
    # before y = t^-k, in the order the tree's conjugate node evaluated them
    conjugates = (Product((a_d, Commutator(a_d, Power(t, -k)))) for k in range(-K, K + 1))
    return [evaluate(free_group(resolve_max_bits(None)), Commutator(x, a))[0] for x in conjugates]


def reference_canonical_form(m: int, n: int) -> tuple[int, int]:
    """classify.canonical_form as it was when it searched the four equivalent
    presentations: the oracle for the swap and the sign."""
    if m == 0 or n == 0:
        raise DomainError("parameters must be nonzero")
    candidates = {(m, n), (n, m), (-m, -n), (-n, -m)}
    chosen = {c for c in candidates if 0 < c[0] <= abs(c[1])}
    if len(chosen) != 1:
        raise DomainError(f"canonicalization of ({m}, {n}) is ambiguous")
    return chosen.pop()


def reference_lemma2_tree(m: int, i: int):
    """The lemma2 witness tree as its own loop built it: W_1 = [a^m, t],
    W_(j+1) = [W_j^m, t]."""
    expr = Commutator(Power(Gen("a"), m), Gen("t"))
    for _ in range(i - 1):
        expr = Commutator(Power(expr, m), Gen("t"))
    return expr


def reference_member_tree(m: int, d: int, s: int):
    """The gamma_s membership witness tree as its own loop built it:
    U_1 = [a^m, t], U_(j+1) = [U_j^(m/d), t]."""
    k = m // d
    expr = Commutator(Power(Gen("a"), m), Gen("t"))
    for _ in range(s - 2):
        expr = Commutator(Power(expr, k), Gen("t"))
    return expr


def reference_omega_tree(cm: int, d: int):
    """The identity [a^(kd), t] = a^d that the omega stability check verifies,
    k = cm / d."""
    k = cm // d
    return Commutator(Power(Gen("a"), k * d), Gen("t"))
