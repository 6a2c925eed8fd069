"""Free words and commutator expressions over the two generators a, t.

Conventions used by the whole package:

  * a Word is a tuple of syllables (gen, exponent), gen in {"a", "t"},
    exponents nonzero, adjacent syllables on distinct generators;
  * [x, y] = x^-1 y^-1 x y;
  * the text grammar accepts A and T as shorthand for a^-1 and t^-1:

        expr := term+
        term := atom ("^" int)?
        atom := "a" | "t" | "A" | "T" | "(" expr ")" | "[" expr "," expr "]"
        int  := "-"? digit+

    brackets nest at most MAX_NESTING = 200 levels deep.  The parser reads a
    run of generator letters, with the power that may follow its last
    letter, in one regex match, and gives every letter a shared node.
    read_text, which every text reader calls, reads a text with no bracket
    or parenthesis straight to syllables with the same regex, building no
    tree: one syllable per run of one letter, so aaaT is a^3 t^-1, reduced
    by Word.from_pairs only when two syllables meet on one generator or a
    power is 0.

An expression is evaluated in any Group: a run of generator powers goes to
the group as one free word, and the values of a product's factors are
multiplied in pairs, level by level, so no product copies a long prefix once
per factor.  In the free group a value carries its inverse, so a bracket
costs copies of the halves it joins, not work per syllable; parse_word
returns the word half, and neither a flat text nor a power or a commutator
at the top of a text builds the inverse.  A Group may bring its own power:
the free group's writes w = u c u^-1 with c cyclically reduced, so
w^e = u c^e u^-1 and c^e is one tuple repetition of c, its size checked
before it is built; any other group takes power(), square-and-multiply.  A
Group may bring its own commutator too: Britton normal forms scan
x^-1 y^-1 x y once, and the free group reads the seams of x^-1 y^-1, x y
and their product off the halves of x and y and builds only the halves of
[x, y]; any other group builds [x, y] from two inverses and three products.

A word's a-exponent sum at each t-level (level_sums) is all that its image
in a metabelian group needs: the abelianization, the affine model of
BS(1, n) and the finite quotients all read it.  A finite quotient folds
these sums (finquot.fq_eval), or evaluates a tree by its law as a Group.

All exponents are exact Python ints.  Rewriting elsewhere in the package can
make exponents explode (conjugation by t^k scales a-exponents by n^k), so a
bit cap is enforced wherever integers can grow; the default is 1,000,000 bits
and can be overridden per call or through the BS_MAX_BITS environment
variable.
"""

from __future__ import annotations

import os
import re
from itertools import compress, count
from operator import itemgetter, ne
from typing import Callable, NamedTuple

from .errors import DomainError, ExponentCapExceeded, ParseError, WordSizeExceeded
from .intmath import decimal

DEFAULT_MAX_BITS = 1_000_000
ENV_MAX_BITS = "BS_MAX_BITS"

# Longest free word (in syllables) a product may build; a commutator tower
# doubles its length per level, so this stops it near depth 20.
_MAX_SYLLABLES = 2_000_000

# Deepest bracket nesting the parser accepts.  Parsing, evaluate and
# pretty_print recurse once or a few times per level, so this keeps them
# well inside Python's default recursion limit.
MAX_NESTING = 200

# ASCII digits only: str.isdigit and \d also accept digits such as "²" and
# "٣", which are not part of the grammar.
_DIGITS = re.compile("[0-9]+")
# \s in a str pattern matches exactly the characters for which str.isspace()
# is true.
_SPACES = re.compile(r"\s+")
# A run of generator letters after optional whitespace, with the "^ int" that
# may follow it and binds to the last letter only.  An exponent without
# digits leaves group 4 empty, and the parser reports it from the caret on.
_RUN = re.compile(r"\s*([aAtT]+)(?:\s*(\^)\s*(-?)([0-9]+)?)?")
# A bracket-free text read in one findall pass: each match is the run the
# parser reads at that place, or else the whitespace and the one character
# after it (group 5, empty only at the end of the text).  Every place matches,
# so findall never searches ahead and the matches tile the text.
_FLAT = re.compile(rf"{_RUN.pattern}|\s*(\S|\Z)")


def resolve_max_bits(value: int | None = None) -> int:
    """Pick the effective bit cap: explicit argument, else env, else default."""
    if value is None:
        raw = os.environ.get(ENV_MAX_BITS)
        try:
            value = int(raw) if raw else DEFAULT_MAX_BITS
        except ValueError:
            raise DomainError(f"{ENV_MAX_BITS}={raw!r} is not an integer") from None
    if value <= 0:
        raise DomainError(f"bit cap must be positive, got {value}")
    return value


def _check_cap(x: int, cap: int) -> int:
    if x.bit_length() > cap:
        raise ExponentCapExceeded(x.bit_length(), cap)
    return x


def _int_literal(sign: str, digits: str, cap: int) -> int:
    """Value of an exponent literal: sign "" or "-", then ASCII digits."""
    # A literal under 10^18 within the cap converts at once; any other takes
    # the checks below, which also word the error.
    if len(digits) < 19:
        value = int(digits)
        if value.bit_length() <= cap:
            return -value if sign else value
    # Leading zeros are dropped before converting: decimal() of a long zero
    # run would still build powers of ten as long as the run.
    body = digits.lstrip("0") or "0"
    # D digits make more than 3(D - 1) bits: refuse before converting
    bits = 3 * (len(body) - 1) + 1
    if bits > cap:
        raise ExponentCapExceeded(bits, cap, at_least=True)
    value = _check_cap(decimal(body), cap)
    return -value if sign else value


def _power_exponent(alpha: int, e: int, cap: int) -> int:
    """alpha e, the exponent of (g^alpha)^e.  Square-and-multiply grows the
    exponent by at most one bit a step, so it stops at cap + 1 bits: report
    what it reports."""
    r = alpha * e
    if r.bit_length() > cap:
        raise ExponentCapExceeded(cap + 1, cap)
    return r


def _check_size(syllables: int) -> None:
    if syllables > _MAX_SYLLABLES:
        raise WordSizeExceeded(
            f"word would reach {decimal(syllables)} syllables, limit {_MAX_SYLLABLES}"
        )


# ---------------------------------------------------------------------------
# Words


def _reduce_pairs(pairs, d: int = 0) -> list[tuple[str, int]]:
    # One streaming pass; a syllable that cancels exposes the previous one to
    # the next, which handles cascades.  d > 0 reduces a-exponents mod d.
    out: list[tuple[str, int]] = []
    for gen, exp in pairs:
        if gen not in ("a", "t"):
            raise ValueError(f"unknown generator {gen!r}")
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if d and gen == "a":
            exp %= d
        if exp:
            out.append((gen, exp))
    return out


class Word(NamedTuple):
    """Freely reduced word; construct through from_pairs unless the tuple is
    already known to be reduced."""

    syllables: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_pairs(cls, pairs) -> "Word":
        return cls(tuple(_reduce_pairs(pairs)))

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __mul__(self, other: "Word") -> "Word":
        # both factors are reduced, so only their seam can cancel or merge;
        # a product is not capped
        xs, ys = self.syllables, other.syllables
        k, i, seam = _seam(xs, ys)
        return Word(xs[:k] + seam + ys[i:])

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{decimal(e)}" for g, e in self.syllables)


def level_sums(w: Word) -> tuple[dict[int, int], int]:
    """The a-exponent sum at each level k = -(t-exponent read so far), and the
    final level: the data a metabelian image (abelianization, affine, finite
    quotient) needs.  The a-exponent sum is the sum of the level sums, and the
    t-exponent sum is minus the final level."""
    sums: dict[int, int] = {}
    k = 0
    for g, e in w.syllables:
        if g == "t":
            k -= e
        else:
            sums[k] = sums.get(k, 0) + e
    return sums, k


# ---------------------------------------------------------------------------
# Commutator expressions


def _node_repr(self) -> str:
    """Keyword text, such as Power(base=Gen(name='a'), exp=-1), with ints
    through decimal().  The tree is walked with a stack: the tuple repr would
    recurse once per level and refuse an int past 4,300 digits."""
    # A str on the stack is output as is; a value to render is boxed in a
    # 1-tuple.
    out, stack = [], [(self,)]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        (v,) = x
        if isinstance(v, CommExpr):
            parts = [f"{type(v).__qualname__}("]
            for i, f in enumerate(v._fields):
                parts += [f"{', ' if i else ''}{f}=", (v[i],)]
            parts.append(")")
        elif isinstance(v, tuple):
            parts = ["("]
            for i, y in enumerate(v):
                parts += [", " if i else "", (y,)]
            parts.append(",)" if len(v) == 1 else ")")
        else:
            out.append(decimal(v) if type(v) is int else repr(v))
            continue
        stack.extend(reversed(parts))
    return "".join(out)


def _node_deepcopy(self, memo):
    # Every field is a str, an int, a node or a tuple of nodes, so a node is
    # its own deep copy; copying field by field would recurse once per level.
    return self


# The expression nodes.  A node equals the plain tuple of its fields, as every
# record does, and no two node types can be equal: Gen holds a str where
# Product holds a tuple, and Power an int where Commutator holds a node.


class Gen(NamedTuple):
    name: str  # "a" or "t"

    __repr__ = _node_repr
    __deepcopy__ = _node_deepcopy


class Power(NamedTuple):
    base: CommExpr
    exp: int

    __repr__ = _node_repr
    __deepcopy__ = _node_deepcopy


class Product(NamedTuple):
    factors: tuple[CommExpr, ...]

    __repr__ = _node_repr
    __deepcopy__ = _node_deepcopy


class Commutator(NamedTuple):
    left: CommExpr
    right: CommExpr

    __repr__ = _node_repr
    __deepcopy__ = _node_deepcopy


CommExpr = Gen | Power | Product | Commutator

# The syllable of each letter, and its node, shared by every parse: nodes are
# immutable.
_SYLLABLES = {"a": ("a", 1), "A": ("a", -1), "t": ("t", 1), "T": ("t", -1)}
_LETTERS = {c: Gen(g) if e == 1 else Power(Gen(g), e) for c, (g, e) in _SYLLABLES.items()}


class _RunSyllables(dict):
    """The syllable of a run of one letter, such as ("a", -3) for AAA; runs
    of up to 16 letters are kept."""

    def __missing__(self, run: str) -> tuple[str, int]:
        gen, e = _SYLLABLES[run[0]]
        syllable = (gen, e * len(run))
        if len(run) <= 16:
            self[run] = syllable
        return syllable


_RUN_SYLLABLES = _RunSyllables()
_GEN, _EXP = itemgetter(0), itemgetter(1)  # of a syllable
# The maximal runs of one letter in a run of generator letters.
_LETTER_RUNS = re.compile("a+|A+|t+|T+").findall


class _Parser:
    def __init__(self, text: str, cap: int):
        self.text = text
        self.pos = 0
        self.cap = cap
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        # one regex call per whitespace run; the common case, a token right
        # at pos, costs a single character test
        if self.text[self.pos : self.pos + 1].isspace():
            self.pos = _SPACES.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_expr(self) -> CommExpr:
        terms = []
        while True:
            run = _RUN.match(self.text, self.pos)
            if run is not None:
                letters, caret, sign, digits = run.groups()
                terms.extend(map(_LETTERS.__getitem__, letters))
                self.pos = run.end()
                if caret is not None:
                    if digits is None:
                        # parse_int reports the missing digits, from the caret on
                        self.pos = run.end(2)
                        exp = self.parse_int()
                    else:
                        exp = _int_literal(sign, digits, self.cap)
                    terms[-1] = Power(terms[-1], exp)
                continue
            c = self.peek()
            if c == "" or c in ")],":
                break
            terms.append(self.parse_term())
        if not terms:
            raise self.error("empty expression")
        return terms[0] if len(terms) == 1 else Product(tuple(terms))

    def parse_term(self) -> CommExpr:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return Power(atom, self.parse_int())
        return atom

    def parse_atom(self) -> CommExpr:
        # Generator letters never reach here: parse_expr reads them in runs.
        c = self.peek()
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
        self.skip_ws()
        sign = "-" if self.text.startswith("-", self.pos) else ""
        self.pos += len(sign)
        run = _DIGITS.match(self.text, self.pos)
        if run is None:
            raise self.error("expected an integer")
        self.pos = run.end()
        return _int_literal(sign, run.group(), self.cap)


def parse_expr(text: str, max_bits: int | None = None) -> CommExpr:
    """Parse the expression grammar; raises ParseError with a position."""
    parser = _Parser(text, resolve_max_bits(max_bits))
    expr = parser.parse_expr()
    if parser.peek() != "":
        raise parser.error("trailing input")
    return expr


def pretty_print(expr: CommExpr) -> str:
    """Render an expression in the input grammar; parsing the output gives
    back the same tree up to Product flattening."""
    if isinstance(expr, Gen):
        return expr.name
    if isinstance(expr, Power):
        return f"{_atomic(expr.base)}^{decimal(expr.exp)}"
    if isinstance(expr, Product):
        return " ".join(_factor(f) for f in expr.factors)
    if isinstance(expr, Commutator):
        return f"[{pretty_print(expr.left)}, {pretty_print(expr.right)}]"
    raise TypeError(f"not a CommExpr: {expr!r}")


def _atomic(expr: CommExpr) -> str:
    if isinstance(expr, (Gen, Commutator)):
        return pretty_print(expr)
    return f"({pretty_print(expr)})"


def _factor(expr: CommExpr) -> str:
    if isinstance(expr, Product):
        return f"({pretty_print(expr)})"
    return pretty_print(expr)


class Group(NamedTuple):
    """A group as callables, the only kind of group evaluate takes: word(w)
    is the image of a free Word.  power(x, e) is x^e and commutator(x, y) is
    [x, y] where the group has a faster rule than square-and-multiply or
    x^-1 y^-1 x y built from mul and inv; evaluate uses those where they are
    None."""

    identity: object
    word: Callable[[Word], object]
    mul: Callable[[object, object], object]
    inv: Callable[[object], object]
    power: Callable[[object, int], object] | None = None
    commutator: Callable[[object, object], object] | None = None


def power(G, x, e: int):
    """x^e by square-and-multiply; G needs only identity, mul and inv."""
    if e < 0:
        x, e = G.inv(x), -e
    acc = G.identity
    while e:
        if e & 1:
            acc = G.mul(acc, x)
        e >>= 1
        if e:
            x = G.mul(x, x)
    return acc


def _capped(w: Word, cap: int) -> Word:
    if w.syllables:
        _check_cap(max(map(abs, map(_EXP, w.syllables))), cap)
    return w


def free_group(cap: int) -> Group:
    """Free group on a, t with bit-capped exponents.  An element is the pair
    (w, w^-1) of reduced Words, so inverting swaps the halves and no
    commutator, conjugate or negative power reverses a long word: every
    product is tuple slicing and concatenation, and a commutator builds its
    two halves and nothing else."""

    values: dict[Word, tuple[Word, Word]] = {}  # each distinct run is inverted once

    def word(w: Word) -> tuple[Word, Word]:
        value = values.get(w)
        if value is None:
            value = values[w] = (_capped(w, cap), w.inverse())
        return value

    def mul(x: tuple[Word, Word], y: tuple[Word, Word]) -> tuple[Word, Word]:
        # y^-1 x^-1 cancels the mirror image of the seam of x y
        xs, ys = x[0].syllables, y[0].syllables
        k, i, seam = _seam(xs, ys)
        if seam:
            _check_cap(seam[0][1], cap)
        _check_size(k + len(seam) + len(ys) - i)
        mirror = _mirror(seam)
        return (
            Word(xs[:k] + seam + ys[i:]),
            Word(y[1].syllables[: len(ys) - i] + mirror + x[1].syllables[len(xs) - k :]),
        )

    def inv(x: tuple[Word, Word]) -> tuple[Word, Word]:
        return x[1], x[0]

    def pow_(x: tuple[Word, Word], e: int) -> tuple[Word, Word]:
        return _power_word(x, e, cap), _power_word(x, -e, cap)

    def commutator(x: tuple[Word, Word], y: tuple[Word, Word]) -> tuple[Word, Word]:
        return _commutator(x, y, cap)

    return Group((Word(), Word()), word, mul, inv, pow_, commutator)


def _seam(xs, ys) -> tuple[int, int, tuple]:
    """Where the product of reduced words xs and ys cancels or merges: it
    keeps xs[:k] and ys[i:], and seam is the merged syllable between them,
    if any.  Its exponent is not capped here: a free-group product checks
    it, and a product of Words has no cap."""
    k, i, seam = len(xs), 0, ()
    while not seam and k and i < len(ys) and xs[k - 1][0] == ys[i][0]:
        k, i = k - 1, i + 1
        e = xs[k][1] + ys[i - 1][1]
        if e:
            seam = ((ys[i - 1][0], e),)
    return k, i, seam


def _cut(word: tuple, start: int, stop: int) -> tuple:
    """Syllables start to stop of the word that word = (p, k, s, q, i) stands
    for, p[:k] s q[i:] with s of at most one syllable, joined from slices."""
    p, k, s, q, i = word
    n = k + len(s)
    mid = s if start <= k < stop else ()
    tail = q[i + max(start - n, 0) : i + stop - n] if stop > n else ()
    return p[start : min(stop, k)] + (mid + tail)


def _commutator(x: tuple[Word, Word], y: tuple[Word, Word], cap: int, both: bool = True):
    """[x, y] = (x^-1 y^-1)(x y), the association evaluate builds it in, for
    free-group values x = (u, u^-1) and y = (v, v^-1).  The seams of the two
    products and of their product are read off the halves of x and y, with
    the cap and size checks of those three products in their order, and only
    the halves of [x, y] are built, or with both false its word alone."""
    xs, xi = x[0].syllables, x[1].syllables
    ys, yi = y[0].syllables, y[1].syllables
    k1, i1, s1 = _seam(xi, yi)
    if s1:
        _check_cap(s1[0][1], cap)
    a = xi, k1, s1, yi, i1  # x^-1 y^-1 as _cut reads it
    la = k1 + len(s1) + len(yi) - i1
    _check_size(la)
    k2, i2, s2 = _seam(xs, ys)
    if s2:
        _check_cap(s2[0][1], cap)
    b = xs, k2, s2, ys, i2  # x y
    lb = k2 + len(s2) + len(ys) - i2
    _check_size(lb)
    # the seam of their product: none where the syllables that meet there
    # are on two generators, else read from windows at the ends that double
    # until the walk stops inside them
    c, seam = 0, ()
    if la and lb:
        last = yi[-1] if i1 < len(yi) else s1[0] if s1 else xi[k1 - 1]
        first = xs[0] if k2 else s2[0] if s2 else ys[i2]
        n = 2 if last[0] == first[0] else 0
        while n:
            k, c, seam = _seam(_cut(a, max(la - n, 0), la), _cut(b, 0, n))
            n = 0 if seam or not (k == 0 < la - n or c == n < lb) else 2 * n
        if seam:
            _check_cap(seam[0][1], cap)
    _check_size(la - c + len(seam) + lb - c)
    w = Word(_cut(a, 0, la - c) + (seam + _cut(b, c, lb)))
    if not both:
        return w
    # [x, y]^-1 = (y^-1 x^-1)(y x) cancels the mirror images of the seams
    bi = yi, len(yi) - i2, _mirror(s2), xi, len(xi) - k2
    ai = ys, len(ys) - i1, _mirror(s1), xs, len(xs) - k1
    return w, Word(_cut(bi, 0, lb - c) + (_mirror(seam) + _cut(ai, c, la)))


def _mirror(seam: tuple) -> tuple:
    return ((seam[0][0], -seam[0][1]),) if seam else ()


def _power_word(x: tuple[Word, Word], e: int, cap: int) -> Word:
    """The word half of x^e for a free-group value x = (w, w^-1).

    w = u c u^-1 with c cyclically reduced, so w^e = u c^e u^-1, and c^e is
    one tuple repetition once the seam of c with itself is known; its size
    is checked before it is built.  The inverse half is the word half of
    x^-e, which passes the same checks."""
    if e < 0:
        x, e = (x[1], x[0]), -e
    ws, vs = x[0].syllables, x[1].syllables
    if e < 2 or not ws:
        return x[0] if e else Word()
    # syllable i of w is inverse to syllable -1-i exactly where w and w^-1
    # agree, so u is their common prefix; a reduced w != 1 has a core
    j = next(compress(count(), map(ne, ws, vs)))
    k = len(ws) - j
    u, ui, c = ws[:j], ws[k:], ws[j:k]
    (g, alpha), (h, beta) = c[0], c[-1]
    if len(c) == 1:
        return Word(u + ((g, _power_exponent(alpha, e, cap)),) + ui)
    if g == h:
        _check_cap(alpha + beta, cap)
    _check_size(2 * j + len(c) * e - (e - 1) * (g == h))
    return _repeat(u, c, ui, e)


def _repeat(u: tuple, c: tuple, ui: tuple, e: int) -> Word:
    """u c^e ui for a core c of two or more syllables whose end syllables do
    not cancel.  On two generators the copies of c abut; on one they merge,
    and c = (g, x) M (g, y) gives c^e = (g, x) (M (g, x + y))^(e - 1) M (g, y)."""
    (g, x), (h, y) = c[0], c[-1]
    if g != h:
        return Word(u + c * e + ui)
    return Word(u + c[:-1] + (((g, x + y),) + c[1:-1]) * (e - 1) + c[-1:] + ui)


def _syllable(expr: CommExpr):
    # A generator power: Gen, Power(Gen, k), or Power(Power(Gen, -1), k) as
    # the parser reads A^k and T^k.  Deeper nesting stays a Power, so the
    # exponents it multiplies are built by power() under the cap.
    if isinstance(expr, Gen):
        return expr.name, 1
    if isinstance(expr, Power):
        base = expr.base
        if isinstance(base, Gen):
            return base.name, expr.exp
        if isinstance(base, Power) and base.exp == -1 and isinstance(base.base, Gen):
            return base.base.name, -expr.exp
    return None


def _product(mul, values: list):
    """values[0] * ... * values[-1], multiplied in pairs level by level.

    Associativity alone keeps the value and the k - 1 calls to mul; each
    value takes part in about log2(k) products, so building a long product
    costs O(k log k) where a left fold, copying its accumulator, costs O(k^2).
    """
    while len(values) > 1:
        paired = list(map(mul, values[0::2], values[1::2]))
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def evaluate(G: Group, expr: CommExpr):
    """Value of an expression in the Group G, computed from the values of its
    parts.

    An i-fold commutator costs O(i) group operations, not its free word's
    length.  A run of generator powers goes through G.word in one call, the
    values of a product's factors are multiplied in pairs, and a power or a
    commutator takes G's own rule where it has one.
    """
    if isinstance(expr, Product):
        values, run = [], []
        for f in expr.factors:
            syllable = _syllable(f)
            if syllable is not None:
                run.append(syllable)
                continue
            if run:
                values.append(G.word(Word.from_pairs(run)))
                run = []
            values.append(evaluate(G, f))
        if run:
            values.append(G.word(Word.from_pairs(run)))
        return _product(G.mul, values) if values else G.identity
    syllable = _syllable(expr)
    if syllable is not None:
        return G.word(Word.from_pairs((syllable,)))
    if isinstance(expr, Power):
        x = evaluate(G, expr.base)
        return power(G, x, expr.exp) if G.power is None else G.power(x, expr.exp)
    if isinstance(expr, Commutator):
        x, y = evaluate(G, expr.left), evaluate(G, expr.right)
        if G.commutator is not None:
            return G.commutator(x, y)
        return G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
    raise TypeError(f"not a CommExpr: {expr!r}")


def read_text(text: str, max_bits: int | None = None) -> Word | CommExpr:
    """The one reader of a text: the Word of a text of generator runs only,
    which is what evaluating its tree gives, or else the parsed tree.

    A flat text is read one letter run per syllable (aaa is a^3, and a power
    binds to the last letter of its run), and goes through Word.from_pairs
    only when two syllables meet on one generator or a power is 0.  Literals
    are read in text order, so an over-cap literal raises here as in the
    parser; any other fault is left to the parser to report."""
    cap = resolve_max_bits(max_bits)
    pairs: list[tuple[str, int]] = []
    flat = "(" not in text and "[" not in text
    for letters, caret, sign, digits, other in _FLAT.findall(text) if flat else ():
        if caret:
            if not digits:
                break
            if len(letters) > 1:
                pairs += map(_RUN_SYLLABLES.__getitem__, _LETTER_RUNS(letters[:-1]))
            gen, e = _SYLLABLES[letters[-1]]
            # _int_literal's first case inline; it takes the others, and
            # words the refusal
            if len(digits) > 18 or (value := int(digits)).bit_length() > cap:
                value = _int_literal("", digits, cap)
            pairs.append((gen, -e * value if sign else e * value))
        elif len(letters) == 1:
            pairs.append(_SYLLABLES[letters])
        elif letters:
            pairs += map(_RUN_SYLLABLES.__getitem__, _LETTER_RUNS(letters))
        elif other:
            break
    else:
        if pairs:
            # reduced already where no two neighbours share a generator and
            # no power is 0
            gens = "".join(map(_GEN, pairs))
            if "aa" in gens or "tt" in gens or not all(map(_EXP, pairs)):
                return Word.from_pairs(pairs)
            return Word(tuple(pairs))
    return parse_expr(text, cap)


def evaluate_text(G: Group, text: str, max_bits: int | None = None):
    """Value in G of a text: its Word goes to G.word in one call, a tree to evaluate."""
    x = read_text(text, max_bits)
    return G.word(x) if isinstance(x, Word) else evaluate(G, x)


def parse_word(text: str, max_bits: int | None = None) -> Word:
    """evaluate_text in the free group, as a Word; handy for the library and
    tests.  A flat text is read to its Word alone, and a top-level power of
    anything but a generator, or a top-level commutator, to its word half:
    none of them builds an inverse."""
    cap = resolve_max_bits(max_bits)
    expr = read_text(text, cap)
    if isinstance(expr, Word):
        return _capped(expr, cap)
    F = free_group(cap)
    if isinstance(expr, Power) and _syllable(expr) is None:
        return _power_word(evaluate(F, expr.base), expr.exp, cap)
    if isinstance(expr, Commutator):
        return _commutator(evaluate(F, expr.left), evaluate(F, expr.right), cap, both=False)
    return evaluate(F, expr)[0]


def gamma_weight_lower_bound(expr: CommExpr):
    """Structural lower-central-series weight of an expression.

    Generators have weight 1, [x, y] adds the weights of x and y, products
    take the minimum over factors, and powers preserve weight.
    The value of the expression is guaranteed to lie in gamma_w for the
    returned w (None means the expression is structurally the identity, which
    lies in every term).
    """
    if isinstance(expr, Gen):
        return 1
    if isinstance(expr, Power):
        if expr.exp == 0:
            return None
        return gamma_weight_lower_bound(expr.base)
    if isinstance(expr, Product):
        weights = [gamma_weight_lower_bound(f) for f in expr.factors]
        finite = [w for w in weights if w is not None]
        return min(finite) if finite else None
    if isinstance(expr, Commutator):
        lw = gamma_weight_lower_bound(expr.left)
        rw = gamma_weight_lower_bound(expr.right)
        if lw is None or rw is None:
            return None
        return lw + rw
    raise TypeError(f"not a CommExpr: {expr!r}")
