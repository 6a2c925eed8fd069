"""Seeded inputs, timed queries and answer checks for the four workloads.

Every workload is a sequence of rounds.  A round is a list of queries whose
mix of kinds and sizes is the same in every round; the seed only picks the
groups, words and order within that mix, so run-to-run spread comes from the
program and not from the draw.  The program receives text, words or argv;
each answer is checked by a route other than the one that produced it.

All program calls go through module attributes looked up at call time
(``bs.normalize``, ``bs.finquot.fq_eval``), so the tracer's rebinding sees
them.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bsgroups as bs
import bsgroups.cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
CHILD_TIMEOUT_S = 120


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    # Returns None when the answer is right, else a one-line reason.
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# Words as (generator, exponent) pairs, rendered to the `bs` text grammar.


def rand_pairs(rng, letters: int) -> list[tuple[str, int]]:
    """A word with exactly ``letters`` letters and alternating generators."""
    pairs = []
    gen = rng.choice("at")
    while letters:
        e = rng.randint(1, min(letters, 4))
        letters -= e
        pairs.append((gen, e if rng.random() < 0.5 else -e))
        gen = "t" if gen == "a" else "a"
    return pairs


def inverse(pairs):
    return [(g, -e) for g, e in reversed(pairs)]


def render(pairs, syntax: str) -> str:
    """Letter syntax (``aAtT``) or power syntax (``a^3 t^-2``)."""
    if not pairs:
        return "a^0"
    if syntax == "letters":
        return "".join((g if e > 0 else g.upper()) * abs(e) for g, e in pairs)
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in pairs)


def exp_sums(pairs) -> tuple[int, int]:
    sa = sum(e for g, e in pairs if g == "a")
    st = sum(e for g, e in pairs if g == "t")
    return sa, st


def relator(m: int, n: int):
    return [("t", -1), ("a", m), ("t", 1), ("a", -n)]


def splice(rng, pairs, m: int, n: int):
    """Insert a conjugate of the relator (or its inverse) at a random place."""
    g = rand_pairs(rng, rng.randint(1, 4))
    r = relator(m, n)
    if rng.random() < 0.5:
        r = inverse(r)
    k = rng.randint(0, len(pairs))
    return pairs[:k] + inverse(g) + r + g + pairs[k:]


def nf_problem(m: int, n: int, nf) -> str | None:
    """Own check of the Britton conditions: residue ranges and no pinches."""
    tail = nf.tail
    for i, (eps, r) in enumerate(tail):
        if eps not in (-1, 1) or not 0 <= r < abs(m if eps == -1 else n):
            return f"entry {i} = {(eps, r)} out of range"
        if r == 0 and i + 1 < len(tail) and tail[i + 1][0] == -eps:
            return f"pinch at entry {i}"
    return None


def ab_image(m: int, n: int, sa: int, st: int):
    mod = abs(n - m)
    return st, (sa % mod if mod else sa)


def a_power(e: int):
    return (("a", e),) if e else ()


# ---------------------------------------------------------------------------
# wordstream


def _grid_group(rng):
    while True:
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        if m and n:
            return m, n


def _word_text(rng):
    pairs = rand_pairs(rng, rng.randint(10, 200))
    return pairs, render(pairs, rng.choice(("letters", "power")))


def _q_normalize(rng):
    m, n = _grid_group(rng)
    pairs, text = _word_text(rng)
    P = bs.BSParams(m, n)

    def run():
        return bs.normalize(P, bs.parse_word(text))

    def check(nf):
        bad = nf_problem(m, n, nf)
        if bad:
            return f"BS({m},{n}) {text!r}: {bad}"
        sa = nf.r0 + sum(r for _, r in nf.tail)
        st = sum(eps for eps, _ in nf.tail)
        if ab_image(m, n, sa, st) != ab_image(m, n, *exp_sums(pairs)):
            return f"BS({m},{n}) {text!r}: abelian image changed"
        return None

    return Query("normalize", run, check)


def _q_equal(rng, spliced: bool):
    m, n = _grid_group(rng)
    pairs, text = _word_text(rng)
    if spliced:
        other = splice(rng, pairs, m, n)
    else:
        # A word with another t-exponent sum is a different element.
        other = rand_pairs(rng, rng.randint(10, 200))
        if exp_sums(other)[1] == exp_sums(pairs)[1]:
            other.append(("t", 1))
    text2 = render(other, rng.choice(("letters", "power")))
    P = bs.BSParams(m, n)

    def run():
        return bs.nf_equal(P, bs.parse_word(text), bs.parse_word(text2))

    def check(equal):
        if equal is not spliced:
            return f"BS({m},{n}) nf_equal({text!r}, {text2!r}) = {equal}"
        return None

    return Query("nf_equal", run, check)


def _q_roundtrip(rng):
    m, n = _grid_group(rng)
    u_pairs, u = _word_text(rng)
    v_pairs, v = _word_text(rng)
    P = bs.BSParams(m, n)

    def run():
        x = bs.normalize(P, bs.parse_word(u))
        y = bs.normalize(P, bs.parse_word(v))
        z = bs.nf_multiply(P, x, y)
        return x, z, bs.nf_multiply(P, z, bs.nf_invert(P, y))

    def check(out):
        x, z, back = out
        if back != x:
            return f"BS({m},{n}) (x y) y^-1 != x for {u!r}, {v!r}"
        if z != bs.normalize(P, bs.Word.from_pairs(u_pairs + v_pairs)):
            return f"BS({m},{n}) nf_multiply disagrees with normalizing u v"
        return None

    return Query("roundtrip", run, check)


def _q_affine(rng):
    n = rng.choice([k for k in range(-6, 7) if k])
    pairs, text = _word_text(rng)

    def run():
        w = bs.parse_word(text)
        g = bs.to_affine(n, w)
        return w, g, bs.lcs_weight(n, g), bs.canonical_word(n, g)

    def check(out):
        w, g, _, cw = out
        if g.k != -exp_sums(pairs)[1]:
            return f"BS(1,{n}) {text!r}: affine k = {g.k}"
        if not bs.nf_equal(bs.BSParams(1, n), w, cw):
            return f"BS(1,{n}) {text!r}: Britton and affine forms disagree"
        return None

    return Query("affine", run, check)


def _q_split(rng):
    m = rng.randint(2, 6)
    n = rng.choice((m, -m))
    c0 = rng.randint(-3, 3) if n == -m else 0
    pairs = rand_pairs(rng, rng.randint(10, 190))
    sa, st = exp_sums(pairs)
    # Land in the commutator subgroup, then add a central part for n = -m.
    pairs = [("a", 2 * m * c0)] + pairs + [("t", -st), ("a", -sa)]
    text = render([(g, e) for g, e in pairs if e], rng.choice(("letters", "power")))
    P = bs.BSParams(m, n)

    def run():
        w = bs.parse_word(text)
        return w, bs.split_central(P, w)

    def check(out):
        w, split = out
        if n == m and split.c != 0:
            return f"BS({m},{n}) {text!r}: central part {split.c} != 0"
        spelled = [("a", 2 * m * split.c)]
        for k, l, s in split.basis.tokens:
            comm = [("t", -k), ("a", -l), ("t", k), ("a", l)]
            spelled += comm if s == 1 else inverse(comm)
        if not bs.nf_equal(P, bs.Word.from_pairs(spelled), w):
            return f"BS({m},{n}) {text!r}: a^(2mc) * basis does not reassemble"
        return None

    return Query("split_central", run, check)


def wordstream_round(rng, smoke: bool) -> list[Query]:
    qs = [_q_normalize(rng) for _ in range(6)]
    qs += [_q_equal(rng, True) for _ in range(3)]
    qs += [_q_equal(rng, False) for _ in range(3)]
    qs += [_q_roundtrip(rng) for _ in range(3)]
    qs += [_q_affine(rng) for _ in range(3)]
    qs += [_q_split(rng) for _ in range(2)]
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------
# towers


def _q_lemma2(rng, m: int, i: int):
    n = rng.choice([k for k in (-5, -3, -1, 1, 3, 5, 7) if k != m])

    def run():
        return bs.lemma2_witness(bs.BSParams(m, n), i)

    def check(w):
        want = a_power((n - m) ** i)
        if w.target.syllables != want or w.depth != i + 1:
            return f"lemma2 BS({m},{n}) i={i}: target {w.target}, depth {w.depth}"
        return None

    return Query("lemma2", run, check)


def _q_member(rng, k: int, s: int):
    # n = m + d with d = gcd(m, n) and m = k d; k sets the growth rate.
    d = rng.randint(1, 3)
    m, n = k * d, k * d + d
    target = bs.Word.from_pairs(a_power(d))

    def run():
        return bs.gamma_membership_witness(bs.BSParams(m, n), target, s)

    def check(w):
        if w.target.syllables != a_power(d) or w.depth != s:
            return f"member BS({m},{n}) s={s}: target {w.target}, depth {w.depth}"
        return None

    return Query("member", run, check)


def _nested(rng, depth: int) -> tuple[str, list]:
    """Left-normed commutator text of two-syllable random words, plus factors.

    Every factor holds both generators, so no bracket collapses freely.
    """
    factors = []
    for _ in range(depth + 1):
        f = [("a", rng.choice((-2, -1, 1, 2))), ("t", rng.choice((-1, 1)))]
        factors.append(f if rng.random() < 0.5 else f[::-1])
    text = render(factors[0], "power")
    for f in factors[1:]:
        text = f"[{text}, {render(f, 'power')}]"
    return text, factors


def _q_nested(rng, depth: int, spliced: bool):
    # |m|, |n| in {2, 3}: exponent growth, and so cost, is alike across draws.
    m, n = rng.choice(((2, 3), (3, 2), (-2, 3), (2, -3), (3, -2), (-3, 2)))
    text, factors = _nested(rng, depth)
    if spliced:
        # Splice a relator conjugate into the innermost factor.
        inner = render(factors[0], "power")
        text2 = text.replace(inner, f"({render(splice(rng, factors[0], m, n), 'power')})", 1)
    else:
        text2 = f"{text} t"
    P = bs.BSParams(m, n)

    def run():
        return bs.nf_equal(P, bs.parse_word(text), bs.parse_word(text2))

    def check(equal):
        if equal is not spliced:
            return f"BS({m},{n}) nested depth {depth}: nf_equal = {equal}"
        return None

    return Query("nested_eq", run, check)


def _q_trun(rng, N: int, with_a: bool):
    # |m|, |n| >= 2 keeps the residue 1 of (t^eps a)^N canonical.
    m = rng.choice((-4, -3, -2, 2, 3, 4))
    n = rng.choice((-4, -3, -2, 2, 3, 4))
    eps = rng.choice((1, -1))
    tl = "t" if eps == 1 else "T"
    text = f"({tl} a)^{N}" if with_a else f"t^{eps * N}"
    want = ((eps, 1 if with_a else 0),) * N
    P = bs.BSParams(m, n)

    def run():
        return bs.normalize(P, bs.parse_word(text))

    def check(nf):
        if nf.r0 != 0 or nf.tail != want:
            return f"BS({m},{n}) normalize({text!r}) has the wrong form"
        return None

    return Query("t_run", run, check)


def _q_affine_tower(rng, depth: int):
    # [..[[a, t], t].., t] equals a^((n-1)^depth) in BS(1, n).
    n = rng.choice((-5, -4, -3, -2, -1, 3, 4, 5, 6))
    text = "a"
    for _ in range(depth):
        text = f"[{text}, t]"

    def run():
        g = bs.to_affine(n, bs.parse_word(text))
        return bs.lcs_weight(n, g), bs.canonical_word(n, g)

    def check(out):
        weight, cw = out
        if weight.index != depth + 1 or cw.syllables != a_power((n - 1) ** depth):
            return f"BS(1,{n}) tower depth {depth}: weight {weight}, word {cw}"
        return None

    return Query("affine_tower", run, check)


def towers_round(rng, smoke: bool) -> list[Query]:
    """Three bands of fixed depths, in a fixed order.

    Cheap (under about 3 ms), middle (about 5-11 ms) and heavy (30 ms and
    up) bands of 7, 7 and 8 queries put the median among the five middle
    queries of near-equal cost and p90 inside the cluster of t-runs and the
    m = 1 depth-15 witness, so neither statistic flips between rungs from one
    seed to the next.  The fixed order keeps the allocation pattern, and so
    peak RSS, repeatable.
    """
    cut = 3 if smoke else 0  # smoke runs shrink every depth

    def d(x):
        return max(1, x - cut)

    cheap = [
        _q_lemma2(rng, 3, d(4)), _q_lemma2(rng, 2, d(4)), _q_lemma2(rng, 1, d(8)),
        _q_lemma2(rng, -2, d(5)), _q_member(rng, 2, d(5)), _q_member(rng, 1, d(8)),
        _q_affine_tower(rng, d(8)),
    ]
    middle = [
        _q_affine_tower(rng, d(10)),
        _q_lemma2(rng, 1, d(10)), _q_lemma2(rng, 1, d(10)), _q_lemma2(rng, 1, d(10)),
        _q_member(rng, 1, d(11)), _q_member(rng, 1, d(11)), _q_member(rng, 2, d(7)),
    ]
    heavy = [
        _q_nested(rng, d(9), True), _q_nested(rng, d(9), False),
        _q_affine_tower(rng, d(14)), _q_member(rng, 1, d(14)),
        _q_lemma2(rng, 1, d(15)),
        _q_trun(rng, 200_000 >> (4 * cut), False), _q_trun(rng, 60_000 >> (4 * cut), True),
        _q_lemma2(rng, 2, d(9)),
    ]
    return cheap + middle + heavy


# ---------------------------------------------------------------------------
# certify: one library session per round, run in a fresh process.

CERTIFY_GROUPS = [(1, 3), (1, 4), (2, 4), (2, -2), (5, 10)]
# `bs oracle build` parameters: (family, m, n, p, k, j) with order <= 6561.
ORACLE_BUILDS = [
    ("semidirect", 1, 3, 2, 3, 2),
    ("semidirect", 1, 3, 2, 5, 4),
    ("semidirect", 1, 4, 3, 2, 2),
    ("semidirect", 1, 4, 3, 4, 4),
    ("wreath", 2, 4, 2, 1, 2),
    ("wreath", 2, 4, 2, 1, 3),
]


def _comm_text(rng) -> str:
    return f"[{render(rand_pairs(rng, rng.randint(1, 3)), 'power')}, " \
           f"{render(rand_pairs(rng, rng.randint(1, 3)), 'power')}]"


def _q_certify(rng, m: int, n: int, shape: str, stats: dict):
    stats["certify"] += 1
    member_depth = 0  # the word is known to lie in gamma_{member_depth}
    if shape in ("power", "unit_power"):
        e = rng.choice((1, 2, 3, 4, 6) if shape == "unit_power" else range(1, 7))
        text = f"a^{e} {_comm_text(rng)}"
        i = 2
    elif shape in ("tower", "member"):
        k = rng.randint(1, 3)
        text = "a"
        for _ in range(k):
            text = f"[{text}, t]"
        member_depth = k + 1
        if shape == "member":  # inside gamma_i: the whole family is searched
            i = rng.randint(2, k + 1)
        else:  # both sides of the reachable depth
            i = max(2, k + 1 + rng.randint(-1, 2))
    else:
        # a^(n-m) = [a^m, t], so the product lies in gamma_2.
        text = f"{_comm_text(rng)} {_comm_text(rng)} a^{(n - m) * rng.randint(1, 3)}"
        member_depth = 2
        i = rng.randint(2, 4)

    def run():
        cert = bs.certify_not_in_gamma(m, n, bs.parse_word(text), i)
        return cert, (cert.verify() if cert is not None else None)

    def check(out):
        cert, verified = out
        if cert is None:
            return None
        stats["conclusive"] += 1
        if i <= member_depth:
            return f"BS({m},{n}) {text!r} certified outside gamma_{i}, but lies in it"
        if not verified:
            return f"BS({m},{n}) {text!r}: certificate does not re-verify"
        if cert.i != i or bs.fq_eval(cert.quotient, bs.parse_word(text)) != cert.image:
            return f"BS({m},{n}) {text!r}: certificate image does not reproduce"
        return None

    return Query("certify", run, check)


def _q_build(rng):
    family, m, n, p, k, j = rng.choice(ORACLE_BUILDS)
    order = p ** (k + j) if family == "semidirect" else p ** (k * p**j + j)

    def run():
        if family == "wreath":
            q = bs.build_wreath(p, k, j)
        else:
            q = bs.build_semidirect(p, k, j, m, n)
        return bs.fq_gamma_series(q)

    def check(chain):
        sizes = chain.sizes
        if sizes[0] != order or sizes[-1] != 1:
            return f"{family} p={p} k={k} j={j}: gamma sizes {sizes}"
        if any(b >= a or a % b for a, b in zip(sizes, sizes[1:])):
            return f"{family} p={p} k={k} j={j}: sizes {sizes} not a subgroup chain"
        return None

    return Query("oracle_build", run, check)


def certify_round(rng, smoke: bool, stats: dict) -> list[Query]:
    """One session: three queries per group, interleaved in seeded order.

    Each group's first query fixes which chains the session builds cold: a
    word inside gamma_i searches, and so builds, the whole family; for
    BS(5, 10) a power of a prime to 5 is certified by Z_5 wr Z_5 and then
    verified.  The shapes of the later queries are fixed per group too, so
    every session has the same mix; the seed draws the words and indices.
    """
    groups = CERTIFY_GROUPS[:-1] if smoke else CERTIFY_GROUPS
    later = [("power", "tower"), ("tower", "product"), ("product", "power")]
    per_group = {}
    for k, (m, n) in enumerate(groups):
        opening = "unit_power" if (m, n) == (5, 10) else "member"
        shapes = [opening, *later[k % 3]]
        per_group[(m, n)] = [_q_certify(rng, m, n, shape, stats) for shape in shapes]
    order = [g for g in groups for _ in range(3)]
    rng.shuffle(order)
    qs = [per_group[g].pop(0) for g in order]
    qs.insert(rng.randint(0, len(qs)), _q_build(rng))
    return qs


# ---------------------------------------------------------------------------
# cli: a fixed script of `bs` invocations against golden output.


def load_script(smoke: bool) -> list[dict]:
    script = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return script[:6] if smoke else script


def _q_cli_child(entry: dict):
    argv = entry["argv"]

    def run():
        return subprocess.run(
            [sys.executable, "-m", "bsgroups.cli", *argv],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def check(proc):
        if proc.returncode != 0:
            return f"bs {' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        if proc.stdout != entry["stdout"]:
            return f"bs {' '.join(argv)}: stdout differs from golden"
        return None

    return Query("cli", run, check)


# Bound before any tracer rebinds the name; None once the cache is gone.
_CLEAR_CHAINS = getattr(bs.finquot.fq_gamma_series, "cache_clear", None)


def _q_cli_inprocess(entry: dict):
    argv = entry["argv"]

    def run():
        if _CLEAR_CHAINS is not None:
            _CLEAR_CHAINS()  # start cold, as a fresh `bs` process does
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = bsgroups.cli.run(list(argv))
        return code, buf.getvalue()

    def check(out):
        code, stdout = out
        if code != 0 or stdout != entry["stdout"]:
            return f"in-process bs {' '.join(argv)}: exit {code} or stdout differs"
        return None

    return Query("cli", run, check)


def cli_round(rng, smoke: bool, inprocess: bool = False) -> list[Query]:
    script = load_script(smoke)
    make = _q_cli_inprocess if inprocess else _q_cli_child
    qs = [make(entry) for entry in script]
    rng.shuffle(qs)
    return qs
