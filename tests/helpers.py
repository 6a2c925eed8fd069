"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import itertools
import random

from bsgroups.britton import BSParams
from bsgroups.finquot import FinQuot, Semidirect
from bsgroups.words import Word


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


def rand_gamma2_word(rng: random.Random, p: BSParams, central: int = 0) -> Word:
    """Product of commutators times a central a-power; lies in gamma_2."""
    w = Word.from_pairs((("a", (p.m - p.n) * central),))
    for _ in range(rng.randrange(2, 6)):
        u = rand_word(rng, max_syllables=3, max_exp=2)
        v = rand_word(rng, max_syllables=3, max_exp=2)
        w = w * commutator(u, v)
    return w


# Brute-force lower central series of a finite quotient: the oracle that the
# closed forms in bsgroups.finquot are tested against.


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
    conjugators = [q.a_img, q.t_img, q.inv(q.a_img), q.inv(q.t_img)]
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
    gens = [q.a_img, q.t_img]
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
