"""Arithmetic in Z * Z_d and the central splitting for BS(m, +-m).

Killing a^d in BS(m, n) (d = gcd(|m|, |n|)) collapses the defining relation,
so the quotient is the free product Z * Z_d generated by the images of t
and a.  Words there have a syllable normal form: alternating t-powers
(nonzero) and a-powers with exponents in [1, d-1].

The kernel of Z * Z_d -> Z x Z_d (the Cartesian subgroup) is free on the
commutators [t^k, a^l], k != 0, 1 <= l <= d-1.  fp_rewrite_basis expresses a
kernel element in that basis by Reidemeister-Schreier rewriting along the
Schreier transversal {t^k a^l}: scanning letters while tracking the coset
state (k, l mod d), each t-letter crossed at l != 0 contributes a nontrivial
Schreier generator, which expands into at most two basis letters via

    t^k a^l t a^-l t^-(k+1)  =  [t^-k, a^(d-l)] [t^(-k-1), a^(d-l)]^-1.

For |n| = m the commutator subgroup of BS(m, n) splits off a central cyclic
part: gamma_2(BS(m, m)) maps isomorphically onto the Cartesian subgroup,
while gamma_2(BS(m, -m)) = <a^(2m)> x (that free group).  split_central
recovers the central exponent and the free coordinates, verifying the
reassembly through Britton normal forms.

r_generators spells the commutators [t^k a^d t^-k, a] that generate the
relator subgroup as words of at most 8 syllables, and free_subgroup_probe
samples reduced words in the basis [t^k, a^s] and checks that their images
in Z * Z_d stay nontrivial.  Both refuse, before building anything, work
whose words together could pass the free-word syllable limit: the whole list,
or every trial of the probe.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .britton import BSParams, abelianize, nf_equal, normalize
from .classify import json_fields
from .errors import DomainError, VerificationError
from .words import Word, _check_cap, _check_size, _reduce_pairs, decimal, resolve_max_bits


class FreeProdWord(NamedTuple):
    """Syllable normal form in Z * Z_d: t-exponents nonzero, a-exponents in
    [1, d-1], kinds alternating."""

    d: int
    syllables: tuple[tuple[str, int], ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return "".join(f"({g}^{decimal(e)})" for g, e in self.syllables)


def fp_normalize(d: int, w) -> FreeProdWord:
    """Reduce a Word (or raw pairs) to its Z * Z_d syllable normal form."""
    if d < 2:
        raise DomainError("free product Z * Z_d needs d >= 2")
    return FreeProdWord(d, tuple(_reduce_pairs(w.syllables if isinstance(w, Word) else w, d)))


class BasisWord(NamedTuple):
    """Freely reduced product of basis commutators [t^k, a^l]^sign."""

    d: int
    tokens: tuple[tuple[int, int, int], ...] = ()  # (k != 0, l in [1, d-1], sign)

    @property
    def is_identity(self) -> bool:
        return not self.tokens

    def __str__(self) -> str:
        if not self.tokens:
            return "1"
        return " ".join(
            f"c({decimal(k)},{l})" if s == 1 else f"c({decimal(k)},{l})^-1"
            for k, l, s in self.tokens
        )


def _emit(tokens: list[tuple[int, int, int]], k: int, l: int, sign: int) -> None:
    if k == 0:
        return
    tok = (k, l, sign)
    if tokens and tokens[-1] == (k, l, -sign):
        tokens.pop()
    else:
        tokens.append(tok)


def fp_rewrite_basis(w: FreeProdWord) -> BasisWord:
    """Rewrite a Cartesian-subgroup element in the [t^k, a^l] basis.

    Requires sigma_t(w) = 0 and sigma_a(w) = 0 mod d, i.e. the scan must
    return to the coset of the identity.
    """
    d = w.d
    k = 0
    l = 0
    tokens: list[tuple[int, int, int]] = []
    for g, e in w.syllables:
        if g == "a":
            l = (l + e) % d
            continue
        # Letter by letter, t^e emits c(-k) c(-k-s)^-1 c(-k-s) ... c(-k-e)^-1
        # (s the sign of e, l fixed); the inner pairs cancel.
        if l != 0:
            _emit(tokens, -k, d - l, 1)
            _emit(tokens, -k - e, d - l, -1)
        k += e
    if k != 0 or l != 0:
        raise DomainError(
            "word lies outside the Cartesian subgroup "
            f"(coset state ({decimal(k)}, {l}) after scanning)"
        )
    return BasisWord(d, tuple(tokens))


def lift_basis(p: BSParams, bw: BasisWord) -> Word:
    """Spell a basis word literally as commutators in the generators of G."""
    if bw.d != p.d:
        raise DomainError(f"basis word is over Z * Z_{bw.d}, params have d = {p.d}")
    pairs: list[tuple[str, int]] = []
    for k, l, s in bw.tokens:
        if s == 1:  # t^-k a^-l t^k a^l
            pairs += [("t", -k), ("a", -l), ("t", k), ("a", l)]
        else:  # a^-l t^-k a^l t^k
            pairs += [("a", -l), ("t", -k), ("a", l), ("t", k)]
    return Word.from_pairs(pairs)


class CentralSplit(NamedTuple):
    """gamma_2 coordinates for BS(m, +-m): g = a^(2mc) * lift(basis).

    For BS(m, m) the central part is always trivial (c = 0).
    """

    c: int
    basis: BasisWord


def split_central(p: BSParams, w: Word, max_bits: int | None = None) -> CentralSplit:
    m = p.m
    if abs(p.n) != m or m < 2:
        raise DomainError("central splitting applies to BS(m, +-m) with m >= 2")
    ab = abelianize(p, w)  # gamma_2 is the kernel of the abelianization
    if ab.t_part or ab.a_part:
        raise DomainError("word is not in the commutator subgroup")

    basis = fp_rewrite_basis(fp_normalize(m, w))
    lifted = lift_basis(p, basis)
    cap = resolve_max_bits(max_bits)  # read once for both Britton calls
    rest = normalize(p, w * lifted.inverse(), cap)
    if rest.tail:
        raise VerificationError("residual after removing free coordinates is not an a-power")
    if p.n == m:
        if rest.r0 != 0:
            raise VerificationError("BS(m, m) split left a nonzero central part")
        return CentralSplit(0, basis)
    if rest.r0 % (2 * m) != 0:
        raise VerificationError("central part is not a multiple of 2m")
    c = rest.r0 // (2 * m)
    recombined = Word.from_pairs((("a", 2 * m * c),)) * lifted
    if not nf_equal(p, recombined, w, cap):
        raise VerificationError("reassembly a^(2mc) * lift(basis) does not reproduce the input")
    return CentralSplit(c, basis)


def r_generators(p: BSParams, K: int) -> list[Word]:
    """The commutators [t^k a^d t^-k, a] for |k| <= K, freely reduced: each is
    t^k a^-d t^-k a^-1 t^k a^d t^-k a, which reduces to 1 at k = 0."""
    if K < 0:
        raise DomainError("K must be >= 0")
    _check_size(8 * (2 * K + 1))  # each generator has at most 8 syllables
    d = p.d
    # capped as every free word is: d, K, and d + 1 where a^-d a^-1 meet at k = 0
    cap = resolve_max_bits()
    for e in (d, K, d + 1):
        _check_cap(e, cap)
    return [
        Word.from_pairs((("t", k), ("a", -d), ("t", -k), ("a", -1),
                         ("t", k), ("a", d), ("t", -k), ("a", 1)))
        for k in range(-K, K + 1)
    ]


class ProbeReport(NamedTuple):
    d: int
    K: int
    trials: int
    max_len: int
    checked: int
    nontrivial: int
    skipped_empty: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {**json_fields(self), "ok": self.ok}

    def __str__(self) -> str:
        return (
            f"d={decimal(self.d)} K={decimal(self.K)}: checked {self.checked} reduced words "
            f"(skipped {self.skipped_empty} empty), nontrivial {self.nontrivial}, "
            f"{'OK' if self.ok else 'FAILURES: ' + '; '.join(self.failures)}"
        )


def free_subgroup_probe(
    p: BSParams,
    K: int = 3,
    trials: int = 100,
    max_len: int = 6,
    seed: int | None = None,
) -> ProbeReport:
    """Random reduced words in the commutators [t^k, a^s] stay nontrivial.

    Evidence for freeness of the subgroup they generate in Z_d * Z: each
    sampled word is lifted to the generators and its image under killing
    a^d is checked to be a nonidentity element of the free product.
    """
    d = p.d
    if d < 2:
        raise DomainError("free subgroup probe needs gcd(|m|, |n|) >= 2")
    if K < 1:
        raise DomainError("K must be >= 1")
    if max_len < 0:
        raise DomainError("max_len must be >= 0")
    if trials < 0:
        raise DomainError("trials must be >= 0")
    _check_size(trials * 4 * max_len)  # each basis letter lifts to 4 syllables
    rng = Random(seed)
    checked = nontrivial = skipped = 0
    failures: list[str] = []
    for _ in range(trials):
        length = rng.randint(0, max_len)
        if length == 0:
            skipped += 1
            continue
        tokens: list[tuple[int, int, int]] = []
        while len(tokens) < length:
            # the letters (k, s), k = -K..K but 0, s = 1..d-1, in that order,
            # drawn by index so that they are never listed: d may be huge
            k, s = divmod(rng.randrange(2 * K * (d - 1)), d - 1)
            k, s = k - K + (k >= K), s + 1
            sign = rng.choice((1, -1))
            if tokens and tokens[-1] == (k, s, -sign):
                continue  # keep the word reduced
            tokens.append((k, s, sign))
        bw = BasisWord(d, tuple(tokens))
        checked += 1
        image = fp_normalize(d, lift_basis(p, bw))
        if image.is_identity:
            failures.append(str(bw))
        else:
            nontrivial += 1
    return ProbeReport(
        d, K, trials, max_len, checked, nontrivial, skipped, tuple(failures)
    )
