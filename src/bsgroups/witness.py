"""Explicit commutator witnesses for lower-central-series memberships.

The engine behind every witness is the identity

    [a^(m*q), t] = a^(-m*q) t^-1 a^(m*q) t = a^((n-m)*q)

in BS(m, n).  Iterating it from a^m produces a^((n-m)^i) as an i-fold
left-normed commutator, so that power lies in gamma_{i+1}.  The inner power
in the recursion W_{i+1} = [W_i^m, t] must be m: raising W_i (whose value is
a^((n-m)^i)) to the m-th power produces the a^(m*q) shape the identity
consumes.  Raising it to the n-th power does not, and fails to reproduce
a^((n-m)^{i+1}) in general; the britton engine arbitrates.

When n = m + d for d = gcd(m, n), the same identity with q = 1 gives
[a^m, t] = a^d, and a^m = (a^d)^(m/d) is itself a power of a^d, which makes
a^d reproducible at every commutator depth.  All witnesses are verified
against Britton normal forms before being returned.
"""

from __future__ import annotations

from typing import NamedTuple

from .britton import BSParams, bs_group
from .classify import classify, json_fields
from .errors import DomainError, VerificationError
from .words import (
    MAX_NESTING,
    CommExpr,
    Commutator,
    Gen,
    Group,
    Power,
    Product,
    Word,
    decimal,
    evaluate,
    gamma_weight_lower_bound,
    pretty_print,
)


def comm_depth(expr: CommExpr) -> int:
    """Nesting depth of commutator brackets (powers are transparent)."""
    if isinstance(expr, Commutator):
        return 1 + max(comm_depth(expr.left), comm_depth(expr.right))
    if isinstance(expr, Power):
        return comm_depth(expr.base)
    if isinstance(expr, Product):
        return max((comm_depth(f) for f in expr.factors), default=0)
    return 0


class MembershipWitness(NamedTuple):
    """A commutator expression whose value is target, placing it in gamma_depth."""

    expr: CommExpr
    target: Word
    depth: int
    m: int
    n: int

    def to_json_dict(self) -> dict:
        return {
            "expr": pretty_print(self.expr),
            "target": str(self.target),
            "depth": self.depth,
            "verified": True,
        }

    def __str__(self) -> str:
        m, n = decimal(self.m), decimal(self.n)
        return (
            f"{pretty_print(self.expr)} = {self.target} in BS({m},{n}); "
            f"value lies in gamma_{self.depth} (verified)"
        )


def _verified(p: BSParams, expr: CommExpr, target: Word, depth: int, G: Group) -> MembershipWitness:
    """Check expr against target in G = bs_group(p), and its structural weight."""
    if evaluate(G, expr) != G.word(target):
        raise VerificationError(
            f"witness {pretty_print(expr)} does not evaluate to {target} "
            f"in BS({decimal(p.m)},{decimal(p.n)})"
        )
    lb = gamma_weight_lower_bound(expr)
    if lb is not None and lb < depth:
        raise VerificationError(
            f"witness {pretty_print(expr)} has structural weight {lb} < {depth}"
        )
    return MembershipWitness(expr, target, depth, p.m, p.n)


def _tower(m: int, q: int, depth: int) -> CommExpr:
    """The depth-fold [..[a^m, t]^q.., t]: [a^m, t], then [x^q, t] of the last x."""
    expr: CommExpr = Commutator(Power(Gen("a"), m), Gen("t"))
    for _ in range(depth - 1):
        expr = Commutator(Power(expr, q), Gen("t"))
    return expr


def lemma2_witness(p: BSParams, i: int, max_bits: int | None = None) -> MembershipWitness:
    """W_i with value a^((n-m)^i), an i-fold commutator, so W_i is in gamma_{i+1}.

    W_1 = [a^m, t], W_{i+1} = [W_i^m, t].
    """
    if not 1 <= i <= MAX_NESTING:
        raise DomainError(f"witness index must be between 1 and {MAX_NESTING}")
    expr = _tower(p.m, p.m, i)
    target = Word.from_pairs((("a", (p.n - p.m) ** i),))
    w = _verified(p, expr, target, i + 1, bs_group(p, max_bits))
    if comm_depth(expr) != i:
        raise VerificationError("witness has wrong commutator depth")
    return w


def gamma_membership_witness(
    p: BSParams, target: Word, s: int, max_bits: int | None = None
) -> MembershipWitness:
    """Express target as an (s-1)-fold commutator, certifying target in gamma_s.

    Supported shape: n = m + d with d = gcd(m, n) > 0 and target equal to
    a^d in the group (d = 1 makes it the generator a itself); the record
    keeps the target as given.  Construction:
    U_1 = [a^m, t] and U_{j+1} = [U_j^(m/d), t]; every U_j evaluates to a^d.
    """
    if not 2 <= s <= MAX_NESTING + 1:
        raise DomainError(f"target depth s must be between 2 and {MAX_NESTING + 1}")
    if p.m < 1:
        raise DomainError("witness construction expects m >= 1")
    d = p.d
    if p.n != p.m + d:
        raise DomainError(
            f"no witness recipe for BS({decimal(p.m)},{decimal(p.n)}): it needs n = m + gcd(m, n)"
        )
    # the group normalizes each distinct word once, the target's too
    G, a_d = bs_group(p, max_bits), Word.from_pairs((("a", d),))
    if G.word(target) != G.word(a_d):
        raise DomainError(f"unsupported target {target}; expected {a_d}")
    return _verified(p, _tower(p.m, p.m // d, s - 1), target, s, G)


class OmegaStabilityReport(NamedTuple):
    """Desk-scale evidence that gamma_omega = [gamma_omega, G] on generators.

    Shows a^d = [a^(kd), t] with a^(kd) a power of a^d, hence inside the
    normal closure that equals gamma_omega.  Evidence, not a proof.
    """

    m: int
    n: int
    d: int
    k: int
    identity: str
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            **json_fields(self),
            "note": "stable under [., G] on generators; evidence, not proof",
        }

    def __str__(self) -> str:
        return (
            f"BS({decimal(self.m)},{decimal(self.n)}): {self.identity}; "
            "stable under [., G] on generators (evidence, not proof)"
        )


def omega_stability_check(p: BSParams, max_bits: int | None = None) -> OmegaStabilityReport:
    rep = classify(p.m, p.n)
    if rep.gamma_omega.kind != "equals":
        raise DomainError(
            "stability check needs a group whose gamma_omega is known to be "
            f"the normal closure of a power of a; BS({decimal(p.m)},{decimal(p.n)}) has "
            f"gamma_omega {rep.gamma_omega}"
        )
    d = rep.gamma_omega.d
    cm, cn = rep.canonical
    q = BSParams(cm, cn)
    k = cm // d
    _verified(q, _tower(cm, 1, 1), Word.from_pairs((("a", d),)), 2, bs_group(q, max_bits))
    a_d, a_kd = f"a^{decimal(d)}", f"a^{decimal(cm)}"
    identity = f"{a_d} = [{a_kd}, t] with {a_kd} in gamma_omega"
    return OmegaStabilityReport(p.m, p.n, d, k, identity, True)
