"""Residual-property classification of BS(m, n) and subgroup-chain reports.

Everything is decided on the canonical parameter pair (m', n') with
0 < m' <= |n'|, reachable from (m, n) by swapping the exponents and by
negating both; all three presentations give isomorphic groups.

Implemented facts, each a decidable predicate of (m', n'):

  * residually finite        iff  m' = 1 or |n'| = m'
  * residually p             iff  m' = 1 and p | n' - 1 (every p when
                                  n' = 1), or n' = m' = p^r, or
                                  n' = -m' with m' = 2^r
  * residually nilpotent     iff  (m' = 1, n' != 2) or |n'| = m' > 1
                                  with m' a prime power
  * residually (torsion-free nilpotent)  iff  (m', n') = (1, 1)
  * lower central series has length 2 for (1, 1), (1, 2) and (m, m+1);
    length omega for the residually nilpotent non-abelian groups
  * gamma_omega is trivial iff residually nilpotent; equals the normal
    closure of a^d when n' = m' + d with d = gcd equal to 1 or a prime
    power; strictly contains it when that d is not a prime power

Cases left open by these rules are reported as unknown rather than
guessed.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import DomainError
from .intmath import decimal, prime_factors, prime_power


def json_fields(x):
    """x as JSON: a record is an object of its fields in declaration order,
    any other tuple an array, and anything else passes through.  A record is
    a NamedTuple, told from a plain tuple by its _fields; it also equals the
    plain tuple of its fields and can be iterated."""
    if hasattr(x, "_fields"):
        return {name: json_fields(v) for name, v in x._asdict().items()}
    if isinstance(x, tuple):
        return [json_fields(v) for v in x]
    return x


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _report_json(report) -> dict:
    """A report's fields, with canonical spelled as canonical_m, canonical_n
    right after m and n."""
    data = json_fields(report)
    m, n, (cm, cn) = data.pop("m"), data.pop("n"), data.pop("canonical")
    return {"m": m, "n": n, "canonical_m": cm, "canonical_n": cn, **data}


def canonical_form(m: int, n: int) -> tuple[int, int]:
    """The unique presentation of the isomorphism class with 0 < m' <= |n'|."""
    if m == 0 or n == 0:
        raise DomainError("parameters must be nonzero")
    candidates = {(m, n), (n, m), (-m, -n), (-n, -m)}
    chosen = {c for c in candidates if 0 < c[0] <= abs(c[1])}
    if len(chosen) != 1:
        raise DomainError(f"canonicalization of ({m}, {n}) is ambiguous")
    return chosen.pop()


class ResiduallyP(NamedTuple):
    """Primes p for which the group is residually p, with the reason."""

    kind: str  # "all" | "some" | "none"
    primes: tuple[int, ...]
    condition: str

    def __str__(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "none":
            return "none"
        return ";".join(map(decimal, self.primes))

    @property
    def nonempty(self) -> bool:
        return self.kind != "none"


class GammaOmega(NamedTuple):
    """Verdict on the intersection of the lower central series."""

    kind: str  # "trivial" | "equals" | "contains" | "unknown"
    d: int | None = None

    def __str__(self) -> str:
        if self.kind == "equals":
            return f"=NC(a^{decimal(self.d)})"
        if self.kind == "contains":
            return f">NC(a^{decimal(self.d)})"
        return self.kind


class ClassDiffs(NamedTuple):
    """Position in the chain residually-p < residually nilpotent < residually finite."""

    in_rf: bool
    in_rn: bool
    in_rp_any: bool
    strict: str | None  # "rf_not_rn" | "rn_not_rp" | None


class ClassReport(NamedTuple):
    m: int
    n: int
    canonical: tuple[int, int]
    abelianization: str
    residually_finite: bool
    residually_p: ResiduallyP
    residually_nilpotent: bool
    residually_torsionfree_nilpotent: bool
    lcs_length: str  # "2" | "omega" | "unknown"
    gamma_omega: GammaOmega
    class_diffs: ClassDiffs

    def to_json_dict(self) -> dict:
        return _report_json(self)

    def __str__(self) -> str:
        rp = self.residually_p
        m, n, cm, cn = map(decimal, (self.m, self.n, *self.canonical))
        lines = [
            f"BS({m},{n}) canonical ({cm},{cn})",
            f"abelianization: {self.abelianization}",
            f"residually finite: {_bool(self.residually_finite)}",
            f"residually p: {rp} ({rp.condition})",
            f"residually nilpotent: {_bool(self.residually_nilpotent)}",
            "residually torsion-free nilpotent: "
            + _bool(self.residually_torsionfree_nilpotent),
            f"lcs length: {self.lcs_length}",
            f"gamma_omega: {self.gamma_omega}",
        ]
        if self.class_diffs.strict:
            lines.append(f"strict class difference: {self.class_diffs.strict}")
        return "\n".join(lines)

    def csv_row(self) -> dict[str, str]:
        """The report's cells in the sweep CSV, by column."""
        return dict(zip(SWEEP_COLUMNS, (
            *map(decimal, (self.m, self.n, *self.canonical)),
            self.abelianization,
            _bool(self.residually_finite),
            str(self.residually_p),
            _bool(self.residually_nilpotent),
            _bool(self.residually_torsionfree_nilpotent),
            self.lcs_length,
            str(self.gamma_omega),
            str(prop5_chain(self.m, self.n).case),
        )))


# The sweep CSV: a header, then one ClassReport.csv_row per line.
SWEEP_COLUMNS = [
    "m", "n", "canonical_m", "canonical_n", "ab", "rf", "rp_primes", "rn", "rtfn",
    "lcs_length", "gamma_omega", "prop5_case",
]


def sweep_csv(rows: list[dict[str, str]]) -> str:
    return "\n".join(",".join(row) for row in [SWEEP_COLUMNS, *(r.values() for r in rows)])


def _residually_p(cm: int, cn: int) -> ResiduallyP:
    if cm == 1:
        if cn == 1:
            return ResiduallyP("all", (), "n = m = 1")
        ps = tuple(sorted(prime_factors(abs(cn - 1))))
        if not ps:  # n = 2: n - 1 = 1 has no prime divisors
            return ResiduallyP("none", (), "no prime divides n - 1")
        return ResiduallyP("some", ps, "m = 1 and p divides n - 1")
    if cn == cm:
        pp = prime_power(cm)
        if pp is not None:
            return ResiduallyP("some", (pp[0],), "n = m = p^r")
        return ResiduallyP("none", (), "n = m not a prime power")
    if cn == -cm:
        pp = prime_power(cm)
        if pp is not None and pp[0] == 2:
            return ResiduallyP("some", (2,), "n = -m with m = 2^r")
        return ResiduallyP("none", (), "n = -m with m not a power of 2")
    return ResiduallyP("none", (), "not residually finite")


def classify(m: int, n: int) -> ClassReport:
    cm, cn = canonical_form(m, n)
    d = gcd(cm, abs(cn))

    diff = abs(cn - cm)
    if diff == 0:
        ab = "Z x Z"
    elif diff == 1:
        ab = "Z"
    else:
        ab = f"Z x Z_{decimal(diff)}"

    rf = cm == 1 or abs(cn) == cm
    rp = _residually_p(cm, cn)
    rn = (cm == 1 and cn != 2) or (abs(cn) == cm > 1 and prime_power(cm) is not None)
    rtfn = (cm, cn) == (1, 1)
    abelian = (cm, cn) == (1, 1)

    if (cm, cn) == (1, 1) or cn == cm + 1:
        lcs = "2"
    elif rn and not abelian:
        lcs = "omega"
    else:
        lcs = "unknown"

    if rn:
        go = GammaOmega("trivial")
    elif cn == cm + d:
        if d == 1 or prime_power(d) is not None:
            go = GammaOmega("equals", d)
        else:
            go = GammaOmega("contains", d)
    else:
        go = GammaOmega("unknown")

    if rf and not rn:
        strict = "rf_not_rn"
    elif rn and not rp.nonempty:
        strict = "rn_not_rp"
    else:
        strict = None
    diffs = ClassDiffs(rf, rn, rp.nonempty, strict)

    return ClassReport(m, n, (cm, cn), ab, rf, rp, rn, rtfn, lcs, go, diffs)


class ChainReport(NamedTuple):
    """Symbolic subgroup chain between G and the commutator-relator subgroup.

    case 0 is degenerate: either the group is residually finite (the
    standing assumption behind the chain fails) or no case applies.
    """

    m: int
    n: int
    canonical: tuple[int, int]
    case: int
    chain: tuple[str, ...]
    quotients: tuple[tuple[str, str], ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {**_report_json(self), "quotients": dict(self.quotients)}

    def __str__(self) -> str:
        m, n = decimal(self.m), decimal(self.n)
        lines = [f"BS({m},{n}) case {self.case}", "chain: " + " >= ".join(self.chain)]
        lines += [f"{q} = {v}" for q, v in self.quotients]
        lines += [f"note: {t}" for t in self.notes]
        return "\n".join(lines)


def prop5_chain(m: int, n: int) -> ChainReport:
    cm, cn = canonical_form(m, n)
    d = gcd(cm, abs(cn))
    diff = cn - cm

    def report(case, chain, quotients=(), notes=()):
        return ChainReport(m, n, (cm, cn), case, tuple(chain), tuple(quotients), tuple(notes))

    if cm == 1 or abs(cn) == cm:
        return report(
            0,
            ("G",),
            notes=("degenerate: group is residually finite, chain not applicable",),
        )
    if diff == 1 and d == 1:
        return report(
            3,
            ("G", "G' = A = gamma_omega(G)", "R"),
            notes=("A/R abelian",),
        )
    if diff > 1 and d == 1:
        return report(
            2,
            ("G", "A", "G'", "R"),
            quotients=(("G/A", "Z"), ("A/G'", f"Z_{decimal(diff)}")),
            notes=("G' is a proper subgroup of A", "A/R abelian"),
        )
    if diff == d and prime_power(d) is not None:
        return report(
            5,
            ("G", "G'", "A", "gamma_omega(G)", "R"),
            notes=("A/R abelian",),
        )
    if diff >= d > 1:
        return report(
            1,
            ("G", "G'A", "A", "R"),
            quotients=(
                ("G/G'A", f"Z x Z_{decimal(d)}"),
                ("G/A", f"Z * Z_{decimal(d)}"),
                ("G/G'", f"Z x Z_{decimal(diff)}"),
                ("G'A/A", "F_inf"),
            ),
            notes=("A/R abelian",),
        )
    if d == 1 or prime_power(d) is not None:
        return report(
            4,
            ("G", "G'A", "A", "gamma_omega(G)", "R"),
            notes=("A/R abelian",),
        )
    return report(
        0,
        ("G", "G'A", "A", "R"),
        notes=("no specialized case applies; only the generic inclusions hold",),
    )
