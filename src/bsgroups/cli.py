"""Command line surface: one verb per library capability.

Every handler returns a pair (text, data); ``run`` prints the text, or the
data as JSON under ``--json``, to stdout or to ``--out``.  A report gives
both: ``str(report)`` and ``report.to_json_dict()``.

Exit codes: 0 success (also when the reader of stdout stops early), 1
domain/computation error, 2 usage error.

Each handler imports what it uses past ``classify`` (which ``import
bsgroups`` loads), so a ``bs`` process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classify import canonical_form, classify, prop5_chain, sweep_csv
from .errors import BsError, DomainError
from .intmath import decimal

# Most (m, n) pairs one sweep classifies: 2 m_max n_max of them.
_MAX_SWEEP_PAIRS = 100_000

# The subcommands whose handlers read args.max_bits.
_BIT_CAPPED = {"normalize", "eq", "weight", "quot-image", "lemma2", "member", "omega", "certify"}


def _cmd_normalize(args):
    from .britton import BSParams, bs_group
    from .words import evaluate_text

    G = bs_group(BSParams(args.m, args.n), args.max_bits)
    nf = evaluate_text(G, args.word, args.max_bits)
    text = str(nf)
    return text, {
        "m": args.m,
        "n": args.n,
        "input": args.word,
        "normal_form": text,
        "is_identity": nf.is_identity,
        "sigma_t": sum(eps for eps, _ in nf.tail),
    }


def _cmd_eq(args):
    from .britton import BSParams, bs_group
    from .words import evaluate_text

    G = bs_group(BSParams(args.m, args.n), args.max_bits)
    u = evaluate_text(G, args.word1, args.max_bits)
    equal = u == evaluate_text(G, args.word2, args.max_bits)
    return "equal" if equal else "not-equal", {"m": args.m, "n": args.n, "equal": equal}


def _cmd_weight(args):
    from .affine import affine_group, lcs_weight
    from .words import evaluate_text

    g = evaluate_text(affine_group(args.n, args.max_bits), args.word, args.max_bits)
    w = lcs_weight(args.n, g)
    return str(w), {"n": args.n, "weight": "omega" if w.is_omega else w.index}


def _cmd_quot_image(args):
    from .affine import affine_group, gamma_quot_image
    from .words import evaluate_text

    g = evaluate_text(affine_group(args.n, args.max_bits), args.word, args.max_bits)
    r = gamma_quot_image(args.n, args.i, g)
    return str(r), {"n": args.n, "i": args.i, "modulus": abs(args.n - 1), "image": r}


def _cmd_classify(args):
    rep = classify(args.m, args.n)
    return sweep_csv([rep.csv_row()]) if args.csv else str(rep), rep.to_json_dict()


def _cmd_chain(args):
    rep = prop5_chain(args.m, args.n)
    return str(rep), rep.to_json_dict()


def _cmd_lemma2(args):
    from .britton import BSParams
    from .witness import lemma2_witness

    rep = lemma2_witness(BSParams(args.m, args.n), args.i, args.max_bits)
    return str(rep), rep.to_json_dict()


def _cmd_member(args):
    from .britton import BSParams
    from .witness import gamma_membership_witness
    from .words import parse_word

    p = BSParams(args.m, args.n)
    target = parse_word(f"a^{p.d}" if args.target is None else args.target, args.max_bits)
    rep = gamma_membership_witness(p, target, args.s, args.max_bits)
    return str(rep), rep.to_json_dict()


def _cmd_omega(args):
    from .britton import BSParams
    from .witness import omega_stability_check

    rep = omega_stability_check(BSParams(args.m, args.n), args.max_bits)
    return str(rep), rep.to_json_dict()


def _cmd_rgen(args):
    from .britton import BSParams
    from .freeprod import r_generators

    gens = [str(g) for g in r_generators(BSParams(args.m, args.n), args.K)]
    return "\n".join(gens), {"m": args.m, "n": args.n, "K": args.K, "generators": gens}


def _cmd_fsub_probe(args):
    from .britton import BSParams
    from .freeprod import free_subgroup_probe

    p = BSParams(args.m, args.n)
    rep = free_subgroup_probe(p, args.K, args.trials, args.max_len, args.seed)
    return str(rep), rep.to_json_dict()


def _cmd_oracle_build(args):
    from .finquot import build_semidirect, build_wreath, bs_relation_holds, fq_gamma_series

    canonical_form(args.m, args.n)  # refuses a zero parameter, which build_wreath never sees
    if args.family == "wreath":
        q = build_wreath(args.p, args.k, args.j)
    else:
        q = build_semidirect(args.p, args.k, args.j, args.m, args.n)
    sizes = fq_gamma_series(q).sizes
    relation_ok = bs_relation_holds(q, args.m, args.n)
    text = (
        f"{q.describe()} (order {q.order})\n"
        f"gamma sizes: {sizes}\n"
        f"relation t^-1 a^m t = a^n: {'holds' if relation_ok else 'FAILS'}"
    )
    return text, {
        **q.to_json_dict(),
        "order": q.order,
        "gamma_sizes": sizes,
        "relation_holds": relation_ok,
    }


def _cmd_oracle_certify(args):
    from .finquot import SearchBudget, certify_not_in_gamma

    budget = SearchBudget(k_max=args.k, j_max=args.j)
    cert = certify_not_in_gamma(args.m, args.n, args.word, args.i, budget, args.max_bits)
    if cert is None:
        text = "inconclusive: no quotient in the budgeted family separates the element"
        return text, {"certificate": None, "conclusive": False}
    ok = cert.verify()
    text = f"{cert}\nre-verified: {'true' if ok else 'false'}"
    return text, {"certificate": {**cert.to_json_dict(), "verified": ok}, "conclusive": True}


def _cmd_sweep(args):
    pairs = max(args.m_max, 0) * 2 * max(args.n_max, 0)
    if pairs > _MAX_SWEEP_PAIRS:
        raise DomainError(f"sweep of {decimal(pairs)} pairs passes the limit {_MAX_SWEEP_PAIRS}")
    rows = [
        classify(m, n).csv_row()
        for m in range(1, args.m_max + 1)
        for n in range(-args.n_max, args.n_max + 1)
        if n != 0
    ]
    return sweep_csv(rows), rows


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bs", description="Exact computation in Baumslag-Solitar groups BS(m,n)."
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(parent, name, fn, summary, m=True, n=True):
        p = parent.add_parser(name, help=summary)
        if m:
            p.add_argument("-m", type=int, required=True, help="first exponent")
        if n:
            p.add_argument("-n", type=int, required=True, help="second exponent")
        if name in _BIT_CAPPED:
            p.add_argument("--max-bits", type=int, default=None, help="bit cap for exponents")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--out", default=None, help="write output to FILE")
        p.set_defaults(fn=fn)
        return p

    p = command(sub, "normalize", _cmd_normalize, "Britton normal form of a word")
    p.add_argument("word")

    p = command(sub, "eq", _cmd_eq, "decide equality of two words")
    p.add_argument("word1")
    p.add_argument("word2")

    p = command(sub, "weight", _cmd_weight, "lower-central-series weight in BS(1,n)", m=False)
    p.add_argument("word")

    p = command(
        sub, "quot-image", _cmd_quot_image, "image in gamma_i/gamma_{i+1} of BS(1,n)", m=False
    )
    p.add_argument("-i", type=int, required=True, help="series index, i >= 2")
    p.add_argument("word")

    p = command(sub, "classify", _cmd_classify, "residual-property report for BS(m,n)")
    p.add_argument("--csv", action="store_true", help="CSV row output")

    command(sub, "chain", _cmd_chain, "subgroup chain case report")

    p = sub.add_parser("witness", help="commutator membership witnesses")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    w = command(wsub, "lemma2", _cmd_lemma2, "witness a^((n-m)^i) in gamma_{i+1}")
    w.add_argument("-i", type=int, required=True)
    w = command(wsub, "member", _cmd_member, "witness a^d in gamma_s when n = m + gcd")
    w.add_argument("-s", type=int, required=True)
    w.add_argument("target", nargs="?", default=None)
    command(wsub, "omega", _cmd_omega, "gamma_omega stability evidence on generators")

    p = command(sub, "rgen", _cmd_rgen, "commutator generators of the relator subgroup")
    p.add_argument("-K", type=int, required=True, help="conjugator range |k| <= K")

    p = command(sub, "fsub-probe", _cmd_fsub_probe, "free-subgroup nontriviality probe")
    p.add_argument("-K", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("oracle", help="finite nilpotent quotients and certificates")
    osub = p.add_subparsers(dest="oracle_kind", required=True)
    o = command(osub, "build", _cmd_oracle_build, "build one quotient and its gamma chain")
    o.add_argument("--family", choices=["semidirect", "wreath"], default="semidirect")
    o.add_argument("-p", type=int, required=True, help="prime")
    o.add_argument("-k", type=int, required=True, help="base size exponent (e for wreath)")
    o.add_argument("-j", type=int, required=True, help="top size exponent")
    o = command(osub, "certify", _cmd_oracle_certify, "search for a non-membership certificate")
    o.add_argument("-i", type=int, required=True, help="gamma index, i >= 2")
    o.add_argument("-k", type=int, default=6, help="budget: max base exponent")
    o.add_argument("-j", type=int, default=4, help="budget: max top exponent")
    o.add_argument("word")

    p = command(
        sub, "sweep", _cmd_sweep, "classification sweep over a parameter grid", m=False, n=False
    )
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--csv", action="store_true", help="CSV output (the default)")

    return ap


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, data = args.fn(args)
        if args.json:
            import json  # loaded only under --json: most runs print text
            text = json.dumps(data, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as `bs sweep | head` does.  What is left
        # in the buffer goes to devnull, so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (BsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
