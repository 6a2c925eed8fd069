"""Command line surface: one verb per library capability.

Every handler returns a pair (text, data); ``run`` prints the text, or the
data as JSON under ``--json``, to stdout or to ``--out``.

Exit codes: 0 success (also when the reader of stdout stops early), 1
domain/computation error, 2 usage error.

Each handler imports the modules it uses, so a ``bs`` process loads only
what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BsError

SWEEP_COLUMNS = [
    "m", "n", "canonical_m", "canonical_n", "ab", "rf", "rp_primes", "rn", "rtfn",
    "lcs_length", "gamma_omega", "prop5_case",
]


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _cmd_normalize(args):
    from .britton import BSParams, bs_group
    from .words import evaluate, parse_expr

    G = bs_group(BSParams(args.m, args.n), args.max_bits)
    nf = evaluate(G, parse_expr(args.word, args.max_bits))
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
    from .words import evaluate, parse_expr

    G = bs_group(BSParams(args.m, args.n), args.max_bits)
    u = evaluate(G, parse_expr(args.word1, args.max_bits))
    equal = u == evaluate(G, parse_expr(args.word2, args.max_bits))
    return "equal" if equal else "not-equal", {"m": args.m, "n": args.n, "equal": equal}


def _cmd_weight(args):
    from .affine import affine_group, lcs_weight
    from .words import evaluate, parse_expr

    g = evaluate(affine_group(args.n, args.max_bits), parse_expr(args.word, args.max_bits))
    w = lcs_weight(args.n, g)
    return str(w), {"n": args.n, "weight": "omega" if w.is_omega else w.index}


def _cmd_quot_image(args):
    from .affine import affine_group, gamma_quot_image
    from .words import evaluate, parse_expr

    g = evaluate(affine_group(args.n, args.max_bits), parse_expr(args.word, args.max_bits))
    r = gamma_quot_image(args.n, args.i, g)
    return str(r), {"n": args.n, "i": args.i, "modulus": abs(args.n - 1), "image": r}


def _sweep_row(rep) -> list[str]:
    from .classify import prop5_chain

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


def _cmd_classify(args):
    from .classify import classify

    rep = classify(args.m, args.n)
    if args.csv:
        text = ",".join(SWEEP_COLUMNS) + "\n" + ",".join(_sweep_row(rep))
    else:
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
        text = "\n".join(lines)
    return text, rep.to_json_dict()


def _cmd_chain(args):
    from .classify import prop5_chain

    rep = prop5_chain(args.m, args.n)
    lines = [f"BS({rep.m},{rep.n}) case {rep.case}", "chain: " + " >= ".join(rep.chain)]
    lines += [f"{q} = {v}" for q, v in rep.quotients]
    lines += [f"note: {t}" for t in rep.notes]
    return "\n".join(lines), rep.to_json_dict()


def _witness(w):
    data = w.to_json_dict()
    text = (
        f"{data['expr']} = {data['target']} in BS({w.m},{w.n}); "
        f"value lies in gamma_{w.depth} (verified)"
    )
    return text, data


def _cmd_lemma2(args):
    from .britton import BSParams
    from .witness import lemma2_witness

    return _witness(lemma2_witness(BSParams(args.m, args.n), args.i, args.max_bits))


def _cmd_member(args):
    from .britton import BSParams
    from .witness import gamma_membership_witness
    from .words import Word, parse_word

    p = BSParams(args.m, args.n)
    if args.target:
        target = parse_word(args.target, args.max_bits)
    else:
        target = Word.from_pairs((("a", p.d),))
    return _witness(gamma_membership_witness(p, target, args.s, args.max_bits))


def _cmd_omega(args):
    from .britton import BSParams
    from .witness import omega_stability_check

    rep = omega_stability_check(BSParams(args.m, args.n), args.max_bits)
    text = (
        f"BS({rep.m},{rep.n}): {rep.identity}; "
        "stable under [., G] on generators (evidence, not proof)"
    )
    return text, rep.to_json_dict()


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
    text = (
        f"d={rep.d} K={rep.K}: checked {rep.checked} reduced words "
        f"(skipped {rep.skipped_empty} empty), nontrivial {rep.nontrivial}, "
        f"{'OK' if rep.ok else 'FAILURES: ' + '; '.join(rep.failures)}"
    )
    return text, rep.to_json_dict()


def _cmd_oracle_build(args):
    from .finquot import build_semidirect, build_wreath, bs_relation_holds, fq_gamma_series

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
    from .words import parse_word

    word = parse_word(args.word, args.max_bits)
    budget = SearchBudget(k_max=args.k, j_max=args.j)
    cert = certify_not_in_gamma(args.m, args.n, word, args.i, budget)
    if cert is None:
        text = "inconclusive: no quotient in the budgeted family separates the element"
        return text, {"certificate": None, "conclusive": False}
    ok = cert.verify()
    text = f"{cert.statement}\ngamma sizes: {list(cert.gamma_sizes)}\nre-verified: {_bool(ok)}"
    return text, {"certificate": {**cert.to_json_dict(), "verified": ok}, "conclusive": True}


def _cmd_sweep(args):
    from .classify import classify

    rows = [
        _sweep_row(classify(m, n))
        for m in range(1, args.m_max + 1)
        for n in range(-args.n_max, args.n_max + 1)
        if n != 0
    ]
    text = "\n".join(",".join(row) for row in [SWEEP_COLUMNS, *rows])
    return text, [dict(zip(SWEEP_COLUMNS, row)) for row in rows]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bs", description="Exact computation in Baumslag-Solitar groups BS(m,n)."
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(parent, name, fn, summary, m=True, n=True, max_bits=True):
        p = parent.add_parser(name, help=summary)
        if m:
            p.add_argument("-m", type=int, required=True, help="first exponent")
        if n:
            p.add_argument("-n", type=int, required=True, help="second exponent")
        if max_bits:
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
        sub, "sweep", _cmd_sweep, "classification sweep over a parameter grid",
        m=False, n=False, max_bits=False,
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
        output = json.dumps(data, indent=2) if args.json else text
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output + "\n")
        else:
            print(output)
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
