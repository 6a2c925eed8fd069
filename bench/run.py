"""bsgroups benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout, the directory that holds ``src/bsgroups``:

    python3 bench/run.py --workload wordstream --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed number of rounds both untraced and traced and reports the
per-layer metrics.  ``--smoke`` shrinks every workload for the
benchmark's own test.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print each metric with its unit and sample count.

The benchmark imports the package from ``src/`` of the current directory and
fails with exit code 2 when there is none.  Workloads are described in
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("wordstream", "towers", "certify", "cli")
MIN_QUERIES = 100
SETUP_SPAWNS = 11
SETUP_CODE = "import bsgroups, bsgroups.cli; bsgroups.cli.build_parser()"
# Rounds per throughput block: about one second of queries per block.
ROUNDS_PER_BLOCK = {"wordstream": 40}
# Rounds per pass of a traced run: fixed, so counts repeat exactly per seed.
TRACE_ROUNDS = {"wordstream": 150, "towers": 2, "certify": 4, "cli": 2}

END_TO_END = [
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("words.parse_expr.calls", "count"),
    ("words.parse_expr.self_s", "s"),
    ("words.eval_expr.self_s", "s"),
    ("words.eval_expr.letters_out", "count"),
    ("britton.normalize.calls", "count"),
    ("britton.normalize.self_s", "s"),
    ("britton.normalize.letters_in", "count"),
    ("britton.nf_equal.self_s", "s"),
    ("britton.nf_multiply.self_s", "s"),
    ("britton.nf_invert.self_s", "s"),
    ("britton.tail_entries_out", "count"),
    ("britton.peak_exp_bits", "bits"),
    ("affine.to_affine.self_s", "s"),
    ("affine.lcs_weight.self_s", "s"),
    ("affine.canonical_word.self_s", "s"),
    ("freeprod.split_central.self_s", "s"),
    ("freeprod.fp_normalize.self_s", "s"),
    ("freeprod.fp_rewrite_basis.self_s", "s"),
    ("finquot.fq_gamma_series.calls", "count"),
    ("finquot.fq_gamma_series.builds", "count"),
    ("finquot.fq_gamma_series.rebuilds", "count"),
    ("finquot.fq_gamma_series.self_s", "s"),
    ("finquot.fq_gamma_series.elements", "count"),
    ("finquot.quotient_family.self_s", "s"),
    ("finquot.fq_eval.calls", "count"),
    ("finquot.fq_eval.self_s", "s"),
    ("finquot.certify_not_in_gamma.self_s", "s"),
    ("finquot.verify.self_s", "s"),
    ("finquot.conclusive_frac", "ratio"),
    ("witness.lemma2_witness.self_s", "s"),
    ("witness.gamma_membership_witness.self_s", "s"),
    ("classify.classify.self_s", "s"),
    ("classify.prop5_chain.self_s", "s"),
    ("intmath.prime_factors.calls", "count"),
    ("intmath.prime_factors.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.process_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


# On a shared host the CPU speed can change by 1.5x from one second to the
# next and stay there for tens of seconds, so every timing is scaled by a fixed pure-Python loop
# timed right before and right after it: scaled = wall * REF_NOMINAL_S /
# reference.  The loop is the benchmark's own code, so a change to the
# program moves the scaled time as much as the wall time.
REF_ITERS = 4000
REF_NOMINAL_S = 0.0003


def reference() -> float:
    """Wall time of a fixed arithmetic loop: the host's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERS):
        x = (x * 7 + i) % 1000003
    return time.perf_counter() - t0


def timed(fn):
    """(result, exception, scaled seconds, wall seconds) of calling fn()."""
    before = reference()
    out = exc = None
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # a failed query is counted, the run goes on
        exc = e
    wall = time.perf_counter() - t0
    return out, exc, wall * REF_NOMINAL_S * 2 / (before + reference()), wall


class Tally:
    """Scaled and wall latencies and the failures of the queries of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def merge(self, other: dict) -> None:
        self.latencies += other["latencies"]
        self.wall += other["wall"]
        self.failures += other["failures"]

    def as_dict(self) -> dict:
        return {"latencies": self.latencies, "wall": self.wall, "failures": self.failures}


def run_queries(queries, tally: Tally, tracer=None) -> None:
    """Closed loop, one client: each query starts when the previous answered."""
    for q in queries:
        qid = len(tally.latencies)
        if tracer is None:
            run = q.run
        else:
            def run(q=q, qid=qid):
                with tracer.recording(qid):
                    return q.run()
        out, exc, scaled, wall = timed(run)
        tally.latencies.append(scaled)
        tally.wall.append(wall)
        if exc is not None:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            tally.fail(f"{q.kind}: {type(exc).__name__}: {exc} "
                       f"({Path(where.filename).name}:{where.lineno})")
            continue
        try:
            problem = q.check(out)
        except Exception as exc:
            problem = f"{q.kind}: check raised {type(exc).__name__}: {exc}"
        if problem:
            tally.fail(problem)


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def make_round(workload: str, seed: int, r: int, smoke: bool, **kw):
    import workloads as W

    rng = round_rng(workload, seed, r)
    if workload == "wordstream":
        return W.wordstream_round(rng, smoke)
    if workload == "towers":
        return W.towers_round(rng, smoke)
    return W.cli_round(rng, smoke, **kw)


# ---------------------------------------------------------------------------
# certify sessions: each is a fresh process, so its chain builds start cold.


def certify_session(seed: int, r: int, traced: bool, smoke: bool) -> dict:
    """Body of one session process; returns what the parent merges."""
    import workloads as W
    from tracing import Tracer, empty_counts

    stats = {"certify": 0, "conclusive": 0}
    tally = Tally()
    queries = W.certify_round(round_rng("certify", seed, r), smoke, stats)
    out = tally.as_dict()
    if traced:
        tracer = Tracer()
        with tracer.installed():
            run_queries(queries, tally, tracer)
        out.update(spans=tracer.spans, counts=tracer.counts)
    else:
        run_queries(queries, tally)
        out.update(spans=[], counts=empty_counts())
    out["stats"] = stats
    return out


def spawn_session(seed: int, r: int, traced: bool, smoke: bool) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "certify",
            "--seed", str(seed), "--session", str(r), "--trace", str(int(traced))]
    if smoke:
        argv.append("--smoke")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        err = "timed out" if proc is None else proc.stderr.strip()[-300:]
        wall = time.perf_counter() - t0
        return {"latencies": [wall], "wall": [wall],
                "failures": [f"certify session {r} crashed: {err}"],
                "spans": [], "counts": None, "stats": {"certify": 1, "conclusive": 0}}
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(spawns: int) -> list[float]:
    """Scaled wall times of fresh interpreters that import the package."""
    times = []
    for _ in range(spawns):
        # Capture the (empty) output: with no pipe to close, a wait with a
        # timeout polls and rounds the time up to 50 ms steps.
        proc, exc, scaled, _ = timed(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, timeout=60))
        if exc is not None or proc.returncode != 0:
            raise RuntimeError(f"set-up spawn failed: {exc or proc.stderr.strip()}")
        times.append(scaled)
    return times


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload in ("certify", "cli") else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool):
    setup = measure_setup(3 if smoke else SETUP_SPAWNS)
    tally = Tally()
    min_queries = 1 if smoke else MIN_QUERIES
    per_block = ROUNDS_PER_BLOCK.get(workload, 1)
    block_qps = []
    start = time.perf_counter()
    r = 0
    # Whole blocks of whole rounds only, so every run sees the same mix.
    while True:
        first = len(tally.latencies)
        for _ in range(per_block):
            if workload == "certify":
                tally.merge(spawn_session(seed, r, False, smoke))
            else:
                run_queries(make_round(workload, seed, r, smoke), tally)
            r += 1
        block = tally.latencies[first:]
        block_qps.append(len(block) / sum(block))
        if time.perf_counter() - start >= seconds and len(tally.latencies) >= min_queries:
            break
    lat = tally.latencies
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if n > 1 else lat[0]
    values = {
        # Median over blocks, so a burst of load from outside moves it least.
        "queries_per_s": (statistics.median(block_qps), len(block_qps)),
        "query_p50_ms": (statistics.median(lat) * 1e3, n),
        "query_p90_ms": (p90 * 1e3, n),
        "ok_frac": (1 - len(tally.failures) / n, n),
        "peak_rss_mb": (peak_rss_mb(workload), 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }
    wall = tally.wall
    lines = [
        f"rounds {r}, blocks {len(block_qps)}, queries {n}, "
        f"failed_frac {len(tally.failures) / n:.6g} (n={n})",
        f"unscaled wall: {n / sum(wall):.6g} queries/s, p50 "
        f"{statistics.median(wall) * 1e3:.6g} ms, mean host speed "
        f"{sum(lat) / sum(wall):.4g} x nominal",
    ]
    return tally, values, END_TO_END, lines


# ---------------------------------------------------------------------------
# traced run


def traced_run(workload: str, seed: int, smoke: bool):
    from tracing import Tracer, empty_counts, layer_totals, merge_counts

    rounds = 1 if smoke else TRACE_ROUNDS[workload]
    tally = Tally()
    extras: dict[str, float] = {}
    # Each round runs untraced and traced back to back, first one way round
    # and then the other, so warm-up and drift of the host fall on both.
    orders = [(False, True) if r % 2 == 0 else (True, False) for r in range(rounds)]
    if workload == "certify":
        plain, traced = [], []
        for r, order in enumerate(orders):
            for use_trace in order:
                (traced if use_trace else plain).append(spawn_session(seed, r, use_trace, smoke))
        spans, counts = [], empty_counts()
        for s in plain + traced:
            tally.merge(s)
        queries = 0
        for s in traced:
            # Re-base query ids and parent indices: each session counts from 0.
            base = len(spans)
            spans += [(q + queries, l, a, b, p + base if p >= 0 else -1)
                      for q, l, a, b, p in s["spans"]]
            queries += len(s["latencies"])
            if s["counts"]:
                merge_counts(counts, s["counts"])
        untraced_s = sum(sum(s["latencies"]) for s in plain)
        traced_s = sum(sum(s["latencies"]) for s in traced)
        attempted = sum(s["stats"]["certify"] for s in traced)
        conclusive = sum(s["stats"]["conclusive"] for s in traced)
        extras["finquot.conclusive_frac"] = conclusive / attempted if attempted else 0.0
    else:
        tracer = Tracer()
        kw = {"inprocess": True} if workload == "cli" else {}
        child, plain, traced = Tally(), Tally(), Tally()
        for r, order in enumerate(orders):
            if workload == "cli":
                run_queries(make_round(workload, seed, r, smoke), child)
            for use_trace in order:
                queries = make_round(workload, seed, r, smoke, **kw)
                if use_trace:
                    with tracer.installed():
                        run_queries(queries, traced, tracer)
                else:
                    run_queries(queries, plain)
        for t in (child, plain, traced):
            tally.merge(t.as_dict())
        spans, counts = tracer.spans, tracer.counts
        untraced_s, traced_s = sum(plain.latencies), sum(traced.latencies)
        if workload == "cli":
            extras["cli.process_s"] = sum(child.latencies) - untraced_s
    extras["trace.overhead_frac"] = traced_s / untraced_s - 1
    write_spans(workload, seed, spans)

    calls, self_s = layer_totals(spans)
    values = {}
    for name, _ in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if stat == "calls":
            v = calls.get(layer, 0)
        elif stat == "self_s":
            v = self_s.get(layer, 0.0)
        else:
            v = counts.get(name, extras.get(name, 0))
        values[name] = (v, len(spans))
    lines = [f"traced rounds {rounds} (plus {rounds} untraced), spans {len(spans)}"]
    return tally, values, PER_LAYER, lines


def write_spans(workload: str, seed: int, spans) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["query", "layer", "start_s", "end_s", "parent"],
        "spans": spans,
    }
    (out / f"{workload}-seed{seed}.spans.json").write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------


def use_checkout_sources() -> None:
    """Import bsgroups from ./src and make child processes do the same."""
    src = Path.cwd() / "src"
    if not (src / "bsgroups" / "__init__.py").is_file():
        print(f"bench: no src/bsgroups under {Path.cwd()}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    os.environ["PYTHONPATH"] = str(src)
    os.environ.pop("BS_MAX_BITS", None)  # measure the default bit cap
    sys.path[:0] = [str(src), str(BENCH)]
    import bsgroups

    if Path(bsgroups.__file__).resolve().parent != (src / "bsgroups").resolve():
        print(f"bench: imported bsgroups from {bsgroups.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    ap.add_argument("--session", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    use_checkout_sources()

    if args.session is not None:
        out = certify_session(args.seed, args.session, bool(args.trace), args.smoke)
        print(json.dumps(out))
        return

    if args.trace:
        tally, values, spec, lines = traced_run(args.workload, args.seed, args.smoke)
    else:
        tally, values, spec, lines = end_to_end(args.workload, args.seed, args.seconds, args.smoke)

    for reason in tally.failures[:10]:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, unit in spec:
        value, samples = values[name]
        print(f"  {name:42s} {value:14.6g} {unit:6s} (n={samples})")
    n = len(tally.latencies)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": n,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in spec},
    }))


if __name__ == "__main__":
    main()
