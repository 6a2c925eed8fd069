"""Span tracer for the bsgroups layers, installed from outside the package.

The tracer wraps a fixed list of public functions and rebinds the wrapper at
every binding of the original object in every loaded ``bsgroups`` module.
Several modules bind their collaborators with ``from ... import``
(``freeprod`` binds ``normalize``, ``witness`` binds ``eval_expr``, ``cli``
binds nearly everything), so patching only the defining module would miss
the calls made between modules.

A span is ``(query, layer, start, end, parent)``: the query id set by the
caller, the layer name such as ``britton.normalize``, perf_counter stamps and
the index of the enclosing span (-1 at top level).  Spans stay in memory; the
caller writes them out once when the run ends.  Wrappers record nothing while
``active`` is false, so the benchmark's own answer checks stay out of the
numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, layer name).  A dotted attribute is a method.
TARGETS = [
    ("words", "parse_expr", "words.parse_expr"),
    ("words", "eval_expr", "words.eval_expr"),
    ("britton", "normalize", "britton.normalize"),
    ("britton", "nf_equal", "britton.nf_equal"),
    ("britton", "nf_multiply", "britton.nf_multiply"),
    ("britton", "nf_invert", "britton.nf_invert"),
    ("affine", "to_affine", "affine.to_affine"),
    ("affine", "lcs_weight", "affine.lcs_weight"),
    ("affine", "canonical_word", "affine.canonical_word"),
    ("freeprod", "split_central", "freeprod.split_central"),
    ("freeprod", "fp_normalize", "freeprod.fp_normalize"),
    ("freeprod", "fp_rewrite_basis", "freeprod.fp_rewrite_basis"),
    ("finquot", "fq_gamma_series", "finquot.fq_gamma_series"),
    ("finquot", "quotient_family", "finquot.quotient_family"),
    ("finquot", "fq_eval", "finquot.fq_eval"),
    ("finquot", "certify_not_in_gamma", "finquot.certify_not_in_gamma"),
    ("finquot", "Certificate.verify", "finquot.verify"),
    ("witness", "lemma2_witness", "witness.lemma2_witness"),
    ("witness", "gamma_membership_witness", "witness.gamma_membership_witness"),
    ("classify", "classify", "classify.classify"),
    ("classify", "prop5_chain", "classify.prop5_chain"),
    ("intmath", "prime_factors", "intmath.prime_factors"),
    ("cli", "run", "cli.run"),
]


def _letters(word) -> int:
    return sum(abs(e) for _, e in word.syllables)


def _count_nf(counts: dict, nf) -> None:
    counts["britton.tail_entries_out"] += len(nf.tail)
    bits = abs(nf.r0).bit_length()
    if bits > counts["britton.peak_exp_bits"]:
        counts["britton.peak_exp_bits"] = bits


def _count_eval(counts, args, kwargs, result):
    counts["words.eval_expr.letters_out"] += _letters(result)


def _count_normalize(counts, args, kwargs, result):
    # Steps of the Britton scan: an a-syllable is one step, t^e is |e| steps.
    word = args[1] if len(args) > 1 else kwargs["w"]
    counts["britton.normalize.letters_in"] += sum(
        1 if g == "a" else abs(e) for g, e in word.syllables
    )
    _count_nf(counts, result)


def _count_nf_result(counts, args, kwargs, result):
    _count_nf(counts, result)


def _count_chain(counts, args, kwargs, result):
    counts["finquot.fq_gamma_series.elements"] += result.sizes[0]


COUNTERS = {
    "words.eval_expr": _count_eval,
    "britton.normalize": _count_normalize,
    "britton.nf_multiply": _count_nf_result,
    "britton.nf_invert": _count_nf_result,
    "finquot.fq_gamma_series": _count_chain,
}

# Counts combined by max rather than by sum when runs are merged.
MAX_COUNTS = {"britton.peak_exp_bits"}


def empty_counts() -> dict:
    return {
        "words.eval_expr.letters_out": 0,
        "britton.normalize.letters_in": 0,
        "britton.tail_entries_out": 0,
        "britton.peak_exp_bits": 0,
        "finquot.fq_gamma_series.elements": 0,
        "finquot.fq_gamma_series.builds": 0,
        "finquot.fq_gamma_series.rebuilds": 0,
    }


def merge_counts(into: dict, other: dict) -> None:
    for key, value in other.items():
        if key in MAX_COUNTS:
            into[key] = max(into[key], value)
        else:
            into[key] += value


class Tracer:
    """Records spans and counts for calls into the TARGETS functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = empty_counts()
        self.active = False
        self.query = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._built: set = set()  # quotients whose chain this session built

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        count = COUNTERS.get(layer)
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            misses = 0
            if cache_info:
                info = cache_info()
                misses = info.misses
                if info.currsize == 0:  # cache cleared: a new session starts
                    self._built.clear()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.query, layer, start, end, parent)
            if layer == "finquot.fq_gamma_series":
                # A call that missed the cache built a chain; without a cache
                # every call builds one.
                if not cache_info or cache_info().misses > misses:
                    counts["finquot.fq_gamma_series.builds"] += 1
                    if args[0] in self._built:
                        counts["finquot.fq_gamma_series.rebuilds"] += 1
                    self._built.add(args[0])
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every target at each of its bsgroups.* bindings, then restore."""
        wrappers = {}
        for mod_name, attr, layer in TARGETS:
            module = importlib.import_module(f"bsgroups.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrap(layer, original))
                self._restore.append((cls, meth, original))
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bsgroups" or name.startswith("bsgroups."))
        ]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, value))
        try:
            yield self
        finally:
            for owner, name, value in reversed(self._restore):
                setattr(owner, name, value)
            self._restore.clear()

    @contextmanager
    def recording(self, query: int):
        """Trace the calls made inside the block as part of query ``query``."""
        self.query = query
        self.active = True
        try:
            yield
        finally:
            self.active = False


def layer_totals(spans) -> tuple[dict, dict]:
    """Per-layer call counts and self time; self = span minus child spans."""
    child = [0.0] * len(spans)
    for query, layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (query, layer, start, end, parent) in enumerate(spans):
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
    return calls, self_s
