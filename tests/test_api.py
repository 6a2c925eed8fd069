import ast
import copy
import importlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bsgroups
import bsgroups.britton

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports bsgroups from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


# Traced targets deleted from the package on purpose.  Their layers read 0
# until the benchmark's target list drops them (ROADMAP item 4); each must
# really be gone, so an entry here cannot hide a function that still exists.
_RETIRED_TARGETS = {("words", "eval_expr")}


def test_traced_targets_resolve():
    # The tracer skips a target it cannot find, so a renamed function would
    # make its per-layer metric read 0 without any error.
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"bsgroups.{module}")
        if (module, attr) in _RETIRED_TARGETS:
            assert not hasattr(obj, attr), f"bsgroups.{module}.{attr} exists again"
            continue
        for part in attr.split("."):
            assert hasattr(obj, part), f"bsgroups.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj)


def test_tracer_sees_lazy_names_and_leaves_no_wrapper():
    tracer = _load_tracing().Tracer()
    original = bsgroups.britton.normalize
    with tracer.installed():
        assert bsgroups.normalize is not original
        assert bsgroups.normalize.__wrapped__ is original
    assert bsgroups.normalize is original
    assert bsgroups.britton.normalize is original


def test_public_names_resolve():
    for name in bsgroups.__all__:
        assert hasattr(bsgroups, name), name
    assert set(bsgroups.__all__) <= set(dir(bsgroups))


@pytest.mark.parametrize("first", ["bsgroups.classify", "bsgroups.witness", "bsgroups"])
def test_public_names_are_their_defining_objects(first):
    # Importing a submodule binds its name in the package; bsgroups.classify
    # must stay the function whichever module is imported first.
    code = f"""
import importlib, json, pkgutil, sys
import {first}
import bsgroups
for info in pkgutil.iter_modules(bsgroups.__path__):
    importlib.import_module("bsgroups." + info.name)
bad = []
for name in bsgroups.__all__:
    obj = getattr(bsgroups, name)
    home = sys.modules.get(getattr(obj, "__module__", ""))
    if home is None or getattr(home, name, None) is not obj:
        bad.append(name)
print(json.dumps(bad))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_submodules_resolve_as_attributes():
    code = """
import bsgroups
print(bsgroups.finquot.fq_gamma_series.__name__, bsgroups.freeprod.__name__)
print(hasattr(bsgroups, "no_such_name"), callable(bsgroups.classify))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fq_gamma_series", "bsgroups.freeprod", "False", "True"]


# Runs the bs entry point as ``python -m bsgroups.cli`` does, then prints
# the exit code and every loaded module as a Python literal: importing json
# here would hide whether bs loaded it.
_RUN_CLI = """
import runpy, sys
sys.argv = ["bs", *sys.argv[1:]]
try:
    runpy.run_module("bsgroups.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(repr([code, sorted(sys.modules)]))
"""

# Standard modules that bs never needs; json only under --json.
_NEVER_LOADED = {"dataclasses", "inspect"}


def _loaded_by(argv: list[str]) -> tuple[str, set[str]]:
    proc = _python("-c", _RUN_CLI, *argv)
    *out, last = proc.stdout.splitlines()
    code, modules = ast.literal_eval(last)
    assert code == 0, proc.stderr
    return "\n".join(out), set(modules)


def test_import_loads_no_computation_layer():
    proc = _python("-c", "import bsgroups, sys; print(repr(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    for name in ("words", "britton", "finquot", "cli"):
        assert f"bsgroups.{name}" not in loaded
    assert not loaded & (_NEVER_LOADED | {"json"}), loaded & (_NEVER_LOADED | {"json"})
    # A later lookup loads what it names: a public name's defining module,
    # or a submodule; any other name is an AttributeError.
    code = """
import sys
import bsgroups
assert "bsgroups.britton" not in sys.modules
assert bsgroups.nf_invert is sys.modules["bsgroups.britton"].nf_invert
assert bsgroups.finquot.__name__ == "bsgroups.finquot"
try:
    bsgroups.no_such_name
except AttributeError:
    print("ok")
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    "argv, first_line, unused",
    [
        (["normalize", "-m", "2", "-n", "3", "T a^2 t"], "a^3",
         {"finquot", "affine", "freeprod", "witness"}),
        (["classify", "-m", "6", "-n", "6"], "BS(6,6) canonical (6,6)", {"words", "britton"}),
        (["sweep", "--m-max", "2", "--n-max", "2"], "m,n,canonical_m,canonical_n,ab,rf,"
         "rp_primes,rn,rtfn,lcs_length,gamma_omega,prop5_case", {"words", "britton"}),
        (["oracle", "certify", "-m", "1", "-n", "3", "-i", "3", "a^2"],
         "image (2, 0) of the element in Z_4 x|_3 Z_2 lies outside gamma_3(Q), hence the "
         "element lies outside gamma_3(BS(1,3))", {"britton", "affine", "freeprod", "witness"}),
        (["fsub-probe", "-m", "2", "-n", "2", "--trials", "5"],
         "d=2 K=3: checked 4 reduced words (skipped 1 empty), nontrivial 4, OK",
         {"finquot", "affine", "witness"}),
        (["witness", "member", "-m", "2", "-n", "4", "-s", "3"],
         "[[a^2, t]^1, t] = a^2 in BS(2,4); value lies in gamma_3 (verified)",
         {"finquot", "affine", "freeprod"}),
        (["normalize", "-m", "2", "-n", "3", "--json", "T a^2 t"], "{",
         {"finquot", "affine", "freeprod", "witness"}),
    ],
)
def test_subcommands_load_only_their_modules(argv, first_line, unused):
    out, loaded = _loaded_by(argv)
    assert out.splitlines()[0] == first_line
    package = {m.removeprefix("bsgroups.") for m in loaded if m.startswith("bsgroups.")}
    assert not package & unused, package & unused
    assert not loaded & _NEVER_LOADED, loaded & _NEVER_LOADED
    assert ("json" in loaded) == ("--json" in argv)


def _records():
    """One instance of every record class and expression node, with the repr
    that the dataclass-based records printed."""
    from bsgroups import (
        BSParams, Commutator, Gen, Power, Product, SearchBudget, Wreath, ZnElement,
        certify_not_in_gamma, classify, fp_normalize, fp_rewrite_basis,
        fq_gamma_series, free_subgroup_probe, lcs_weight, lemma2_witness, normalize,
        omega_stability_check, parse_word, prop5_chain, split_central, to_affine,
    )
    from bsgroups.britton import abelianize

    p, w = BSParams(2, 3), parse_word("T a^2 t")
    a, t = Gen("a"), Gen("t")
    report = classify(2, 4)
    cert = certify_not_in_gamma(1, 3, parse_word("a^2"), 3)
    return [
        (w, "Word(syllables=(('t', -1), ('a', 2), ('t', 1)))"),
        (a, "Gen(name='a')"),
        (Power(a, -2), "Power(base=Gen(name='a'), exp=-2)"),
        (Product((a, t)), "Product(factors=(Gen(name='a'), Gen(name='t')))"),
        (Commutator(a, t), "Commutator(left=Gen(name='a'), right=Gen(name='t'))"),
        (p, 'BSParams(m=2, n=3)'),
        (normalize(p, w), 'BrittonNF(r0=3, tail=())'),
        (abelianize(p, w), 'AbImage(t_part=0, a_part=0, modulus=1)'),
        (ZnElement(3, 1), 'ZnElement(num=3, l=1)'),
        (to_affine(3, parse_word("t a")), 'AffineElem(k=-1, b=ZnElement(num=1, l=1))'),
        (lcs_weight(3, to_affine(3, parse_word("a^4"))), 'Weight(index=3)'),
        (
            report.residually_p,
            "ResiduallyP(kind='none', primes=(), condition='not residually finite')",
        ),
        (report.gamma_omega, "GammaOmega(kind='equals', d=2)"),
        (report.class_diffs, 'ClassDiffs(in_rf=False, in_rn=False, in_rp_any=False, strict=None)'),
        (
            report,
            "ClassReport(m=2, n=4, canonical=(2, 4), abelianization='Z x Z_2', "
            "residually_finite=False, residually_p=ResiduallyP(kind='none', primes=(), "
            "condition='not residually finite'), residually_nilpotent=False, "
            "residually_torsionfree_nilpotent=False, lcs_length='unknown', "
            "gamma_omega=GammaOmega(kind='equals', d=2), class_diffs=ClassDiffs(in_rf=False, "
            "in_rn=False, in_rp_any=False, strict=None))",
        ),
        (
            prop5_chain(2, 4),
            'ChainReport(m=2, n=4, canonical=(2, 4), case=5, chain=(\'G\', "G\'", \'A\', '
            "'gamma_omega(G)', 'R'), quotients=(), notes=('A/R abelian',))",
        ),
        (cert.quotient, 'Semidirect(p=2, k=2, j=1, u=3)'),
        (Wreath(2, 1, 1), 'Wreath(p=2, e=1, j=1)'),
        (
            fq_gamma_series(Wreath(2, 1, 1)),
            'GammaChain(order=8, modulus=2, terms=(((0, 1, (1, 1)),), ()))',
        ),
        (SearchBudget(), 'SearchBudget(k_max=6, j_max=4, order_cap=1000000)'),
        (
            cert,
            "Certificate(m=1, n=3, levels=(((0, 2),), 0), "
            "quotient=Semidirect(p=2, k=2, j=1, u=3), image=(2, 0), i=3, gamma_sizes=(8, 2, 1))",
        ),
        (
            fp_normalize(2, parse_word("t a t")),
            "FreeProdWord(d=2, syllables=(('t', 1), ('a', 1), ('t', 1)))",
        ),
        (
            fp_rewrite_basis(fp_normalize(2, parse_word("[t, a]"))),
            'BasisWord(d=2, tokens=((1, 1, 1),))',
        ),
        (
            split_central(BSParams(2, -2), parse_word("a^4 [t, a]")),
            'CentralSplit(c=1, basis=BasisWord(d=2, tokens=((1, 1, 1),)))',
        ),
        (
            free_subgroup_probe(BSParams(2, 2), trials=2, seed=0),
            "ProbeReport(d=2, K=3, trials=2, max_len=6, checked=2, nontrivial=2, "
            "skipped_empty=0, failures=())",
        ),
        (
            lemma2_witness(BSParams(1, 3), 1),
            "MembershipWitness(expr=Commutator(left=Power(base=Gen(name='a'), exp=1), "
            "right=Gen(name='t')), target=Word(syllables=(('a', 2),)), depth=2, m=1, n=3)",
        ),
        (
            omega_stability_check(BSParams(2, 3)),
            "OmegaStabilityReport(m=2, n=3, d=1, k=2, identity='a^1 = [a^2, t] with a^2 in "
            "gamma_omega', verified=True)",
        ),
    ]


_RECORDS = _records()


@pytest.mark.parametrize("record, text", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_record_semantics(record, text):
    # records and expression nodes alike name their fields in _fields
    names = record._fields
    assert names
    values = [getattr(record, name) for name in names]
    twin = type(record)(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert [getattr(record, name) for name in names] == values
    assert repr(record) == text
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record and repr(copied) == text


def test_nodes_and_params_refuse_changes():
    from bsgroups import BSParams, DomainError
    from bsgroups.words import _LETTERS

    for node in _LETTERS.values():  # shared by every parse
        assert node._fields
        for name in node._fields:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
    assert repr(_LETTERS["A"]) == "Power(base=Gen(name='a'), exp=-1)"
    for make in (lambda: BSParams(0, 3), lambda: BSParams(2, 0), lambda: BSParams(0, 0),
                 lambda: BSParams(2, 3)._replace(m=0), lambda: BSParams._make((2, 0))):
        with pytest.raises(DomainError, match="requires nonzero m and n"):
            make()
    assert BSParams(2, 3)._replace(n=5) == BSParams._make((2, 5)) == BSParams(2, 5)


def test_module_entry_point_runs_without_warnings():
    # runpy warns when the package __init__ already imported bsgroups.cli
    proc = _python("-W", "error", "-m", "bsgroups.cli", "classify", "-m", "6", "-n", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "BS(6,6) canonical (6,6)"
