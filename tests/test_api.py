import importlib
import importlib.util
import json
import os
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


def test_traced_targets_resolve():
    # The tracer skips a target it cannot find, so a renamed function would
    # make its per-layer metric read 0 without any error.
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"bsgroups.{module}")
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


# Runs the bs entry point as ``python -m bsgroups.cli`` does, then reports
# which package modules the process loaded.
_RUN_CLI = """
import json, runpy, sys
sys.argv = ["bs", *json.loads(sys.argv[1])]
try:
    runpy.run_module("bsgroups.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("bsgroups."))]))
"""


def _loaded_by(argv: list[str]) -> tuple[str, set[str]]:
    proc = _python("-c", _RUN_CLI, json.dumps(argv))
    *out, last = proc.stdout.splitlines()
    code, modules = json.loads(last)
    assert code == 0, proc.stderr
    return "\n".join(out), {m.removeprefix("bsgroups.") for m in modules}


def test_import_loads_no_computation_layer():
    proc = _python("-c", "import bsgroups, json, sys; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    for name in ("words", "britton", "finquot", "cli"):
        assert f"bsgroups.{name}" not in loaded


@pytest.mark.parametrize(
    "argv, first_line, unused",
    [
        (["normalize", "-m", "2", "-n", "3", "T a^2 t"], "a^3",
         {"finquot", "affine", "freeprod", "witness"}),
        (["classify", "-m", "6", "-n", "6"], "BS(6,6) canonical (6,6)", {"words", "britton"}),
        (["sweep", "--m-max", "2", "--n-max", "2"], "m,n,canonical_m,canonical_n,ab,rf,"
         "rp_primes,rn,rtfn,lcs_length,gamma_omega,prop5_case", {"words", "britton"}),
    ],
)
def test_subcommands_load_only_their_modules(argv, first_line, unused):
    out, loaded = _loaded_by(argv)
    assert out.splitlines()[0] == first_line
    assert not loaded & unused, loaded & unused


def test_module_entry_point_runs_without_warnings():
    # runpy warns when the package __init__ already imported bsgroups.cli
    proc = _python("-W", "error", "-m", "bsgroups.cli", "classify", "-m", "6", "-n", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "BS(6,6) canonical (6,6)"
