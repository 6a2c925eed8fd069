import importlib
import importlib.util
from pathlib import Path

import bsgroups

ROOT = Path(__file__).resolve().parents[1]


def test_traced_targets_resolve():
    # The tracer skips a target it cannot find, so a renamed function would
    # make its per-layer metric read 0 without any error.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"bsgroups.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"bsgroups.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj)


def test_public_names_resolve():
    for name in bsgroups.__all__:
        assert hasattr(bsgroups, name), name
