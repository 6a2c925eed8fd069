"""Record the golden stdout of the `cli` workload's fixed `bs` script.

Run from the root of a checkout:

    python3 bench/record_golden.py

It runs every invocation below once, as ``python -m bsgroups.cli``, and
writes ``cli_golden.json`` next to this file.  Re-record only when a change
is meant to alter the output; the `cli` workload fails any run whose stdout
differs from the recorded bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# The README's CLI examples (the sweep prints instead of writing a file),
# a medium sweep, classify on n - 1 = p q with primes near 1e5 and 1e6, and
# the --json render path.
SCRIPT = [
    ["normalize", "-m", "2", "-n", "3", "T a^2 t"],
    ["eq", "-m", "2", "-n", "3", "[a^2, t]", "a"],
    ["weight", "-n", "-1", "a^8"],
    ["quot-image", "-n", "4", "-i", "2", "a^3"],
    ["classify", "-m", "6", "-n", "6"],
    ["classify", "-m", "2", "-n", "4", "--csv"],
    ["chain", "-m", "2", "-n", "6"],
    ["witness", "lemma2", "-m", "2", "-n", "5", "-i", "2"],
    ["witness", "member", "-m", "2", "-n", "4", "-s", "3"],
    ["witness", "omega", "-m", "2", "-n", "3"],
    ["rgen", "-m", "2", "-n", "4", "-K", "2"],
    ["fsub-probe", "-m", "2", "-n", "4", "--trials", "200", "--seed", "7"],
    ["oracle", "build", "-m", "1", "-n", "3", "-p", "2", "-k", "2", "-j", "1"],
    ["oracle", "certify", "-m", "1", "-n", "3", "-i", "3", "a^2"],
    ["sweep", "--m-max", "12", "--n-max", "12"],
    ["sweep", "--m-max", "30", "--n-max", "30"],
    ["classify", "-m", "1", "-n", "9999399974"],
    ["classify", "-m", "1", "-n", "999962000358"],
    ["classify", "-m", "999962000357", "-n", "-999962000357", "--csv"],
    ["classify", "-m", "1", "-n", "-999962000356", "--json"],
    ["normalize", "-m", "2", "-n", "3", "--json", "[[a^2, t]^2, t] T a t"],
    ["oracle", "certify", "-m", "2", "-n", "4", "-i", "3", "--json", "[a, t] a^2"],
]

GOLDEN = Path(__file__).with_name("cli_golden.json")


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    env.pop("BS_MAX_BITS", None)
    entries = []
    for argv in SCRIPT:
        proc = subprocess.run(
            [sys.executable, "-m", "bsgroups.cli", *argv],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        entries.append({"argv": argv, "stdout": proc.stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
