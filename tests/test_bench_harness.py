"""The benchmark harness runs against the current package: its self-test
builds every workload, untraced and traced, with copies of the automata
(`dataclasses.replace`), so a change to the shape of `Automaton` or
`Clause` that breaks it fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "all checks passed"
