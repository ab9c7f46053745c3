"""Self-test of the benchmark, with every workload at its minimum size.

Usage (from the repository root; takes a few seconds):

    python3 perfbench/selftest.py

Checks that
* the metric tables in run.py match the names and units BENCHMARK.json
  declares;
* every workload, untraced and traced, on two seeds, exits 0, reports no
  failure and emits exactly its declared metrics, each with its unit;
* a deliberately wrong expected verdict is caught: the run counts it as
  failed, reports ``correct: false`` and exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run
import workloads as wl

MIN_ARGS = ["--size", "min", "--seconds", "0"]


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _check(ok, message, failures):
    print("%s %s" % ("PASS" if ok else "FAIL", message))
    if not ok:
        failures.append(message)


def _flip_first_expectation(lib, units):
    unit = units[0]
    tokens, expected = unit.inputs[0]
    if expected is None:
        g = lib.transform.tau_head(unit.grammar) if unit.tree else unit.grammar
        expected = tokens in lib.oracle.enumerate_language(g, unit.oracle_len)
    unit.inputs[0] = (tokens, not expected)


def main():
    failures = []
    end_to_end, per_layer = _declared()
    _check(end_to_end == run.END_TO_END and per_layer == run.PER_LAYER,
           "run.py emits the metric names and units BENCHMARK.json declares",
           failures)

    for workload in wl.WORKLOADS:
        for seed in (1, 2):
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--trace", str(trace)] + MIN_ARGS
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1]) if lines else {}
                emitted = {name: m.get("unit") for name, m in
                           result.get("metrics", {}).items()}
                _check(proc.returncode == 0 and result.get("correct") is True
                       and result.get("failed") == 0
                       and result.get("attempted", 0) >= 1
                       and emitted == expected,
                       "%s seed %d trace %d: clean run, %d metrics with units"
                       % (workload, seed, trace, len(emitted)), failures)
                if proc.returncode != 0:
                    sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])

    for workload in wl.WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", workload, "--seed", "1"] + MIN_ARGS,
                              mutate=_flip_first_expectation)
        result = json.loads(out.getvalue().splitlines()[-1])
        _check(status == 1 and result["correct"] is False and result["failed"] >= 1,
               "%s: a wrong expected verdict is caught (%d of %d calls failed)"
               % (workload, result["failed"], result["attempted"]), failures)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
