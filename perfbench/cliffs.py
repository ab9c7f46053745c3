"""Where the growth ladders leave the engine's default bounds.

Usage (from the repository root; takes several minutes):

    python3 perfbench/cliffs.py

Each ladder of the ``growth`` workload, plus ``hi`` on the right-recursive
`S -> *a S | *b`, is climbed one rung at a time with the default bounds
(1,000,000 clause applications, the default depth) until a run hits a
bound.  Every rung is printed, then per ladder and recognizer the last
rung that completed within the bounds and the first that did not.  The
benchmark's own ladders stop well below these cliffs so that a pass stays
short; the cliffs are recorded in README.md next to this file.
"""

from __future__ import annotations

import sys
from time import perf_counter

import run
import workloads as wl

RIGHT = "start S\nS -> *a S\nS -> *b\n"
RUNGS = 200  # per ladder; every ladder hits a bound well before this


def ladders(lib):
    """The ``growth`` ladders, extended to `RUNGS` rungs, then hi on RIGHT."""
    spec = {key: range(r.start, r.start + RUNGS * r.step, r.step)
            for key, r in wl.SIZES["full"].items() if isinstance(r, range)}
    right = [(("a",) * n + ("b",), True) for n in range(RUNGS)]
    return wl.growth_units(lib, spec) + [
        wl.Unit("right", lib.grammar.parse_hg(RIGHT), ("hi",), right)]


def main():
    if not (run.SRC / "headparse" / "__init__.py").is_file():
        print("cliffs: no headparse package under %s" % run.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    lib = run.Lib()
    engine = lib.engine
    summary = []
    status = 0
    for unit in ladders(lib):
        ladder, g = unit.ladder, unit.grammar
        for alg in unit.algs:
            automaton = wl.build(lib, alg, lib.transform.embed(g) if alg == "ghi"
                                 else lib.grammar.augment(g))
            last = None
            for tokens, expected in unit.inputs:
                start = perf_counter()
                result = engine.run(automaton, tokens, exhaustive=unit.exhaustive)
                seconds = perf_counter() - start
                stats = result.stats
                row = "%s %s n=%d %s configurations=%d applications=%d %.2fs" % (
                    ladder, alg, len(tokens), result.verdict.value,
                    stats.configurations_explored, stats.clause_applications, seconds)
                print("rung " + row, flush=True)
                if not stats.limit_hit and \
                        (result.verdict is engine.Verdict.ACCEPT) != expected:
                    print("FAIL wrong verdict: " + row)
                    status = 1
                if stats.limit_hit:
                    summary.append("cliff %s %s: last within bounds %s; first over %s"
                                   % (ladder, alg, last, row))
                    break
                last = "n=%d configurations=%d %.2fs" % (
                    len(tokens), stats.configurations_explored, seconds)
    for line in summary:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
