"""headparse benchmark: end-to-end and per-layer numbers for the recognizers.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

One process, one thread.  The package is imported from ``src/`` next to
this directory.  A run repeats full passes over the workload until
``--seconds`` have passed and reports medians.  Before each pass it sets
the workload up afresh (a new import of the package plus input
generation); the median of those is ``setup_s``.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it follows each untraced pass with two traced ones, the first timing the
clause matchers and the second the rebound functions, and prints the
per-layer metrics; the traced passes must reproduce the untraced verdicts
and configuration counts exactly.  Every verdict is checked in every
pass.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.

Exit codes: 0 all checks passed, 1 a check failed, 2 the benchmark could
not run (for instance ``src/headparse`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import Tracer, timer_floor

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("engine", "grammar", "transform", "oracle", "corpus",
           "recognizers_basic", "recognizer_hi", "recognizer_ghi")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

_PER_ALG = {
    "engine.us_per_config": "us",
    "engine.depth_cost_ratio": "ratio",
    "engine.configs": "count",
    "engine.applications": "count",
    "engine.configs_growth": "ratio",
    "engine.run_s": "s",
    "engine.matcher_s": "s",
    "engine.max_depth": "count",
    "build_s": "s",
}
PER_LAYER = {"%s.%s" % (name, alg): unit
             for name, unit in _PER_ALG.items() for alg in wl.ALGS}
PER_LAYER.update({
    "engine.self_s": "s",
    "engine.pruned_frac": "ratio",
    "engine.matcher_calls": "count",
    "engine.matcher_empty_frac": "ratio",
    "engine.replay_s": "s",
    "engine.trace_steps": "count",
    "engine.render_s": "s",
    "engine.render_mb": "MB",
    "recognizer_hi.goto_calls": "count",
    "recognizer_hi.goto_s": "s",
    "recognizer_hi.goto_repeat_frac": "ratio",
    "recognizer_ghi.setop_calls": "count",
    "recognizer_ghi.setop_s": "s",
    "recognizer_ghi.setop_repeat_frac": "ratio",
    "grammar.augment_s": "s",
    "grammar.loopcheck_s": "s",
    "transform.s": "s",
    "oracle.enumerate_s": "s",
    "oracle.strings": "count",
    "corpus.generate_s": "s",
    "trace.overhead_s": "s",
})


class Lib:
    """The headparse modules of one import."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module("headparse." + name))

    def all_modules(self):
        return [sys.modules["headparse"]] + [getattr(self, n) for n in MODULES]


def _setup(args):
    """Import the package afresh and generate the inputs; returns
    (lib, units, setup seconds, generation seconds)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "headparse"]:
        del sys.modules[name]
    start = perf_counter()
    lib = Lib()
    imported = perf_counter()
    units = wl.make_units(lib, args.workload, args.seed, args.size)
    done = perf_counter()
    return lib, units, done - start, done - imported


def _ratio(num, den):
    return num / den if den else 0.0


def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _rungs(calls):
    """{(ladder, alg): {n: [configs, run seconds]}}"""
    out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for c in calls:
        rung = out[c.ladder, c.alg][c.n]
        rung[0] += c.configs
        rung[1] += c.run_s
    return out


def _ladder_ratios(rungs, alg):
    """Per-ladder configuration growth (top rung over the next rung down,
    scaled to two tokens) and depth cost (us per configuration at the top
    rung over the bottom rung), each as a geometric mean over ladders."""
    growth, cost = [], []
    for (ladder, a), by_n in rungs.items():
        if a != alg or len(by_n) < 2:
            continue
        ns = sorted(by_n)
        top, below, bottom = by_n[ns[-1]], by_n[ns[-2]], by_n[ns[0]]
        if top[0] and below[0]:
            growth.append((top[0] / below[0]) ** (2.0 / (ns[-1] - ns[-2])))
        if top[0] and bottom[0] and bottom[1]:
            cost.append(_ratio(top[1], top[0]) / _ratio(bottom[1], bottom[0]))
    return _geomean(growth), _geomean(cost)


def engine_times(rungs):
    """Per-recognizer search times of one untraced pass."""
    m = {}
    for alg in wl.ALGS:
        mine = [rung for (_, a), by_n in rungs.items() if a == alg
                for rung in by_n.values()]
        run_s = sum(seconds for _, seconds in mine)
        m["engine.run_s." + alg] = run_s
        m["engine.us_per_config." + alg] = 1e6 * _ratio(
            run_s, sum(configs for configs, _ in mine))
        m["engine.depth_cost_ratio." + alg] = _ladder_ratios(rungs, alg)[1]
    return m


def per_layer(record, tracer, floor):
    """Per-layer metrics of the traced passes, except those the run adds.
    Times are net of `floor`, the timer's cost per span."""
    calls, counts = tracer.calls, tracer.counts
    m = {}
    rungs = _rungs(record.calls)
    by_alg = defaultdict(list)
    for c in record.calls:
        by_alg[c.alg].append(c)
    for alg in wl.ALGS:
        mine = by_alg[alg]
        m["engine.configs." + alg] = sum(c.configs for c in mine)
        m["engine.applications." + alg] = sum(c.applications for c in mine)
        m["engine.configs_growth." + alg] = _ladder_ratios(rungs, alg)[0]
        m["engine.matcher_s." + alg] = tracer.net_seconds("engine.matcher_s." + alg,
                                                           floor)
        m["engine.max_depth." + alg] = max((c.depth for c in mine), default=0)
        m["build_s." + alg] = tracer.net_seconds("build_s." + alg, floor)
    m["engine.pruned_frac"] = _ratio(sum(c.pruned for c in record.calls),
                                     sum(c.applications for c in record.calls))
    m["engine.matcher_calls"] = counts["engine.matcher_calls"]
    m["engine.matcher_empty_frac"] = _ratio(counts["engine.matcher_empty"],
                                            counts["engine.matcher_calls"])
    m["engine.trace_steps"] = counts["engine.trace_steps"]
    m["engine.render_mb"] = counts["engine.render_bytes"] / 1e6
    for prefix in ("recognizer_hi.goto", "recognizer_ghi.setop"):
        layer = prefix + "_s"
        m[prefix + "_calls"] = calls[layer]
        m[layer] = tracer.net_seconds(layer, floor)
        m[prefix + "_repeat_frac"] = _ratio(tracer.repeats[layer], calls[layer])
    for layer in ("engine.replay_s", "engine.render_s", "grammar.augment_s",
                  "grammar.loopcheck_s", "transform.s", "oracle.enumerate_s"):
        m[layer] = tracer.net_seconds(layer, floor)
    m["oracle.strings"] = counts["oracle.strings"]
    return m


class Tally:
    """What a run keeps of its passes.

    A pass's call records are reduced as soon as the pass ends, so the
    benchmark's own bookkeeping does not grow with the number of passes
    and `peak_rss_mb` measures the recognizers, not the harness.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None   # (alg, n, verdict, configs) per call, first pass
        self.setups = []        # (setup seconds, generation seconds)
        self.walls = []
        self.verdict_sums = []
        self.call_ms = []       # per pass: each call's time to verdict
        self.rungs = []         # per pass: _rungs()
        self.traced = []        # per traced pair of passes: per-layer row
        self.floor = None       # the timer's cost per span, see tracer.timer_floor
        self.peak_rss_mb = None
        self.passes = 0
        self.mismatches = 0     # passes whose fingerprint differs from the first

    def add(self, record, traced=False):
        self.passes += 1
        self.attempted += record.attempted
        self.failed += record.failed
        self.problems.extend(record.problems)
        fingerprint = [(c.alg, c.n, c.verdict, c.configs) for c in record.calls]
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            self.mismatches += 1
            self.problems.append("a %s pass changed verdicts or configuration counts"
                                 % ("traced" if traced else "repeated"))
        if traced:
            return
        if self.peak_rss_mb is None:
            # Taken after the first pass: later passes repeat the same work,
            # and allocator fragmentation from repeated set-ups would make the
            # peak depend on how many passes fit in the run.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.walls.append(record.wall_s)
        self.verdict_sums.append(sum(c.verdict_s for c in record.calls))
        self.call_ms.append(array("d", (1e3 * c.verdict_s for c in record.calls)))
        self.rungs.append(_rungs(record.calls))

    def add_traced(self, records, tracer):
        """The traced passes that followed the last untraced pass.  Search
        times come from that untraced pass; `engine.self_s` is its search
        time less the traced matcher time."""
        for record in records:
            self.add(record, traced=True)
        if self.floor is None:
            self.floor = timer_floor()
        row = per_layer(records[-1], tracer, self.floor)
        row.update(engine_times(self.rungs[-1]))
        row["engine.self_s"] = sum(row["engine.run_s." + alg] -
                                   row["engine.matcher_s." + alg] for alg in wl.ALGS)
        row["trace.overhead_s"] = sum(r.wall_s for r in records) - \
            len(records) * self.walls[-1]
        row["corpus.generate_s"] = self.setups[-1][1]
        self.traced.append(row)

    def end_to_end(self):
        # Each call's time is its median over passes; the percentiles are
        # taken over calls.  Ladders have few, widely spaced calls, and a
        # percentile of raw samples would jump between rungs from run to run.
        per_call = sorted(map(statistics.median, zip(*self.call_ms)))
        return {
            "setup_s": statistics.median(s[0] for s in self.setups),
            "wall_s": statistics.median(self.walls),
            "verdict_s": statistics.median(self.verdict_sums),
            "verdict_ms_p50": _percentile(per_call, 0.50),
            "verdict_ms_p99": _percentile(per_call, 0.99),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self):
        return {name: (statistics.median_low if unit == "count" else
                       statistics.median)(row[name] for row in self.traced)
                for name, unit in PER_LAYER.items()}

    def curves(self):
        """(ladder, alg, n) -> (configurations, median us per configuration)."""
        out = {}
        for key, by_n in self.rungs[0].items():
            for n, (configs, _) in by_n.items():
                us = statistics.median(1e6 * _ratio(r[key][n][1], configs)
                                       for r in self.rungs)
                out[key[0], key[1], n] = (configs, us)
        return out


def run_workload(args, mutate=None):
    if not (SRC / "headparse" / "__init__.py").is_file():
        print("perfbench: no headparse package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally = Tally()
    deadline = perf_counter() + args.seconds
    while True:
        started = perf_counter()
        # Setting up before every pass spreads the set-up samples over the
        # whole run, so a slow phase of the machine does not skew setup_s.
        lib, units, setup_s, generate_s = _setup(args)
        tally.setups.append((setup_s, generate_s))
        if mutate is not None:
            mutate(lib, units)
        gc.collect()
        tally.add(wl.run_pass(lib, units))
        if args.trace:
            # Two traced passes share one tracer: the first wraps only the
            # clause matchers, the second only the rebound functions.  hi's
            # gotos and ghi's set operations run inside the matchers, and
            # their wrappers would otherwise count as matcher time.
            tracer = Tracer()
            gc.collect()
            records = [wl.run_pass(lib, units, tracer)]
            tracer.install(lib)
            gc.collect()
            try:
                records.append(wl.run_pass(lib, units))
            finally:
                tracer.uninstall()
            tally.add_traced(records, tracer)
        now = perf_counter()
        if now + (now - started) / 2 >= deadline:
            break

    print("headparse benchmark: workload=%s seed=%d size=%s trace=%d "
          "passes=%d traced_passes=%d" % (args.workload, args.seed, args.size,
                                          args.trace, len(tally.walls),
                                          tally.passes - len(tally.walls)))
    print("pass wall_s %s" % " ".join("%.3f" % w for w in tally.walls))
    for problem in tally.problems[:20]:
        print("FAIL " + problem.rstrip())
    print("fail_frac %.6g ratio (%d of %d recognition calls failed)"
          % (_ratio(tally.failed, tally.attempted), tally.failed, tally.attempted))
    for (ladder, alg, n), (configs, us) in sorted(tally.curves().items()):
        print("curve %s %s n=%d configurations=%d us_per_config=%.2f"
              % (ladder, alg, n, configs, us))

    if args.trace:
        values, units_of = tally.per_layer(), PER_LAYER
        print("timer floor %.1f ns per span, taken off every layer time"
              % (1e9 * tally.floor))
        print("cross-check %s: %d of %d passes differ from the first in verdicts "
              "or configuration counts" % ("failed" if tally.mismatches else "ok",
                                           tally.mismatches, tally.passes))
    else:
        values, units_of = tally.end_to_end(), END_TO_END
        calls = len(tally.reference)
        print("samples %d calls, each timed as its median over %d passes "
              "(p99 has %d calls beyond it)" % (calls, len(tally.walls), calls // 100))
    for name, value in values.items():
        print("metric %s %r %s" % (name, value, units_of[name]))
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the grammars of the corpus workload")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure full passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(wl.SIZES), default="full",
                        help="min shrinks every workload for the self-test")
    return parser.parse_args(argv)


def main(argv=None, mutate=None):
    return run_workload(parse_args(argv), mutate)


if __name__ == "__main__":
    sys.exit(main())
