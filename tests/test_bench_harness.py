"""The benchmark harness runs against the current package: its self-test
builds every workload, untraced and traced, with copies of the automata
(`dataclasses.replace`), so a change to the shape of `Automaton` or
`Clause` that breaks it fails here.  Its tracer's copies must also search
as the originals do, so that its matcher counts are the real ones."""

import importlib
import subprocess
import sys
from pathlib import Path

from headparse import augment, build_ghi, engine, run
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from conftest import FLAT_BUILDERS, counting_copy

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(module):
    """A module of the harness, imported as its scripts import each other."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "all checks passed"


def test_traced_matchers_run_as_often_as_untraced_ones():
    # the tracer copies each clause as a bare Clause(label, timed matcher);
    # the copy runs its matchers exactly as often as the original does
    Tracer = _perfbench("tracer").Tracer
    cases = [(name, builder(augment(g)))
             for g in head_grammar_corpus(6, seed=805)
             for name, builder in FLAT_BUILDERS.items()
             if eligible(augment(g), name)]
    cases += [("ghi", build_ghi(g)) for g in gen_grammar_corpus(4, seed=806)
              if gen_eligible(g)]
    assert {name for name, _ in cases} == {"td", "hc", "phi", "ehi", "hi", "ghi"}
    tracer = Tracer()
    untraced = 0
    for name, automaton in cases:
        traced = tracer.wrap_automaton(engine, name, automaton)
        counting, calls = counting_copy(automaton)
        for tokens in all_inputs(("a", "b"), 3):
            assert run(traced, tokens).stats == run(counting, tokens).stats
        untraced += len(calls)
    assert untraced > 1000
    assert tracer.counts["engine.matcher_calls"] == untraced


def test_traced_layers_see_the_gotos_and_set_operations():
    # the tracer counts hi's gotos and ghi's set operations by rebinding
    # the module-level functions; builders that stopped calling those would
    # report 0 calls for their layers without any other error
    lib = _perfbench("run").Lib()
    head = next(g for g in head_grammar_corpus(6, seed=805) if eligible(augment(g), "hi"))
    gen = next(g for g in gen_grammar_corpus(4, seed=806) if gen_eligible(g))
    original = lib.recognizer_hi.gotoright1
    tracer = _perfbench("tracer").Tracer()
    tracer.install(lib)
    try:
        # built after `install`, so they capture the rebound functions
        hi = lib.recognizer_hi.build_hi(augment(head))
        ghi = lib.recognizer_ghi.build_ghi(gen)
        for tokens in all_inputs(("a", "b"), 3):
            run(hi, tokens)
            run(ghi, tokens)
    finally:
        tracer.uninstall()
    assert tracer.calls["recognizer_hi.goto_s"] > 0
    assert tracer.calls["recognizer_ghi.setop_s"] > 0
    assert lib.recognizer_hi.gotoright1 is original
