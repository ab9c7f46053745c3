"""Hash-consed stacks: a run's memory does not grow with stack depth, only
stacks of one or two items accept, and a rejected run reports the widest
consulted set of the reference."""

import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

from headparse import (Trace, Verdict, augment, build_ghi, embed, parse_hg,
                       replay, run)
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.transform import parse_ghg
from conftest import FLAT_BUILDERS, explore, hg, trace_stacks

ROOT = Path(__file__).resolve().parents[1]
# td is head-recursive here: its stacks grow up to the default depth bound
AMBIGUOUS = "start S\nS -> S *S\nS -> *a\n"
GIGABYTE_KB = 1024 * 1024  # ru_maxrss counts kilobytes on Linux


def _child(args):
    """Run `args` with the package on the path; the finished process and
    the peak RSS in kilobytes of the largest child waited for so far,
    which bounds this one's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    return done, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def test_compare_exhaustive_td_ends_in_an_exit_code(tmp_path):
    # a million steps over stacks up to 800 deep under a gigabyte; as whole
    # tuples the stacks reached by 100,000 steps alone took 313 MB
    grammar = tmp_path / "ambiguous.hg"
    grammar.write_text(AMBIGUOUS)
    done, peak_kb = _child([sys.executable, "-m", "headparse", "compare",
                            "--grammar", str(grammar), "--algorithms", "td",
                            "--exhaustive", "--input", "a a a a a a a a"])
    assert 0 <= done.returncode <= 6, done.stderr
    assert "resource-limit" in done.stdout
    assert peak_kb < GIGABYTE_KB


def _automata():
    """(name, automaton, inputs): each recognizer on the grammars of a
    seeded corpus slice and on the demo grammars that it is loop-free on,
    with every input up to length 3 over the grammar's terminals."""
    demo = [parse_hg((ROOT / "grammars" / "demo.hg").read_text())]
    for g in head_grammar_corpus(12, seed=1607) + demo:
        aug = augment(g)
        inputs = all_inputs(sorted(g.terminals), 3)
        for name, build in FLAT_BUILDERS.items():
            if eligible(aug, name):
                yield name, build(aug), inputs
        if eligible(aug, "ghi"):
            yield "ghi", build_ghi(embed(g)), inputs
    demo = [parse_ghg((ROOT / "grammars" / "demo.ghg").read_text())]
    for g in gen_grammar_corpus(6, seed=1607) + demo:
        if gen_eligible(g):
            yield "ghi", build_ghi(g), all_inputs(sorted(g.terminals), 3)


def test_accepting_stacks_hold_at_most_two_items():
    # every builder accepts on [fin] and hi on [init, fin'], so `run`
    # tests only stacks of one or two items: checked on all reachable ones
    depths = {name: set() for name in list(FLAT_BUILDERS) + ["ghi"]}
    for name, automaton, inputs in _automata():
        for tokens in inputs:
            accepting = automaton.accepting_predicate(len(tokens))
            depths[name].update(len(stack) for stack in
                                explore(automaton, tokens).stacks if accepting(stack))
    assert depths == {"td": {1}, "hc": {1}, "phi": {1}, "ehi": {1}, "hi": {2},
                      "ghi": {1}}


def test_run_and_replay_ask_only_about_stacks_of_two_items_or_fewer():
    # td on `S -> c *A b`, `A -> *a`, and copies that accept exactly the
    # stacks of two or of three items
    td = FLAT_BUILDERS["td"](augment(hg("S", ("S", "c *A b"), ("A", "*a"))))
    two, three = (dataclasses.replace(
        td, make_accepting=lambda n, depth=depth: lambda stack: len(stack) == depth)
        for depth in (2, 3))
    tokens = ("c", "a", "b")
    result = run(two, tokens)
    assert result.verdict is Verdict.ACCEPT
    assert replay(two, tokens, result.accepting_trace)
    # td's accepting path passes a three-item stack, which neither accepts
    assert run(three, tokens, exhaustive=True).verdict is Verdict.REJECT
    trace = run(td, tokens).accepting_trace
    stacks = trace_stacks(trace.initial, trace.steps)
    steps = next(at for at, stack in enumerate(stacks) if len(stack) == 3)
    assert not replay(three, tokens, Trace(trace.initial, trace.steps[:steps]))


def _widest(sets):
    return max(sets, key=lambda s: (len(s), sorted(s)))


def test_a_rejected_run_reports_the_widest_consulted_set():
    # the run's bitmask order picks what (len, sorted) picks among every
    # (stack, consulted set) state the reference reaches
    rejected = 0
    for _, automaton, inputs in _automata():
        for tokens in inputs:
            result = run(automaton, tokens)
            if result.verdict is Verdict.REJECT:
                rejected += 1
                assert result.stats.consulted_positions == _widest(
                    explore(automaton, tokens).consulted)
    assert rejected > 500
