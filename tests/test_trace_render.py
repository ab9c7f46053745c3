"""Trace text and records against the whole-row reference renderer.

`render_trace_text` and `trace_records` build each row from the row
before it; `conftest.reference_trace_text` and
`conftest.reference_trace_records` render every row's whole stack afresh.
They must agree byte for byte on every kind of row change the
recognizers make, and on arbitrary step sequences.
"""

import sys
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from headparse import (accepting_trace, augment, build_ghi, embed, engine,
                       enumerate_language, parse_ghg, render_trace_text, run,
                       trace_records)
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from conftest import (DEMO_GHG, FLAT_BUILDERS, hg, reference_trace_records,
                      reference_trace_text)

CENTER = hg("S", ("S", "*a S b"), ("S", "*c"))
CENTER_HI = hg("S", ("S", "a *S b"), ("S", "*c"))


def center_input(k):
    return ("a",) * k + ("c",) + ("b",) * k


def center_automaton(name):
    """The deep workload's recognizers: hi on the head-inner grammar."""
    if name == "ghi":
        return build_ghi(embed(CENTER))
    return FLAT_BUILDERS[name](augment(CENTER_HI if name == "hi" else CENTER))


def assert_matches_reference(automaton, trace):
    assert render_trace_text(automaton, trace) == \
        reference_trace_text(automaton, trace)
    assert trace_records(automaton, trace) == \
        reference_trace_records(automaton, trace)


def accepting_traces(automaton, inputs):
    for tokens in inputs:
        result = run(automaton, tokens, max_steps=20_000)
        if result.verdict is engine.Verdict.ACCEPT:
            yield accepting_trace(result)


def test_corpus_traces_match_reference():
    inputs = all_inputs(("a", "b"), 4)
    cases = []
    for g in head_grammar_corpus(12, seed=1400):
        aug = augment(g)
        cases.extend(FLAT_BUILDERS[name](aug) for name in FLAT_BUILDERS
                     if eligible(aug, name))
    cases.extend(build_ghi(g) for g in gen_grammar_corpus(12, seed=1401)
                 if gen_eligible(g))
    checked = 0
    for automaton in cases:
        for trace in accepting_traces(automaton, inputs):
            assert_matches_reference(automaton, trace)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("name", ["td", "hc", "phi", "ehi", "hi", "ghi"])
def test_deep_traces_match_reference(name):
    automaton = center_automaton(name)
    assert_matches_reference(automaton,
                             accepting_trace(run(automaton, center_input(50))))


def test_collapsed_ghi_rows_match_reference():
    # a '1a, 1d' row stands for two steps, so it skips one stack
    demo = parse_ghg(DEMO_GHG)
    automaton = build_ghi(demo)
    traces = list(accepting_traces(automaton, sorted(enumerate_language(demo, 4))))
    assert any(label == "1a, 1d" for trace in traces
               for label, _ in engine.trace_rows(automaton, trace))
    for trace in traces:
        assert_matches_reference(automaton, trace)


def test_multi_item_reductions_match_reference():
    # hi's reductions on S -> S *S pop a rule's members and the item below
    automaton = FLAT_BUILDERS["hi"](augment(hg("S", ("S", "S *S"), ("S", "*a"))))
    trace = accepting_trace(run(automaton, ("a",) * 5))
    assert any(step.popped > 1 for step in trace.steps)
    assert_matches_reference(automaton, trace)


def _paired_rows(steps):
    """Rows of two steps each, as a collapsing convention may make them."""
    return [(" ".join(step.label for step in steps[at:at + 2]), steps[at:at + 2])
            for at in range(0, len(steps), 2)]


def _stub_automaton(collapse_rows):
    """Items are ints rendered as that many 'x's, so 0 renders empty."""
    return engine.Automaton("stub", (), lambda n: 0, lambda n: 0,
                            lambda item: "x" * item,
                            collapse_rows=collapse_rows, plan=lambda top: (1, ()))


@st.composite
def step_traces(draw):
    """A trace from any stack whose steps each pop at most the stack's
    depth; the few item values make a push often equal what it replaced."""
    initial = tuple(draw(st.lists(st.integers(0, 3), max_size=8)))
    depth = len(initial)
    steps = []
    for at in range(draw(st.integers(0, 10))):
        popped = draw(st.integers(0, depth))
        steps.append(engine.TraceStep("s%d" % at, popped, draw(st.integers(0, 3))))
        depth += 1 - popped
    return engine.Trace(initial, tuple(steps))


@settings(max_examples=300, deadline=None)
@given(trace=step_traces(), collapse_rows=st.sampled_from([None, _paired_rows]))
def test_arbitrary_stack_sequences_match_reference(trace, collapse_rows):
    assert_matches_reference(_stub_automaton(collapse_rows), trace)


def test_render_peak_memory_is_about_twice_the_text():
    # the text is held at most twice: as padded lines and as their join
    automaton = center_automaton("ghi")
    trace = accepting_trace(run(automaton, center_input(150)))
    tracemalloc.start()
    try:
        text = render_trace_text(automaton, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sys.getsizeof(text)
