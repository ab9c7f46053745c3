"""Behaviour fingerprint of the recognizers, pinned to exact values.

A refactor of a recognizer or of the engine must leave every verdict and
every run statistic unchanged, not only the orderings the acceptance gate
checks.  Each recognizer runs exhaustively over a seeded corpus slice; the
per-recognizer totals show which figure moved, and the digest covers every
run's record.  Every recognizer's accepting traces are pinned as rendered
text and as trace records, on short inputs and on one input whose stacks
grow about 20 deep; this also fixes the order in which ghi displays a set.
"""

import hashlib

import pytest

from headparse import (accepting_trace, augment, build_ghi, embed,
                       enumerate_language, parse_ghg, render_trace_text, run,
                       trace_records)
from headparse.corpus import (all_inputs, common_infix_family, eligible,
                              gen_eligible, gen_grammar_corpus,
                              head_grammar_corpus)
from conftest import DEMO_GHG, FLAT_BUILDERS, hg

GRAMMARS = head_grammar_corpus(40, seed=1300)
TREE_GRAMMARS = gen_grammar_corpus(40, seed=1301)
INPUTS = all_inputs(("a", "b"), 3)

# runs, accepts, rejects, resource limits, then the sums of
# configurations_explored, clause_applications, max_stack_depth,
# duplicates_pruned and len(consulted_positions); last the record digest
PINNED_RUNS = {
    "td": (180, 29, 151, 0, 2189, 2111, 522, 102, 296, "2d9e616a534c2d94"),
    "hc": (510, 65, 445, 0, 4211, 4005, 1065, 304, 655, "533bbfb54cf112cb"),
    "phi": (510, 65, 445, 0, 3047, 2587, 1065, 50, 655, "241aff70e817310a"),
    "ehi": (510, 65, 445, 0, 2834, 2373, 1065, 49, 655, "e43cb99da51de4c5"),
    "hi": (510, 65, 445, 0, 2178, 1703, 1076, 35, 574, "d46874f792b7c002"),
}
PINNED_GHI_RUNS = (465, 49, 416, 0, 9878, 11310, 1029, 1897, 567,
                   "76397a26214060bc")

# digests of the accepting traces rendered as text and as records: each
# recognizer on common_infix_family (ghi on its embedding), and ghi on the
# demo tree grammar's language up to length 4
PINNED_TRACES = {
    "td": ("7d94793c9e7e4fe8", "b11f016c951c3292"),
    "hc": ("326814409d7f689b", "3412118dba1dcaab"),
    "phi": ("889338d9a0c424bf", "17de2d0a2614c918"),
    "ehi": ("7c5465f37b48ff8c", "6bbf76752334c04a"),
    "hi": ("ba1bf18eea29fe52", "560552bab3aa83f0"),
    "ghi-embed": ("58032082127d34a2", "3200e5ac24fae833"),
    "ghi-demo": ("6deb1d1d2ff9deaa", "57006b03f8bb9ed0"),
}

# the same digests for a^20 c b^20 on S -> *a S b | *c (ghi on its
# embedding), and for hi on S -> a *S b | *c
DEEP_CENTER = hg("S", ("S", "*a S b"), ("S", "*c"))
DEEP_CENTER_HI = hg("S", ("S", "a *S b"), ("S", "*c"))
DEEP_INPUT = ("a",) * 20 + ("c",) + ("b",) * 20
PINNED_DEEP_TRACES = {
    "td": ("99aa040b4aeab017", "0b5f4a0e2ddc16aa"),
    "hc": ("f80bf87451f67093", "cb75de6f5b5fc73f"),
    "phi": ("0ea24e1694cd031e", "3c2f30b3cc4560f3"),
    "ehi": ("ce4f3d13761c41e6", "59b785bf03564b0a"),
    "hi": ("12c365496e9c6ddb", "da8c1c25667b4fe1"),
    "ghi": ("f37f236cd948fd16", "b92e0316394db405"),
}

# one trace in full, where ehi merges the left-hand sides S and T
PINNED_TEXT = {
    "phi": (
        "Stack                                            | Clause",
        "[-1, -1, S' -> ⊥, 0, 3]                          |",
        "[-1, -1, S' -> ⊥, 0, 3] [0, 1, A -> a, 2, 3]     | 1a",
        "[-1, -1, S' -> ⊥, 0, 3] [0, 1, S -> A, 2, 3]     | 3a",
        "[-1, -1, S' -> ⊥, 0, 3] [0, 1, S -> A b, 3, 3]   | 2a",
        "[-1, -1, S' -> ⊥, 0, 3] [0, 0, S -> c A b, 3, 3] | 2b",
        "[-1, -1, S' -> ⊥, 0, 3] [0, 0, U -> S, 3, 3]     | 3a",
        "[-1, -1, S' -> ⊥ U, 3, 3]                        | 4a",
    ),
    "ehi": (
        "Stack                                                | Clause",
        "[-1, -1, {S'} -> ⊥, 0, 3]                            |",
        "[-1, -1, {S'} -> ⊥, 0, 3] [0, 1, {A} -> a, 2, 3]     | 1a",
        "[-1, -1, {S'} -> ⊥, 0, 3] [0, 1, {S,T} -> A, 2, 3]   | 3a",
        "[-1, -1, {S'} -> ⊥, 0, 3] [0, 1, {S} -> A b, 3, 3]   | 2a",
        "[-1, -1, {S'} -> ⊥, 0, 3] [0, 0, {S} -> c A b, 3, 3] | 2b",
        "[-1, -1, {S'} -> ⊥, 0, 3] [0, 0, {U} -> S, 3, 3]     | 3a",
        "[-1, -1, {S'} -> ⊥ U, 3, 3]                          | 4a",
    ),
}


def _digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _run_summary(automata):
    """Totals and record digest of exhaustive runs of (grammar index,
    automaton) pairs over every input."""
    records = []
    for index, automaton in automata:
        for tokens in INPUTS:
            result = run(automaton, tokens, exhaustive=True)
            s = result.stats
            records.append((index, tokens, result.verdict.value,
                            s.configurations_explored, s.clause_applications,
                            s.max_stack_depth, s.duplicates_pruned,
                            tuple(sorted(s.consulted_positions))))
    verdicts = [r[2] for r in records]
    return (len(records), verdicts.count("accept"), verdicts.count("reject"),
            verdicts.count("resource-limit"),
            *(sum(r[col] for r in records) for col in (3, 4, 5, 6)),
            sum(len(r[7]) for r in records), _digest(records))


def _flat_automata(name):
    for index, g in enumerate(GRAMMARS):
        aug = augment(g)
        if eligible(aug, name):
            yield index, FLAT_BUILDERS[name](aug)


def _traces(name):
    """(automaton, accepting trace) pairs of one PINNED_TRACES case."""
    if name == "ghi-demo":
        demo = parse_ghg(DEMO_GHG)
        cases = [(build_ghi(demo), sorted(enumerate_language(demo, 4)))]
    else:
        build = (lambda g: build_ghi(embed(g))) if name == "ghi-embed" \
            else (lambda g: FLAT_BUILDERS[name](augment(g)))
        cases = [(build(g), inputs) for g, inputs in common_infix_family()]
    return [(automaton, accepting_trace(run(automaton, tokens)))
            for automaton, inputs in cases for tokens in inputs]


def _deep_traces(name):
    if name == "ghi":
        automaton = build_ghi(embed(DEEP_CENTER))
    else:
        grammar = DEEP_CENTER_HI if name == "hi" else DEEP_CENTER
        automaton = FLAT_BUILDERS[name](augment(grammar))
    return [(automaton, accepting_trace(run(automaton, DEEP_INPUT)))]


def _rendered(traces):
    """Rendered texts and the digests of the texts and of the records."""
    texts = [render_trace_text(automaton, trace) for automaton, trace in traces]
    records = [trace_records(automaton, trace) for automaton, trace in traces]
    return texts, (_digest(texts), _digest(records))


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_statistics_pinned(name):
    assert _run_summary(_flat_automata(name)) == PINNED_RUNS[name]


def test_ghi_run_statistics_pinned():
    automata = ((index, build_ghi(g)) for index, g in enumerate(TREE_GRAMMARS)
                if gen_eligible(g))
    assert _run_summary(automata) == PINNED_GHI_RUNS


@pytest.mark.parametrize("name", ["phi", "ehi"])
def test_infix_traces_pinned(name):
    texts, digests = _rendered(_traces(name))
    assert tuple(line.rstrip() for line in texts[4].splitlines()) \
        == PINNED_TEXT[name]
    assert digests == PINNED_TRACES[name]


@pytest.mark.parametrize("name", ["hi", "ghi-embed", "ghi-demo"])
def test_head_inward_traces_pinned(name):
    assert _rendered(_traces(name))[1] == PINNED_TRACES[name]


@pytest.mark.parametrize("name", ["td", "hc"])
def test_top_down_traces_pinned(name):
    assert _rendered(_traces(name))[1] == PINNED_TRACES[name]


@pytest.mark.parametrize("name", sorted(PINNED_DEEP_TRACES))
def test_deep_traces_pinned(name):
    assert _rendered(_deep_traces(name))[1] == PINNED_DEEP_TRACES[name]
