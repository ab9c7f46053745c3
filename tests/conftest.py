import dataclasses
from typing import NamedTuple

import pytest

from headparse import engine
from headparse.corpus import _hg
from headparse.differential import FLAT_BUILDERS  # noqa: F401 (shared by tests)
from headparse.recognizer_ghi import build_ghi
from headparse.transform import parse_ghg

hg = _hg  # concise grammar literals in tests

DEMO_GHG = """
start S
S -> (s (A (c) (b)) ())
S -> (s (A () (d)) ())
S -> (s (B) ())
A -> (a)
B -> (A () (b))
"""

# one rule whose tree nests deeper than Python's default recursion limit
DEEP_DEPTH = 1200
DEEP_GHG = "start S\nS -> %s(a)%s\n" % ("(a " * (DEEP_DEPTH - 1),
                                        " ())" * (DEEP_DEPTH - 1))


def successors(clauses, stack, tokens):
    """Every step (label, popped, item, consulted) the clauses allow on
    `stack`, computed afresh: what a run's tables record and replay."""
    for clause in clauses:
        for popped, item, consulted in clause.matcher(stack, tokens):
            yield clause.label, popped, item, consulted


class Explored(NamedTuple):
    stacks: set
    consulted: set


def explore(automaton, tokens):
    """The reference a run is checked against: the stacks and every path's
    consulted sets over all (stack, consulted set) states reachable by
    `successors` on whole stacks.  No table, pruning or bounds; a
    case with more than 200,000 states fails instead of hanging."""
    tokens = tuple(tokens)
    states = {((automaton.make_init(len(tokens)),), frozenset())}
    work = list(states)
    while work:
        stack, consulted = work.pop()
        for _, popped, item, pos in successors(automaton.clauses, stack, tokens):
            state = (stack[:len(stack) - popped] + (item,),
                     consulted if pos is None else consulted | {pos})
            if state not in states:
                states.add(state)
                work.append(state)
        assert len(states) <= 200_000, "search space outgrew the cap"
    return Explored({stack for stack, _ in states},
                    {consulted for _, consulted in states})


def counting_copy(automaton):
    """A copy whose matchers log (clause label, window) per call, made as a
    tracer that times matchers makes its copy; and the log."""
    calls = []

    def counted(clause):
        def matcher_calls(window, tokens):
            calls.append((clause.label, window))
            return clause.matcher(window, tokens)
        return dataclasses.replace(clause, matcher=matcher_calls)
    return dataclasses.replace(
        automaton, clauses=tuple(map(counted, automaton.clauses))), calls


def reference_trace_text(automaton, trace):
    """The whole-row renderer `engine.render_trace_text` must match: each
    row's stack rendered and joined afresh, one `"%-*s | %s"` per row."""
    rendered = [(" ".join(map(automaton.render_item, stack)),
                 "" if label is None else label)
                for label, stack in _display_rows(automaton, trace)]
    width = max(len("Stack"), *(len(s) for s, _ in rendered))
    lines = ["%-*s | %s" % (width, "Stack", "Clause")]
    lines.extend("%-*s | %s" % (width, s, label) for s, label in rendered)
    return "\n".join(lines) + "\n"


def reference_trace_records(automaton, trace):
    """The records `engine.trace_records` must match, rendered row by row."""
    return [{"clause": label, "stack": list(map(automaton.render_item, stack))}
            for label, stack in _display_rows(automaton, trace)]


def _display_rows(automaton, trace):
    """(label, stack) per display row, the initial stack first."""
    rows = [(None, trace.initial)]
    for label, steps in engine.trace_rows(automaton, trace):
        rows.append((label, trace_stacks(rows[-1][1], steps)[-1]))
    return rows


def trace_stacks(initial, steps):
    """The stacks a trace passes through: `initial`, then the stack after
    each step, made by popping `step.popped` items and pushing `step.item`."""
    stacks = [tuple(initial)]
    for step in steps:
        stack = stacks[-1]
        stacks.append(stack[:len(stack) - step.popped] + (step.item,))
    return stacks


def run_verdict(automaton, tokens, **kwargs):
    return engine.run(automaton, tokens, **kwargs).verdict


def accepts(automaton, tokens, **kwargs):
    return run_verdict(automaton, tokens, **kwargs) is engine.Verdict.ACCEPT


@pytest.fixture(scope="session")
def tree_demo_grammar():
    return parse_ghg(DEMO_GHG)


@pytest.fixture(scope="session")
def tree_demo_automaton(tree_demo_grammar):
    return build_ghi(tree_demo_grammar)


@pytest.fixture(scope="session")
def tiny_grammar():
    # S -> c *A b ; A -> *a
    return hg("S", ("S", "c *A b"), ("A", "*a"))
