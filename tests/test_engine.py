import dataclasses
import gc
import sys
import threading
from collections import Counter

import pytest

from headparse import (EngineError, Verdict, accepting_trace, augment,
                       build_ghi, build_hc, detect_cyclic,
                       detect_head_recursion, embed, engine, replay,
                       render_trace_text, run, trace_records)
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.recognizers_basic import build_td
from conftest import FLAT_BUILDERS, counting_copy, explore, hg, trace_stacks


def test_td_accepts_single_terminal():
    auto = build_td(augment(hg("S", ("S", "*a"))))
    result = run(auto, ("a",))
    assert result.verdict is Verdict.ACCEPT
    assert result.accepting_trace is not None


def test_td_rejects_wrong_terminal():
    auto = build_td(augment(hg("S", ("S", "*a"))))
    result = run(auto, ("b",))
    assert result.verdict is Verdict.REJECT
    assert result.stats.configurations_explored >= 1
    assert result.accepting_trace is None


def test_unknown_tokens_never_match():
    auto = build_td(augment(hg("S", ("S", "*a"))))
    assert run(auto, ("z",)).verdict is Verdict.REJECT


def test_empty_input_rejected():
    auto = build_td(augment(hg("S", ("S", "*a"))))
    assert run(auto, ()).verdict is Verdict.REJECT


def test_head_recursive_run_is_guarded():
    g = hg("S", ("S", "*S a"), ("S", "*b"))
    aug = augment(g)
    assert detect_head_recursion(aug) is not None
    auto = build_td(aug)
    result = run(auto, ("b", "a", "a"), max_steps=20_000)
    # growing prediction stacks must be cut by a bound or pruned, not diverge
    assert result.stats.limit_hit or result.stats.duplicates_pruned > 0
    result2 = run(auto, ("a",), max_steps=20_000)
    assert result2.verdict in (Verdict.REJECT, Verdict.RESOURCE_LIMIT)


def test_resource_limit_verdict_on_tiny_step_budget():
    auto = build_td(augment(hg("S", ("S", "c *A b"), ("A", "*a"))))
    result = run(auto, ("c", "a", "b"), max_steps=1)
    assert result.verdict is Verdict.RESOURCE_LIMIT
    assert result.stats.limit_hit


def test_limit_kind_names_the_bound():
    # td's prediction stack grows without bound on a head-recursive grammar
    auto = build_td(augment(hg("S", ("S", "*S a"), ("S", "*b"))))
    depth = run(auto, ("a", "a"), max_depth=10)
    assert depth.verdict is Verdict.RESOURCE_LIMIT
    assert (depth.stats.limit_hit, depth.stats.limit_kind) == (True, "depth")
    # the step bound ends the search even after the depth bound cut stacks
    steps = run(auto, ("b", "a", "a"), max_depth=10, max_steps=50)
    assert steps.verdict is Verdict.RESOURCE_LIMIT
    assert (steps.stats.limit_hit, steps.stats.limit_kind) == (True, "steps")
    clean = run(build_td(augment(hg("S", ("S", "*a")))), ("a",))
    assert (clean.stats.limit_hit, clean.stats.limit_kind) == (False, None)


@pytest.mark.parametrize("bound", [0, 1, 3, 50])
def test_step_bound_counts_the_steps_it_allowed(bound):
    # the step pulled past the bound ends the search and is not counted
    auto = build_td(augment(hg("S", ("S", "*S a"), ("S", "*b"))))
    result = run(auto, ("b", "a", "a"), max_depth=10, max_steps=bound)
    assert result.verdict is Verdict.RESOURCE_LIMIT
    assert result.stats.limit_kind == "steps"
    assert result.stats.clause_applications == bound


def test_accepting_trace_replays(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    result = run(auto, tokens)
    trace = accepting_trace(result)
    assert replay(auto, tokens, trace)
    assert trace_stacks(trace.initial, trace.steps)[-1] == (auto.make_fin(3),)


def test_accepting_trace_raises_without_accept(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    with pytest.raises(EngineError):
        accepting_trace(run(auto, ("a", "b")))


def test_trace_render_has_one_row_per_step(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    trace = accepting_trace(run(auto, tokens))
    text = render_trace_text(auto, trace)
    lines = text.strip().splitlines()
    assert lines[0].split("|")[1].strip() == "Clause"
    assert len(lines) == 2 + len(trace.steps)  # header + initial + steps


@pytest.mark.parametrize("name", ["td", "ehi", "hi", "ghi"])
def test_trace_output_renders_each_distinct_item_once(name):
    # rows share all but their top few items, so a trace k deep holds O(k)
    # distinct items in O(k^2) stacked ones
    if name == "ghi":
        automaton = build_ghi(embed(hg("S", ("S", "*a S b"), ("S", "*c"))))
    else:
        rhs = "a *S b" if name == "hi" else "*a S b"
        automaton = FLAT_BUILDERS[name](augment(hg("S", ("S", rhs), ("S", "*c"))))
    trace = accepting_trace(run(automaton, ("a",) * 15 + ("c",) + ("b",) * 15))
    distinct = set().union(*trace_stacks(trace.initial, trace.steps))
    calls = []

    def render_item(item):
        calls.append(item)
        return automaton.render_item(item)
    counted = dataclasses.replace(automaton, render_item=render_item)
    for render in (render_trace_text, trace_records):
        calls.clear()
        assert render(counted, trace) == render(automaton, trace)
        assert 0 < len(calls) <= len(distinct)


def test_pruning_safety_verdicts_agree():
    # pruning must not change the verdict: a run accepts iff the reference
    # reaches an accepting stack
    for g in head_grammar_corpus(12, seed=801):
        aug = augment(g)
        if detect_head_recursion(aug) is not None or detect_cyclic(aug) is not None:
            continue
        auto = build_td(aug)
        for tokens in all_inputs(("a", "b"), 3):
            accepting = auto.accepting_predicate(len(tokens))
            reached = any(map(accepting, explore(auto, tokens).stacks))
            assert (run(auto, tokens).verdict is Verdict.ACCEPT) == reached


def test_explored_configurations_are_reachable(tiny_grammar):
    # an exhaustive run visits each stack the reference reaches, once
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    result = run(auto, tokens, exhaustive=True)
    assert result.stats.configurations_explored == len(explore(auto, tokens).stacks)


def test_consulted_positions_monotone_along_trace(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    trace = accepting_trace(run(auto, tokens))
    consulted = set()
    for step, cur in zip(trace.steps, trace_stacks(trace.initial, trace.steps)):
        for label, popped, item, pos in engine._successors(auto.clauses, cur, tokens):
            if (label, popped, item) == step:
                before = set(consulted)
                if pos is not None:
                    consulted.add(pos)
                assert before <= consulted
                break
    result = run(auto, tokens)
    assert result.stats.consulted_positions == frozenset(consulted)
    assert result.stats.consulted_positions <= set(range(1, len(tokens) + 1))


def test_exhaustive_mode_still_accepts(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    eager = run(auto, ("c", "a", "b"))
    full = run(auto, ("c", "a", "b"), exhaustive=True)
    assert eager.verdict is Verdict.ACCEPT and full.verdict is Verdict.ACCEPT
    assert full.stats.configurations_explored >= eager.stats.configurations_explored


def test_loop_free_grammars_never_hit_limits():
    for g in head_grammar_corpus(15, seed=802):
        aug = augment(g)
        for name, builder in FLAT_BUILDERS.items():
            if not eligible(aug, name):
                continue
            auto = builder(aug)
            for tokens in all_inputs(("a", "b"), 3):
                result = run(auto, tokens)
                assert not result.stats.limit_hit
                assert result.verdict in (Verdict.ACCEPT, Verdict.REJECT)


# hi reduces a five-member rule, so its clauses read six items
LONG_RULES = hg("S", ("S", "a b *S c d"), ("S", "*e f"))
LONG_INPUTS = [tuple(text.split()) for text in (
    "e f", "a b e f c d", "a b a b e f c d c d", "a b a b e f c d c", "a e f d")]


def _most_popped(aug, name):
    """How many items one step of the recognizer may pop: hi's reductions
    pop a finished rule's members, other steps at most the top and the
    item below it."""
    return max(len(r.rhs) for r in aug.rules) if name == "hi" else 2


def _window_cases():
    """(automaton, inputs, most popped): every recognizer on a corpus
    slice, and the flat ones that terminate there on long rules."""
    short = all_inputs(("a", "b"), 3)
    for g in head_grammar_corpus(8, seed=803):
        aug = augment(g)
        for name, builder in FLAT_BUILDERS.items():
            if eligible(aug, name):
                yield builder(aug), short, _most_popped(aug, name)
    for g in gen_grammar_corpus(6, seed=804):
        if gen_eligible(g):
            yield build_ghi(g), short, 2
    aug = augment(LONG_RULES)
    for name, builder in FLAT_BUILDERS.items():
        if eligible(aug, name):
            yield builder(aug), LONG_INPUTS, _most_popped(aug, name)


def _steps(clauses, stack, tokens):
    return list(engine._successors(clauses, stack, tokens))


def _planned(automaton, top):
    """The top's window size and the clauses its plan names, in order."""
    reach, labels = automaton.plan(top)
    by_label = {clause.label: clause for clause in automaton.clauses}
    return reach, [by_label[label] for label in labels]


def test_clauses_read_only_their_window():
    # the steps of a stack are a function of its top `reach` items, which
    # is what lets one run share them between stacks, and the clauses its
    # plan leaves out find none of them; every step pops items of the
    # window and pushes one, popping no more than the recognizer allows
    deepest = {}
    popped_most = {}
    checked = 0
    for automaton, inputs, most in _window_cases():
        name = automaton.name
        for tokens in inputs:
            stacks = explore(automaton, tokens).stacks
            result = run(automaton, tokens, exhaustive=True)
            assert result.stats.configurations_explored == len(stacks)
            for stack in stacks:
                reach, planned = _planned(automaton, stack[-1])
                window = stack[-reach:]
                steps = _steps(automaton.clauses, window, tokens)
                assert _steps(automaton.clauses, stack, tokens) == steps
                assert _steps(planned, window, tokens) == steps
                for _, popped, _, _ in steps:
                    assert 0 <= popped <= len(window) and popped <= most
                    popped_most[name] = max(popped_most.get(name, 0), popped)
                deepest[name] = max(deepest.get(name, 0), reach)
                checked += 1
    assert checked > 1000
    # only a finished item reads below the top; hi's five-member rule in
    # LONG_RULES reads six items and pops five
    assert deepest == {"td": 2, "hc": 2, "phi": 2, "ehi": 2, "hi": 6, "ghi": 2}
    assert popped_most == {"td": 2, "hc": 2, "phi": 2, "ehi": 2, "hi": 5, "ghi": 2}


def test_matchers_run_only_as_planned():
    # a copy with wrapped matchers, as a tracer that times them makes it,
    # calls each planned clause at most once per window and no other
    for automaton, inputs, _ in _window_cases():
        for tokens in inputs:
            _, calls = _counted_run(automaton, tokens)
            for (label, window), count in Counter(calls).items():
                reach, labels = automaton.plan(window[-1])
                assert label in labels and len(window) <= reach
                assert count == 1


def _counted_run(automaton, tokens):
    """An exhaustive run, and the (clause label, window) of every matcher
    call it made."""
    counting, calls = counting_copy(automaton)
    result = run(counting, tokens, exhaustive=True)
    assert result.stats == run(automaton, tokens, exhaustive=True).stats
    return result, calls


def _windows(automaton, stacks):
    return {stack[-automaton.plan(stack[-1])[0]:] for stack in stacks}


AMBIGUOUS = hg("S", ("S", "S *S"), ("S", "*a"))


def test_matchers_run_once_per_distinct_window():
    # S -> S *S | *a on a^8 reaches three times as many stacks as it has
    # distinct windows; every matcher runs at most once per window
    automaton = build_hc(augment(AMBIGUOUS))
    tokens = ("a",) * 8
    result, calls = _counted_run(automaton, tokens)
    windows = _windows(automaton, explore(automaton, tokens).stacks)
    assert result.stats.configurations_explored > 3 * len(windows)
    assert len(calls) <= len(automaton.clauses) * len(windows)


def test_hi_windows_are_sized_by_the_top_item():
    # hi's clauses read one item unless a rule is finished on top; keyed by
    # a fixed window of 1 + its longest right-hand side (3 items here), its
    # matchers would run on more than twice as many windows
    automaton = FLAT_BUILDERS["hi"](augment(AMBIGUOUS))
    tokens = ("a",) * 10
    result, calls = _counted_run(automaton, tokens)
    stacks = explore(automaton, tokens).stacks
    windows = _windows(automaton, stacks)
    fixed = {stack[-3:] for stack in stacks}
    assert len(calls) <= len(automaton.clauses) * len(windows)
    assert len(calls) < len(automaton.clauses) * len(fixed) / 2


def _with_matchers(automaton, wrap):
    return dataclasses.replace(automaton, clauses=tuple(
        dataclasses.replace(clause, matcher=wrap(clause.matcher))
        for clause in automaton.clauses))


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_and_replay_leave_the_collector_as_they_found_it(
        tiny_grammar, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    automaton = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    during = []

    def watched(matcher):
        def watch(window, tokens):
            during.append(gc.isenabled())
            return matcher(window, tokens)
        return watch
    watching = _with_matchers(automaton, watched)
    trace = accepting_trace(run(watching, tokens))
    assert gc.isenabled() is enabled
    assert replay(watching, tokens, trace)
    assert gc.isenabled() is enabled
    assert during and not any(during)  # paused inside both

    def broken(matcher):
        def fail(window, tokens):
            raise RuntimeError("matcher failed")
        return fail
    failing = _with_matchers(automaton, broken)
    with pytest.raises(RuntimeError, match="matcher failed"):
        run(failing, tokens)
    assert gc.isenabled() is enabled
    with pytest.raises(RuntimeError, match="matcher failed"):
        replay(failing, tokens, trace)
    assert gc.isenabled() is enabled


def test_concurrent_runs_agree_with_serial_ones(collector):
    # threads share the collector pause and the token index's one slot;
    # alternating inputs must each see their own positions, and the
    # collector is on again once all runs have returned
    gc.enable()
    automaton = build_hc(augment(hg("S", ("S", "*a S b"), ("S", "*c"))))
    inputs = [("a",) * k + ("c",) + ("b",) * (k - miss)
              for k in range(1, 7) for miss in (0, 1)]
    expected = [run(automaton, tokens).stats for tokens in inputs]
    failures = []

    def worker(offset):
        order = list(range(offset, len(inputs))) + list(range(offset))
        for _ in range(5):
            for at in order:
                if run(automaton, inputs[at]).stats != expected[at]:
                    failures.append(inputs[at])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert gc.isenabled()
