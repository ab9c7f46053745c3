import dataclasses

import pytest

from headparse import (Clause, EngineError, Verdict, accepting_trace, augment,
                       build_ghi, build_hc, detect_cyclic,
                       detect_head_recursion, embed, engine, replay,
                       render_trace_text, run, trace_records)
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.recognizers_basic import build_td
from conftest import FLAT_BUILDERS, hg


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


def test_accepting_trace_replays(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    result = run(auto, tokens)
    trace = accepting_trace(result)
    assert replay(auto, tokens, trace)
    assert trace.steps[-1].stack == (auto.make_fin(3),)


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
    distinct = set(trace.initial).union(*(step.stack for step in trace.steps))
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
    # on runs that terminate both ways, pruning must not change the verdict
    for g in head_grammar_corpus(12, seed=801):
        aug = augment(g)
        if detect_head_recursion(aug) is not None or detect_cyclic(aug) is not None:
            continue
        auto = build_td(aug)
        for tokens in all_inputs(("a", "b"), 3):
            pruned = run(auto, tokens)
            free = run(auto, tokens, prune=False, max_steps=30_000)
            if not free.stats.limit_hit:
                assert pruned.verdict == free.verdict


def test_explored_configurations_are_reachable(tiny_grammar):
    # independent breadth-first reachability over the same clause set
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    result = run(auto, tokens, exhaustive=True, keep_visited=True)
    ctx = engine.RunContext(tokens, len(tokens))
    reachable = {(auto.make_init(len(tokens)),)}
    frontier = list(reachable)
    while frontier:
        cfg = frontier.pop()
        for _, matched, replacement, _ in engine._successors(auto.clauses, cfg, ctx):
            new = cfg[:len(cfg) - matched] + replacement
            if new not in reachable:
                reachable.add(new)
                frontier.append(new)
    assert set(result.visited) <= reachable


def test_consulted_positions_monotone_along_trace(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    trace = accepting_trace(run(auto, tokens))
    ctx = engine.RunContext(tokens, len(tokens))
    cur = trace.initial
    consulted = set()
    for step in trace.steps:
        for label, matched, replacement, pos in engine._successors(auto.clauses, cur, ctx):
            if label == step.label and cur[:len(cur) - matched] + replacement == step.stack:
                before = set(consulted)
                if pos is not None:
                    consulted.add(pos)
                assert before <= consulted
                break
        cur = step.stack
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


def _window_cases():
    """(automaton, inputs): every recognizer on a corpus slice, and the
    flat ones that terminate there on long rules."""
    short = all_inputs(("a", "b"), 3)
    for g in head_grammar_corpus(8, seed=803):
        aug = augment(g)
        for name, builder in FLAT_BUILDERS.items():
            if eligible(aug, name):
                yield builder(aug), short
    for g in gen_grammar_corpus(6, seed=804):
        if gen_eligible(g):
            yield build_ghi(g), short
    aug = augment(LONG_RULES)
    for name, builder in FLAT_BUILDERS.items():
        if eligible(aug, name):
            yield builder(aug), LONG_INPUTS


def _steps(clauses, stack, ctx):
    return list(engine._successors(clauses, stack, ctx))


def test_clauses_read_only_their_window():
    # the steps of a stack are a function of its top `reach` items, which
    # is what lets one run share them between stacks; the declared item
    # types only skip clauses that would find nothing
    assert build_hc(augment(LONG_RULES)).reach == 2
    assert FLAT_BUILDERS["hi"](augment(LONG_RULES)).reach == 6
    checked = 0
    for automaton, inputs in _window_cases():
        for tokens in inputs:
            ctx = engine.RunContext(tokens, len(tokens))
            result = run(automaton, tokens, exhaustive=True, keep_visited=True)
            for stack in result.visited:
                window = stack[-automaton.reach:]
                steps = _steps(automaton.clauses, window, ctx)
                assert _steps(automaton.clauses, stack, ctx) == steps
                assert _steps(automaton.clauses_for(window), window, ctx) == steps
                checked += 1
    assert checked > 1000


def test_undeclared_clauses_search_the_same_way():
    # an automaton rebuilt from bare (label, matcher) clauses, as a wrapper
    # that times matchers builds it, runs the same search
    for automaton, inputs in _window_cases():
        bare = dataclasses.replace(automaton, clauses=tuple(
            Clause(c.label, c.matcher) for c in automaton.clauses))
        for tokens in inputs:
            declared = run(automaton, tokens, exhaustive=True)
            plain = run(bare, tokens, exhaustive=True)
            assert plain.stats == declared.stats
            assert plain.accepting_trace == declared.accepting_trace


def test_matchers_run_once_per_distinct_window():
    # S -> S *S | *a on a^8 reaches three times as many stacks as it has
    # distinct top-two windows; every matcher runs at most once per window
    automaton = build_hc(augment(hg("S", ("S", "S *S"), ("S", "*a"))))
    calls = []

    def counted(matcher):
        def matcher_calls(window, ctx):
            calls.append(window)
            return matcher(window, ctx)
        return matcher_calls
    counting = dataclasses.replace(automaton, clauses=tuple(
        dataclasses.replace(c, matcher=counted(c.matcher))
        for c in automaton.clauses))
    tokens = ("a",) * 8
    result = run(counting, tokens, exhaustive=True, keep_visited=True)
    assert result.stats == run(automaton, tokens, exhaustive=True).stats
    windows = {stack[-automaton.reach:] for stack in result.visited}
    assert result.stats.configurations_explored > 3 * len(windows)
    assert len(calls) <= len(automaton.clauses) * len(windows)
