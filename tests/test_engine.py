import dataclasses
import gc
import sys
import threading
from collections import Counter

import pytest

from headparse import (Automaton, Clause, EngineError, Trace, Verdict,
                       accepting_trace, augment, build_ghi, build_hc,
                       detect_cyclic, detect_head_recursion, embed, replay,
                       render_trace_text, run, trace_records)
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.recognizers_basic import Goal, build_td
from conftest import (FLAT_BUILDERS, counting_copy, explore, hg, successors,
                      trace_stacks)


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
        for label, popped, item, pos in successors(auto.clauses, cur, tokens):
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
    return list(successors(clauses, stack, tokens))


def _groups(automaton, stack):
    """The stack's planned groups, in order, as (window, clauses): the
    clauses that read the top alone on the top, then those of the window
    group on the top `reach` items."""
    alone, window = automaton.plan(stack[-1])
    groups = [(stack[-1:], automaton.named(alone))]
    if window is not None:
        reach, labels = window
        groups.append((stack[-reach:], automaton.named(labels)))
    return groups


def _reach(automaton, top):
    window = automaton.plan(top)[1]
    return 1 if window is None else window[0]


def test_clauses_read_only_their_window():
    # the planned groups on their windows yield exactly the steps that all
    # clauses yield on the whole stack, which is what lets one run share
    # them between stacks: the clauses a plan leaves out find none of
    # them; every step pops items of the window and pushes one, popping no
    # more than the recognizer allows, and its clause still yields it on
    # the items it pops and the one below them, all that `replay` hands
    # it; no step is planned twice for one stack
    deepest = {}
    popped_most = {}
    checked = 0
    for automaton, inputs, most in _window_cases():
        name = automaton.name
        order = [clause.label for clause in automaton.clauses]
        for tokens in inputs:
            stacks = explore(automaton, tokens).stacks
            result = run(automaton, tokens, exhaustive=True)
            assert result.stats.configurations_explored == len(stacks)
            for stack in stacks:
                groups = _groups(automaton, stack)
                planned = [clause.label for _, clauses in groups for clause in clauses]
                assert planned == sorted(planned, key=order.index)
                steps = _steps(automaton.clauses, stack, tokens)
                assert len(set(steps)) == len(steps)
                assert [step for window, clauses in groups
                        for step in _steps(clauses, window, tokens)] == steps
                reach = _reach(automaton, stack[-1])
                assert _steps(automaton.clauses, stack[-reach:], tokens) == steps
                for step in steps:
                    label, popped, _, _ = step
                    assert 0 <= popped <= min(reach, len(stack)) and popped <= most
                    assert step in _steps(automaton.named((label,)),
                                          stack[-1 - popped:], tokens)
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
    # calls each planned clause on its group's window and no other: a
    # clause that reads the top alone at most once per top item, and a
    # window clause at most once per window.  The totals pin each
    # recognizer's plans: a plan that names a clause more or fewer changes
    # them
    totals = Counter()
    for automaton, inputs, _ in _window_cases():
        for tokens in inputs:
            _, calls = _counted_run(automaton, tokens)
            for label, window in calls:
                groups = _groups(automaton, window)
                if label in [clause.label for clause in groups[0][1]]:
                    assert len(window) == 1
                else:
                    assert len(groups) == 2 and window == groups[1][0]
                    assert label in [clause.label for clause in groups[1][1]]
            assert all(count == 1 for count in Counter(calls).values())
            totals[automaton.name] += len(calls)
    assert totals == {"td": 229, "hc": 1_293, "phi": 1_193, "ehi": 1_193,
                      "hi": 1_278, "ghi": 2_121}


def _counted_run(automaton, tokens):
    """An exhaustive run of a counting copy made after the automaton ran,
    and the (clause label, window) of every matcher call it made: the copy
    resolves its plans' labels in its own clauses."""
    expected = run(automaton, tokens, exhaustive=True).stats
    counting, calls = counting_copy(automaton)
    result = run(counting, tokens, exhaustive=True)
    assert result.stats == expected
    assert calls or not expected.clause_applications
    return result, calls


def _windows(automaton, stacks):
    """The distinct windows the stacks' planned groups read."""
    return {window for stack in stacks for window, _ in _groups(automaton, stack)}


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
    # hi's pushes read the top alone, and its reductions the top and the
    # items below it only when a rule is finished on top; keyed by a fixed
    # window of 1 + its longest right-hand side (3 items here), its matchers
    # would run on more than twice as many windows
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


@pytest.mark.parametrize("grammar, tokens, most", [
    (AMBIGUOUS, ("a",) * 8, 4_332),
    (hg("S", ("S", "*a S b"), ("S", "*c")), ("a",) * 8 + ("c",) + ("b",) * 7, 2_268),
])
def test_hi_pushes_run_once_per_top_item(grammar, tokens, most):
    # hi's pushes (1a..2b) read the top alone, so they run once per top item
    # and not again for each window under a finished top: as many calls as
    # if the pushes had been asked once per distinct top, or fewer
    automaton = FLAT_BUILDERS["hi"](augment(grammar))
    _, calls = _counted_run(automaton, tokens)
    assert len(calls) <= most


def test_td_records_each_window_once():
    # td pushes a goal on the same goal over S -> S *S | *a; every stack
    # that pushes S over the whole input on itself reaches it while its
    # first stack is still pulling its steps, so records them afresh.
    # Every other window's steps are recorded once and then replayed.  The
    # default bounds let the stacks grow to the depth bound, and the step
    # bound ends the search
    counting, calls = counting_copy(build_td(augment(AMBIGUOUS)))
    result = run(counting, ("a",) * 8, exhaustive=True)
    assert result.verdict is Verdict.RESOURCE_LIMIT
    assert result.stats.limit_kind == "steps"
    assert result.stats.configurations_explored == 894_327
    counts = Counter(calls)
    assert len(counts) == 1_847
    assert len(calls) == 2_654
    whole = (Goal(0, "S", 8),)
    assert {window for (_, window), count in counts.items() if count > 1} \
        == {whole}


def _push(top, item):
    """A matcher that pushes `item` on `top`, reading the top alone."""
    def matcher(window, tokens):
        if window[-1] == top:
            yield 0, item, None
    return matcher


def _echo_automaton():
    """Items I, X, Y, Z: I pushes Y, Y pushes X and X pushes Y, each read
    alone, and X over Y pops both and pushes Z.  Above [I, Y, X] the stack
    [I, Y, X, Y, X] has X's top steps half pulled and the window (Y, X)
    not yet started, which the first stack reads after X's top steps."""
    def fold(window, tokens):
        if window[-2:] == ("Y", "X"):
            yield 2, "Z", None

    plans = {"I": (("i",), None), "Y": (("y",), None),
             "X": (("x",), (2, ("fold",)))}
    return Automaton(
        "echo", (Clause("i", _push("I", "Y")), Clause("y", _push("Y", "X")),
                 Clause("x", _push("X", "Y")), Clause("fold", fold)),
        make_init=lambda n: "I", make_fin=lambda n: "F", render_item=str,
        plan=lambda top: plans.get(top, ((), None)))


def _peeking_automaton(reads):
    """Items I, A, B, C, F: I pushes A and A pushes B, each read alone;
    over I and A, 'peek' pops B and pushes C, and 'fold' pops all three
    and pushes the final F.  Planned windows hold three items, and peek
    tests the top `reads` of them: with 3 it reads the item below the one
    below the item it pops, which the pushdown contract forbids."""
    def peek(window, tokens):
        if window[-reads:] == ("I", "A", "B")[-reads:]:
            yield 1, "C", None

    def fold(window, tokens):
        if window == ("I", "A", "C"):
            yield 3, "F", None

    plans = {"I": (("i",), None), "A": (("a",), None),
             "B": ((), (3, ("peek",))), "C": ((), (3, ("fold",)))}
    return Automaton(
        "peek", (Clause("i", _push("I", "A")), Clause("a", _push("A", "B")),
                 Clause("peek", peek), Clause("fold", fold)),
        make_init=lambda n: "I", make_fin=lambda n: "F", render_item=str,
        plan=lambda top: plans.get(top, ((), None)))


@pytest.mark.parametrize("reads, replays", [(2, True), (3, False)])
def test_replay_checks_each_step_on_the_items_it_may_pop_and_read(reads, replays):
    # a run hands peek the window its plan sizes, so it takes peek's pop of
    # one either way; replay hands it the popped item and the one below
    automaton = _peeking_automaton(reads)
    result = run(automaton, ())
    assert result.verdict is Verdict.ACCEPT
    trace = result.accepting_trace
    assert [step.label for step in trace.steps] == ["i", "a", "peek", "fold"]
    assert replay(automaton, (), trace) is replays


@pytest.mark.parametrize("exhaustive", [False, True])
def test_an_accepting_initial_stack_has_the_empty_trace(exhaustive):
    # a run returns at once unless it is exhaustive; then it still takes
    # the steps to [F], which no longer accepts
    automaton = dataclasses.replace(_peeking_automaton(2), make_fin=lambda n: "I")
    result = run(automaton, (), exhaustive=exhaustive)
    assert result.verdict is Verdict.ACCEPT
    assert result.stats.configurations_explored == (5 if exhaustive else 1)
    assert result.accepting_trace == Trace(("I",), ())
    assert replay(automaton, (), result.accepting_trace)


def _bounded_stacks(automaton, initial, tokens, max_depth):
    """The stacks within `max_depth` the planned groups reach from the
    stack `initial` on `tokens`, and how many steps they take in all."""
    stacks = {initial}
    work = [initial]
    applied = 0
    while work:
        stack = work.pop()
        for window, clauses in _groups(automaton, stack):
            for _, popped, item, _ in _steps(clauses, window, tokens):
                applied += 1
                new = stack[:len(stack) - popped] + (item,)
                if len(new) <= max_depth and new not in stacks:
                    stacks.add(new)
                    work.append(new)
    return stacks, applied


@pytest.mark.parametrize("name, max_depth, verdict", [
    ("echo", 3, Verdict.RESOURCE_LIMIT),
    ("echo", 5, Verdict.RESOURCE_LIMIT),
    ("echo", 9, Verdict.RESOURCE_LIMIT),
    ("td", 4, Verdict.ACCEPT),
], ids=["echo-3", "echo-5", "echo-9", "td-4"])
def test_bounded_runs_take_the_reference_steps(name, max_depth, verdict):
    # a stack whose top's or window's steps are still being pulled, or are
    # queued behind its first stack's top steps, records them afresh and
    # takes the same steps in the same order: echo's [I, Y, X, Y, X] and
    # td's goals pushed on equal goals over S -> S *S | *a
    if name == "echo":
        automaton, tokens = _echo_automaton(), ()
    else:
        automaton, tokens = build_td(augment(AMBIGUOUS)), ("a", "a")
    initial = (automaton.make_init(len(tokens)),)
    stacks, applied = _bounded_stacks(automaton, initial, tokens, max_depth)
    result = run(automaton, tokens, max_depth=max_depth, exhaustive=True)
    assert result.verdict is verdict
    assert result.stats.limit_kind == "depth"
    assert result.stats.configurations_explored == len(stacks)
    assert result.stats.clause_applications == applied


def _raising_every(calls):
    """Wraps a matcher so that the matchers raise at every `calls`-th call
    they make together."""
    made = []

    def wrap(matcher):
        def matcher_or_raise(window, tokens):
            made.append(None)
            if len(made) % calls == 0:
                raise RuntimeError("matcher failed")
            return matcher(window, tokens)
        return matcher_or_raise
    return wrap


@pytest.mark.parametrize("case", ["accept", "step bound", "matcher raises"])
def test_runs_leave_no_reference_cycles(collector, case):
    # a run that accepts, hits its step bound or meets a matcher's error
    # leaves recordings unfinished on its agenda; with the collector off,
    # dropping the result frees everything the run made
    automaton = build_hc(augment(hg("S", ("S", "*a S b"), ("S", "*c"))))
    tokens = ("a",) * 12 + ("c",) + ("b",) * 12
    kwargs = {"max_steps": 40} if case == "step bound" else {}
    if case == "matcher raises":
        automaton = _with_matchers(automaton, _raising_every(60))

    def measured():
        try:
            return run(automaton, tokens, **kwargs).stats.clause_applications
        except RuntimeError:
            assert case == "matcher raises"
            return None
    measured()
    gc.disable()
    gc.collect()
    before = len(gc.get_objects())
    applications = measured()
    assert len(gc.get_objects()) <= before
    assert applications is None if case == "matcher raises" else applications > 30
