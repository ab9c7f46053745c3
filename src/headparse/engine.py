"""Depth-first execution of nondeterministic stack automata.

An automaton is an initial stack symbol, an accepting stack, and an
ordered list of clauses.  A clause inspects the top of the current stack
(together with the input) and proposes replacements for the topmost few
symbols; each proposal is one nondeterministic step.  The engine explores
the resulting configuration space depth first, taking clauses in their
listed order and input positions in ascending order, so runs and traces
are reproducible.  Stacks already seen are pruned: transitions read only
the stack, the input, and indexes stored inside items, so equal stacks
have equal futures.  Pruning plus explicit step/depth bounds turn would-be
infinite searches into either pruned duplicates or a distinct
resource-limit verdict; they never affect accept/reject outcomes on
searches that terminate.

Every clause reads at most the top `Automaton.reach` items of a stack,
its *window*, so the steps a stack allows are a function of its window
and the input.  A run therefore keeps a table from window to steps: the
matchers run once per distinct window, and every later stack with that
window replays the recorded steps in the same order.  A window's steps
are recorded as the search pulls them and stored only once all are
pulled, so a search that accepts early never computes steps it does not
take.  The table lives for one run; it is the transition relation of the
automaton on that input, restricted to the windows the search reached.

Items carry the -1-based input positions used throughout this toolkit
directly (the bottom marker occupies the span (-1, 0]), with no internal
shifting, so printed traces read exactly like the items themselves.

Each search path also carries the set of input positions its scanning
steps consulted.  These per-path sets are what the correct-subsequence
check in `headparse.oracle` inspects.  A set rides on the path's agenda
entry rather than in a map keyed by stack, so sets from different search
branches are never merged by construction; only an individual path's
consultations are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional


class EngineError(RuntimeError):
    pass


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    RESOURCE_LIMIT = "resource-limit"


class RunContext(NamedTuple):
    tokens: tuple
    n: int


@dataclass(frozen=True)
class Clause:
    """A labelled transition schema.

    `matcher(window, ctx)` yields one tuple per applicable instance:
    ``(matched, replacement, consulted)`` where `matched` is how many top
    items the instance consumes, `replacement` the items pushed in their
    place (bottom to top), and `consulted` the input position a scanning
    step read, or None.  `window` is the top `Automaton.reach` items of the
    stack (fewer on a shorter stack), and a matcher reads nothing else.

    `top` and `below`, when given, are the item types the clause needs on
    top of the window and right below it; the engine does not call the
    matcher on other windows.  They only filter: a matcher still checks
    the types itself, so a clause without them finds the same steps.
    """

    label: str
    matcher: Callable
    top: Optional[type] = None
    below: Optional[type] = None


@dataclass
class Automaton:
    name: str
    clauses: tuple
    make_init: Callable
    make_fin: Callable
    render_item: Callable
    size_hint: tuple = (1, 1)
    # By default a run accepts exactly on the one-element stack [fin(n)].
    # An automaton whose clause structure cannot reach that shape supplies
    # its own predicate factory instead (the head-inward recognizer never
    # pops its initial item and merges live alternatives into the final
    # item's set, so it accepts on [init, item-containing-fin]).
    make_accepting: Optional[Callable] = None
    collapse_rows: Optional[Callable] = None
    # How many top items the clauses may read; see `Clause`.
    reach: int = 2
    # (type below the top or None, type of the top) -> the clauses that
    # may apply, in order, filled from `clauses` as windows are met; None
    # when no clause declares a type.  `__post_init__` makes it afresh, so
    # copies made by `dataclasses.replace` never share it.
    _dispatch: Optional[dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        declared = any(clause.top is not None or clause.below is not None
                       for clause in self.clauses)
        self._dispatch = {} if declared else None

    def clauses_for(self, window):
        """The clauses, in order, whose declared item types fit the window."""
        if self._dispatch is None:
            return self.clauses
        key = (type(window[-2]) if len(window) > 1 else None, type(window[-1]))
        clauses = self._dispatch.get(key)
        if clauses is None:
            below, top = key
            clauses = self._dispatch[key] = tuple(
                clause for clause in self.clauses
                if clause.top in (None, top) and clause.below in (None, below))
        return clauses

    def accepting_predicate(self, n):
        if self.make_accepting is not None:
            return self.make_accepting(n)
        fin = self.make_fin(n)

        def accepting(stack):
            return len(stack) == 1 and stack[0] == fin
        return accepting


class TraceStep(NamedTuple):
    label: str
    stack: tuple


@dataclass(frozen=True)
class Trace:
    initial: tuple
    steps: tuple


@dataclass
class RunStats:
    configurations_explored: int = 0
    clause_applications: int = 0
    max_stack_depth: int = 0
    consulted_positions: frozenset = frozenset()
    duplicates_pruned: int = 0
    limit_hit: bool = False
    consulted_sets: Optional[frozenset] = None


@dataclass
class RunResult:
    verdict: Verdict
    stats: RunStats
    accepting_trace: Optional[Trace] = None
    visited: Optional[tuple] = None


def default_max_depth(n, size_hint):
    rules, nonterminals = size_hint
    return 16 * (n + 2) * (rules + nonterminals)


def _successors(clauses, stack, ctx):
    """Every step the clauses allow on `stack`, computed afresh: what the
    run's table records and replays."""
    for clause in clauses:
        for matched, replacement, consulted in clause.matcher(stack, ctx):
            yield clause.label, matched, replacement, consulted


def _recorded(clauses, window, ctx, table):
    """The window's steps; once all are pulled they are stored in `table`."""
    steps = []
    for clause in clauses:
        label = clause.label
        for matched, replacement, consulted in clause.matcher(window, ctx):
            step = (label, matched, replacement, consulted)
            steps.append(step)
            yield step
    table[window] = steps


def run(automaton: Automaton, tokens, *, max_steps: int = 1_000_000,
        max_depth: Optional[int] = None, exhaustive: bool = False,
        collect_consulted: bool = False, keep_visited: bool = False,
        prune: bool = True) -> RunResult:
    """Search the automaton's configuration space on the given input.

    Returns ACCEPT as soon as an accepting stack is reachable (the whole
    space is still explored when `exhaustive` is set, which makes the
    statistics comparable across algorithms), REJECT when the reachable
    space was exhausted without acceptance, and RESOURCE_LIMIT when a step
    or depth bound cut the search short instead.
    """
    tokens = tuple(tokens)
    n = len(tokens)
    ctx = RunContext(tokens, n)
    if max_depth is None:
        max_depth = default_max_depth(n, automaton.size_hint)
    accepting = automaton.accepting_predicate(n)
    reach = automaton.reach
    start = (automaton.make_init(n),)

    # Every stack reached maps to its link (stack, clause label, link of
    # the parent stack), the start to None; the first path to reach a
    # stack is the one its trace follows.  With pruning on, the same map
    # is the visited set.
    parents = {start: None}
    order = [start] if keep_visited else None
    consulted_sets = {frozenset()} if collect_consulted else None
    table = {}  # window -> its steps, once a search has pulled them all

    explored = 1
    applications = 0
    deepest = 1
    duplicates = 0
    limit_hit = False
    accepted = accepting(start)
    accept_link = None
    accept_consulted = frozenset()
    # widest consulted set, ordered by (len, sorted): keys that compare
    # equal belong to equal sets, so it does not depend on search order
    widest = frozenset()

    clauses_for = automaton.clauses_for
    window = start[-reach:]
    # agenda entries: (stack, consulted set, its steps, its link)
    agenda = [(start, frozenset(),
               _recorded(clauses_for(window), window, ctx, table), None)]
    while agenda:
        cfg, base, successors, link = agenda[-1]
        step = next(successors, None)
        if step is None:
            agenda.pop()
            continue
        label, matched, replacement, pos = step
        applications += 1
        if applications > max_steps:
            limit_hit = True
            break
        new_cfg = cfg[:len(cfg) - matched] + replacement
        new_consulted = base if pos is None else base | {pos}
        if collect_consulted and new_consulted is not base:
            consulted_sets.add(new_consulted)
        if len(new_cfg) > max_depth:
            limit_hit = True
            continue
        new_link = (new_cfg, label, link)
        # one lookup both tests for and records the stack
        first = parents.setdefault(new_cfg, new_link)
        if first is not new_link:
            if prune:
                duplicates += 1
                continue
            new_link = first
        explored += 1
        if keep_visited:
            order.append(new_cfg)
        if new_consulted is not base:
            size = len(new_consulted)
            if size > len(widest) or (size == len(widest)
                                      and sorted(new_consulted) > sorted(widest)):
                widest = new_consulted
        if len(new_cfg) > deepest:
            deepest = len(new_cfg)
        if not accepted and accepting(new_cfg):
            accepted = True
            accept_link = new_link
            accept_consulted = new_consulted
            if not exhaustive:
                break
        window = new_cfg[-reach:]
        steps = table.get(window)
        if steps is None:
            agenda.append((new_cfg, new_consulted,
                           _recorded(clauses_for(window), window, ctx, table),
                           new_link))
        elif steps:
            agenda.append((new_cfg, new_consulted, iter(steps), new_link))

    if accepted:
        verdict = Verdict.ACCEPT
        final_consulted = accept_consulted
    else:
        verdict = Verdict.RESOURCE_LIMIT if limit_hit else Verdict.REJECT
        final_consulted = widest
    stats = RunStats(
        configurations_explored=explored,
        clause_applications=applications,
        max_stack_depth=deepest,
        consulted_positions=final_consulted,
        duplicates_pruned=duplicates,
        limit_hit=limit_hit,
        consulted_sets=frozenset(consulted_sets) if collect_consulted else None,
    )
    trace = _build_trace(start, accept_link) if accepted else None
    return RunResult(verdict, stats, trace,
                     visited=tuple(order) if keep_visited else None)


def _build_trace(initial, link):
    """The trace that ends at `link`'s stack, read off the link chain."""
    steps = []
    while link is not None:
        stack, label, link = link
        steps.append(TraceStep(label, stack))
    steps.reverse()
    return Trace(initial, tuple(steps))


def accepting_trace(result: RunResult) -> Trace:
    if result.verdict is not Verdict.ACCEPT or result.accepting_trace is None:
        raise EngineError("no accepting trace: verdict was %s" % result.verdict.value)
    return result.accepting_trace


def replay(automaton: Automaton, tokens, trace: Trace) -> bool:
    """Re-derive every trace step from the initial stack.

    True when each recorded (label, stack) pair is producible by one clause
    application from its predecessor and the final stack is accepting.
    """
    tokens = tuple(tokens)
    ctx = RunContext(tokens, len(tokens))
    if trace.initial != (automaton.make_init(ctx.n),):
        return False
    matchers = {clause.label: clause.matcher for clause in automaton.clauses}
    cur = trace.initial
    for step in trace.steps:
        matcher = matchers.get(step.label)
        if matcher is None or not any(
                cur[:len(cur) - matched] + replacement == step.stack
                for matched, replacement, _ in matcher(cur[-automaton.reach:], ctx)):
            return False
        cur = step.stack
    return automaton.accepting_predicate(ctx.n)(cur)


def trace_rows(automaton: Automaton, trace: Trace):
    """(label, stack) display rows; follows the automaton's row-merging
    convention when it has one (the tree recognizer merges the two
    empty-subtree conversions that finish a bare tree into a single row)."""
    if automaton.collapse_rows is not None:
        return list(automaton.collapse_rows(trace.steps))
    return [(s.label, s.stack) for s in trace.steps]


class _ItemTexts(dict):
    """item -> `render(item)`, each distinct item rendered on first use."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, item):
        text = self[item] = self.render(item)
        return text


def _rendered_rows(automaton: Automaton, trace: Trace) -> list:
    """(label, item texts) per display row, the initial stack first with
    label None.

    Rows share all but their top few items, so the texts come from a memo
    that lives for this call: a trace k deep renders O(k) distinct items
    instead of O(k^2) stacked ones.  Keying the memo by item equality is
    safe because `render_item` reads nothing but the item, and equal items
    of one automaton have one class: its item classes differ in arity or
    carry a `tag` field, so NamedTuples of two classes never compare equal.
    """
    texts = _ItemTexts(automaton.render_item)
    rows = [(None, trace.initial)] + trace_rows(automaton, trace)
    return [(label, list(map(texts.__getitem__, stack))) for label, stack in rows]


def render_trace_text(automaton: Automaton, trace: Trace) -> str:
    rendered = [(" ".join(texts), "" if label is None else label)
                for label, texts in _rendered_rows(automaton, trace)]
    width = max(len(s) for s, _ in rendered)
    width = max(width, len("Stack"))
    lines = ["%-*s | %s" % (width, "Stack", "Clause")]
    lines.extend("%-*s | %s" % (width, s, label) for s, label in rendered)
    return "\n".join(lines) + "\n"


def trace_records(automaton: Automaton, trace: Trace) -> list:
    """Structured trace: one record per display row."""
    return [{"clause": label, "stack": texts}
            for label, texts in _rendered_rows(automaton, trace)]
