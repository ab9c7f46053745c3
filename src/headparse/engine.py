"""Depth-first execution of nondeterministic stack automata.

An automaton is an initial stack symbol, an accepting stack, and an
ordered list of clauses.  A clause inspects the top of the current stack
(together with the input) and proposes steps in pushdown normal form: pop
some top items, then push one.  Each proposal is one nondeterministic
step.  The engine explores the resulting configuration space depth first,
taking clauses in their listed order and input positions in ascending
order, so runs and traces are reproducible.  Stacks already seen (a plain
visited set) are pruned: transitions read only the stack, the input, and
indexes stored inside items, so equal stacks have equal futures.  Pruning
plus explicit step/depth bounds turn would-be infinite searches into either
pruned duplicates or a distinct resource-limit verdict; they never affect
accept/reject outcomes on searches that terminate.

Every clause reads at most the top few items of a stack, its *window*,
and the automaton's `plan(top)` says how many and which clauses can fire,
where `top` is the stack's top item.  As in an LR parser, the state on
top decides both: a reduction reads as many entries as the finished rule
has members, every other step reads the top alone, and the clauses a top
cannot start are left out.  The steps a stack allows are therefore a
function of its window and the input, and a run keeps a table of them
keyed by the top item first.  A top whose window is the top alone maps
straight to its steps; any other top maps to its window size and planned
clauses, and the steps of its windows sit in a second table keyed by
window.  So a stack whose top was met before costs one item's hash, and
`plan` runs only on a top with no entry yet.  The matchers run once per
distinct window, and every later stack with that window replays the
recorded steps in the same order.  A window's steps are recorded as the
search pulls them and stored only once all are pulled, so a search that
accepts early never computes steps it does not take.  The tables live for
one run; they are the transition relation of the automaton on that input,
restricted to the windows the search reached.

A clause that predicts a head scans a span of the input for tokens that
can start one.  Like an LR parser looking up its action by lookahead, it
asks `positions` for the span's positions whose token lies in a head set
the builder memoises per grammar state, so it visits only those, in
ascending order, and still tests each one itself.  `run` and `replay`
pause Python's cyclic collector for their span: a run allocates only
tuples and generators that form no cycles, and the collector would keep
scanning them.

Items carry the -1-based input positions used throughout this toolkit
directly (the bottom marker occupies the span (-1, 0]), with no internal
shifting, so printed traces read exactly like the items themselves.

A trace is the steps a run applied, as an LR parser records a parse as
its actions: (clause label, items popped, item pushed), and a stack is
rebuilt by applying them to the initial one.  Each search path carries
its trace link (the recorded step and its parent's link, no stack) and
the input positions its scanning steps consulted on its agenda entry, not
in a map keyed by stack, so sets of different branches never merge and
only open paths and the accepting one hold links.  A run reports the
accepting path's set, or else the widest any path reached.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, wraps
from typing import Callable, NamedTuple, Optional


class EngineError(RuntimeError):
    pass


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    RESOURCE_LIMIT = "resource-limit"


@dataclass(frozen=True)
class Clause:
    """A labelled transition schema.

    `matcher(window, tokens)` yields one ``(popped, item, consulted)`` per
    applicable instance: a step that pops the top `popped` items (0 for a
    push), then pushes `item`; `consulted` is the input position a scanning
    step read, or None.  `window` is the top items of the stack that
    `Automaton.plan` sizes (fewer on a shorter stack), and a matcher reads
    nothing else.  A matcher checks everything it needs itself: a clause
    the window's plan leaves out finds nothing there, so running every
    clause on the whole stack finds the same steps.
    """

    label: str
    matcher: Callable


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
    # `collapse_rows(steps)` maps a trace's steps to its display rows,
    # `(label, steps)` in order; None gives each step a row of its own.
    collapse_rows: Optional[Callable] = None
    # `plan(top) -> (reach, labels)`: when `top` is the top item, the
    # clauses read the top `reach` items, and only those labelled in
    # `labels`, named in `clauses` order, can find a step; the others find
    # nothing there.  Every builder states its own rule.  Labels, not
    # clauses, so a copy with wrapped matchers runs its own.
    plan: Callable = field(kw_only=True)

    def accepting_predicate(self, n):
        if self.make_accepting is not None:
            return self.make_accepting(n)
        fin = self.make_fin(n)

        def accepting(stack):
            return len(stack) == 1 and stack[0] == fin
        return accepting


class TraceStep(NamedTuple):
    """One step a run applied: the clause labelled `label` popped the top
    `popped` items of the stack, then pushed `item`."""
    label: str
    popped: int
    item: object


@dataclass(frozen=True)
class Trace:
    """A run from the stack `initial` by `steps`, its TraceSteps in order."""
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
    # "steps" when the step bound ended the search, "depth" when only the
    # depth bound cut stacks off, else None
    limit_kind: Optional[str] = None


@dataclass
class RunResult:
    verdict: Verdict
    stats: RunStats
    accepting_trace: Optional[Trace] = None


def default_max_depth(n, size_hint):
    rules, nonterminals = size_hint
    return 16 * (n + 2) * (rules + nonterminals)


# (tokens, {head set: positions of its tokens}) for the last tokens seen;
# holding the tokens keeps their id from being reused while the slot names
# them, and threads that race on the slot only rebuild lists
_index = (None, {})


def positions(tokens, heads, lo, hi):
    """The positions p in (lo, hi] whose token `tokens[p - 1]` is in `heads`,
    lazily and in ascending order.

    Each head set's positions are listed once per tokens tuple and cut to
    the span by bisection, so a clause's scan costs the positions it visits,
    not the span's length.  A sequence other than a tuple may change, so its
    lists last for one call.
    """
    global _index
    slot = _index
    if slot[0] is not tokens:
        slot = (tokens, {})
        if type(tokens) is tuple:
            _index = slot
    lists = slot[1]
    where = lists.get(heads)
    if where is None:
        where = lists[heads] = [p for p, a in enumerate(tokens, 1) if a in heads]
    return map(where.__getitem__,
               range(bisect_right(where, lo), bisect_right(where, hi)))


def _collector_paused(function):
    """`function` with Python's cyclic collector switched off while it runs,
    and put back as it was found when it returns or raises.

    A run that overlaps one in another thread may find the collector off
    already, and then leaves it off; the run that found it on switches it
    back on, so once all have returned it is as the first one found it."""
    @wraps(function)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def _successors(clauses, stack, tokens):
    """Every step (label, popped, item, consulted) the clauses allow on
    `stack`, computed afresh: what the run's table records and replays."""
    for clause in clauses:
        for popped, item, consulted in clause.matcher(stack, tokens):
            yield clause.label, popped, item, consulted


def _recorded(clauses, window, tokens, table, key):
    """The window's steps, each item in a 1-tuple that a replay appends as
    it is; once all are pulled they are stored as `table[key]`."""
    steps = []
    for clause in clauses:
        label = clause.label
        for popped, item, consulted in clause.matcher(window, tokens):
            step = (label, popped, (item,), consulted)
            steps.append(step)
            yield step
    table[key] = steps


@_collector_paused
def run(automaton: Automaton, tokens, *, max_steps: int = 1_000_000,
        max_depth: Optional[int] = None, exhaustive: bool = False) -> RunResult:
    """Search the automaton's configuration space on the given input.

    Returns ACCEPT as soon as an accepting stack is reachable (the whole
    space is still explored when `exhaustive` is set, which makes the
    statistics comparable across algorithms), REJECT when the reachable
    space was exhausted without acceptance, and RESOURCE_LIMIT when a step
    or depth bound cut the search short instead.
    """
    tokens = tuple(tokens)
    n = len(tokens)
    if max_depth is None:
        max_depth = default_max_depth(n, automaton.size_hint)
    accepting = automaton.accepting_predicate(n)
    plan = automaton.plan
    by_label = {clause.label: clause for clause in automaton.clauses}
    resolved = {}  # labels of a plan -> their clauses
    start = (automaton.make_init(n),)

    seen = {start}  # a trace follows the first path to reach its stack
    # top item -> its steps, once a search has pulled them all, when the
    # top alone is its window; else top -> (reach, planned clauses), and
    # the steps of its windows are in `windows`
    table = {}
    windows = {}  # window of more than one item -> its steps, likewise

    def pull(stack):
        """The stack's steps, replayed from the tables or recorded as they
        are pulled; None when the tables show it has none."""
        top = stack[-1]
        entry = table.get(top)
        if type(entry) is list:
            return iter(entry) if entry else None
        if entry is None:
            reach, labels = plan(top)
            clauses = resolved.get(labels)
            if clauses is None:
                clauses = resolved[labels] = tuple(map(by_label.__getitem__, labels))
            if reach == 1:
                return _recorded(clauses, stack[-1:], tokens, table, top)
            entry = table[top] = (reach, clauses)
        reach, clauses = entry
        window = stack[-reach:]
        steps = windows.get(window)
        if steps is None:
            return _recorded(clauses, window, tokens, windows, window)
        return iter(steps) if steps else None

    explored = 1
    applications = 0
    deepest = 1
    duplicates = 0
    limit_kind = None
    accepted = accepting(start)
    accept_link = None
    accept_consulted = frozenset()
    # widest consulted set, ordered by (len, sorted): keys that compare
    # equal belong to equal sets, so it does not depend on search order
    widest = frozenset()

    # agenda entries: (stack, consulted set, its steps, its link), a link
    # being (the step that made the stack, link of the parent stack) or None
    agenda = [(start, frozenset(), pull(start) or iter(()), None)]
    while agenda:
        cfg, base, successors, link = agenda[-1]
        step = next(successors, None)
        if step is None:
            agenda.pop()
            continue
        label, popped, pushed, pos = step
        if applications >= max_steps:
            limit_kind = "steps"
            break
        applications += 1
        # a push slices the whole stack, which is the stack itself
        new_cfg = cfg[:len(cfg) - popped] + pushed
        if len(new_cfg) > max_depth:
            limit_kind = "depth"
            continue
        # one hash both tests for and records the stack
        before = len(seen)
        seen.add(new_cfg)
        if len(seen) == before:
            duplicates += 1
            continue
        explored += 1
        new_link = (step, link)
        new_consulted = base if pos is None else base | {pos}
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
        successors = pull(new_cfg)
        if successors is not None:
            agenda.append((new_cfg, new_consulted, successors, new_link))

    if accepted:
        verdict = Verdict.ACCEPT
        final_consulted = accept_consulted
    else:
        verdict = Verdict.REJECT if limit_kind is None else Verdict.RESOURCE_LIMIT
        final_consulted = widest
    stats = RunStats(
        configurations_explored=explored,
        clause_applications=applications,
        max_stack_depth=deepest,
        consulted_positions=final_consulted,
        duplicates_pruned=duplicates,
        limit_hit=limit_kind is not None,
        limit_kind=limit_kind,
    )
    trace = _build_trace(start, accept_link) if accepted else None
    return RunResult(verdict, stats, trace)


def _build_trace(initial, link):
    """The trace that ends at `link`'s stack, read off the link chain."""
    steps = []
    while link is not None:
        (label, popped, pushed, _), link = link
        steps.append(TraceStep(label, popped, pushed[0]))
    steps.reverse()
    return Trace(initial, tuple(steps))


def accepting_trace(result: RunResult) -> Trace:
    if result.verdict is not Verdict.ACCEPT or result.accepting_trace is None:
        raise EngineError("no accepting trace: verdict was %s" % result.verdict.value)
    return result.accepting_trace


@_collector_paused
def replay(automaton: Automaton, tokens, trace: Trace) -> bool:
    """Re-derive every trace step from the initial stack.

    True when the clause each step names yields exactly its (popped, item)
    on the window `plan` sizes for the stack so far, and the stack the
    steps end on is accepting.
    """
    tokens = tuple(tokens)
    n = len(tokens)
    if trace.initial != (automaton.make_init(n),):
        return False
    matchers = {clause.label: clause.matcher for clause in automaton.clauses}
    cur = list(trace.initial)
    for label, popped, item in trace.steps:
        matcher = matchers.get(label)
        window = tuple(cur[-automaton.plan(cur[-1])[0]:])
        if matcher is None or not any(
                (found, pushed) == (popped, item)
                for found, pushed, _ in matcher(window, tokens)):
            return False
        del cur[len(cur) - popped:]
        cur.append(item)
    return automaton.accepting_predicate(n)(tuple(cur))


def trace_rows(automaton: Automaton, trace: Trace):
    """(label, steps) display rows; follows the automaton's row-merging
    convention when it has one (the tree recognizer merges the two
    empty-subtree conversions that finish a bare tree into a single row)."""
    if automaton.collapse_rows is not None:
        return list(automaton.collapse_rows(trace.steps))
    return [(step.label, (step,)) for step in trace.steps]


def _row_changes(automaton: Automaton, trace: Trace):
    """(label, shared, new texts) per display row, the initial stack first
    with label None: the row's stack keeps the first `shared` items of the
    row before it, the smallest depth its steps pop down to, and `new
    texts` render the items above them.

    So each row costs item work only for what changed, and the texts come
    from a memo that lives for this call: a trace k deep renders O(k)
    distinct items instead of O(k^2) stacked ones.  Keying the memo by
    item equality is safe because `render_item` reads nothing but the
    item, and equal items of one automaton have one class: no two of its
    item classes hold equal tuples (ghi's four shapes differ in arity, or
    in where the frozenset sits), so NamedTuples of two classes never
    compare equal.
    """
    text = cache(automaton.render_item)
    stack = list(trace.initial)
    yield None, 0, list(map(text, stack))
    for label, steps in trace_rows(automaton, trace):
        shared = len(stack)
        for step in steps:
            del stack[len(stack) - step.popped:]
            shared = min(shared, len(stack))
            stack.append(step.item)
        yield label, shared, list(map(text, stack[shared:]))


def render_trace_text(automaton: Automaton, trace: Trace) -> str:
    """The trace as a two-column table, one stack per row.

    A row's text is the previous row's text up to where its shared items
    end, plus the new items joined.  A first pass takes the column width
    from the items' lengths alone, so the text is held at most twice: as
    the padded lines and as their join.
    """
    rows = list(_row_changes(automaton, trace))
    width = len("Stack")
    cuts = []  # per row: where its shared items end in the previous text
    ends = []  # where each item of the current row ends in its text
    for _, shared, new in rows:
        cuts.append(ends[shared - 1] if shared else 0)
        del ends[shared:]
        end = ends[-1] + 1 if ends else 0
        for text in new:
            end += len(text)
            ends.append(end)
            end += 1
        if ends and ends[-1] > width:
            width = ends[-1]
    lines = ["%-*s | %s" % (width, "Stack", "Clause")]
    text = ""
    for (label, shared, new), cut in zip(rows, cuts):
        text = " ".join([text[:cut]] + new if shared else new)
        lines.append("%-*s | %s" % (width, text, "" if label is None else label))
    lines.append("")  # the join then ends with a newline, with no extra copy
    return "\n".join(lines)


def trace_records(automaton: Automaton, trace: Trace) -> list:
    """Structured trace: one record per display row."""
    records = []
    texts = []
    for label, shared, new in _row_changes(automaton, trace):
        texts = texts[:shared] + new
        records.append({"clause": label, "stack": texts})
    return records
