"""Depth-first execution of nondeterministic stack automata.

An automaton is an initial stack symbol, an accepting stack, and an
ordered list of clauses.  A clause inspects the top of the current stack
(together with the input) and proposes steps in pushdown normal form: pop
some top items, then push one.  Each proposal is one nondeterministic
step.  The engine explores the resulting configuration space depth first,
taking clauses in their listed order and input positions in ascending
order, so runs and traces are reproducible.  Stacks already seen are
pruned: transitions read only the stack, the input, and indexes stored
inside items, so equal stacks have equal futures.  Pruning plus explicit
step/depth bounds turn would-be infinite searches into pruned duplicates
or a resource-limit verdict; they never change a verdict otherwise.

Every clause reads at most the top few items of a stack, its *window*.
As an LR table lists for each state only the actions it can take, the
automaton's `plan(top)` names the clauses that can find a step when `top`
is the top item, in up to two groups: those that read the top alone, and
on a finished top those that read its window.  The others find nothing
there, so the steps of a stack are a function of its top, its window and
the input.  A run keeps them in one *step table*, which interns each item
pushed once, as a *node* that holds the item, its plan and the cells it
tops, and records the first group's steps once per node and the second's
once per window, keyed by its nodes.  A stack takes its node's steps,
then its window's, so every stack with that top and window replays the
same steps in the same order; a step carries the node it pushes and
hashes no item.  A stack whose top has no finished list makes one call
to the table for its steps, which plans the top first if it is fresh.
Steps are recorded as the search pulls them and stored only once all are
pulled, so a search that accepts early never computes steps it does not
take, and the table holds nothing but finished lists.  A stack that
reaches a top or window whose list is not finished yet, which only a
stack above the one recording it can, records its own; so td, whose
goals push equal goals on a head-recursive grammar, runs some matchers
more than once per top or window.  The table lives for one run; it is
the transition relation of the automaton on that input, restricted to
what the search reached.

A stack is one *cell*, (the cell below, the top node, the depth), so
stacks share their lower parts as in Tomita's graph-structured stack
(1986).  Cells are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): each node keeps the cells it tops, keyed by the
identity of the cell below, so equal stacks are one cell, the interned
cells are the visited set, and a step walks `popped` cells down and
pushes one at a cost that does not grow with the depth.  Only a stack of
at most two items is tested for acceptance.

A clause that predicts a head scans a span of the input for tokens that
can start one.  Like an LR parser looking up its action by lookahead, it
asks `positions` for the span's positions whose token lies in a head set
the builder memoises per grammar state, so it visits only those, in
ascending order, and still tests each one itself.  `run` and `replay`
pause Python's cyclic collector for their span: a run allocates only
tuples, dicts and generators that form no cycles, and the collector would
keep scanning them.

Items carry the -1-based input positions used throughout this toolkit
directly (the bottom marker occupies the span (-1, 0]), with no internal
shifting, so printed traces read exactly like the items themselves.

A trace is the steps a run applied, as an LR parser records a parse as
its actions: (clause label, items popped, item pushed), and a stack is
rebuilt by applying them to the initial one.  Each agenda entry holds the
step that made its stack and the input positions its path's scanning
steps consulted, as a bitmask, not on its cell, so sets of different
branches never merge.  The agenda is the depth-first path to its top
stack, so the accepting trace is read off it when a run accepts: the
steps of the entries above the initial one, then the accepting step.  A
run reports the accepting path's set, or else the widest any path reached.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, wraps
from itertools import chain
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

    `matcher(window, tokens)` yields, or returns as a sequence, one
    ``(popped, item, consulted)`` per applicable instance: a step that pops
    the top `popped` items (0 for a push), then pushes `item`; `consulted`
    is the input position a scanning step read, or None.  `window` is the
    top items of the stack that `Automaton.plan` sizes (fewer on a shorter
    stack), and a matcher reads nothing else.  A matcher checks everything
    it needs itself: a clause the plan leaves out finds nothing there, so
    running every clause on the whole stack finds the same steps.

    Steps keep the pushdown contract (Lang 1974): a step reads at most the
    items it pops and the one below them, the top alone for a push, so the
    matcher yields it on the top `popped + 1` items too.  `replay` checks
    each step on that window alone.
    """

    label: str
    matcher: Callable


@dataclass
class Automaton:
    """A stack automaton.  No stack of more than two items accepts: every
    builder accepts on [fin] or on hi's [init, fin'], so `run` and `replay`
    ask the accepting predicate only about stacks of one or two items."""

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
    # `plan(top) -> (alone, window)` names, in `clauses` order, the clauses
    # that can find a step when `top` is the top item: `alone` those that
    # read the top alone, and `window` None or (reach, labels) for those
    # that read the top `reach` items.  Alone clauses come first in
    # `clauses`.  Every builder states its own rule.
    # Labels, not clauses, so a copy with wrapped matchers runs its own.
    plan: Callable = field(kw_only=True)
    _named: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def named(self, labels):
        """The clauses labelled `labels`, in that order, resolved once per
        automaton: a copy made by `dataclasses.replace` starts afresh."""
        clauses = self._named.get(labels)
        if clauses is None:
            by_label = self._named.get(None)
            if by_label is None:
                by_label = self._named[None] = {c.label: c for c in self.clauses}
            clauses = self._named[labels] = tuple(map(by_label.__getitem__, labels))
        return clauses

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


# a run builds its trace's steps without the NamedTuple constructor's
# argument handling, as the recognizers build their items
_new = tuple.__new__


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
    """An iterator over the positions p in (lo, hi] whose token
    `tokens[p - 1]` is in `heads`, in ascending order.

    Each head set's positions are listed once per tokens tuple and cut to
    the span by bisection and one slice, so a clause's scan costs the
    positions in the span, not the span's length.  A sequence other than a
    tuple may change, so its lists last for one call.
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
    return iter(where[bisect_right(where, lo):bisect_right(where, hi)])


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


class _StepTable:
    """A run's step table: node k is the k-th distinct item, `items[k]`,
    node 0 the initial one, and `nodes[items[k]]` is k; `tops[k]` maps the
    identity of the cell below each stack topped by node k to that stack's
    cell; `entries[k]` is its finished steps when it plans no window group,
    else (alone clauses, reach, window clauses) once planned, and None
    until then; `steps` keys the finished steps of such a node by the
    node, and those of a window by its nodes."""

    def __init__(self, automaton, tokens):
        self.plan, self.named, self.tokens = automaton.plan, automaton.named, tokens
        initial = automaton.make_init(len(tokens))
        self.nodes, self.items, self.entries, self.tops = {initial: 0}, [initial], [None], [{}]
        self.steps = {}

    def pull(self, cell):
        """The steps of the stack `cell`, (cell below, top node, depth),
        with its top node planned here if it is fresh, so a fresh node costs
        one call: the node's recording when it plans no window group, else
        its own steps, then its window's, each replayed from the table or
        recorded as they are pulled; None when the table shows it has none."""
        node = cell[1]
        entry = self.entries[node]
        if entry is None:
            alone, window = self.plan(self.items[node])
            if window is None:
                return self.recorded(self.named(alone), node, self.entries)
            reach, labels = window
            entry = self.entries[node] = (self.named(alone), reach, self.named(labels))
        alone, reach, clauses = entry
        steps = self.steps
        if alone:
            found = steps.get(node)
            alone = self.recorded(alone, node, steps) if found is None else found
        key = (node,)
        while len(key) < reach and cell[2] > 1:
            cell = cell[0]
            key = (cell[1],) + key
        found = steps.get(key)
        if found is None:
            found = self.recorded(clauses, key, steps)
        if not alone:
            return found or None
        return chain(alone, found) if found else alone

    def recorded(self, clauses, key, store):
        """The steps `clauses` find on the items of `key`, a node or a tuple
        of nodes, each with its item's node, a new one for an item not seen
        before, and its consulted position as a bit, yielded as pulled and
        stored as `store[key]` once all are."""
        items, nodes, tokens = self.items, self.nodes, self.tokens
        entries, tops = self.entries, self.tops
        window = (items[key],) if type(key) is int else tuple(map(items.__getitem__, key))
        steps = []
        for clause in clauses:
            label = clause.label
            for popped, item, consulted in clause.matcher(window, tokens):
                node = nodes.get(item)
                if node is None:
                    node = nodes[item] = len(items)
                    items.append(item)
                    entries.append(None)
                    tops.append({})
                step = (label, popped, node, 0 if consulted is None else 1 << consulted)
                steps.append(step)
                yield step
        store[key] = steps


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
    table = _StepTable(automaton, tokens)
    pull, items, entries, tops = table.pull, table.items, table.entries, table.tops

    # a stack is a cell (cell below, top node, depth), and `tops` is the
    # visited set: a trace follows the first path to reach its stack
    initial = (items[0],)
    bottom = (None, None, 0)
    start = (bottom, 0, 1)
    tops[0][id(bottom)] = start

    explored = 1
    applications = 0
    deepest = 1
    duplicates = 0
    limit_kind = None
    accepted = accepting(initial)
    path = []  # the accepting stack's steps, once found
    accept_consulted = 0
    # widest consulted set by (len, sorted), so it does not depend on search
    # order: keys that compare equal belong to equal sets, and of two masks
    # of one size the one lacking their lowest differing bit sorts higher
    widest = 0

    # agenda entries: (stack, consulted set, its steps, the step that made
    # the stack from the one below, None for the start); the top entry's
    # steps are walked until one makes a new stack with steps of its own,
    # which goes on top, so the agenda is the path to its top stack; a run
    # that accepts its initial stack and need not go on has nothing to do
    agenda = [] if accepted and not exhaustive else [
        (start, 0, iter(pull(start) or ()), None)]
    while agenda:
        stack, base, successors, _ = agenda[-1]
        for step in successors:
            if applications >= max_steps:
                limit_kind = "steps"
                agenda.clear()
                break
            applications += 1
            _, popped, node, bit = step
            cell = stack
            while popped:
                cell = cell[0]
                popped -= 1
            depth = cell[2] + 1
            if depth > max_depth:
                limit_kind = "depth"
                continue
            below = id(cell)
            stacks = tops[node]
            if below in stacks:
                duplicates += 1
                continue
            cell = stacks[below] = (cell, node, depth)
            explored += 1
            consulted = base | bit
            if consulted != base:
                size, wide = consulted.bit_count(), widest.bit_count()
                differ = consulted ^ widest
                if size > wide or (size == wide and differ & -differ & widest):
                    widest = consulted
            if depth > deepest:
                deepest = depth
            if not accepted and depth <= 2 and accepting(
                    (items[node],) if depth == 1 else (items[cell[0][1]], items[node])):
                accepted = True
                path = [entry[3] for entry in agenda[1:]]
                path.append(step)
                accept_consulted = consulted
                if not exhaustive:
                    agenda.clear()
                    break
            found = entries[node]
            if type(found) is not list:
                found = pull(cell)
            if found:
                agenda.append((cell, consulted, iter(found), step))
                break
        else:
            agenda.pop()

    trace = None
    if accepted:
        verdict = Verdict.ACCEPT
        final_consulted = accept_consulted
        trace = Trace(initial, tuple([_new(TraceStep, (label, popped, items[node]))
                                      for label, popped, node, _ in path]))
    else:
        verdict = Verdict.REJECT if limit_kind is None else Verdict.RESOURCE_LIMIT
        final_consulted = widest
    stats = RunStats(
        configurations_explored=explored,
        clause_applications=applications,
        max_stack_depth=deepest,
        consulted_positions=_positions_of(final_consulted),
        duplicates_pruned=duplicates,
        limit_hit=limit_kind is not None,
        limit_kind=limit_kind,
    )
    return RunResult(verdict, stats, trace)


def _positions_of(mask):
    """The positions of the set bits of `mask`."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def accepting_trace(result: RunResult) -> Trace:
    if result.verdict is not Verdict.ACCEPT or result.accepting_trace is None:
        raise EngineError("no accepting trace: verdict was %s" % result.verdict.value)
    return result.accepting_trace


@_collector_paused
def replay(automaton: Automaton, tokens, trace: Trace) -> bool:
    """Re-derive every trace step from the initial stack.

    True when the clause each step names yields exactly its (popped, item)
    on the top `popped + 1` items of the stack so far, all that `Clause`
    lets the step read, and the stack the steps end on is accepting: at
    most two items, as `run` asks.
    """
    tokens = tuple(tokens)
    n = len(tokens)
    if trace.initial != (automaton.make_init(n),):
        return False
    matchers = {clause.label: clause.matcher for clause in automaton.clauses}
    cur = list(trace.initial)
    for label, popped, item in trace.steps:
        matcher = matchers.get(label)
        if matcher is None:
            return False
        for found, pushed, _ in matcher(tuple(cur[-1 - popped:]), tokens):
            if found == popped and pushed == item:
                break
        else:
            return False
        del cur[len(cur) - popped:]
        cur.append(item)
    return len(cur) <= 2 and automaton.accepting_predicate(n)(tuple(cur))


def _row_changes(automaton: Automaton, trace: Trace):
    """(label, shared, new texts) per display row, the initial stack first
    with label None: the row's stack keeps the first `shared` items of the
    row before it, the smallest depth its steps pop down to, and `new
    texts`, a list of its own, renders the items above them.

    The pass tracks depths, not items: a row's steps each pop down to a
    depth and push one item, so the items above `shared` are the ones its
    steps pushed that no later step of the row popped.  Each item is
    rendered once, as the initial stack or its step is read, with no memo.
    Without a row-merging convention each row is one step, which keeps
    what it did not pop and shows the item it pushed.
    """
    text = automaton.render_item
    depth = len(trace.initial)
    yield None, 0, list(map(text, trace.initial))
    if automaton.collapse_rows is None:
        for label, popped, item in trace.steps:
            depth -= popped
            yield label, depth, [text(item)]
            depth += 1
        return
    for label, steps in automaton.collapse_rows(trace.steps):
        shared = depth
        new = []  # the texts of the items at depths shared .. depth - 1
        for step in steps:
            depth -= step.popped
            if depth < shared:
                shared = depth
                new = []
            else:
                del new[depth - shared:]
            new.append(text(step.item))
            depth += 1
        yield label, shared, new


# item texts per shared block string of a trace table's rope
BLOCK = 16
# most rows' pads differ, so a pad is memoised in two parts, pad & PAD_LOW
# and the rest: a trace w wide has at most PAD_LOW + 1 + w / (PAD_LOW + 1)
PAD_LOW = 63


def render_trace_text(automaton: Automaton, trace: Trace) -> str:
    """The trace as a two-column table, one stack per row.

    The table is built as a rope: one list of parts, joined once.  A first
    pass takes the column width from the item texts' lengths, each text
    after a row's first with its leading space.  Then a row adds its
    stack's texts, its padding and its ` | label` tail.  Each run of
    `BLOCK` texts, counted from the bottom of the stack, is joined into one
    string once the run is complete, and every later row that keeps those
    items shares that string, so a row adds O(BLOCK + depth / BLOCK)
    parts.  The padding is power-of-two blocks of spaces, listed once per
    pad width's low and high part, and the tail is made once per label.
    So a row costs O(1) Python-level work plus its share of the text,
    which exists once, as the join: on the 24 deep benchmark traces
    (7,892 rows, 23.9M characters) about 3 µs of Python work per row,
    0.8 µs of it `render_item`, against about 5 ms for the join (2-core
    VM, Python 3.11.7).
    """
    rows = []
    ends = [0]  # ends[d]: where the row's first d items end in its text
    for label, shared, new in _row_changes(automaton, trace):
        del ends[shared + 1:]
        end = ends[-1]
        for at, text in enumerate(new):
            if shared or at:
                new[at] = text = " " + text
            end += len(text)
            ends.append(end)
        rows.append((label, shared, new, end))
    width = max(len("Stack"), *(end for *_, end in rows))
    blocks = [" " * (1 << bit) for bit in range(width.bit_length())]
    pads = cache(lambda pad: [block for bit, block in enumerate(blocks) if pad >> bit & 1])
    tails = cache(lambda label: " | %s\n" % ("" if label is None else label))
    parts = ["%-*s | %s\n" % (width, "Stack", "Clause")]
    stack = []  # the row's item texts
    joined = []  # joined[j]: the join of stack[j * BLOCK:(j + 1) * BLOCK]
    for label, shared, new, end in rows:
        del stack[shared:]
        del joined[shared // BLOCK:]
        stack += new
        done = len(joined) * BLOCK
        while done + BLOCK <= len(stack):
            joined.append("".join(stack[done:done + BLOCK]))
            done += BLOCK
        parts += joined
        parts += stack[done:]
        pad = width - end
        parts += pads(pad & PAD_LOW)
        parts += pads(pad & ~PAD_LOW)
        parts.append(tails(label))
    return "".join(parts)


def trace_records(automaton: Automaton, trace: Trace) -> list:
    """Structured trace: one record per display row, each with a list of
    its own: the previous row's texts cut to what the row keeps, extended
    by its new ones."""
    records = []
    texts = []
    for label, shared, new in _row_changes(automaton, trace):
        texts = texts[:shared]
        texts += new
        records.append({"clause": label, "stack": texts})
    return records
