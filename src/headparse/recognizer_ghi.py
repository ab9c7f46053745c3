"""Generalized head-inward recognizer over tree right-hand sides.

Stack symbols carry sets of trees and rules, selected and refined by
closure/goto operations in the style of LR state construction: `closure`
adds every rule whose left-hand side labels the root of something already
in the set, `goto` selects by root symbol, `gotoleft`/`gotoright` select
by structural equality of a subtree.  Trees play the role of kernel items,
rules the role of nonkernel items.

Four item shapes track how much of the selected trees has been found,
over an outer window and an inner recognized span:

  * full      [i, k, Q, m, j] - only the root, over (k, m]
  * rightopen [k, Q, m, j]    - left subtree and root, right still open
  * leftopen  [i, k, Q, m]    - root and right subtree, left still open
  * done      [k, t, m]       - a single tree or rule, completely derived

No two shapes compare equal as plain tuples: they differ in arity, and
the two four-field shapes hold their set at different indexes.
"""

from __future__ import annotations

from functools import cache, partial
from typing import NamedTuple, Optional, Union

from .engine import Automaton, Clause, positions
from .grammar import fresh_markers
from .transform import (GenHeadGrammar, GenHeadRule, Tree, bracket_symbol,
                        tree_to_text)

TreeOrRule = Union[Tree, GenHeadRule]


class FullItem(NamedTuple):
    i: int
    k: int
    q: frozenset
    m: int
    j: int


class RightOpenItem(NamedTuple):
    k: int
    q: frozenset
    m: int
    j: int


class LeftOpenItem(NamedTuple):
    i: int
    k: int
    q: frozenset
    m: int


class DoneItem(NamedTuple):
    k: int
    t: TreeOrRule
    m: int


# clauses build items without the NamedTuple constructor's argument
# handling, as `recognizers_basic` does
_new = tuple.__new__


class YldInconsistencyError(RuntimeError):
    """Two elements of one item disagree about its derived contribution;
    only an engine bug can produce such an item."""


def _tree_of(element: TreeOrRule) -> Tree:
    return element.rhs if isinstance(element, GenHeadRule) else element


def closure(g: GenHeadGrammar, q) -> frozenset:
    """Least superset of `q` also containing every rule of the grammar
    whose left-hand side labels the root of a member (or of a member
    rule's right-hand side)."""
    out = set(q)
    work = list(out)
    seen_roots = set()
    while work:
        element = work.pop()
        root = _tree_of(element).root
        if root in seen_roots:
            continue
        seen_roots.add(root)
        for rid in g.rules_by_lhs.get(root, ()):
            rule = g.rules[rid]
            if rule not in out:
                out.add(rule)
                work.append(rule)
    return frozenset(out)


def goto(q, x: str) -> frozenset:
    """Members of `q` whose main head (root symbol) is `x`."""
    return frozenset(e for e in q if _tree_of(e).root == x)


def gotoleft(q, subtree: Optional[Tree]) -> frozenset:
    """Members of `q` whose left subtree equals `subtree` structurally
    (None selects members with no left subtree)."""
    return frozenset(e for e in q if _tree_of(e).left == subtree)


def gotoright(q, subtree: Optional[Tree]) -> frozenset:
    return frozenset(e for e in q if _tree_of(e).right == subtree)


def left_set(g: GenHeadGrammar, q) -> frozenset:
    """Closure of the left subtrees of `q`: what to look for when setting
    out to recognize the left parts."""
    return closure(g, {_tree_of(e).left for e in q if _tree_of(e).left is not None})


def right_set(g: GenHeadGrammar, q) -> frozenset:
    return closure(g, {_tree_of(e).right for e in q if _tree_of(e).right is not None})


def _render_element(element):
    if isinstance(element, GenHeadRule):
        return "%s -> %s" % (element.lhs, tree_to_text(element.rhs))
    return tree_to_text(element)


def yld(item) -> tuple:
    """Sentential-form contribution of a reachable item, over the symbols
    of the flattened grammar (pending subtrees as bracket nonterminals).

    All elements of an item agree on the result; disagreement raises
    `YldInconsistencyError` since it would mean the item is not reachable.
    """
    elements = (item.t,) if type(item) is DoneItem else item.q
    if not elements:
        raise YldInconsistencyError("empty item")

    def contribution(element):
        t = _tree_of(element)
        if type(item) is FullItem:
            return (t.root,)
        if type(item) is RightOpenItem:
            left = () if t.left is None else (bracket_symbol(t.left),)
            return left + (t.root,)
        if type(item) is LeftOpenItem:
            right = () if t.right is None else (bracket_symbol(t.right),)
            return (t.root,) + right
        left = () if t.left is None else (bracket_symbol(t.left),)
        right = () if t.right is None else (bracket_symbol(t.right),)
        return left + (t.root,) + right

    results = {contribution(e) for e in elements}
    if len(results) != 1:
        raise YldInconsistencyError(
            "elements disagree: %s" % ", ".join(sorted(map(str, results))))
    return results.pop()


def build_ghi(g: GenHeadGrammar) -> Automaton:
    start_prime, bottom = fresh_markers(g.symbols)
    nts = g.nonterminals
    start_rule = GenHeadRule(start_prime, Tree(bottom, None, Tree(g.start)))

    rule_order = {r: idx for idx, r in enumerate(g.rules)}
    rule_order[start_rule] = -1

    def sort_key(element):
        if isinstance(element, GenHeadRule):
            return (1, rule_order.get(element, len(rule_order)), "")
        return (0, 0, tree_to_text(element))

    # The sets reachable on one grammar are few and recur, so each set
    # operation is computed once per argument, and so is what a clause reads
    # of one: lazy LR table construction, shared by the clauses of every
    # shape and side.  Display order and text are memoised the same way.
    side_set = {True: cache(partial(right_set, g)), False: cache(partial(left_set, g))}
    render_element = cache(_render_element)

    @cache
    def ordered(q):
        return tuple(sorted(q, key=sort_key))

    @cache
    def heads(q, rightward):
        """The terminals heading a member of the side's set of `q`."""
        return frozenset(_tree_of(e).root for e in side_set[rightward](q)) - nts

    @cache
    def headed(q, symbol, rightward):
        """The members of the side's set of `q` whose root is `symbol`."""
        return goto(side_set[rightward](q), symbol)

    @cache
    def selected(q, subtree, shape, rightward):
        """The states of the items an item of `shape` in state `q` becomes
        once its members with `subtree` on one side (None: no subtree) have
        it found: a full item stays one item, left open on the other side
        only; a half-open item is done, one item per member."""
        q2 = (gotoright if rightward else gotoleft)(q, subtree)
        if not q2:
            return ()
        return (q2,) if shape is FullItem else ordered(q2)

    def make_init(n):
        return RightOpenItem(-1, frozenset((start_rule,)), 0, n)

    def make_fin(n):
        return DoneItem(-1, start_rule, n)

    def make(item, rightward, edge, state):
        """The item `item` becomes in `state` with the subtree on one side
        found, ending at `edge`."""
        if type(item) is FullItem:
            if rightward:
                return _new(LeftOpenItem, (item.i, item.k, state, edge))
            return _new(RightOpenItem, (edge, state, item.m, item.j))
        return _new(DoneItem, (item.k, state, edge) if rightward else (edge, state, item.m))

    # -- 1a..1d: empty-subtree conversions ---------------------------------

    def empty_side(label, shape, rightward):
        def matcher(stack, tokens):
            top = stack[-1]
            if type(top) is not shape:
                return
            edge = top.m if rightward else top.k
            for state in selected(top.q, None, shape, rightward):
                yield 1, make(top, rightward, edge, state), None
        return Clause(label, matcher)

    # -- 2/3: head scans into a pending subtree window ----------------------

    def scan(label, shape, rightward):
        def matcher(stack, tokens):
            top = stack[-1]
            if type(top) is not shape:
                return
            q = top.q
            lo, hi = (top.m, top.j) if rightward else (top.i, top.k)
            for p in positions(tokens, heads(q, rightward), lo, hi):
                # a head heads a member, so the selection is not empty
                yield 0, _new(FullItem, (lo, p - 1, headed(q, tokens[p - 1], rightward), p, hi)), p
        return Clause(label, matcher)

    # A done top plans all four of its attachments, and each tests the
    # shape of the item below first, so a call over another shape returns
    # () and makes no generator; where one fires it returns a list.

    # -- 4/5: attach a completed subtree -----------------------------------

    def attach_tree(label, shape, rightward):
        def matcher(stack, tokens):
            if len(stack) < 2:
                return ()
            top = stack[-1]
            below = stack[-2]
            if (type(below) is not shape or type(top) is not DoneItem
                    or isinstance(top.t, GenHeadRule)):
                return ()
            if (below.m != top.k) if rightward else (below.k != top.m):
                return ()
            edge = top.m if rightward else top.k
            return [(2, make(below, rightward, edge, state), None)
                    for state in selected(below.q, top.t, shape, rightward)]
        return Clause(label, matcher)

    # -- 6/7: attach a completed rule as a new subtree root -----------------

    def attach_rule(label, shape, rightward):
        def matcher(stack, tokens):
            if len(stack) < 2:
                return ()
            top = stack[-1]
            below = stack[-2]
            if (type(below) is not shape or type(top) is not DoneItem
                    or not isinstance(top.t, GenHeadRule)):
                return ()
            if not (below.m <= top.k if rightward else top.m <= below.k):
                return ()
            q2 = headed(below.q, top.t.lhs, rightward)
            if not q2:
                return ()
            lo, hi = (below.m, below.j) if rightward else (below.i, below.k)
            return [(1, _new(FullItem, (lo, top.k, q2, top.m, hi)), None)]
        return Clause(label, matcher)

    clauses = (
        empty_side("1a", FullItem, True),
        empty_side("1b", FullItem, False),
        empty_side("1c", RightOpenItem, True),
        empty_side("1d", LeftOpenItem, False),
        scan("2a", FullItem, True),
        scan("2b", FullItem, False),
        scan("3a", RightOpenItem, True),
        scan("3b", LeftOpenItem, False),
        attach_tree("4a", FullItem, True),
        attach_tree("4b", FullItem, False),
        attach_tree("5a", RightOpenItem, True),
        attach_tree("5b", LeftOpenItem, False),
        attach_rule("6a", FullItem, True),
        attach_rule("6b", FullItem, False),
        attach_rule("7a", RightOpenItem, True),
        attach_rule("7b", LeftOpenItem, False),
    )

    @cache
    def set_body(q):
        return "{%s}" % ", ".join(map(render_element, ordered(q)))

    def render_item(item):
        """One format per item: element texts are memoised per element, and
        a set's body per set `q`."""
        kind = type(item)
        if kind is DoneItem:
            return "[%d, %s, %d]" % (item.k, render_element(item.t), item.m)
        body = set_body(item.q)
        if kind is FullItem:
            return "[%d, %d, %s, %d, %d]" % (item.i, item.k, body, item.m, item.j)
        if kind is RightOpenItem:
            return "[%d, %s, %d, %d]" % (item.k, body, item.m, item.j)
        return "[%d, %d, %s, %d]" % (item.i, item.k, body, item.m)

    def collapse_rows(steps):
        """Display convention: the two empty-subtree conversions finishing a
        bare tree merge into a single '1a, 1d' row."""
        rows = []
        idx = 0
        while idx < len(steps):
            step = steps[idx]
            if (step.label == "1a" and idx + 1 < len(steps)
                    and steps[idx + 1].label == "1d"
                    and type(steps[idx + 1].item) is DoneItem
                    and not isinstance(steps[idx + 1].item.t, GenHeadRule)):
                rows.append(("1a, 1d", steps[idx:idx + 2]))
                idx += 2
            else:
                rows.append((step.label, (step,)))
                idx += 1
        return rows

    @cache
    def open_plan(shape, q, right, left):
        sides = {FullItem: ((True, right, "1a", "2a"), (False, left, "1b", "2b")),
                 RightOpenItem: ((True, right, "1c", "3a"),),
                 LeftOpenItem: ((False, left, "1d", "3b"),)}[shape]
        empty = [label for rightward, _, label, _ in sides
                 if selected(q, None, shape, rightward)]
        return tuple(empty + [label for rightward, room, _, label in sides
                              if room and heads(q, rightward)]), None

    done_plans = {Tree: ((), (2, ("4a", "4b", "5a", "5b"))),
                  GenHeadRule: ((), (2, ("6a", "6b", "7a", "7b")))}

    def plan(top):
        """Read off the early exits: each matcher takes one type of top.
        1a..1d need a member with no subtree on their side, 2a..3b a
        terminal heading that side's set and input there.  A done item's
        attachments each check the shape of the item below it themselves."""
        shape = type(top)
        if shape is DoneItem:
            return done_plans[type(top.t)]
        return open_plan(shape, top.q, shape is not LeftOpenItem and top.m < top.j,
                         shape is not RightOpenItem and top.i < top.k)

    return Automaton("ghi", clauses, make_init, make_fin, render_item,
                     (len(g.rules) + 1, len(g.nonterminals) + 1),
                     collapse_rows=collapse_rows, plan=plan)
