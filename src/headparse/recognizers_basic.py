"""Clause sets for the four flat head-grammar recognizers.

All four run one clause schema: the head of a rule is recognized first,
then the neighbouring members are attached, rightward and leftward.
1a/1b predict a head terminal next to the recognized stretch, 2a/2b scan
a terminal there, 3a/3b let a finished item climb to the head of a rule
for the nonterminal the item below has pending, and 4a/4b attach it as
that member.  The recognizers differ only in what an item's state
records, and so in the per-state tables their builders hand the clauses:

  * `build_td`   - top-down: explicit goal items drive prediction, in its
                   own clauses 0, 0a/0b, 1 and 3; items are double-dotted
                   rules.
  * `build_hc`   - head-corner: prediction compiled into the head-corner
                   relation; items and most tables are td's.
  * `build_phi`  - predictive head-inward: items carry only the recognized
                   infix, so rules of one nonterminal sharing an infix are
                   processed together.
  * `build_ehi`  - extended head-inward: like PHI but with a set of
                   left-hand sides, sharing infixes across nonterminals.

PHI and EHI share one builder and one item type, `SetInfix`: PHI is EHI
with every set of left-hand sides split into single-member sets.

Every item but td's goals is laid out `(i, k, *state, m, j)`, so
`item[2:-2]` is the state the tables are keyed by: a dotted rule's
`(rule, ld, rd)` or an infix's `(delta, gamma)`.  Each clause is written
once, as a factory over the item type and the tables, and an "a" clause
and its mirrored "b" twin, working on the left, come from one factory
parameterised by direction, so no two copies can drift apart.  Index
equalities that hold automatically for reachable stacks (e.g. that a
completed subitem's window agrees with its parent's) are asserted rather
than assumed.

Items live on spans of the input extended with the bottom marker at
position 0: an item's outer span (i, j] bounds where material may still
appear, its inner span (k, m] is what has been recognized already.
"""

from __future__ import annotations

from functools import cache, partial
from typing import NamedTuple

from .engine import Automaton, Clause, positions
from .grammar import FULL, AugmentedGrammar, head_corner


class Goal(NamedTuple):
    """Top-down subgoal: some derivation from `sym` inside (i, j] is needed."""
    i: int
    sym: str
    j: int


class Dotted(NamedTuple):
    """Double-dotted rule occurrence: rhs[ld:rd] derives (k, m]."""
    i: int
    k: int
    rule: int
    ld: int
    rd: int
    m: int
    j: int


class SetInfix(NamedTuple):
    """PHI/EHI item: every member of `delta` has a rule with infix `gamma`.
    PHI items have exactly one member."""
    i: int
    k: int
    delta: frozenset
    gamma: tuple
    m: int
    j: int


# clauses build items as `_new(Cls, fields)`: the tuple the NamedTuple
# constructor makes, without its argument handling (about 300 ns against
# 470 ns a `Dotted`); a test checks the pushed items' field counts instead
_new = tuple.__new__


# ---------------------------------------------------------------- rendering

def _dotted_text(aug, rule, ld, rd):
    r = aug.rules[rule]
    parts = list(r.rhs[:ld]) + ["•"] + list(r.rhs[ld:rd]) + ["•"] + list(r.rhs[rd:])
    return "%s -> %s" % (r.lhs, " ".join(parts))


def _render_td(aug):
    """td and hc items; the dotted rule's text is memoised per (rule, ld,
    rd), so an item costs one format."""
    dotted = cache(partial(_dotted_text, aug))

    def render(item):
        if type(item) is Goal:
            return "[%d, %s, %d]" % (item.i, item.sym, item.j)
        return "[%d, %d, %s, %d, %d]" % (
            item.i, item.k, dotted(item.rule, item.ld, item.rd), item.m, item.j)
    return render


# phi and ehi items render in one format over the item's own infix, with
# no per-state memo

def _render_infix(item):
    (lhs,) = item.delta
    return "[%d, %d, %s -> %s, %d, %d]" % (
        item.i, item.k, lhs, " ".join(item.gamma), item.m, item.j)


def _render_set_infix(item):
    return "[%d, %d, {%s} -> %s, %d, %d]" % (
        item.i, item.k, ",".join(sorted(item.delta)), " ".join(item.gamma),
        item.m, item.j)


# ------------------------------------------------------------ the clause set
#
# A clause reads an item's positions itself and its state only through the
# builder's tables, each worked out once per state (and token):
#   predicted(state, rightward)     (targets, heads) the item may extend
#       its stretch with there, or None when no head terminal starts one
#   fresh(targets, a)               the states the head terminal `a` starts
#   scanned(state, a, rightward)    the state over the token `a`, or None
#   climbs(top, below, rightward)   the states a finished top climbs to
#       under the item below, or None
#   attaches(top, below, rightward) the states the item below becomes
#   scans(state, rightward)         whether a terminal is pending there
#   done(state)                     whether the state is finished

def _predict(item, predicted, fresh, rightward):
    """Clause 1a/1b: push the items each head terminal in the top's outer
    span, on this side of its recognized stretch, starts."""
    def matcher(stack, tokens):
        top = stack[-1]
        found = predicted(top[2:-2], rightward)
        if found is None:
            return
        targets, heads = found
        lo, hi = (top.m, top.j) if rightward else (top.i, top.k)
        for p in positions(tokens, heads, lo, hi):
            for state in fresh(targets, tokens[p - 1]):
                yield 0, _new(item, (lo, p - 1, *state, p, hi)), p
    return matcher


def _scan(item, scanned, rightward):
    """Clause 2a/2b: extend the recognized stretch over an adjacent
    terminal."""
    def matcher(stack, tokens):
        top = stack[-1]
        if type(top) is not item:
            return
        i, k, m, j = top.i, top.k, top.m, top.j
        if rightward:
            if m < j:
                state = scanned(top[2:-2], tokens[m], True)
                if state is not None:
                    yield 1, _new(item, (i, k, *state, m + 1, j)), m + 1
        elif i < k:
            state = scanned(top[2:-2], tokens[k - 1], False)
            if state is not None:
                yield 1, _new(item, (i, k - 1, *state, m, j)), k
    return matcher


def _attach_head(item, climbs, rightward):
    """Clause 3a/3b: a finished top becomes the head of a rule for a
    nonterminal the item below it has pending on this side."""
    def matcher(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        pushes = climbs(top[2:-2], below[2:-2], rightward)
        if pushes is None:
            return
        if rightward:
            if below.m != top.i:
                return
            assert below.j == top.j
        else:
            if below.k != top.j:
                return
            assert below.i == top.i
        for state in pushes:
            yield 1, _new(item, (top.i, top.k, *state, top.m, top.j)), None
    return matcher


def _attach_member(item, attaches, rightward):
    """Clause 4a/4b: a finished top directly above an item becomes the
    member it has pending next to its recognized stretch."""
    def matcher(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        if type(top) is not item or type(below) is not item:
            return
        i, k, m, j = below.i, below.k, below.m, below.j
        if rightward:
            if m != top.k:
                return
            for state in attaches(top[2:-2], below[2:-2], True):
                assert m == top.i and j == top.j
                yield 2, _new(item, (i, k, *state, top.m, j)), None
        else:
            if k != top.m:
                return
            for state in attaches(top[2:-2], below[2:-2], False):
                assert k == top.j and i == top.i
                yield 2, _new(item, (i, top.k, *state, m, j)), None
    return matcher


def _plan(predicts, finished, predicted, scans, done):
    """`Automaton.plan` for a top laid out (i, k, *state, m, j), per state
    and sides with input left, read off the tables: on such a side the
    clause in `predicts` needs something `predicted`, and 2a/2b a terminal
    to scan.  Only on a finished state can `finished` (attaching a head or
    a member) fire, reading the item below it."""
    window = (2, finished)

    @cache
    def plan_of(state, right, left):
        sides = ((True, right), (False, left))
        alone = tuple(label for label, (rightward, room) in zip(predicts, sides)
                      if room and predicted(state, rightward) is not None)
        alone += tuple(label for label, (rightward, room) in zip(("2a", "2b"), sides)
                       if room and scans(state, rightward))
        return alone, window if done(state) else None

    def plan(top):
        return plan_of(top[2:-2], top.m < top.j, top.i < top.k)
    return plan


def _clause_set(item, predicted, fresh, scanned, climbs, attaches, scans, done):
    """Clauses 1a..4b over `item`s and their plan, from a builder's tables."""
    clauses = (
        Clause("1a", _predict(item, predicted, fresh, True)),
        Clause("1b", _predict(item, predicted, fresh, False)),
        Clause("2a", _scan(item, scanned, True)),
        Clause("2b", _scan(item, scanned, False)),
        Clause("3a", _attach_head(item, climbs, True)),
        Clause("3b", _attach_head(item, climbs, False)),
        Clause("4a", _attach_member(item, attaches, True)),
        Clause("4b", _attach_member(item, attaches, False)),
    )
    return clauses, _plan(("1a", "1b"), ("3a", "3b", "4a", "4b"), predicted, scans, done)


# ------------------------------------------------------------ dotted tables

def _head_states(aug, rids):
    """The dotted states (rule, ld, rd) of the rules `rids` with only their
    head recognized."""
    return tuple((rid, aug.rules[rid].head, aug.rules[rid].head + 1) for rid in rids)


def _gated(aug, rids, pairs, targets):
    """The head states of the rules `rids` whose left-hand side is a head
    corner, by `pairs`, of one of `targets`."""
    return _head_states(aug, [rid for rid in rids
                              if any((aug.rules[rid].lhs, b) in pairs for b in targets)])


def _next_to(aug, state, rightward):
    """The member of the dotted state's rule next to the recognized stretch
    on this side, or None."""
    rule, ld, rd = state
    rhs = aug.rules[rule].rhs
    if rightward:
        return rhs[rd] if rd < len(rhs) else None
    return rhs[ld - 1] if ld > 0 else None


def _moved(state, rightward):
    """The dotted state with the recognized stretch one member wider."""
    rule, ld, rd = state
    return (rule, ld, rd + 1) if rightward else (rule, ld - 1, rd)


def _finished(aug, state):
    """The left-hand side of the dotted state's rule when all of it is
    recognized, else None."""
    rule, ld, rd = state
    r = aug.rules[rule]
    return r.lhs if ld == 0 and rd == len(r.rhs) else None


def _dotted_tables(aug):
    """td's and hc's tables over dotted states (rule, ld, rd): `pending`
    gives the nonterminal pending on a side, and `done` a finished rule's
    left-hand side, each None where there is none."""
    nts = aug.nonterminals
    next_to = partial(_next_to, aug)
    done = cache(partial(_finished, aug))

    @cache
    def pending(state, rightward):
        sym = next_to(state, rightward)
        return sym if sym in nts else None

    @cache
    def scanned(state, a, rightward):
        if a in nts or next_to(state, rightward) != a:
            return None
        return _moved(state, rightward)

    @cache
    def attaches(top, below, rightward):
        lhs = done(top)
        if lhs is None or pending(below, rightward) != lhs:
            return ()
        return (_moved(below, rightward),)

    def scans(state, rightward):
        sym = next_to(state, rightward)
        return sym is not None and sym not in nts

    return pending, scanned, attaches, scans, done


def _dotted_ends(aug):
    """td's and hc's `make_init` and `make_fin`: the start rule with only
    the bottom marker recognized, and finished."""
    rule = aug.start_rule_id
    return (lambda n: Dotted(-1, -1, rule, 0, 1, 0, n),
            lambda n: Dotted(-1, -1, rule, 0, 2, n, n))


# ------------------------------------------------------------------ TD

def build_td(aug: AugmentedGrammar) -> Automaton:
    """Head-driven top-down recognizer (goal items plus dotted items)."""
    nts = aug.nonterminals
    pending, scanned, attaches, scans, done = _dotted_tables(aug)
    nt_heads_by_lhs = {}
    t_heads_by_lhs = {}
    for rid, r in enumerate(aug.rules):
        h = r.rhs[r.head]
        target = nt_heads_by_lhs if h in nts else t_heads_by_lhs
        target.setdefault(r.lhs, []).append((rid, h))
    # goal symbol -> the terminals that head one of its rules
    t_head_set = {b: frozenset(h for _, h in candidates)
                  for b, candidates in t_heads_by_lhs.items()}

    @cache
    def subgoals(sym):
        """The distinct nonterminal heads of `sym`'s rules, in rule order."""
        return tuple(dict.fromkeys(b for _, b in nt_heads_by_lhs.get(sym, ())))

    @cache
    def heads(sym, a):
        """The head states of `sym`'s rules headed by `a`."""
        return _head_states(aug, [rid for rid, h in t_heads_by_lhs[sym] if h == a])

    @cache
    def climbs(sym, b):
        """The head states of `sym`'s rules headed by the nonterminal `b`."""
        return _head_states(aug, [rid for rid, h in nt_heads_by_lhs.get(sym, ()) if h == b])

    def clause_0(stack, tokens):
        top = stack[-1]
        if type(top) is not Goal:
            return
        for b in subgoals(top.sym):
            yield 0, _new(Goal, (top.i, b, top.j)), None

    def predict_side(rightward):
        def matcher(stack, tokens):
            top = stack[-1]
            if type(top) is not Dotted:
                return
            sym = pending(top[2:-2], rightward)
            if sym is None:
                return
            if rightward:
                if top.m < top.j:
                    yield 0, _new(Goal, (top.m, sym, top.j)), None
            elif top.i < top.k:
                yield 0, _new(Goal, (top.i, sym, top.k)), None
        return matcher

    def clause_1(stack, tokens):
        top = stack[-1]
        if type(top) is not Goal:
            return
        i, sym, j = top
        found = t_head_set.get(sym)
        if found is None:
            return
        for k in positions(tokens, found, i, j):
            for rid, ld, rd in heads(sym, tokens[k - 1]):
                yield 1, _new(Dotted, (i, k - 1, rid, ld, rd, k, j)), k

    def clause_3(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        if type(top) is not Dotted or type(below) is not Goal:
            return
        b = done(top[2:-2])
        if b is None:
            return
        assert below.i == top.i and below.j == top.j
        for rid, ld, rd in climbs(below.sym, b):
            yield 2, _new(Dotted, (below.i, top.k, rid, ld, rd, top.m, below.j)), None

    clauses = (
        Clause("0", clause_0),
        Clause("0a", predict_side(True)),
        Clause("0b", predict_side(False)),
        Clause("1", clause_1),
        Clause("2a", _scan(Dotted, scanned, True)),
        Clause("2b", _scan(Dotted, scanned, False)),
        Clause("3", clause_3),
        Clause("4a", _attach_member(Dotted, attaches, True)),
        Clause("4b", _attach_member(Dotted, attaches, False)),
    )
    # 0a/0b need only a pending nonterminal: a goal predicts its own heads
    dotted_plan = _plan(("0a", "0b"), ("3", "4a", "4b"), pending, scans, done)

    goal_plans = {(b, room): (("0",) * (b in nt_heads_by_lhs)
                              + ("1",) * (room and b in t_heads_by_lhs), None)
                  for b in nts for room in (False, True)}

    def plan(top):
        """0 and 1 exit on all but a goal, 0a..4b on all but a dotted rule.
        0 needs a rule of the goal's symbol with a nonterminal head, and 1
        one with a terminal head and input left in the goal's span."""
        if type(top) is Goal:
            return goal_plans[top.sym, top.i < top.j]
        return dotted_plan(top)

    return Automaton("td", clauses, *_dotted_ends(aug), _render_td(aug),
                     (len(aug.rules), len(nts)), plan=plan)


# ------------------------------------------------------------------ HC

def build_hc(aug: AugmentedGrammar) -> Automaton:
    """Head-corner recognizer: prediction gated by the head-corner relation."""
    pairs = head_corner(aug, FULL)
    t_heads = aug.rules_with_terminal_head
    nt_heads = aug.rules_with_nonterminal_head
    pending, scanned, attaches, scans, done = _dotted_tables(aug)

    @cache
    def fresh(b, a):
        """The head states of the rules headed by `a` whose left-hand side
        is a head corner of `b`."""
        return _gated(aug, t_heads.get(a, ()), pairs, (b,))

    @cache
    def heads_for(b):
        """The terminals whose head states for `b` are not empty."""
        return frozenset(a for a in t_heads if fresh(b, a))

    @cache
    def predicted(state, rightward):
        """The nonterminal pending on this side and its heads, or None."""
        b = pending(state, rightward)
        heads = () if b is None else heads_for(b)
        return (b, heads) if heads else None

    @cache
    def climbs(top, below, rightward):
        """The head states of the rules headed by what a top in state `top`
        finishes whose left-hand side is a head corner of the nonterminal
        the item below, in state `below`, has pending on this side; None
        when the top is not finished or nothing is pending."""
        b = done(top)
        wanted = pending(below, rightward)
        if b is None or wanted is None:
            return None
        return _gated(aug, nt_heads.get(b, ()), pairs, (wanted,))

    clauses, plan = _clause_set(Dotted, predicted, fresh, scanned, climbs,
                                attaches, scans, done)
    return Automaton("hc", clauses, *_dotted_ends(aug), _render_td(aug),
                     (len(aug.rules), len(aug.nonterminals)), plan=plan)


# ------------------------------------------------------------------ infix index

class InfixIndex:
    """Occurrence index of head-containing infixes, unioned over all rules
    and positions: `after` and `before` map (left-hand side, infix) to the
    symbols next to the infix on the right and on the left in some rule of
    that left-hand side, and `complete` maps an infix to the left-hand
    sides that have it as a whole right-hand side.
    """

    def __init__(self, aug: AugmentedGrammar):
        after, before, complete = {}, {}, {}
        for r in aug.rules:
            rhs = r.rhs
            size = len(rhs)
            for s in range(0, r.head + 1):
                for e in range(r.head + 1, size + 1):
                    gamma = rhs[s:e]
                    if e < size:
                        after.setdefault((r.lhs, gamma), set()).add(rhs[e])
                    if s > 0:
                        before.setdefault((r.lhs, gamma), set()).add(rhs[s - 1])
                    if s == 0 and e == size:
                        complete.setdefault(gamma, set()).add(r.lhs)
        self.after, self.before, self.complete = (
            {k: frozenset(v) for k, v in table.items()}
            for table in (after, before, complete))


def _distinct_lhs(rule_map, aug):
    """head symbol -> left-hand sides of its rules, in first-rule order."""
    return {sym: tuple(dict.fromkeys(aug.rules[rid].lhs for rid in rids))
            for sym, rids in rule_map.items()}


# ------------------------------------------------------------- PHI and EHI

def _build_infix(aug, name, merge_lhs):
    """Infix recognizer over `SetInfix` items, whose state is (delta,
    gamma).  Each step computes the left-hand sides that survive it; EHI
    keeps them as one item, PHI splits them into one single-member item
    each, in the same order."""
    pairs = head_corner(aug, FULL)
    nts = aug.nonterminals
    index = InfixIndex(aug)
    term_lhs = _distinct_lhs(aug.rules_with_terminal_head, aug)
    nt_lhs = _distinct_lhs(aug.rules_with_nonterminal_head, aug)
    # PHI's one-member sets, built once and shared by every item
    single = {a: frozenset((a,)) for a in nts | {aug.start_prime}}

    def deltas(lhss, targets):
        """The left-hand sides in `lhss` that are a head corner of one of
        `targets`, as EHI's one set or PHI's one-member sets."""
        survivors = [c for c in lhss if any((c, b) in pairs for b in targets)]
        if not survivors:
            return ()
        if merge_lhs:
            return (frozenset(survivors),)
        return [single[c] for c in survivors]

    def next_to(x, gamma, rightward):
        """The symbols next to `gamma` on one side in some rule of `x`."""
        return (index.after if rightward else index.before).get((x, gamma), frozenset())

    def extended(state, sym, rightward):
        """The state extended by `sym` on one side, keeping the members
        with a rule that continues `gamma` so; None when none has one."""
        delta, gamma = state
        delta = frozenset([x for x in delta if sym in next_to(x, gamma, rightward)])
        if not delta:
            return None
        return delta, gamma + (sym,) if rightward else (sym,) + gamma

    def make_init(n):
        return SetInfix(-1, -1, single[aug.start_prime], (aug.bottom,), 0, n)

    def make_fin(n):
        return SetInfix(-1, -1, single[aug.start_prime],
                        (aug.bottom, aug.start), n, n)

    @cache
    def done(state):
        """Members of `delta` that have `gamma` as a whole right-hand side."""
        delta, gamma = state
        lhs = index.complete.get(gamma)
        return sorted(delta & lhs) if lhs else ()

    @cache
    def fresh(targets, a):
        """The states of the items that the head terminal `a` starts for
        one of `targets`."""
        gamma = (a,)
        return tuple((delta, gamma) for delta in deltas(term_lhs.get(a, ()), targets))

    @cache
    def wanted(state, rightward):
        """The nonterminals an item may extend `gamma` with on this side."""
        delta, gamma = state
        return frozenset(b for x in delta for b in next_to(x, gamma, rightward)
                         if b in nts)

    @cache
    def predicted(state, rightward):
        """The nonterminals an item may extend `gamma` with on this side,
        and the terminals that start an item for one of them; None when
        none does."""
        targets = wanted(state, rightward)
        heads = frozenset(a for a in term_lhs if fresh(targets, a))
        return (targets, heads) if heads else None

    @cache
    def scanned(state, a, rightward):
        return None if a in nts else extended(state, a, rightward)

    @cache
    def climbs(top, below, rightward):
        """The states a top in state `top` becomes as each rule it
        completes climbs to a head corner of a nonterminal the item below
        continues with on this side; None when it completes none or the
        item below continues with none."""
        finished = done(top)
        if not finished:
            return None
        targets = wanted(below, rightward)
        if not targets:
            return None
        return tuple((new_delta, (b,)) for b in finished
                     for new_delta in deltas(nt_lhs.get(b, ()), targets))

    @cache
    def attaches(top, below, rightward):
        """The states the item below becomes as each rule a top in state
        `top` completes extends it on this side."""
        found = (extended(below, b, rightward) for b in done(top))
        return tuple(state for state in found if state is not None)

    def scans(state, rightward):
        delta, gamma = state
        return any(not next_to(x, gamma, rightward) <= nts for x in delta)

    clauses, plan = _clause_set(SetInfix, predicted, fresh, scanned, climbs,
                                attaches, scans, done)
    render = _render_set_infix if merge_lhs else _render_infix
    return Automaton(name, clauses, make_init, make_fin, render,
                     (len(aug.rules), len(nts)), plan=plan)


def build_phi(aug: AugmentedGrammar) -> Automaton:
    """Predictive head-inward recognizer: items carry the recognized infix
    only, so rules of one nonterminal sharing an infix are merged."""
    return _build_infix(aug, "phi", merge_lhs=False)


def build_ehi(aug: AugmentedGrammar) -> Automaton:
    """Extended head-inward recognizer: like PHI, with a set of left-hand
    sides per item so common infixes merge across nonterminals."""
    return _build_infix(aug, "ehi", merge_lhs=True)
