"""Clause sets for the four flat head-grammar recognizers.

All four share one skeleton: the head of a rule is recognized first, then
the neighbouring members are attached, rightward and leftward.  They
differ in how much prediction is compiled in and how much sharing happens
between rules:

  * `build_td`   - top-down: explicit goal items drive prediction.
  * `build_hc`   - head-corner: prediction compiled into the head-corner
                   relation; items are double-dotted rules.
  * `build_phi`  - predictive head-inward: items carry only the recognized
                   infix, so rules of one nonterminal sharing an infix are
                   processed together.
  * `build_ehi`  - extended head-inward: like PHI but with a set of
                   left-hand sides, sharing infixes across nonterminals.

PHI and EHI share one builder and one item type, `SetInfix`: PHI is EHI
with every set of left-hand sides split into single-member sets.

Every "a" clause works on the right side of a recognized stretch and has a
mirrored "b" twin working on the left; each pair is generated from a single
implementation parameterised by direction, so the twins cannot drift
apart.  Index equalities that hold automatically for reachable stacks
(e.g. that a completed subitem's window agrees with its parent's) are
asserted rather than assumed.

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


# ------------------------------------------------------------ shared pieces

# fields of a dotted state's facts: the terminal pending right and left of
# the recognized stretch, the nonterminal pending there, and the rule's
# left-hand side once it is finished; None where there is none
RIGHT_T, LEFT_T, RIGHT_NT, LEFT_NT, DONE = range(5)


def _dotted_facts(aug):
    """The grammar facts of a dotted state (rule, ld, rd), worked out once
    per state: what td's and hc's clauses read of a dotted item besides
    its positions."""
    nts = aug.nonterminals

    @cache
    def facts(rule, ld, rd):
        r = aug.rules[rule]
        right = r.rhs[rd] if rd < len(r.rhs) else None
        left = r.rhs[ld - 1] if ld > 0 else None
        return (None if right in nts else right, None if left in nts else left,
                right if right in nts else None, left if left in nts else None,
                r.lhs if ld == 0 and rd == len(r.rhs) else None)
    return facts


def _head_states(aug, rids):
    """The dotted states (rule, ld, rd) of the rules `rids` with only their
    head recognized."""
    return tuple((rid, aug.rules[rid].head, aug.rules[rid].head + 1) for rid in rids)


def _make_scan(facts, rightward):
    """Clause 2a/2b of the dotted-item recognizers: extend the recognized
    stretch over an adjacent terminal."""
    side = RIGHT_T if rightward else LEFT_T

    def matcher(stack, tokens):
        top = stack[-1]
        if type(top) is not Dotted:
            return
        i, k, rule, ld, rd, m, j = top
        sym = facts(rule, ld, rd)[side]
        if sym is None:
            return
        if rightward:
            if m < j and tokens[m] == sym:
                yield 1, Dotted(i, k, rule, ld, rd + 1, m + 1, j), m + 1
        else:
            if i < k and tokens[k - 1] == sym:
                yield 1, Dotted(i, k - 1, rule, ld - 1, rd, m, j), k
    return matcher


def _make_attach(facts, rightward):
    """Clause 4a/4b: a completed rule directly above a dotted item becomes
    the pending member adjacent to the recognized stretch."""
    side = RIGHT_NT if rightward else LEFT_NT

    @cache
    def attaches(top_rule, top_ld, top_rd, rule, ld, rd):
        """Whether a top in the first state finishes the rule the item
        below, in the second, has pending on this side."""
        lhs = facts(top_rule, top_ld, top_rd)[DONE]
        return lhs is not None and facts(rule, ld, rd)[side] == lhs

    def matcher(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        if type(top) is not Dotted or type(below) is not Dotted:
            return
        i, k, rule, ld, rd, m, j = below
        if not attaches(top.rule, top.ld, top.rd, rule, ld, rd):
            return
        if rightward:
            if m != top.k:
                return
            assert m == top.i and j == top.j
            yield 2, Dotted(i, k, rule, ld, rd + 1, top.m, j), None
        else:
            if k != top.m:
                return
            assert k == top.j and i == top.i
            yield 2, Dotted(i, top.k, rule, ld - 1, rd, m, j), None
    return matcher


def _dotted_plan(facts, predicts, finished, can_predict):
    """`Automaton.plan` of td and hc for a dotted top, per rule, dots and
    sides with input left, read off the state's `facts`: on a side with
    input left, a pending nonterminal `b` lets its clause in `predicts` fire
    if `can_predict(b)`, a pending terminal 2a/2b.  A finished rule has
    nothing pending, and only `finished` (3, 3a/3b, 4a/4b) can fire on it,
    reading the item below it."""
    done_plan = ((), (2, finished, None))

    @cache
    def plan_of(rule, ld, rd, right, left):
        fact = facts(rule, ld, rd)
        if fact[DONE] is not None:
            return done_plan
        rooms = (right, left)
        return (tuple(label for label, b, room in zip(predicts, fact[RIGHT_NT:DONE], rooms)
                      if room and b is not None and can_predict(b))
                + tuple(label for label, a, room in zip(("2a", "2b"), fact[:RIGHT_NT], rooms)
                        if room and a is not None)), None

    def plan(top):
        return plan_of(top.rule, top.ld, top.rd, top.m < top.j, top.i < top.k)
    return plan


# ------------------------------------------------------------------ TD

def build_td(aug: AugmentedGrammar) -> Automaton:
    """Head-driven top-down recognizer (goal items plus dotted items)."""
    nts = aug.nonterminals
    facts = _dotted_facts(aug)
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

    def make_init(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 1, 0, n)

    def make_fin(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 2, n, n)

    def clause_0(stack, tokens):
        top = stack[-1]
        if type(top) is not Goal:
            return
        for b in subgoals(top.sym):
            yield 0, Goal(top.i, b, top.j), None

    def predict_side(rightward):
        side = RIGHT_NT if rightward else LEFT_NT

        def matcher(stack, tokens):
            top = stack[-1]
            if type(top) is not Dotted:
                return
            sym = facts(top.rule, top.ld, top.rd)[side]
            if sym is None:
                return
            if rightward:
                if top.m < top.j:
                    yield 0, Goal(top.m, sym, top.j), None
            else:
                if top.i < top.k:
                    yield 0, Goal(top.i, sym, top.k), None
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
                yield 1, Dotted(i, k - 1, rid, ld, rd, k, j), k

    def clause_3(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        if type(top) is not Dotted or type(below) is not Goal:
            return
        b = facts(top.rule, top.ld, top.rd)[DONE]
        if b is None:
            return
        assert below.i == top.i and below.j == top.j
        for rid, ld, rd in climbs(below.sym, b):
            yield 2, Dotted(below.i, top.k, rid, ld, rd, top.m, below.j), None

    clauses = (
        Clause("0", clause_0),
        Clause("0a", predict_side(True)),
        Clause("0b", predict_side(False)),
        Clause("1", clause_1),
        Clause("2a", _make_scan(facts, True)),
        Clause("2b", _make_scan(facts, False)),
        Clause("3", clause_3),
        Clause("4a", _make_attach(facts, True)),
        Clause("4b", _make_attach(facts, False)),
    )
    dotted_plan = _dotted_plan(facts, ("0a", "0b"), ("3", "4a", "4b"), lambda b: True)

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

    return Automaton("td", clauses, make_init, make_fin, _render_td(aug),
                     (len(aug.rules), len(nts)), plan=plan)


# ------------------------------------------------------------------ HC

def build_hc(aug: AugmentedGrammar) -> Automaton:
    """Head-corner recognizer: prediction gated by the head-corner relation."""
    pairs = head_corner(aug, FULL)
    nts = aug.nonterminals
    t_heads = aug.rules_with_terminal_head
    nt_heads = aug.rules_with_nonterminal_head
    facts = _dotted_facts(aug)

    def make_init(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 1, 0, n)

    def make_fin(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 2, n, n)

    @cache
    def fresh(b, a):
        """The head states of the rules headed by `a` whose left-hand side
        is a head corner of `b`."""
        return _head_states(aug, [rid for rid in t_heads.get(a, ())
                                  if (aug.rules[rid].lhs, b) in pairs])

    @cache
    def heads_for(b):
        """The terminals whose head states for `b` are not empty."""
        return frozenset(a for a in t_heads if fresh(b, a))

    @cache
    def climbs(top_rule, top_ld, top_rd, rule, ld, rd, rightward):
        """The head states of the rules headed by what a top in the first
        state finishes whose left-hand side is a head corner of the
        nonterminal the item below, in the second, has pending on this
        side; None when the top is not finished or nothing is pending."""
        b = facts(top_rule, top_ld, top_rd)[DONE]
        pending = facts(rule, ld, rd)[RIGHT_NT if rightward else LEFT_NT]
        if b is None or pending is None:
            return None
        return _head_states(aug, [rid for rid in nt_heads.get(b, ())
                                  if (aug.rules[rid].lhs, pending) in pairs])

    def new_head_side(rightward):
        side = RIGHT_NT if rightward else LEFT_NT

        def matcher(stack, tokens):
            i, k, rule, ld, rd, m, j = stack[-1]
            b = facts(rule, ld, rd)[side]
            if b is None:
                return
            lo, hi = (m, j) if rightward else (i, k)
            for p in positions(tokens, heads_for(b), lo, hi):
                for rid, hl, hr in fresh(b, tokens[p - 1]):
                    yield 0, Dotted(lo, p - 1, rid, hl, hr, p, hi), p
        return matcher

    def attach_head_side(rightward):
        def matcher(stack, tokens):
            if len(stack) < 2:
                return
            top = stack[-1]
            below = stack[-2]
            pushes = climbs(top.rule, top.ld, top.rd, below.rule, below.ld, below.rd, rightward)
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
            for rid, ld, rd in pushes:
                yield 1, Dotted(top.i, top.k, rid, ld, rd, top.m, top.j), None
        return matcher

    clauses = (
        Clause("1a", new_head_side(True)),
        Clause("1b", new_head_side(False)),
        Clause("2a", _make_scan(facts, True)),
        Clause("2b", _make_scan(facts, False)),
        Clause("3a", attach_head_side(True)),
        Clause("3b", attach_head_side(False)),
        Clause("4a", _make_attach(facts, True)),
        Clause("4b", _make_attach(facts, False)),
    )
    return Automaton("hc", clauses, make_init, make_fin, _render_td(aug),
                     (len(aug.rules), len(nts)),
                     plan=_dotted_plan(facts, ("1a", "1b"), ("3a", "3b", "4a", "4b"), heads_for))


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
    """Infix recognizer over `SetInfix` items.  Each step computes the
    left-hand sides that survive it; EHI keeps them as one item, PHI splits
    them into one single-member item each, in the same order.  The states
    (delta, gamma) a step pushes are worked out once per state of the items
    it reads, and per token it scans, in one table per clause."""
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

    def extended(delta, gamma, sym, rightward):
        """(delta, gamma) extended by `sym` on one side, keeping the members
        with a rule that continues `gamma` so; None when none has one."""
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
    def completed(delta, gamma):
        """Members of `delta` that have `gamma` as a whole right-hand side."""
        lhs = index.complete.get(gamma)
        return sorted(delta & lhs) if lhs else ()

    @cache
    def fresh(targets, a):
        """The states of the items that the head terminal `a` starts for
        one of `targets`."""
        gamma = (a,)
        return tuple((delta, gamma) for delta in deltas(term_lhs.get(a, ()), targets))

    @cache
    def predicted(delta, gamma, rightward):
        """The nonterminals an item may extend `gamma` with on this side, and
        the terminals that start an item for one of them."""
        targets = frozenset(b for x in delta for b in next_to(x, gamma, rightward)
                            if b in nts)
        return targets, frozenset(a for a in term_lhs if fresh(targets, a))

    @cache
    def plan_of(delta, gamma, right, left):
        """Read off the clauses' tables: 1a/1b need heads to predict and
        input left on their side; 2a/2b need input there and a member whose
        `gamma` a terminal extends there; 3a..4b need a completed member on
        top, and read the item below it."""
        sides = ((True, right), (False, left))
        alone = [label for label, (rightward, room) in zip(("1a", "1b"), sides)
                 if room and predicted(delta, gamma, rightward)[1]]
        alone += [label for label, (rightward, room) in zip(("2a", "2b"), sides)
                  if room and any(not next_to(x, gamma, rightward) <= nts for x in delta)]
        done = completed(delta, gamma)
        return tuple(alone), (2, ("3a", "3b", "4a", "4b"), None) if done else None

    def plan(top):
        return plan_of(top.delta, top.gamma, top.m < top.j, top.i < top.k)

    def predict_scan_side(rightward):
        def matcher(stack, tokens):
            i, k, delta, gamma, m, j = stack[-1]
            targets, heads = predicted(delta, gamma, rightward)
            if not targets:
                return
            lo, hi = (m, j) if rightward else (i, k)
            for p in positions(tokens, heads, lo, hi):
                for new_delta, new_gamma in fresh(targets, tokens[p - 1]):
                    yield 0, SetInfix(lo, p - 1, new_delta, new_gamma, p, hi), p
        return matcher

    def scan_side(rightward):
        @cache
        def scanned(delta, gamma, a):
            """The state over the adjacent token `a`, or None."""
            return None if a in nts else extended(delta, gamma, a, rightward)

        def matcher(stack, tokens):
            i, k, delta, gamma, m, j = stack[-1]
            if rightward:
                if m >= j:
                    return
                found = scanned(delta, gamma, tokens[m])
            else:
                if i >= k:
                    return
                found = scanned(delta, gamma, tokens[k - 1])
            if found is None:
                return
            new_delta, new_gamma = found
            if rightward:
                yield 1, SetInfix(i, k, new_delta, new_gamma, m + 1, j), m + 1
            else:
                yield 1, SetInfix(i, k - 1, new_delta, new_gamma, m, j), k
        return matcher

    def attach_head_side(rightward):
        @cache
        def climbs(delta, gamma, below_delta, below_gamma):
            """The states a top in state (delta, gamma) becomes as each rule
            it completes climbs to a head corner of a nonterminal the item
            below continues with on this side; None when it completes none
            or the item below continues with none."""
            done = completed(delta, gamma)
            if not done:
                return None
            targets = predicted(below_delta, below_gamma, rightward)[0]
            if not targets:
                return None
            return tuple((new_delta, (b,)) for b in done
                         for new_delta in deltas(nt_lhs.get(b, ()), targets))

        def matcher(stack, tokens):
            if len(stack) < 2:
                return
            top = stack[-1]
            below = stack[-2]
            pushes = climbs(top.delta, top.gamma, below.delta, below.gamma)
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
            for new_delta, new_gamma in pushes:
                yield 1, SetInfix(top.i, top.k, new_delta, new_gamma, top.m, top.j), None
        return matcher

    def attach_member_side(rightward):
        @cache
        def attaches(delta, gamma, below_delta, below_gamma):
            """The states the item below becomes as each rule a top in state
            (delta, gamma) completes extends it on this side."""
            found = (extended(below_delta, below_gamma, b, rightward)
                     for b in completed(delta, gamma))
            return tuple(state for state in found if state is not None)

        def matcher(stack, tokens):
            if len(stack) < 2:
                return
            top = stack[-1]
            i, k, delta, gamma, m, j = stack[-2]
            if rightward:
                if m != top.k:
                    return
            else:
                if k != top.m:
                    return
            for new_delta, new_gamma in attaches(top.delta, top.gamma, delta, gamma):
                if rightward:
                    assert m == top.i and j == top.j
                    yield 2, SetInfix(i, k, new_delta, new_gamma, top.m, j), None
                else:
                    assert k == top.j and i == top.i
                    yield 2, SetInfix(i, top.k, new_delta, new_gamma, m, j), None
        return matcher

    clauses = (
        Clause("1a", predict_scan_side(True)),
        Clause("1b", predict_scan_side(False)),
        Clause("2a", scan_side(True)),
        Clause("2b", scan_side(False)),
        Clause("3a", attach_head_side(True)),
        Clause("3b", attach_head_side(False)),
        Clause("4a", attach_member_side(True)),
        Clause("4b", attach_member_side(False)),
    )
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
