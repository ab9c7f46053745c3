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

from typing import NamedTuple

from .engine import Automaton, Clause
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

def _dotted_text(aug, item):
    r = aug.rules[item.rule]
    parts = list(r.rhs[:item.ld]) + ["•"] + list(r.rhs[item.ld:item.rd]) \
        + ["•"] + list(r.rhs[item.rd:])
    return "%s -> %s" % (r.lhs, " ".join(parts))


def _render_td(aug):
    def render(item):
        if type(item) is Goal:
            return "[%d, %s, %d]" % (item.i, item.sym, item.j)
        return "[%d, %d, %s, %d, %d]" % (item.i, item.k, _dotted_text(aug, item),
                                         item.m, item.j)
    return render


def _render_infix(item):
    (lhs,) = item.delta
    return "[%d, %d, %s -> %s, %d, %d]" % (
        item.i, item.k, lhs, " ".join(item.gamma), item.m, item.j)


def _render_set_infix(item):
    return "[%d, %d, {%s} -> %s, %d, %d]" % (
        item.i, item.k, ",".join(sorted(item.delta)), " ".join(item.gamma),
        item.m, item.j)


# ------------------------------------------------------------ shared pieces

def _complete(aug, item):
    return item.ld == 0 and item.rd == len(aug.rules[item.rule].rhs)


def _pending(aug, item, rightward):
    r = aug.rules[item.rule]
    if rightward:
        return r.rhs[item.rd] if item.rd < len(r.rhs) else None
    return r.rhs[item.ld - 1] if item.ld > 0 else None


def _make_scan(aug, rightward):
    """Clause 2a/2b of the dotted-item recognizers: extend the recognized
    stretch over an adjacent terminal."""
    nts = aug.nonterminals

    def matcher(stack, tokens):
        top = stack[-1]
        if type(top) is not Dotted:
            return
        sym = _pending(aug, top, rightward)
        if sym is None or sym in nts:
            return
        if rightward:
            if top.m < top.j and tokens[top.m] == sym:
                yield 1, top._replace(rd=top.rd + 1, m=top.m + 1), top.m + 1
        else:
            if top.i < top.k and tokens[top.k - 1] == sym:
                yield 1, top._replace(ld=top.ld - 1, k=top.k - 1), top.k
    return matcher


def _make_attach(aug, rightward):
    """Clause 4a/4b: a completed rule directly above a dotted item becomes
    the pending member adjacent to the recognized stretch."""
    def matcher(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        if type(top) is not Dotted or type(below) is not Dotted:
            return
        if not _complete(aug, top):
            return
        lhs = aug.rules[top.rule].lhs
        if _pending(aug, below, rightward) != lhs:
            return
        if rightward:
            if below.m != top.k:
                return
            assert below.m == top.i and below.j == top.j
            yield 2, below._replace(rd=below.rd + 1, m=top.m), None
        else:
            if below.k != top.m:
                return
            assert below.k == top.j and below.i == top.i
            yield 2, below._replace(ld=below.ld - 1, k=top.k), None
    return matcher


def _dotted_plan(aug, unfinished, finished):
    """`Automaton.plan` of td and hc for a dotted top: a finished rule has
    nothing pending, so only `finished` (3, 3a/3b, 4a/4b) can fire on it,
    and they read the item below it."""
    sizes = tuple(len(r.rhs) for r in aug.rules)
    open_plan = (1, unfinished)
    done_plan = (2, finished)

    def plan(top):
        return done_plan if top.ld == 0 and top.rd == sizes[top.rule] else open_plan
    return plan


def _dotted_head(aug, rid, i, k, m, j):
    r = aug.rules[rid]
    return Dotted(i, k, rid, r.head, r.head + 1, m, j)


# ------------------------------------------------------------------ TD

def build_td(aug: AugmentedGrammar) -> Automaton:
    """Head-driven top-down recognizer (goal items plus dotted items)."""
    nts = aug.nonterminals
    nt_heads_by_lhs = {}
    t_heads_by_lhs = {}
    for rid, r in enumerate(aug.rules):
        h = r.rhs[r.head]
        target = nt_heads_by_lhs if h in nts else t_heads_by_lhs
        target.setdefault(r.lhs, []).append((rid, h))

    def make_init(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 1, 0, n)

    def make_fin(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 2, n, n)

    def clause_0(stack, tokens):
        top = stack[-1]
        if type(top) is not Goal:
            return
        seen = set()
        for rid, b in nt_heads_by_lhs.get(top.sym, ()):
            if b not in seen:
                seen.add(b)
                yield 0, Goal(top.i, b, top.j), None

    def predict_side(rightward):
        def matcher(stack, tokens):
            top = stack[-1]
            if type(top) is not Dotted:
                return
            sym = _pending(aug, top, rightward)
            if sym is None or sym not in nts:
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
        candidates = t_heads_by_lhs.get(top.sym, ())
        if not candidates:
            return
        for k in range(top.i + 1, top.j + 1):
            a = tokens[k - 1]
            for rid, h in candidates:
                if h == a:
                    yield 1, _dotted_head(aug, rid, top.i, k - 1, k, top.j), k

    def clause_3(stack, tokens):
        if len(stack) < 2:
            return
        top = stack[-1]
        below = stack[-2]
        if type(top) is not Dotted or type(below) is not Goal:
            return
        if not _complete(aug, top):
            return
        assert below.i == top.i and below.j == top.j
        b = aug.rules[top.rule].lhs
        for rid, h in nt_heads_by_lhs.get(below.sym, ()):
            if h == b:
                yield 2, _dotted_head(aug, rid, below.i, top.k, top.m, below.j), None

    clauses = (
        Clause("0", clause_0),
        Clause("0a", predict_side(True)),
        Clause("0b", predict_side(False)),
        Clause("1", clause_1),
        Clause("2a", _make_scan(aug, True)),
        Clause("2b", _make_scan(aug, False)),
        Clause("3", clause_3),
        Clause("4a", _make_attach(aug, True)),
        Clause("4b", _make_attach(aug, False)),
    )
    dotted_plan = _dotted_plan(aug, ("0a", "0b", "2a", "2b"), ("3", "4a", "4b"))

    def plan(top):  # 0a..4b need a dotted rule on top
        return (1, ("0", "1")) if type(top) is Goal else dotted_plan(top)

    return Automaton("td", clauses, make_init, make_fin, _render_td(aug),
                     (len(aug.rules), len(nts)), plan=plan)


# ------------------------------------------------------------------ HC

def build_hc(aug: AugmentedGrammar) -> Automaton:
    """Head-corner recognizer: prediction gated by the head-corner relation."""
    pairs = head_corner(aug, FULL)
    nts = aug.nonterminals
    t_heads = aug.rules_with_terminal_head
    nt_heads = aug.rules_with_nonterminal_head

    def make_init(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 1, 0, n)

    def make_fin(n):
        return Dotted(-1, -1, aug.start_rule_id, 0, 2, n, n)

    def new_head_side(rightward):
        def matcher(stack, tokens):
            top = stack[-1]
            b = _pending(aug, top, rightward)
            if b is None or b not in nts:
                return
            lo, hi = (top.m, top.j) if rightward else (top.i, top.k)
            for p in range(lo + 1, hi + 1):
                a = tokens[p - 1]
                for rid in t_heads.get(a, ()):
                    if (aug.rules[rid].lhs, b) in pairs:
                        yield 0, _dotted_head(aug, rid, lo, p - 1, p, hi), p
        return matcher

    def attach_head_side(rightward):
        def matcher(stack, tokens):
            if len(stack) < 2:
                return
            top = stack[-1]
            below = stack[-2]
            if not _complete(aug, top):
                return
            pending = _pending(aug, below, rightward)
            if pending is None or pending not in nts:
                return
            if rightward:
                if below.m != top.i:
                    return
                assert below.j == top.j
            else:
                if below.k != top.j:
                    return
                assert below.i == top.i
            b = aug.rules[top.rule].lhs
            for rid in nt_heads.get(b, ()):
                if (aug.rules[rid].lhs, pending) in pairs:
                    yield 1, _dotted_head(aug, rid, top.i, top.k, top.m, top.j), None
        return matcher

    clauses = (
        Clause("1a", new_head_side(True)),
        Clause("1b", new_head_side(False)),
        Clause("2a", _make_scan(aug, True)),
        Clause("2b", _make_scan(aug, False)),
        Clause("3a", attach_head_side(True)),
        Clause("3b", attach_head_side(False)),
        Clause("4a", _make_attach(aug, True)),
        Clause("4b", _make_attach(aug, False)),
    )
    return Automaton("hc", clauses, make_init, make_fin, _render_td(aug),
                     (len(aug.rules), len(nts)),
                     plan=_dotted_plan(aug, ("1a", "1b", "2a", "2b"),
                                       ("3a", "3b", "4a", "4b")))


# ------------------------------------------------------------------ infix index

class InfixIndex:
    """Occurrence index of head-containing infixes, one entry per
    (left-hand side, infix) pair, unioned over all rules and positions.

    Drives the PHI/EHI side conditions in O(1)-ish time per check:
    which symbol may extend an infix on either side, which nonterminals
    follow it, and which left-hand sides have it as a whole right-hand side
    (`complete`, keyed by infix alone).
    """

    def __init__(self, aug: AugmentedGrammar):
        right_ext = set()
        left_ext = set()
        right_nt = {}
        left_nt = {}
        complete = {}
        for r in aug.rules:
            rhs = r.rhs
            size = len(rhs)
            for s in range(0, r.head + 1):
                for e in range(r.head + 1, size + 1):
                    gamma = rhs[s:e]
                    key = (r.lhs, gamma)
                    if e < size:
                        nxt = rhs[e]
                        right_ext.add((r.lhs, gamma, nxt))
                        if nxt in aug.nonterminals:
                            right_nt.setdefault(key, set()).add(nxt)
                    if s > 0:
                        prv = rhs[s - 1]
                        left_ext.add((r.lhs, gamma, prv))
                        if prv in aug.nonterminals:
                            left_nt.setdefault(key, set()).add(prv)
                    if s == 0 and e == size:
                        complete.setdefault(gamma, set()).add(r.lhs)
        self.right_ext = frozenset(right_ext)
        self.left_ext = frozenset(left_ext)
        self.right_nt = {k: frozenset(v) for k, v in right_nt.items()}
        self.left_nt = {k: frozenset(v) for k, v in left_nt.items()}
        self.complete = {k: frozenset(v) for k, v in complete.items()}


def _distinct_lhs(rule_map, aug):
    """head symbol -> left-hand sides of its rules, in first-rule order."""
    out = {}
    for sym, rids in rule_map.items():
        seen = []
        for rid in rids:
            lhs = aug.rules[rid].lhs
            if lhs not in seen:
                seen.append(lhs)
        out[sym] = tuple(seen)
    return out


# ------------------------------------------------------------- PHI and EHI

def _build_infix(aug, name, merge_lhs):
    """Infix recognizer over `SetInfix` items.  Each step computes the
    left-hand sides that survive it; EHI keeps them as one item, PHI splits
    them into one single-member item each, in the same order."""
    pairs = head_corner(aug, FULL)
    nts = aug.nonterminals
    index = InfixIndex(aug)
    term_lhs = _distinct_lhs(aug.rules_with_terminal_head, aug)
    nt_lhs = _distinct_lhs(aug.rules_with_nonterminal_head, aug)
    # PHI's one-member sets, built once and shared by every item
    single = {a: frozenset((a,)) for a in nts | {aug.start_prime}}

    def deltas(survivors):
        if not survivors:
            return ()
        if merge_lhs:
            return (frozenset(survivors),)
        return [single[c] for c in survivors]

    def make_init(n):
        return SetInfix(-1, -1, single[aug.start_prime], (aug.bottom,), 0, n)

    def make_fin(n):
        return SetInfix(-1, -1, single[aug.start_prime],
                        (aug.bottom, aug.start), n, n)

    def _targets(item, continuations):
        out = set()
        for a in item.delta:
            out.update(continuations.get((a, item.gamma), ()))
        return out

    def _extending(item, sym, extensions):
        return frozenset([x for x in item.delta
                          if (x, item.gamma, sym) in extensions])

    def _completed(item):
        """Members of `delta` that have `gamma` as a whole right-hand side."""
        lhs = index.complete.get(item.gamma)
        return sorted(item.delta & lhs) if lhs else ()

    open_plan = (1, ("1a", "1b", "2a", "2b"))
    done_plan = (2, ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b"))

    def plan(top):
        """3a/3b and 4a/4b need a completed member on top, and read the
        item below it."""
        lhs = index.complete.get(top.gamma)
        return done_plan if lhs and not top.delta.isdisjoint(lhs) else open_plan

    def predict_scan_side(rightward):
        continuations = index.right_nt if rightward else index.left_nt

        def matcher(stack, tokens):
            top = stack[-1]
            targets = _targets(top, continuations)
            if not targets:
                return
            lo, hi = (top.m, top.j) if rightward else (top.i, top.k)
            for p in range(lo + 1, hi + 1):
                a = tokens[p - 1]
                survivors = [c for c in term_lhs.get(a, ())
                             if any((c, b) in pairs for b in targets)]
                for delta in deltas(survivors):
                    yield 0, SetInfix(lo, p - 1, delta, (a,), p, hi), p
        return matcher

    def scan_side(rightward):
        extensions = index.right_ext if rightward else index.left_ext

        def matcher(stack, tokens):
            top = stack[-1]
            if rightward:
                if top.m >= top.j:
                    return
                a = tokens[top.m]
            else:
                if top.i >= top.k:
                    return
                a = tokens[top.k - 1]
            if a in nts:
                return
            delta = _extending(top, a, extensions)
            if not delta:
                return
            if rightward:
                yield 1, top._replace(delta=delta, gamma=top.gamma + (a,),
                                      m=top.m + 1), top.m + 1
            else:
                yield 1, top._replace(delta=delta, gamma=(a,) + top.gamma,
                                      k=top.k - 1), top.k
        return matcher

    def attach_head_side(rightward):
        continuations = index.right_nt if rightward else index.left_nt

        def matcher(stack, tokens):
            if len(stack) < 2:
                return
            top = stack[-1]
            done = _completed(top)
            if not done:
                return
            below = stack[-2]
            targets = _targets(below, continuations)
            if not targets:
                return
            if rightward:
                if below.m != top.i:
                    return
                assert below.j == top.j
            else:
                if below.k != top.j:
                    return
                assert below.i == top.i
            for b in done:
                survivors = [c for c in nt_lhs.get(b, ())
                             if any((c, a0) in pairs for a0 in targets)]
                for delta in deltas(survivors):
                    yield 1, top._replace(delta=delta, gamma=(b,)), None
        return matcher

    def attach_member_side(rightward):
        extensions = index.right_ext if rightward else index.left_ext

        def matcher(stack, tokens):
            if len(stack) < 2:
                return
            top = stack[-1]
            below = stack[-2]
            if rightward:
                if below.m != top.k:
                    return
            else:
                if below.k != top.m:
                    return
            for b in _completed(top):
                delta = _extending(below, b, extensions)
                if not delta:
                    continue
                if rightward:
                    assert below.m == top.i and below.j == top.j
                    yield 2, below._replace(delta=delta, gamma=below.gamma + (b,),
                                            m=top.m), None
                else:
                    assert below.k == top.j and below.i == top.i
                    yield 2, below._replace(delta=delta, gamma=(b,) + below.gamma,
                                            k=top.k), None
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
