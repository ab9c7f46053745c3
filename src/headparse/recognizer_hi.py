"""Head-inward recognizer over plain head grammars.

Stack symbols carry a *set* of double-dotted rules sharing one recognized
span, so alternatives stay merged until the grammar forces them apart,
the same way an LR state merges items.  Scanning an adjacent terminal and
starting a fresh rule whose leftmost member is that terminal (and also its
head) happen in one step; the gate for the fresh rules is the left
head-corner relation, the restriction of the head-corner relation to rules
whose head is leftmost (mirrored on the other side).

The clauses never pop the item they extend: a new item is pushed on top
(pop 0), one per recognized member, and a reduction with an r-member rule
pops the r cumulative items above the context it grew from.  One consequence is
that the initial stack symbol is never popped, and the final reduction may
merge other still-live rules into the last item's set; a run therefore
accepts on the initial item topped by an item with the final spans whose
set contains the finished start rule.
"""

from __future__ import annotations

from functools import cache, partial
from typing import NamedTuple

from .engine import Automaton, Clause, positions
from .grammar import FULL, LEFT, RIGHT, AugmentedGrammar, head_corner


class HiItem(NamedTuple):
    i: int
    k: int
    q: frozenset  # of (rule id, left dot, right dot)
    m: int
    j: int


class Relations(NamedTuple):
    full: frozenset  # head_corner pairs (b, a) of each variant
    left: frozenset
    right: frozenset


def compute_relations(aug: AugmentedGrammar) -> Relations:
    return Relations(head_corner(aug, FULL), head_corner(aug, LEFT),
                     head_corner(aug, RIGHT))


def _pending(aug, q, rightward):
    """Symbols adjacent to the dotted region of any element of q."""
    out = set()
    for rid, ld, rd in q:
        rhs = aug.rules[rid].rhs
        if rightward:
            if rd < len(rhs):
                out.add(rhs[rd])
        elif ld > 0:
            out.add(rhs[ld - 1])
    return out


def _make_goto1(rightward):
    def goto1(aug: AugmentedGrammar, rels: Relations, q, x) -> frozenset:
        """Rules with head `x`, startable next to a pending nonterminal of
        some element of `q` on this side (full head-corner gate); dots
        placed around the head."""
        pend = _pending(aug, q, rightward) & aug.nonterminals
        if not pend:
            return frozenset()
        out = set()
        for rid in aug.rules_with_head.get(x, ()):
            r = aug.rules[rid]
            if any((r.lhs, b) in rels.full for b in pend):
                out.add((rid, r.head, r.head + 1))
        return frozenset(out)
    return goto1


def _make_goto2(rightward):
    def goto2(aug: AugmentedGrammar, rels: Relations, q, x) -> frozenset:
        """The dots of `q` move outward over `x` on this side, plus fresh
        rules whose outermost member on this side is `x` and also the head
        (left head-corner gate going right, right one going left)."""
        out = set()
        pend = _pending(aug, q, rightward) & aug.nonterminals
        if pend:
            gate = rels.left if rightward else rels.right
            for rid in aug.rules_with_head.get(x, ()):
                r = aug.rules[rid]
                edge = 0 if rightward else len(r.rhs) - 1
                if r.head == edge and any((r.lhs, b) in gate for b in pend):
                    out.add((rid, r.head, r.head + 1))
        for rid, ld, rd in q:
            rhs = aug.rules[rid].rhs
            if rightward:
                if rd < len(rhs) and rhs[rd] == x:
                    out.add((rid, ld, rd + 1))
            elif ld > 0 and rhs[ld - 1] == x:
                out.add((rid, ld - 1, rd))
        return frozenset(out)
    return goto2


gotoright1 = _make_goto1(True)
gotoleft1 = _make_goto1(False)
gotoright2 = _make_goto2(True)
gotoleft2 = _make_goto2(False)


def _render_hi(aug):
    """hi items; the element list is memoised per set `q`, so an item costs
    one format."""
    from .recognizers_basic import _dotted_text

    @cache
    def elements(q):
        return ", ".join(_dotted_text(aug, *element) for element in sorted(q))

    def render(item):
        return "[%d, %d, {%s}, %d, %d]" % (item.i, item.k, elements(item.q), item.m, item.j)
    return render


def build_hi(aug: AugmentedGrammar) -> Automaton:
    rels = compute_relations(aug)
    rules = aug.rules
    nts = aug.nonterminals

    @cache
    def finished(q):
        """(rule id, size) of the finished rules in `q`, by rule id."""
        return tuple(sorted((rid, rd) for rid, ld, rd in q
                            if ld == 0 and rd == len(rules[rid].rhs)))

    def transition(goto):
        # With the grammar fixed a goto is a function of (state, symbol)
        # alone, so each automaton computes it once per pair: lazy LR
        # table construction.
        return cache(partial(goto, aug, rels))

    goto1 = {True: transition(gotoright1), False: transition(gotoleft1)}
    goto2 = {True: transition(gotoright2), False: transition(gotoleft2)}

    def make_init(n):
        return HiItem(-1, -1, frozenset(((aug.start_rule_id, 0, 1),)), 0, n)

    def make_fin(n):
        return HiItem(-1, -1, frozenset(((aug.start_rule_id, 0, 2),)), n, n)

    def make_accepting(n):
        # The clauses never pop the initial item, and the final reduction
        # computes a maximal set that may merge other live rules into the
        # final item, so acceptance is: initial item below an item with the
        # final spans whose set contains the finished start rule.
        init = make_init(n)
        fin = make_fin(n)

        def accepting(stack):
            if len(stack) != 2 or stack[0] != init:
                return False
            top = stack[1]
            return ((top.i, top.k, top.m, top.j)
                    == (fin.i, fin.k, fin.m, fin.j) and fin.q <= top.q)
        return accepting

    @cache
    def side_of(q, rightward):
        """What `q` can take on one side, read off its pending symbols and the
        head-corner relations: the terminals whose fresh-head goto from `q`
        is not empty, and whether some terminal's advancing goto is not."""
        pending = _pending(aug, q, rightward)
        pend = pending & nts
        gate = rels.left if rightward else rels.right
        heads, scans = set(), not pending <= nts
        for x, rids in aug.rules_with_terminal_head.items():
            for r in map(rules.__getitem__, rids):
                if any((r.lhs, b) in rels.full for b in pend):
                    heads.add(x)
                edge = 0 if rightward else len(r.rhs) - 1
                scans = scans or (r.head == edge
                                  and any((r.lhs, b) in gate for b in pend))
        return frozenset(heads), scans

    def new_head_side(rightward):
        goto = goto1[rightward]

        def matcher(stack, tokens):
            top = stack[-1]
            heads = side_of(top.q, rightward)[0]
            # the position next to the recognized span is clause 2's job
            if rightward:
                lo, hi = top.m, top.j
                found = positions(tokens, heads, top.m + 1, top.j)
            else:
                lo, hi = top.i, top.k
                found = positions(tokens, heads, top.i, top.k - 1)
            for p in found:
                a = tokens[p - 1]
                if a in nts:  # a token that spells a nonterminal matches nothing
                    continue
                q2 = goto(top.q, a)
                if q2:
                    yield 0, HiItem(lo, p - 1, q2, p, hi), p
        return matcher

    def scan_side(rightward):
        goto = goto2[rightward]

        def matcher(stack, tokens):
            top = stack[-1]
            if rightward:
                if top.m < top.j and tokens[top.m] not in nts:
                    q2 = goto(top.q, tokens[top.m])
                    if q2:
                        yield 0, HiItem(top.i, top.k, q2, top.m + 1, top.j), top.m + 1
            else:
                if top.i < top.k and tokens[top.k - 1] not in nts:
                    q2 = goto(top.q, tokens[top.k - 1])
                    if q2:
                        yield 0, HiItem(top.i, top.k - 1, q2, top.m, top.j), top.k
        return matcher

    def _chained(chain):
        # cumulative member items grow outward, each span containing the last
        return all(chain[t].k >= chain[t + 1].k and chain[t].m <= chain[t + 1].m
                   for t in range(len(chain) - 1))

    def reduce_side(rightward, advance):
        """A finished rule on top pops its members and passes its left-hand
        side to a goto of the context item below them: the fresh-head goto
        when the rule's span lies beyond the context's (3a/3b), the
        advancing goto when it starts at an edge of the context's (4a/4b)."""
        goto = (goto2 if advance else goto1)[rightward]

        def matcher(stack, tokens):
            top = stack[-1]
            emitted = set()
            for rid, size in finished(top.q):
                if len(stack) < size + 1:
                    continue
                context = stack[-(size + 1)]
                if advance:
                    if (top.k if rightward else top.m) not in (context.m, context.k):
                        continue
                elif not (context.m < top.k if rightward else top.m < context.k):
                    continue
                q2 = goto(context.q, rules[rid].lhs)
                if not q2:
                    continue
                assert _chained(stack[len(stack) - size:])
                if not advance:
                    new = HiItem(top.i, top.k, q2, top.m, top.j)
                elif rightward:
                    assert context.j == top.j
                    new = HiItem(context.i, context.k, q2, top.m, top.j)
                else:
                    assert context.i == top.i
                    new = HiItem(top.i, top.k, q2, context.m, context.j)
                key = (size, new)
                if key not in emitted:
                    emitted.add(key)
                    yield size, new, None
        return matcher

    clauses = (
        Clause("1a", new_head_side(True)),
        Clause("1b", new_head_side(False)),
        Clause("2a", scan_side(True)),
        Clause("2b", scan_side(False)),
        Clause("3a", reduce_side(True, advance=False)),
        Clause("3b", reduce_side(False, advance=False)),
        Clause("4a", reduce_side(True, advance=True)),
        Clause("4b", reduce_side(False, advance=True)),
    )
    @cache
    def plan_of(q, right, left):
        """Read off the early exits: 1a/1b need a fresh head from `q` on
        their side and input there past the adjacent position (`right` and
        `left` count the positions left, up to 2); 2a/2b a terminal `q` can
        take there and input there; a reduction (3a..4b) a finished rule in
        the set, and it reads the rule's members and the context below."""
        (heads_right, scans_right), (heads_left, scans_left) = (
            side_of(q, True), side_of(q, False))
        alone = tuple(label for label, fires in (
            ("1a", right > 1 and heads_right), ("1b", left > 1 and heads_left),
            ("2a", right and scans_right), ("2b", left and scans_left)) if fires)
        size = max((size for _, size in finished(q)), default=0)
        return alone, (1 + size, ("3a", "3b", "4a", "4b"), None) if size else None

    return Automaton("hi", clauses, make_init, make_fin, _render_hi(aug),
                     (len(rules), len(aug.nonterminals)),
                     make_accepting=make_accepting,
                     plan=lambda top: plan_of(top.q, min(top.j - top.m, 2),
                                              min(top.k - top.i, 2)))
