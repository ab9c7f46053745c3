"""Property group: goto-style selections return subsets of their argument,
and hi's gotos equal a reference worked out from the rule list."""

import random

from hypothesis import given, settings, strategies as st

from headparse import augment
from headparse.grammar import FULL, LEFT, RIGHT, head_corner
from headparse.corpus import random_gen_grammar, random_head_grammar
from headparse.recognizer_ghi import (closure, goto, gotoleft, gotoright,
                                      left_set, right_set)
from headparse.recognizer_hi import (compute_relations, gotoleft1, gotoleft2,
                                     gotoright1, gotoright2)
from headparse.transform import subtrees


@st.composite
def gen_grammar_and_set(draw):
    g = random_gen_grammar(random.Random(draw(st.integers(0, 10_000))))
    universe = []
    for r in g.rules:
        universe.extend(subtrees(r.rhs))
    universe = list(dict.fromkeys(universe)) + list(g.rules)
    picks = draw(st.lists(st.integers(0, len(universe) - 1), max_size=6))
    return g, frozenset(universe[i] for i in picks)


@settings(max_examples=80, deadline=None)
@given(gen_grammar_and_set(), st.sampled_from(["S", "A", "a", "b"]))
def test_goto_is_a_selection(gq, sym):
    _, q = gq
    assert goto(q, sym) <= q


@settings(max_examples=80, deadline=None)
@given(gen_grammar_and_set())
def test_subtree_selections_are_selections(gq):
    g, q = gq
    for element in list(q)[:3]:
        tree = element.rhs if hasattr(element, "rhs") else element
        assert gotoleft(q, tree.left) <= q
        assert gotoright(q, tree.right) <= q
    assert gotoleft(q, None) <= q and gotoright(q, None) <= q


@settings(max_examples=80, deadline=None)
@given(gen_grammar_and_set())
def test_side_sets_close_collected_subtrees(gq):
    g, q = gq
    for side_set, pick in ((left_set, lambda t: t.left),
                           (right_set, lambda t: t.right)):
        collected = {pick(e.rhs if hasattr(e, "rhs") else e) for e in q}
        collected.discard(None)
        assert side_set(g, q) == closure(g, frozenset(collected))


def _reference_gotos(aug, q, x):
    """hi's four gotos of `q` over `x`, worked out from the rule list and
    `head_corner` alone: {(name, ...): set of dotted states}."""
    full, left, right = (head_corner(aug, v) for v in (FULL, LEFT, RIGHT))
    rules = aug.rules
    out = {}
    for rightward, one, two, gate in ((True, "gotoright1", "gotoright2", left),
                                      (False, "gotoleft1", "gotoleft2", right)):
        pend = set()
        for rid, ld, rd in q:
            rhs = rules[rid].rhs
            if rightward and rd < len(rhs):
                pend.add(rhs[rd])
            if not rightward and ld > 0:
                pend.add(rhs[ld - 1])
        pend &= aug.nonterminals
        head_states = {(rid, r.head, r.head + 1) for rid, r in enumerate(rules)
                       if r.head_symbol == x}
        out[one] = {(rid, ld, rd) for rid, ld, rd in head_states
                    if any((rules[rid].lhs, b) in full for b in pend)}
        edge = {(rid, ld, rd) for rid, ld, rd in head_states
                if ld == (0 if rightward else len(rules[rid].rhs) - 1)
                and any((rules[rid].lhs, b) in gate for b in pend)}
        if rightward:
            moved = {(rid, ld, rd + 1) for rid, ld, rd in q
                     if rd < len(rules[rid].rhs) and rules[rid].rhs[rd] == x}
        else:
            moved = {(rid, ld - 1, rd) for rid, ld, rd in q
                     if ld > 0 and rules[rid].rhs[ld - 1] == x}
        out[two] = edge | moved
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_hi_gotos_equal_a_reference(seed, data):
    # all four gotos, on random sets of dotted states and every symbol,
    # against the pending symbols, the head-corner gates and the moved
    # states worked out from scratch
    aug = augment(random_head_grammar(random.Random(seed)))
    rels = compute_relations(aug)
    states = [(rid, ld, rd) for rid, r in enumerate(aug.rules)
              for ld in range(r.head + 1) for rd in range(r.head + 1, len(r.rhs) + 1)]
    q = frozenset(data.draw(st.lists(st.sampled_from(states), max_size=6)))
    gotos = {"gotoright1": gotoright1, "gotoleft1": gotoleft1,
             "gotoright2": gotoright2, "gotoleft2": gotoleft2}
    for x in sorted(aug.symbols):
        for name, expected in _reference_gotos(aug, q, x).items():
            assert gotos[name](aug, rels, q, x) == expected, (name, x)
