import dataclasses

import pytest

from headparse import Verdict, augment, run
from headparse.corpus import all_inputs, gen_eligible, gen_grammar_corpus, \
    head_grammar_corpus, eligible
from headparse.oracle import enumerate_language, recognize
from headparse.recognizer_ghi import (DoneItem, FullItem, LeftOpenItem,
                                      RightOpenItem, YldInconsistencyError,
                                      build_ghi, closure, goto, gotoleft,
                                      gotoright, left_set, right_set, yld)
from headparse.recognizers_basic import build_hc
from headparse.transform import GenHeadRule, Tree, embed, tau_head
from conftest import accepts, explore, hg, successors

C_A_B = Tree("A", Tree("c"), Tree("b"))
A_D = Tree("A", None, Tree("d"))
B_LEAF = Tree("B")


def demo_rule(g, lhs, rhs):
    for r in g.rules:
        if r.lhs == lhs and r.rhs == rhs:
            return r
    raise AssertionError("missing rule")


def test_closure_adds_rules_for_root_labels(tree_demo_grammar):
    g = tree_demo_grammar
    q = frozenset({C_A_B, A_D, B_LEAF})
    out = closure(g, q)
    assert out == q | {demo_rule(g, "B", Tree("A", None, Tree("b"))),
                       demo_rule(g, "A", Tree("a"))}


def test_closure_empty_and_idempotent(tree_demo_grammar):
    assert closure(tree_demo_grammar, frozenset()) == frozenset()
    q = frozenset({C_A_B, B_LEAF})
    once = closure(tree_demo_grammar, q)
    assert closure(tree_demo_grammar, once) == once


def test_goto_selects_by_root(tree_demo_grammar):
    g = tree_demo_grammar
    base = closure(g, frozenset({C_A_B, A_D, B_LEAF}))
    out = goto(base, "A")
    assert out == frozenset({C_A_B, A_D,
                             demo_rule(g, "B", Tree("A", None, Tree("b")))})
    assert goto(closure(g, frozenset({C_A_B})), "c") == frozenset()


def test_goto_subset_property(tree_demo_grammar):
    base = closure(tree_demo_grammar, frozenset({C_A_B, A_D, B_LEAF}))
    for sym in ("A", "B", "a", "b", "c", "s"):
        assert goto(base, sym) <= base


def test_gotoleft_gotoright_select_by_subtree(tree_demo_grammar):
    g = tree_demo_grammar
    rules_q = frozenset(g.rules[:3])  # the three S rules
    assert gotoright(rules_q, None) == rules_q  # all right subtrees empty
    assert gotoleft(rules_q, C_A_B) == frozenset({g.rules[0]})
    assert gotoleft(rules_q, None) == frozenset()


def test_left_set_matches_closure_composition(tree_demo_grammar):
    g = tree_demo_grammar
    rules_q = frozenset(g.rules[:3])
    assert left_set(g, rules_q) == closure(g, frozenset({C_A_B, A_D, B_LEAF}))
    assert right_set(g, frozenset({demo_rule(g, "A", Tree("a"))})) == frozenset()
    assert left_set(g, frozenset()) == frozenset()


EXPECTED_ROWS = ["3a", "1a", "3b", "1a", "1d", "7b", "2a", "1a, 1d", "4a",
                 "3b", "1a, 1d", "5b", "5b", "7a", "1a, 1d", "5a"]


def test_demo_accepting_trace_is_the_golden_one(tree_demo_automaton):
    result = run(tree_demo_automaton, ("c", "a", "b", "s"))
    assert result.verdict is Verdict.ACCEPT
    rows = tree_demo_automaton.collapse_rows(result.accepting_trace.steps)
    assert [label for label, _ in rows] == EXPECTED_ROWS
    assert len(rows) == 16


def test_demo_rejects_without_final_head(tree_demo_automaton, tree_demo_grammar):
    assert not accepts(tree_demo_automaton, ("c", "a", "b"))
    assert not recognize(tau_head(tree_demo_grammar), ("c", "a", "b"))


def test_demo_other_members_of_language(tree_demo_automaton):
    assert accepts(tree_demo_automaton, ("a", "d", "s"))
    assert accepts(tree_demo_automaton, ("a", "b", "s"))
    assert not accepts(tree_demo_automaton, ("s",))
    assert not accepts(tree_demo_automaton, ())


def test_ghi_differential_on_gen_corpus():
    checked = 0
    for g in gen_grammar_corpus(30, seed=921):
        if not gen_eligible(g):
            continue
        auto = build_ghi(g)
        language = enumerate_language(tau_head(g), 4)
        for tokens in all_inputs(("a", "b"), 4):
            assert accepts(auto, tokens) == (tokens in language)
            checked += 1
    assert checked > 300


def test_ghi_on_embedded_plain_grammars_matches_hc():
    for g in head_grammar_corpus(15, seed=922):
        aug = augment(g)
        if not eligible(aug, "hc"):
            continue
        hc = build_hc(aug)
        ghi = build_ghi(embed(g))
        for tokens in all_inputs(("a", "b"), 4):
            assert accepts(ghi, tokens) == accepts(hc, tokens)


def test_ghi_spans_never_overlap(tree_demo_automaton):
    # recognized spans on one stack tile the input without overlap
    for tokens in [("c", "a", "b", "s"), ("a", "b", "s"), ("c", "a", "b"),
                   ("a", "d", "s"), ("s", "s")]:
        for cfg in explore(tree_demo_automaton, tokens).stacks:
            spans = sorted((item.k, item.m) for item in cfg)
            for (k1, m1), (k2, m2) in zip(spans, spans[1:]):
                assert m1 <= k2


def test_ghi_item_shapes_well_formed(tree_demo_automaton):
    for cfg in explore(tree_demo_automaton, ("c", "a", "b", "s")).stacks:
        for item in cfg:
            kind = type(item)
            if kind is FullItem:
                assert item.i <= item.k < item.m <= item.j
                assert item.q
            elif kind is RightOpenItem:
                assert item.k < item.m <= item.j
                assert item.q
            elif kind is LeftOpenItem:
                assert item.i <= item.k < item.m
                assert item.q
            else:
                assert kind is DoneItem and item.k < item.m


def test_yld_cases(tree_demo_grammar, tree_demo_automaton):
    g = tree_demo_grammar
    s_rules = frozenset(g.rules[:3])
    # only the root recognized: the shared head symbol
    assert yld(FullItem(0, 3, s_rules, 4, 4)) == ("s",)
    # left side still open: root plus bracket of the shared right subtree
    assert yld(LeftOpenItem(0, 3, s_rules, 4)) == ("s",)
    done = DoneItem(-1, GenHeadRule("S'", Tree("⊥", None, Tree("S"))), 4)
    assert yld(done) == ("⊥", "[S]")
    assert yld(DoneItem(2, Tree("b"), 3)) == ("b",)
    ro = RightOpenItem(0, frozenset({g.rules[0]}), 3, 4)
    assert yld(ro) == ("[(c)A(b)]", "s")


def test_yld_rejects_inconsistent_sets(tree_demo_grammar):
    g = tree_demo_grammar
    mixed = frozenset({g.rules[0], demo_rule(g, "A", Tree("a"))})
    with pytest.raises(YldInconsistencyError):
        yld(FullItem(0, 0, mixed, 1, 1))


def test_yld_consistent_on_all_reachable_items(tree_demo_automaton):
    for cfg in explore(tree_demo_automaton, ("c", "a", "b", "s")).stacks:
        for item in cfg:
            yld(item)  # must not raise


def test_ghi_clause_labels():
    auto = build_ghi(embed(hg("S", ("S", "*a"))))
    assert [c.label for c in auto.clauses] == [
        "1a", "1b", "1c", "1d", "2a", "2b", "3a", "3b",
        "4a", "4b", "5a", "5b", "6a", "6b", "7a", "7b"]


def test_empty_subtree_conversions_confluent(tree_demo_grammar):
    # a leaf tree may drop its (absent) subtrees in either order; both
    # orders funnel into the same completed items
    auto = build_ghi(tree_demo_grammar)
    tokens = ("a",)
    leaf_full = FullItem(0, 0, frozenset({Tree("a")}), 1, 1)
    stack = (auto.make_init(1), leaf_full)

    def outcomes(cfg, depth):
        if depth == 0 or type(cfg[-1]) is DoneItem:
            return {cfg[-1]} if type(cfg[-1]) is DoneItem else set()
        out = set()
        for label, popped, item, _ in successors(auto.clauses, cfg, tokens):
            if label in ("1a", "1b", "1c", "1d"):
                out |= outcomes(cfg[:len(cfg) - popped] + (item,), depth - 1)
        return out

    via_both_orders = outcomes(stack, 2)
    assert via_both_orders == {DoneItem(0, Tree("a"), 1)}
    # and both intermediate shapes really occur
    first_steps = {label for label, _, _, _ in
                   successors(auto.clauses, stack, tokens) if label in ("1a", "1b")}
    assert first_steps == {"1a", "1b"}


# the shape of the item below the top that each attachment reads
BELOW_SHAPES = {"4a": FullItem, "4b": FullItem, "6a": FullItem, "6b": FullItem,
                "5a": RightOpenItem, "7a": RightOpenItem,
                "5b": LeftOpenItem, "7b": LeftOpenItem}


def test_attachments_fire_only_over_their_below_shape():
    # a done top plans all four of its attachments, so each must find
    # nothing unless the item below has the shape it extends; across the
    # acceptance gate's tree corpus every call over another shape, or over
    # no item, yields nothing, and every attachment fires somewhere
    fired = set()
    wrong = []

    def checked(clause):
        shape = BELOW_SHAPES.get(clause.label)
        if shape is None:
            return clause

        def matcher(window, tokens):
            steps = list(clause.matcher(window, tokens))
            if steps:
                fired.add(clause.label)
                if len(window) < 2 or type(window[-2]) is not shape:
                    wrong.append((clause.label, window))
            return iter(steps)
        return dataclasses.replace(clause, matcher=matcher)

    inputs = all_inputs(("a", "b"), 5)
    for g in gen_grammar_corpus(100, seed=27182):
        automaton = build_ghi(g)
        checking = dataclasses.replace(
            automaton, clauses=tuple(map(checked, automaton.clauses)))
        for tokens in inputs:
            run(checking, tokens, max_steps=200_000)
    assert wrong == []
    assert fired == set(BELOW_SHAPES)
