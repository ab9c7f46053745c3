import pytest

from headparse import Verdict, augment, run
from headparse.corpus import all_inputs, eligible, head_grammar_corpus
from headparse.oracle import enumerate_language
from headparse.recognizers_basic import (Goal, SetInfix, build_ehi, build_hc,
                                         build_phi, build_td)
from conftest import FLAT_BUILDERS, accepts, explore, hg


def test_td_tiny_accept_reject(tiny_grammar):
    auto = build_td(augment(tiny_grammar))
    assert accepts(auto, ("c", "a", "b"))
    assert not accepts(auto, ("a", "b"))
    assert not accepts(auto, ("c", "a"))
    assert not accepts(auto, ("c", "a", "b", "b"))


def test_td_init_fin_shapes(tiny_grammar):
    aug = augment(tiny_grammar)
    auto = build_td(aug)
    init = auto.make_init(3)
    fin = auto.make_fin(3)
    assert (init.i, init.k, init.ld, init.rd, init.m, init.j) == (-1, -1, 0, 1, 0, 3)
    assert (fin.ld, fin.rd, fin.m, fin.j) == (0, 2, 3, 3)
    assert init.rule == fin.rule == aug.start_rule_id


@pytest.mark.parametrize("name", ["td", "hc", "phi", "ehi", "hi"])
def test_all_flat_recognizers_on_tiny(name, tiny_grammar):
    auto = FLAT_BUILDERS[name](augment(tiny_grammar))
    assert accepts(auto, ("c", "a", "b"))
    assert not accepts(auto, ("a", "b"))


def test_hc_and_td_agree_on_small_inputs(tiny_grammar):
    aug = augment(tiny_grammar)
    td = build_td(aug)
    hc = build_hc(aug)
    for tokens in all_inputs(("a", "b", "c"), 4):
        assert accepts(td, tokens) == accepts(hc, tokens)


def test_hc_prediction_respects_head_corner(tiny_grammar):
    # D is not a head corner of anything reachable; its rule never enters a run
    g = hg("S", ("S", "c *A b"), ("A", "*a"), ("D", "*d"))
    aug = augment(g)
    auto = build_hc(aug)
    assert run(auto, ("c", "a", "d")).verdict is Verdict.REJECT
    d_rules = set(aug.rules_by_lhs["D"])
    for cfg in explore(auto, ("c", "a", "d")).stacks:
        for item in cfg:
            assert item.rule not in d_rules


def test_hc_cyclic_grammar_is_pruned_not_divergent():
    g = hg("S", ("S", "*A"), ("A", "*S"), ("A", "*a"))
    auto = build_hc(augment(g))
    result = run(auto, ("a",))
    assert result.verdict is Verdict.ACCEPT
    full = run(auto, ("a",), exhaustive=True)
    assert full.verdict is Verdict.ACCEPT
    assert full.stats.duplicates_pruned > 0
    assert not full.stats.limit_hit
    assert run(auto, ("b",)).verdict is Verdict.REJECT


def test_phi_accepts_like_hc_on_common_infix_grammar():
    g = hg("S", ("S", "c *A b"), ("S", "c *A d"), ("A", "*a"))
    aug = augment(g)
    hc = build_hc(aug)
    phi = build_phi(aug)
    for tokens in all_inputs(("a", "b", "c", "d"), 4):
        assert accepts(hc, tokens) == accepts(phi, tokens)


def test_phi_explores_strictly_less_than_hc_on_shared_infix():
    g = hg("S", ("S", "c *A b"), ("S", "c *A d"), ("A", "*a"))
    aug = augment(g)
    hc = run(build_hc(aug), ("c", "a", "b"), exhaustive=True)
    phi = run(build_phi(aug), ("c", "a", "b"), exhaustive=True)
    assert phi.stats.configurations_explored < hc.stats.configurations_explored


def test_phi_trivial_grammar():
    auto = build_phi(augment(hg("S", ("S", "*a"))))
    assert accepts(auto, ("a",))
    assert not accepts(auto, ("a", "a"))


def test_ehi_merges_across_left_hand_sides():
    g = hg("U", ("U", "*S"), ("U", "*T"), ("S", "c *A b"), ("T", "c *A d"),
           ("A", "*a"))
    aug = augment(g)
    phi = run(build_phi(aug), ("c", "a", "b"), exhaustive=True)
    ehi = run(build_ehi(aug), ("c", "a", "b"), exhaustive=True)
    assert ehi.stats.configurations_explored <= phi.stats.configurations_explored
    assert ehi.verdict is Verdict.ACCEPT


def test_ehi_delta_never_empty():
    g = hg("S", ("S", "c *A b"), ("S", "c *A d"), ("A", "*a"))
    auto = build_ehi(augment(g))
    for tokens in all_inputs(("a", "b", "c"), 3):
        for cfg in explore(auto, tokens).stacks:
            for item in cfg:
                assert isinstance(item, SetInfix) and item.delta


def test_ehi_agrees_with_oracle_on_randoms():
    for g in head_grammar_corpus(25, seed=901):
        aug = augment(g)
        if not eligible(aug, "ehi"):
            continue
        auto = build_ehi(aug)
        language = enumerate_language(g, 4)
        for tokens in all_inputs(("a", "b"), 4):
            assert accepts(auto, tokens) == (tokens in language)


def test_td_goal_items_only_in_td(tiny_grammar):
    aug = augment(tiny_grammar)
    td = explore(build_td(aug), ("c", "a", "b"))
    assert any(type(item) is Goal for cfg in td.stacks for item in cfg)


def test_mirror_clauses_share_labels():
    auto = build_hc(augment(hg("S", ("S", "*a"))))
    labels = [c.label for c in auto.clauses]
    assert labels == ["1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b"]
    td_labels = [c.label for c in build_td(augment(hg("S", ("S", "*a")))).clauses]
    assert td_labels == ["0", "0a", "0b", "1", "2a", "2b", "3", "4a", "4b"]


def _mirror_grammar(g):
    from headparse import HeadGrammar, HeadRule
    return HeadGrammar(
        [HeadRule(r.lhs, tuple(reversed(r.rhs)), len(r.rhs) - 1 - r.head)
         for r in g.rules], g.start)


def test_clause_mirror_symmetry_via_mirrored_grammars():
    # the b-clauses are exact mirrors of the a-clauses: a grammar with all
    # right-hand sides reversed must recognize exactly the reversed inputs
    for g in head_grammar_corpus(20, seed=902):
        mirrored = _mirror_grammar(g)
        assert _mirror_grammar(mirrored) == g  # mirroring is an involution
        aug = augment(g)
        maug = augment(mirrored)
        for name, builder in FLAT_BUILDERS.items():
            if not (eligible(aug, name) and eligible(maug, name)):
                continue
            auto = builder(aug)
            mauto = builder(maug)
            for tokens in all_inputs(("a", "b"), 3):
                assert accepts(auto, tokens) == accepts(mauto, tuple(reversed(tokens)))
