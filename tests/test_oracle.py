import pytest

from headparse import Verdict, augment, run, tau_head
from headparse.corpus import all_inputs, head_grammar_corpus
from headparse.oracle import (EnumerationLimitError, SubsequenceVerdict,
                              check_subsequence_property, enumerate_language,
                              enumerate_report, is_subsequence, recognize,
                              useless_symbols)
from headparse import recognizers_basic
from headparse.recognizers_basic import build_hc
from conftest import explore, hg


def test_recognize_demo_sentence(tree_demo_grammar):
    assert recognize(tree_demo_grammar, ("c", "a", "b", "s"))
    assert not recognize(tree_demo_grammar, ("s",))
    assert not recognize(tree_demo_grammar, ())


def test_recognize_plain(tiny_grammar):
    assert recognize(tiny_grammar, ("c", "a", "b"))
    assert not recognize(tiny_grammar, ("c", "b", "a"))


def test_enumerate_trivial():
    assert enumerate_language(hg("S", ("S", "*a")), 3) == {("a",)}


def test_enumerate_demo_exact(tree_demo_grammar):
    strings = enumerate_language(tree_demo_grammar, 4)
    assert strings == {("c", "a", "b", "s"), ("a", "d", "s"), ("a", "b", "s")}


def test_enumerate_recognize_consistency():
    for g in head_grammar_corpus(20, seed=1001):
        strings = enumerate_language(g, 4)
        for tokens in all_inputs(("a", "b"), 4):
            assert recognize(g, tokens) == (tokens in strings)


def test_enumerate_rejects_bad_bound(tiny_grammar):
    with pytest.raises(ValueError):
        enumerate_language(tiny_grammar, 0)


def test_enumerate_frontier_cap():
    g = hg("S", ("S", "*S S"), ("S", "*a"), ("S", "*b"))
    with pytest.raises(EnumerationLimitError):
        enumerate_language(g, 14, frontier_cap=50)


def test_enumerate_truncation_flag(tiny_grammar):
    _, truncated = enumerate_report(tiny_grammar, 3)
    assert not truncated  # finite language, fully enumerated
    infinite = hg("S", ("S", "a *S"), ("S", "*b"))
    _, truncated = enumerate_report(infinite, 3)
    assert truncated


def test_useless_symbols():
    g = hg("S", ("S", "*a"), ("B", "*b"), ("C", "*C"))
    useless = useless_symbols(g)
    assert "B" in useless  # unreachable
    assert "C" in useless  # unproductive (and unreachable)
    assert "S" not in useless and "a" not in useless
    assert useless_symbols(hg("S", ("S", "c *A b"), ("A", "*a"))) == frozenset()


def test_is_subsequence():
    assert is_subsequence((), ("a", "b"))
    assert is_subsequence(("a", "b"), ("c", "a", "d", "b"))
    assert not is_subsequence(("b", "a"), ("a", "b"))


def test_subsequence_property_vacuous(tiny_grammar):
    verdict = check_subsequence_property(tiny_grammar, ("c", "a", "d"), ())
    assert verdict is SubsequenceVerdict.HOLDS


def test_subsequence_property_on_failed_run(tiny_grammar):
    # every consulted set of a failing run spells a subsequence of "c a b"
    aug = augment(tiny_grammar)
    auto = build_hc(aug)
    tokens = ("c", "a", "d")
    assert run(auto, tokens).verdict is Verdict.REJECT
    consulted_sets = explore(auto, tokens).consulted
    assert any(consulted_sets)
    for consulted in consulted_sets:
        verdict = check_subsequence_property(tiny_grammar, tokens, consulted)
        assert verdict is SubsequenceVerdict.HOLDS


def test_subsequence_property_flags_broken_recognizer(tiny_grammar, monkeypatch):
    # dropping the head-corner gate lets the recognizer consult positions no
    # language string can justify; the checker must notice
    g = hg("S", ("S", "c *A b"), ("A", "*a"), ("D", "*d"))
    aug = augment(g)
    everything = frozenset((b, a) for b in aug.nonterminals for a in aug.nonterminals)
    monkeypatch.setattr(recognizers_basic, "head_corner", lambda aug, variant: everything)
    broken = build_hc(aug)
    tokens = ("c", "a", "d")
    verdicts = {check_subsequence_property(g, tokens, consulted)
                for consulted in explore(broken, tokens).consulted}
    assert SubsequenceVerdict.FAILS in verdicts


def test_subsequence_inconclusive_is_distinct():
    # the consulted sequence exists only in strings beyond the bound
    g = hg("S", ("S", "a a a a *b"))
    verdict = check_subsequence_property(g, ("b",), (1,), max_len=2)
    assert verdict is SubsequenceVerdict.INCONCLUSIVE


def test_chart_unit_closure_stabilizes():
    g = hg("S", ("S", "*A"), ("A", "*B"), ("B", "*b"))
    assert recognize(g, ("b",))
    assert not recognize(g, ("b", "b"))


def test_recognize_gen_routes_through_flattening(tree_demo_grammar):
    flat = tau_head(tree_demo_grammar)
    for tokens in [("c", "a", "b", "s"), ("a", "b", "s"), ("a", "b")]:
        assert recognize(tree_demo_grammar, tokens) == recognize(flat, tokens)
