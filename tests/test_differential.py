import random

from headparse import Verdict, differential
from headparse.corpus import all_inputs, head_grammar_corpus, random_head_grammar
from headparse.oracle import enumerate_language
from headparse.transform import embed
from conftest import hg

INPUTS = all_inputs(("a", "b", "c"), 3)


def test_check_reports_a_language_that_omits_an_accepted_input(tiny_grammar):
    # the oracle side is wrong on purpose: "c a b" is in the language
    corpus = [(tiny_grammar, set()), (embed(tiny_grammar), set())]
    data = differential.check(corpus, INPUTS)
    cab = ("c", "a", "b")
    assert data.mismatches == (
        [differential.Outcome(0, name, cab, False, Verdict.ACCEPT)
         for name in ("td", "hc", "phi", "ehi", "hi")]
        + [differential.Outcome(1, "ghi", cab, False, Verdict.ACCEPT)])
    assert data.limit_hits == []
    assert (data.eligible_runs, data.opportunistic_runs) == (6 * len(INPUTS), 0)


def test_check_skips_td_and_runs_loop_prone_grammars_opportunistically():
    head_recursive = hg("S", ("S", "a *S"), ("S", "*b"))
    cyclic = hg("S", ("S", "*S"), ("S", "*a"))
    corpus = [(g, enumerate_language(g, 3))
              for g in (head_recursive, cyclic, embed(cyclic))]
    data = differential.check(corpus, INPUTS, max_steps=30_000)
    assert data.mismatches == [] and data.limit_hits == []
    assert data.skipped == 2  # td, on both flat grammars
    assert data.eligible_runs == 4 * len(INPUTS)
    assert data.opportunistic_runs == 5 * len(INPUTS)


def test_lineup_is_the_default_policy():
    flat = hg("S", ("S", "c *A b"), ("A", "*a"))
    head_recursive = hg("S", ("S", "a *S"), ("S", "*b"))
    cyclic = hg("S", ("S", "*S"), ("S", "*a"))

    def names(grammar):
        automata, skipped = differential.lineup(grammar)
        return [(name, eligible) for name, _, eligible in automata], skipped
    assert names(flat) == ([(n, True) for n in ("td", "hc", "phi", "ehi", "hi")], [])
    assert names(head_recursive) == ([(n, True) for n in ("hc", "phi", "ehi", "hi")],
                                     ["td"])
    assert names(cyclic) == ([(n, False) for n in ("hc", "phi", "ehi", "hi")], ["td"])
    assert names(embed(flat)) == ([("ghi", True)], [])
    assert names(embed(cyclic)) == ([("ghi", False)], [])


def test_check_counts_resource_limits_of_both_kinds(tiny_grammar):
    # one step is too few for any verdict on "c a b"; every run counts as a
    # limit, and only the eligible ones, on the acyclic grammar, as hits
    cab = ("c", "a", "b")
    cyclic = hg("S", ("S", "*S"), ("S", "*a"))
    data = differential.check([(tiny_grammar, {cab}), (cyclic, set())], [cab],
                              max_steps=1)
    assert data.mismatches == []
    assert data.limit_hits == [
        differential.Outcome(0, name, cab, True, Verdict.RESOURCE_LIMIT)
        for name in ("td", "hc", "phi", "ehi", "hi")]
    assert (data.eligible_runs, data.opportunistic_runs, data.limits) == (5, 4, 9)


def test_tokens_spelling_a_nonterminal_match_nothing():
    # an input token that spells a nonterminal is a token like any other: on
    # S -> *A b, A -> *a the input "A b" is rejected by every recognizer
    runs = 0
    for g in head_grammar_corpus(30, seed=11):
        language = enumerate_language(g, 3)
        inputs = all_inputs(("a", "b") + tuple(sorted(g.nonterminals)), 3)
        data = differential.check([(g, language), (embed(g), language)], inputs)
        assert data.mismatches == []
        runs += data.eligible_runs + data.opportunistic_runs
    assert runs == 677 + 5 * 2494  # td where not head-recursive, the rest always


def test_check_agrees_over_three_terminals_and_a_nonterminal_token():
    # over {a, b} most head sets hold every token; with c, and with S as a
    # token, the head sets that prediction scans by leave tokens out
    rng = random.Random(1401)
    corpus = []
    for _ in range(12):
        g = random_head_grammar(rng, terminals=("a", "b", "c"))
        language = enumerate_language(g, 3)
        corpus += [(g, language), (embed(g), language)]
    data = differential.check(corpus, all_inputs(("a", "b", "c", "S"), 3),
                              max_steps=200_000)
    assert data.mismatches == [] and data.limit_hits == []
    assert (data.eligible_runs, data.opportunistic_runs) == (4590, 850)
