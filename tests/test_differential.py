from headparse import Verdict, differential
from headparse.corpus import all_inputs
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
