from headparse import Verdict, augment, run
from headparse.corpus import all_inputs, eligible, head_grammar_corpus
from headparse.oracle import enumerate_language
from headparse.recognizer_hi import (build_hi, compute_relations, gotoleft1,
                                     gotoleft2, gotoright1, gotoright2)
from headparse.recognizers_basic import build_hc
from conftest import accepts, hg


def _setup(g):
    aug = augment(g)
    return aug, compute_relations(aug)


def _dotted(aug, lhs, rhs, ld, rd):
    for rid, r in enumerate(aug.rules):
        if r.lhs == lhs and r.rhs == rhs:
            return (rid, ld, rd)
    raise AssertionError("no such rule")


def test_gotoright1_fresh_head(tiny_grammar):
    aug, rels = _setup(tiny_grammar)
    q = frozenset({_dotted(aug, aug.start_prime, (aug.bottom, "S"), 0, 1)})
    out = gotoright1(aug, rels, q, "a")
    assert out == frozenset({_dotted(aug, "A", ("a",), 0, 1)})


def test_gotoright1_empty_when_symbol_heads_nothing(tiny_grammar):
    aug, rels = _setup(tiny_grammar)
    q = frozenset({_dotted(aug, aug.start_prime, (aug.bottom, "S"), 0, 1)})
    assert gotoright1(aug, rels, q, "b") == frozenset()


def test_gotoright1_empty_without_pending_nonterminal(tiny_grammar):
    aug, rels = _setup(tiny_grammar)
    q = frozenset({_dotted(aug, "A", ("a",), 0, 1)})  # nothing after the dot
    assert gotoright1(aug, rels, q, "a") == frozenset()


def test_gotoright2_pure_dot_advance():
    g = hg("S", ("S", "*A b"), ("A", "*a"))
    aug, rels = _setup(g)
    q = frozenset({_dotted(aug, "S", ("A", "b"), 0, 1)})
    out = gotoright2(aug, rels, q, "b")
    assert out == frozenset({_dotted(aug, "S", ("A", "b"), 0, 2)})


def test_gotoright2_fresh_leftmost_head():
    g = hg("S", ("S", "*a b"))
    aug, rels = _setup(g)
    q = frozenset({_dotted(aug, aug.start_prime, (aug.bottom, "S"), 0, 1)})
    out = gotoright2(aug, rels, q, "a")
    assert _dotted(aug, "S", ("a", "b"), 0, 1) in out


def test_gotoright2_no_match():
    g = hg("S", ("S", "*a b"))
    aug, rels = _setup(g)
    q = frozenset({_dotted(aug, aug.start_prime, (aug.bottom, "S"), 0, 1)})
    assert gotoright2(aug, rels, q, "z") == frozenset()


def test_gotoleft_mirrors():
    g = hg("S", ("S", "b *A"), ("A", "*a"))
    aug, rels = _setup(g)
    # A recognized as the head of the S rule; b pending to its left
    q = frozenset({_dotted(aug, "S", ("b", "A"), 1, 2)})
    advanced = gotoleft2(aug, rels, q, "b")
    assert advanced == frozenset({_dotted(aug, "S", ("b", "A"), 0, 2)})
    assert gotoleft1(aug, rels, q, "a") == frozenset()  # no pending nonterminal left

    g2 = hg("S", ("S", "*A c"), ("A", "b *a"))
    aug2, rels2 = _setup(g2)
    q2 = frozenset({_dotted(aug2, "S", ("A", "c"), 0, 1)})
    # nothing pending on the left of the recognized infix
    assert gotoleft2(aug2, rels2, q2, "b") == frozenset()


def test_goto_results_contain_only_rules_headed_by_argument(tiny_grammar):
    aug, rels = _setup(tiny_grammar)
    q = frozenset({_dotted(aug, aug.start_prime, (aug.bottom, "S"), 0, 1)})
    for sym in ("a", "b", "c"):
        for out in (gotoright1(aug, rels, q, sym), gotoright2(aug, rels, q, sym)):
            for rid, ld, rd in out:
                rule = aug.rules[rid]
                if (ld, rd) == (rule.head, rule.head + 1):
                    assert rule.head_symbol == sym


def test_hi_accepts_adjacent_head_without_nonadjacent_scan():
    g = hg("S", ("S", "*a b"))
    auto = build_hi(augment(g))
    result = run(auto, ("a", "b"))
    assert result.verdict is Verdict.ACCEPT
    labels = [step.label for step in result.accepting_trace.steps]
    assert "1a" not in labels
    assert "2a" in labels


def test_hi_differential_against_oracle():
    checked = 0
    for g in head_grammar_corpus(40, seed=911):
        aug = augment(g)
        if not eligible(aug, "hi"):
            continue
        auto = build_hi(aug)
        language = enumerate_language(g, 4)
        for tokens in all_inputs(("a", "b"), 4):
            assert accepts(auto, tokens) == (tokens in language)
            checked += 1
    assert checked > 500


def test_hi_close_to_ehi_when_corners_sparse():
    # heads never leftmost or rightmost: both side relations are identities
    g = hg("S", ("S", "c *A b"), ("A", "b *a b"))
    aug = augment(g)
    rels = compute_relations(aug)
    identity = {(x, x) for x in aug.nonterminals}
    assert rels.left == identity and rels.right == identity
    from headparse.recognizers_basic import build_ehi
    hi = run(build_hi(aug), ("c", "b", "a", "b", "b"), exhaustive=True)
    ehi = run(build_ehi(aug), ("c", "b", "a", "b", "b"), exhaustive=True)
    assert hi.verdict == ehi.verdict
    assert abs(hi.stats.configurations_explored
               - ehi.stats.configurations_explored) <= 2


def test_hi_reductions_pop_whole_member_chains(tiny_grammar):
    auto = build_hi(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    result = run(auto, tokens)
    assert result.verdict is Verdict.ACCEPT
    # replay and measure stack-depth changes per reduction step
    depth = 1
    for step in result.accepting_trace.steps:
        new_depth = len(step.stack)
        if step.label in ("3a", "3b", "4a", "4b"):
            assert new_depth <= depth
        else:
            assert new_depth == depth + 1
        depth = new_depth


def test_hi_agrees_with_hc(tiny_grammar):
    aug = augment(tiny_grammar)
    hi = build_hi(aug)
    hc = build_hc(aug)
    for tokens in all_inputs(("a", "b", "c"), 4):
        assert accepts(hi, tokens) == accepts(hc, tokens)
