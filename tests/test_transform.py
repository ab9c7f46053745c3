import pytest

from headparse import (GenHeadGrammar, GenHeadRule, GrammarError, HeadGrammar,
                       HeadRule, Tree, bracket_symbol, embed, parse_ghg,
                       tau_head, tau_two, tree_to_text, tree_yield)
from headparse.corpus import gen_grammar_corpus, head_grammar_corpus
from headparse.oracle import enumerate_language
from headparse.transform import subtrees
from conftest import DEEP_GHG, hg


def rule_set(g):
    return {(r.lhs, r.rhs, r.head) for r in g.rules}


def test_tree_text_and_yield():
    t = Tree("s", Tree("A", Tree("c"), Tree("b")), None)
    assert tree_to_text(t) == "((c)A(b))s"
    assert tree_yield(t) == ("c", "A", "b", "s")
    assert tree_to_text(Tree("A", None, Tree("d"))) == "A(d)"


def test_tree_structural_equality():
    assert Tree("a", Tree("b"), None) == Tree("a", Tree("b"), None)
    assert Tree("a", Tree("b"), None) != Tree("a", None, Tree("b"))
    assert hash(Tree("x", Tree("y"), Tree("z"))) == hash(Tree("x", Tree("y"), Tree("z")))


def test_tau_head_demo_exact_rules(tree_demo_grammar):
    flat = tau_head(tree_demo_grammar)
    assert flat.start == "S"
    expected = {
        ("S", ("[(c)A(b)]", "s"), 1),
        ("S", ("[A(d)]", "s"), 1),
        ("S", ("[B]", "s"), 1),
        ("A", ("a",), 0),
        ("B", ("A", "[b]"), 0),
        ("[(c)A(b)]", ("[c]", "A", "[b]"), 1),
        ("[c]", ("c",), 0),
        ("[b]", ("b",), 0),
        ("[A(d)]", ("A", "[d]"), 0),
        ("[d]", ("d",), 0),
        ("[B]", ("B",), 0),
    }
    assert rule_set(flat) == expected


def test_tau_head_leaf_rule_unchanged():
    g = GenHeadGrammar([GenHeadRule("S", Tree("a"))], "S")
    flat = tau_head(g)
    assert rule_set(flat) == {("S", ("a",), 0)}


def test_tau_head_well_formed_and_size_linear():
    for g in gen_grammar_corpus(30, seed=701):
        flat = tau_head(g)
        distinct_proper = set()
        for r in g.rules:
            stack = [r.rhs.left, r.rhs.right]
            while stack:
                node = stack.pop()
                if node is None:
                    continue
                distinct_proper.add(node)
                stack.extend((node.left, node.right))
        assert len(flat.rules) == len(g.rules) + len(distinct_proper)
        for r in flat.rules:
            assert len(r.rhs) >= 1
            assert 0 <= r.head < len(r.rhs)


def _tau_head_rules_by_bracket_symbol(g):
    """tau_head's rules with every bracket nonterminal named from scratch."""
    def flatten(lhs, t):
        left = () if t.left is None else (bracket_symbol(t.left),)
        right = () if t.right is None else (bracket_symbol(t.right),)
        return HeadRule(lhs, left + (t.root,) + right, len(left))
    proper = dict.fromkeys(node for r in g.rules for side in (r.rhs.left, r.rhs.right)
                           if side is not None for node in subtrees(side))
    return (tuple(flatten(r.lhs, r.rhs) for r in g.rules)
            + tuple(flatten(bracket_symbol(t), t) for t in proper))


@pytest.mark.parametrize("corpus", ["tree-corpus", "deep"])
def test_tau_head_names_match_bracket_symbol(corpus):
    grammars = [parse_ghg(DEEP_GHG)] if corpus == "deep" \
        else gen_grammar_corpus(40, seed=1301)
    for g in grammars:
        assert tau_head(g).rules == _tau_head_rules_by_bracket_symbol(g)


def test_tau_head_deterministic(tree_demo_grammar):
    assert tau_head(tree_demo_grammar) == tau_head(tree_demo_grammar)


def test_tau_head_preserves_language():
    for g in gen_grammar_corpus(20, seed=702):
        assert enumerate_language(g, 5) == enumerate_language(tau_head(g), 5)


def test_tau_two_schema_example():
    g = hg("S", ("S", "*a b c"))
    out = tau_two(g)
    assert [(r.lhs, r.rhs, r.head) for r in out.rules] == [
        ("S", ("a", "[b c]"), 0),
        ("[b c]", ("b", "[c]"), 0),
        ("[c]", ("c",), 0),
    ]


def test_tau_two_rejects_what_validate_rejects():
    with pytest.raises(GrammarError, match="rule 0 \\(S\\): empty right-hand side"):
        tau_two(HeadGrammar([HeadRule("S", (), 0)], "S"))
    with pytest.raises(GrammarError, match="start symbol S has no rules"):
        tau_two(HeadGrammar([HeadRule("A", ("a",), 0)], "S"))


def test_tau_two_short_rules_unchanged():
    g = hg("S", ("S", "*a"))
    assert rule_set(tau_two(g)) == {("S", ("a",), 0)}


def test_tau_two_lengths_and_language():
    for g in head_grammar_corpus(25, seed=703):
        out = tau_two(g)
        assert all(1 <= len(r.rhs) <= 2 for r in out.rules)
        assert enumerate_language(g, 5) == enumerate_language(out, 5)


def test_tau_two_shares_suffixes():
    g = hg("S", ("S", "*a b c"), ("S", "*d b c"))
    out = tau_two(g)
    assert sum(1 for r in out.rules if r.lhs == "[b c]") == 1


def test_embed_one_member_each_side():
    g = hg("S", ("S", "c *A b"))
    emb = embed(g)
    assert emb.rules[0] == GenHeadRule("S", Tree("A", Tree("c"), Tree("b")))


def test_embed_bare_head():
    g = hg("S", ("S", "*a"))
    assert embed(g).rules[0] == GenHeadRule("S", Tree("a"))


def test_embed_left_chain():
    g = hg("S", ("S", "c d *A"), ("A", "*a"))
    emb = embed(g)
    assert emb.rules[0] == GenHeadRule("S", Tree("A", Tree("d", Tree("c"), None), None))


def test_embed_preserves_language():
    for g in head_grammar_corpus(20, seed=704):
        assert enumerate_language(g, 5) == enumerate_language(embed(g), 5)
