import pytest

from headparse import (GrammarError, GrammarFormatError, HeadGrammar,
                       file_safe_grammar, format_ghg, format_hg, parse_ghg,
                       parse_hg, tau_head, tree_yield)
from headparse.corpus import gen_grammar_corpus, head_grammar_corpus
from headparse.transform import Tree
from conftest import DEEP_DEPTH, DEEP_GHG, hg


def test_parse_hg_basic():
    g = parse_hg("# demo\nstart S\nS -> c *A b\nA -> *a\n")
    assert g.start == "S"
    assert g == hg("S", ("S", "c *A b"), ("A", "*a"))
    assert g.nonterminals == {"S", "A"}
    assert g.terminals == {"a", "b", "c"}


def test_parse_hg_trailing_comment_and_blank_lines():
    g = parse_hg("\nstart S  # comment\n\nS -> *a # head\n")
    assert g == hg("S", ("S", "*a"))


def test_parse_hg_multiple_heads_is_a_parse_error():
    with pytest.raises(GrammarFormatError) as err:
        parse_hg("start S\nS -> *a *b\n")
    assert "multiple heads" in str(err.value)
    assert err.value.line == 2


def test_parse_hg_missing_head():
    with pytest.raises(GrammarFormatError) as err:
        parse_hg("start S\nS -> a b\n")
    assert "missing head" in str(err.value)


def test_parse_hg_empty_rhs():
    with pytest.raises(GrammarFormatError) as err:
        parse_hg("start S\nS ->\n")
    assert "empty right-hand side" in str(err.value)


def test_parse_hg_requires_start_header():
    with pytest.raises(GrammarFormatError):
        parse_hg("S -> *a\n")


def test_parse_hg_rejects_bad_tokens():
    with pytest.raises(GrammarFormatError) as err:
        parse_hg("start S\nS -> *a{\n")
    assert err.value.line == 2 and err.value.column > 1


def test_parse_hg_rejects_ruleless_start():
    with pytest.raises(GrammarError):
        parse_hg("start S\nA -> *a\n")


def test_parse_hg_bottom_marker_not_writable():
    # the bottom marker is internal-only; the token syntax cannot express it
    with pytest.raises(GrammarFormatError):
        parse_hg("start S\nS -> *⊥\n")


def test_hg_round_trip_on_corpus():
    for g in head_grammar_corpus(25, seed=601):
        assert parse_hg(format_hg(g)) == g


def test_format_hg_rejects_unwritable_symbols():
    from headparse import HeadRule
    g = HeadGrammar([HeadRule("S", ("[x]",), 0), HeadRule("[x]", ("a",), 0)], "S")
    with pytest.raises(GrammarError):
        format_hg(g)


def test_file_safe_grammar_round_trips(tree_demo_grammar):
    flat = tau_head(tree_demo_grammar)
    safe, mapping = file_safe_grammar(flat)
    assert set(mapping) == {s for s in flat.symbols if "[" in s}
    reparsed = parse_hg(format_hg(safe))
    assert reparsed == safe


def test_parse_ghg_demo(tree_demo_grammar):
    assert tree_demo_grammar.start == "S"
    assert len(tree_demo_grammar.rules) == 5
    first = tree_demo_grammar.rules[0]
    assert first.lhs == "S"
    assert first.rhs == Tree("s", Tree("A", Tree("c"), Tree("b")), None)


def test_ghg_round_trip_demo(tree_demo_grammar):
    assert parse_ghg(format_ghg(tree_demo_grammar)) == tree_demo_grammar


def test_ghg_round_trip_on_corpus():
    for g in gen_grammar_corpus(25, seed=602):
        assert parse_ghg(format_ghg(g)) == g


def test_deep_ghg_tree_parses_round_trips_and_flattens():
    g = parse_ghg(DEEP_GHG)
    assert tree_yield(g.rules[0].rhs) == ("a",) * DEEP_DEPTH
    assert parse_ghg(format_ghg(g)) == g
    # the rule itself plus one rule per proper subtree
    assert len(tau_head(g).rules) == DEEP_DEPTH


def test_parse_ghg_rejects_empty_rule_tree():
    with pytest.raises(GrammarFormatError):
        parse_ghg("start S\nS -> ()\n")


def test_parse_ghg_reports_positions():
    with pytest.raises(GrammarFormatError) as err:
        parse_ghg("start S\nS -> (s (A) \n")
    assert err.value.line == 2


@pytest.mark.parametrize("line, message, column", [
    ("LongName -> (a!)", "bad character '!'", 15),
    ("S -> (a) (b)", "trailing input after tree", 10),
    ("   A{ -> (a)", "bad token 'A{'", 4),
    ("  S (a)", "expected '<Lhs> -> <tree>'", 3),
    ("S -> ()", "rule tree may not be empty", 6),
    ("  S ->", "empty right-hand side", 3),
    ("A B -> (a)", "expected '<Lhs> -> <tree>'", 1),
    ("  -> (a)", "expected '<Lhs> -> <tree>'", 3),
    ("S -> (", "unterminated tree", 6),
    ("S -> ((a))", "expected symbol", 7),
    ("S -> (s (a) (b) (c))", "expected ')'", 17),
])
def test_parse_ghg_error_columns_count_from_line_start(line, message, column):
    with pytest.raises(GrammarFormatError) as err:
        parse_ghg("start S\n%s\n" % line, source="g.ghg")
    assert (err.value.message, err.value.line, err.value.column) == (message, 2, column)
    assert str(err.value) == "g.ghg:2:%d: %s" % (column, message)
