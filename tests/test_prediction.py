"""Head prediction by index: `engine.positions` and the clauses that use it."""

import pytest
from hypothesis import given, settings, strategies as st

from headparse import augment, build_ghi, embed, engine
from headparse.recognizers_basic import Goal
from conftest import FLAT_BUILDERS, hg

# terminals of the grammars below, one outside them, and nonterminal names
SYMBOLS = ("a", "b", "c", "z", "S", "A")


@st.composite
def spans(draw):
    """(tokens, heads, lo, hi): a span of the input, possibly empty or
    reversed."""
    tokens = tuple(draw(st.lists(st.sampled_from(SYMBOLS), max_size=12)))
    heads = draw(st.frozensets(st.sampled_from(SYMBOLS)))
    bound = st.integers(0, len(tokens))
    return tokens, heads, draw(bound), draw(bound)


def reference(tokens, heads, lo, hi):
    return [p for p in range(lo + 1, hi + 1) if tokens[p - 1] in heads]


@settings(max_examples=300, deadline=None)
@given(spans())
def test_positions_are_the_scanned_positions_with_a_head_token(span):
    found = engine.positions(*span)
    assert iter(found) is found  # lazy: an iterator, not a list
    assert list(found) == reference(*span)


@settings(max_examples=100, deadline=None)
@given(spans(), spans())
def test_alternating_inputs_each_get_their_own_lists(first, second):
    for tokens, heads, lo, hi in (first, second, first, second):
        assert list(engine.positions(tokens, heads, lo, hi)) \
            == reference(tokens, heads, lo, hi)


def test_equal_but_distinct_token_tuples_agree():
    tokens = ("a", "c", "b", "c")
    twin = tuple(list(tokens))
    assert twin is not tokens
    heads = frozenset("c")
    assert list(engine.positions(tokens, heads, 0, 4)) == [2, 4]
    assert list(engine.positions(twin, heads, 0, 4)) == [2, 4]
    assert list(engine.positions(twin, frozenset("a"), 0, 4)) == [1]


def test_a_changed_list_of_tokens_is_read_afresh():
    tokens = ["a", "c", "b"]
    heads = frozenset("c")
    assert list(engine.positions(tokens, heads, 0, 3)) == [2]
    tokens[2] = "c"
    assert list(engine.positions(tokens, heads, 0, 3)) == [2, 3]


class ReadLog(tuple):
    """Tokens that log every index read from them."""

    def __new__(cls, tokens):
        self = super().__new__(cls, tokens)
        self.reads = []
        return self

    def __getitem__(self, index):
        self.reads.append(index)
        return tuple.__getitem__(self, index)


K = 4
TOKENS = ("a",) * K + ("c",) + ("b",) * K
N = len(TOKENS)
# grammar, then the tokens that can start a head predicted below its start
GRAMMARS = [(hg("S", ("S", "a *S b"), ("S", "*c")), {"c"}),
            (hg("S", ("S", "*a S b"), ("S", "*c")), {"a", "c"})]


def prediction(name, grammar):
    """The automaton, its head-predicting clause, the window it predicts
    on, and the span that clause scans."""
    if name == "ghi":
        automaton = build_ghi(embed(grammar))
        return automaton, "3a", (automaton.make_init(N),), (0, N)
    automaton = FLAT_BUILDERS[name](augment(grammar))
    if name == "td":
        return automaton, "1", (Goal(0, "S", N),), (0, N)
    # hi leaves the adjacent position to its scanning clause 2a
    return automaton, "1a", (automaton.make_init(N),), (1 if name == "hi" else 0, N)


@pytest.mark.parametrize("grammar, heads", GRAMMARS)
@pytest.mark.parametrize("name", ["td", "hc", "phi", "ehi", "hi", "ghi"])
def test_prediction_visits_only_positions_of_predicted_heads(name, grammar, heads):
    # a, b and c all occur in the span; each grammar predicts only some
    automaton, label, window, (lo, hi) = prediction(name, grammar)
    (clause,) = [c for c in automaton.clauses if c.label == label]
    tokens = ReadLog(TOKENS)
    steps = list(clause.matcher(window, tokens))
    expected = reference(TOKENS, heads, lo, hi)
    assert expected and len(expected) < hi - lo
    assert [consulted for _, _, consulted in steps] == expected
    assert tokens.reads == [p - 1 for p in expected]
