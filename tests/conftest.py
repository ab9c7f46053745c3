import pytest

from headparse import engine
from headparse.corpus import _hg
from headparse.differential import FLAT_BUILDERS  # noqa: F401 (shared by tests)
from headparse.recognizer_ghi import build_ghi
from headparse.transform import parse_ghg

hg = _hg  # concise grammar literals in tests

DEMO_GHG = """
start S
S -> (s (A (c) (b)) ())
S -> (s (A () (d)) ())
S -> (s (B) ())
A -> (a)
B -> (A () (b))
"""

# one rule whose tree nests deeper than Python's default recursion limit
DEEP_DEPTH = 1200
DEEP_GHG = "start S\nS -> %s(a)%s\n" % ("(a " * (DEEP_DEPTH - 1),
                                        " ())" * (DEEP_DEPTH - 1))


def run_verdict(automaton, tokens, **kwargs):
    return engine.run(automaton, tokens, **kwargs).verdict


def accepts(automaton, tokens, **kwargs):
    return run_verdict(automaton, tokens, **kwargs) is engine.Verdict.ACCEPT


@pytest.fixture(scope="session")
def tree_demo_grammar():
    return parse_ghg(DEMO_GHG)


@pytest.fixture(scope="session")
def tree_demo_automaton(tree_demo_grammar):
    return build_ghi(tree_demo_grammar)


@pytest.fixture(scope="session")
def tiny_grammar():
    # S -> c *A b ; A -> *a
    return hg("S", ("S", "c *A b"), ("A", "*a"))
