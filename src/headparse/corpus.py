"""Seeded grammar generators and fixed grammar families for differential
and statistics testing.

Random head grammars stay tiny on purpose (at most 4 nonterminals, 8
rules, right-hand sides of length 3, terminal alphabet {a, b}); the point
is breadth of shapes, not size.  Every nonterminal that occurs in a
right-hand side also owns a rule, so derived nonterminal status matches
the generator's intent.
"""

from __future__ import annotations

import itertools
import random

from .grammar import (AugmentedGrammar, HeadGrammar, HeadRule, augment,
                      detect_cyclic, detect_head_recursion, parse_hg)
from .transform import GenHeadGrammar, GenHeadRule, Tree, tau_head

NONTERMINAL_NAMES = ("S", "A", "B", "C")
TERMINALS = ("a", "b")


def random_head_grammar(rng: random.Random, max_nonterminals: int = 4,
                        max_rules: int = 8, max_rhs: int = 3,
                        terminals=TERMINALS) -> HeadGrammar:
    names = NONTERMINAL_NAMES[:rng.randint(1, max_nonterminals)]
    n_rules = rng.randint(1, max_rules)
    lhs_list = ["S"] + [rng.choice(names) for _ in range(n_rules - 1)]
    pool = list(terminals) + sorted(set(lhs_list))
    rules = []
    for lhs in lhs_list:
        size = rng.randint(1, max_rhs)
        rhs = tuple(rng.choice(pool) for _ in range(size))
        rules.append(HeadRule(lhs, rhs, rng.randrange(size)))
    return HeadGrammar(rules, "S")


def random_gen_grammar(rng: random.Random, max_nonterminals: int = 4,
                       max_rules: int = 6, max_depth: int = 3,
                       terminals=TERMINALS) -> GenHeadGrammar:
    names = NONTERMINAL_NAMES[:rng.randint(1, max_nonterminals)]
    n_rules = rng.randint(1, max_rules)
    lhs_list = ["S"] + [rng.choice(names) for _ in range(n_rules - 1)]
    pool = list(terminals) + sorted(set(lhs_list))

    def tree(depth):
        root = rng.choice(pool)
        left = tree(depth - 1) if depth > 1 and rng.random() < 0.4 else None
        right = tree(depth - 1) if depth > 1 and rng.random() < 0.4 else None
        return Tree(root, left, right)

    rules = [GenHeadRule(lhs, tree(max_depth)) for lhs in lhs_list]
    return GenHeadGrammar(rules, "S")


def head_grammar_corpus(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_head_grammar(rng) for _ in range(count)]


def gen_grammar_corpus(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_gen_grammar(rng) for _ in range(count)]


def all_inputs(alphabet, max_len: int, include_empty: bool = True) -> list:
    out = [()] if include_empty else []
    for size in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=size))
    return out


def eligible(aug: AugmentedGrammar, algorithm: str) -> bool:
    """Whether the algorithm is guaranteed loop-free on this grammar:
    top-down requires no head recursion, the rest no derivation cycle."""
    if algorithm == "td":
        return detect_head_recursion(aug) is None
    return detect_cyclic(aug) is None


def gen_eligible(g: GenHeadGrammar) -> bool:
    return detect_cyclic(augment(tau_head(g))) is None


def _hg(start, *rule_specs):
    """Rules written as ('S', 'c *A b'); '*' marks the head."""
    return parse_hg("\n".join(["start " + start] + ["%s -> %s" % r for r in rule_specs]))


def common_infix_family() -> list:
    """(grammar, in-language inputs) pairs whose rules share head-containing
    infixes; the family on which the nondeterminism ordering of the four
    flat recognizers is asserted."""
    family = []
    g1 = _hg("S", ("S", "c *A b"), ("S", "c *A d"), ("A", "*a"))
    family.append((g1, [("c", "a", "b"), ("c", "a", "d")]))
    g2 = _hg("S", ("S", "c c *A b"), ("S", "c c *A d"), ("A", "*a"))
    family.append((g2, [("c", "c", "a", "b"), ("c", "c", "a", "d")]))
    g3 = _hg("U", ("U", "*S"), ("U", "*T"), ("S", "c *A b"), ("T", "c *A d"),
             ("A", "*a"))
    family.append((g3, [("c", "a", "b"), ("c", "a", "d")]))
    g4 = _hg("S", ("S", "*A b b"), ("S", "*A b d"), ("A", "*a"))
    family.append((g4, [("a", "b", "b"), ("a", "b", "d")]))
    g5 = _hg("S", ("S", "c *A b"), ("S", "c *A b b"), ("A", "*a"))
    family.append((g5, [("c", "a", "b"), ("c", "a", "b", "b")]))
    g6 = _hg("S", ("S", "*a b"), ("S", "*a d"))
    family.append((g6, [("a", "b"), ("a", "d")]))
    return family


def head_recursive_examples() -> list:
    """(grammar, sample inputs); every grammar has a head-corner cycle."""
    g1 = _hg("S", ("S", "a *S"), ("S", "*b"))
    g2 = _hg("S", ("S", "*S a"), ("S", "*b"))
    g3 = _hg("S", ("S", "a *S a"), ("S", "*b"))
    return [
        (g1, [("a", "a", "b"), ("a", "a")]),
        (g2, [("b", "a", "a"), ("a", "a")]),
        (g3, [("a", "b", "a"), ("a", "a")]),
    ]


def cyclic_examples() -> list:
    """(grammar, sample inputs); every grammar has a derivation cycle."""
    g1 = _hg("S", ("S", "*A"), ("A", "*S"), ("A", "*a"))
    g2 = _hg("S", ("S", "*S"), ("S", "*a"))
    g3 = _hg("S", ("S", "*B"), ("B", "*C"), ("C", "*S"), ("C", "*c"))
    return [
        (g1, [("a",), ("a", "a")]),
        (g2, [("a",), ("b",)]),
        (g3, [("c",), ("c", "c")]),
    ]
