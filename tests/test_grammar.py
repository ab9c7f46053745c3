import pytest

from headparse import (FULL, LEFT, RIGHT, GenHeadGrammar, GrammarError,
                       HeadGrammar, HeadRule, augment, detect_cyclic,
                       detect_head_recursion, embed, head_corner, validate)
from headparse.corpus import head_grammar_corpus
from conftest import hg


def test_validate_accepts_smallest_grammar():
    assert validate(hg("S", ("S", "*a"))) == []


def test_validate_reports_empty_rhs():
    g = HeadGrammar([HeadRule("S", (), 0)], "S")
    diags = validate(g)
    assert any("empty right-hand side" in d for d in diags)


def test_validate_reports_head_out_of_range():
    g = HeadGrammar([HeadRule("S", ("a",), 3)], "S")
    assert any("out of range" in d for d in validate(g))


def test_validate_reports_ruleless_start():
    g = HeadGrammar([HeadRule("A", ("a",), 0)], "S")
    assert any("start symbol S" in d for d in validate(g))


def test_augment_adds_one_rule_and_two_fresh_symbols():
    g = hg("S", ("S", "*a"))
    aug = augment(g)
    assert len(aug.rules) == len(g.rules) + 1
    assert aug.rules[:-1] == g.rules
    extra = aug.rules[-1]
    assert extra.lhs == aug.start_prime
    assert extra.rhs == (aug.bottom, "S")
    assert extra.head == 0
    assert aug.start_prime not in g.symbols
    assert aug.bottom not in g.symbols
    assert len(aug.symbols - g.symbols) == 2


def test_augment_freshens_start_prime_on_collision():
    g = hg("S", ("S", "*S'"), ("S'", "*a"))
    aug = augment(g)
    assert aug.start_prime == "S''"


def test_augment_rejects_invalid_grammar():
    g = HeadGrammar([HeadRule("A", ("a",), 0)], "S")
    with pytest.raises(GrammarError):
        augment(g)


def test_head_corner_full_vs_left():
    aug = augment(hg("S", ("S", "c *A b"), ("A", "*a")))
    full = head_corner(aug, FULL)
    left = head_corner(aug, LEFT)
    nts = aug.nonterminals
    identity = {(x, x) for x in nts}
    assert full == identity | {("A", "S")}
    assert left == identity  # the head of the S rule is not leftmost


def test_head_corner_left_when_head_leftmost():
    aug = augment(hg("S", ("S", "*A b"), ("A", "*a")))
    left = head_corner(aug, LEFT)
    assert ("A", "S") in left
    right = head_corner(aug, RIGHT)
    assert ("A", "S") not in right


def _closure_oracle(aug, variant):
    """Naive fixpoint over explicit pairs, independent of the BFS closure."""
    pairs = {(x, x) for x in aug.nonterminals}
    for r in aug.rules:
        h = r.rhs[r.head]
        if h not in aug.nonterminals:
            continue
        if variant == LEFT and r.head != 0:
            continue
        if variant == RIGHT and r.head != len(r.rhs) - 1:
            continue
        pairs.add((h, r.lhs))
    changed = True
    while changed:
        changed = False
        for (b, a) in list(pairs):
            for (c, b2) in list(pairs):
                if b2 == b and (c, a) not in pairs:
                    pairs.add((c, a))
                    changed = True
    return frozenset(pairs)


@pytest.mark.parametrize("variant", [FULL, LEFT, RIGHT])
def test_head_corner_matches_fixpoint_oracle(variant):
    for g in head_grammar_corpus(30, seed=501):
        aug = augment(g)
        assert head_corner(aug, variant) == _closure_oracle(aug, variant)


def test_detect_head_recursion_self_head():
    aug = augment(hg("S", ("S", "a *S b")))
    cycle = detect_head_recursion(aug)
    assert cycle == ["S"]


def test_detect_head_recursion_none_for_terminal_heads(tiny_grammar):
    assert detect_head_recursion(augment(tiny_grammar)) is None


def _matrix_cycle_oracle(edges, nodes):
    """A +-closure by repeated squaring; reports whether any node reaches itself."""
    nodes = sorted(nodes)
    index = {x: i for i, x in enumerate(nodes)}
    n = len(nodes)
    mat = [[False] * n for _ in range(n)]
    for src, targets in edges.items():
        for dst in targets:
            mat[index[src]][index[dst]] = True
    closure = [row[:] for row in mat]
    for _ in range(max(1, n)):
        closure = [
            [closure[i][j] or any(closure[i][k] and mat[k][j] for k in range(n))
             for j in range(n)]
            for i in range(n)]
    return any(closure[i][i] for i in range(n))


def test_detect_head_recursion_agrees_with_matrix_oracle():
    for g in head_grammar_corpus(60, seed=502):
        aug = augment(g)
        edges = {}
        for r in aug.rules:
            h = r.rhs[r.head]
            if h in aug.nonterminals:
                edges.setdefault(r.lhs, set()).add(h)
        expected = _matrix_cycle_oracle(edges, aug.nonterminals)
        witness = detect_head_recursion(aug)
        assert (witness is not None) == expected
        if witness is not None:
            # the witness really is a head-corner cycle
            for pos, node in enumerate(witness):
                nxt = witness[(pos + 1) % len(witness)]
                assert nxt in edges.get(node, ())


def test_detect_cyclic_unit_cycle():
    aug = augment(hg("S", ("S", "*A"), ("A", "*S")))
    cycle = detect_cyclic(aug)
    assert cycle is not None and set(cycle) == {"S", "A"}


def test_detect_cyclic_needs_unit_rules():
    aug = augment(hg("S", ("S", "*A A"), ("A", "*a")))
    assert detect_cyclic(aug) is None


def _derivation_cycle_oracle(g):
    """Search A =>+ A over unit rules, up to |N| steps, by brute force."""
    unit = {}
    for r in g.rules:
        if len(r.rhs) == 1 and r.rhs[0] in g.nonterminals:
            unit.setdefault(r.lhs, set()).add(r.rhs[0])
    for start in g.nonterminals:
        frontier = {start}
        for _ in range(len(g.nonterminals)):
            frontier = {y for x in frontier for y in unit.get(x, ())}
            if start in frontier:
                return True
            if not frontier:
                break
    return False


def test_detect_cyclic_agrees_with_derivation_oracle():
    for g in head_grammar_corpus(60, seed=503):
        aug = augment(g)
        assert (detect_cyclic(aug) is not None) == _derivation_cycle_oracle(aug)


@pytest.mark.parametrize("detect", [detect_cyclic, detect_head_recursion])
def test_cycle_search_survives_deep_unit_chain(detect):
    names = ["N%04d" % i for i in range(3000)]
    chain = [HeadRule(a, (b,), 0) for a, b in zip(names, names[1:])]
    open_chain = HeadGrammar(chain + [HeadRule(names[-1], ("a",), 0)], names[0])
    assert detect(augment(open_chain)) is None
    closed = HeadGrammar(chain + [HeadRule(names[-1], (names[0],), 0),
                                  HeadRule(names[-1], ("a",), 0)], names[0])
    assert detect(augment(closed)) == names


def test_augmented_tau_head_demo_rule_count(tree_demo_grammar):
    from headparse import tau_head
    flat = tau_head(tree_demo_grammar)
    aug = augment(flat)
    assert len(aug.rules) == len(flat.rules) + 1
    full = head_corner(aug, FULL)
    assert full == _closure_oracle(aug, FULL)


def test_embed_keeps_the_symbol_indexes():
    for g in head_grammar_corpus(40, seed=1300):
        tree = embed(g)
        assert tree.nonterminals == g.nonterminals
        assert tree.terminals == g.terminals
        assert tree.symbols == g.symbols
        assert tree.rules_by_lhs.keys() == g.rules_by_lhs.keys()
        assert [tree.plain_rhs(t.rhs) for t in tree.rules] == \
            [g.plain_rhs(r.rhs) for r in g.rules]


def test_head_and_tree_grammars_never_compare_equal():
    assert HeadGrammar([], "S") != GenHeadGrammar([], "S")
    assert GenHeadGrammar([], "S") != HeadGrammar([], "S")
    aug = augment(hg("S", ("S", "*a")))
    assert aug == HeadGrammar(aug.rules, aug.start)
    assert hash(aug) == hash(HeadGrammar(aug.rules, aug.start))


def test_repr_names_the_formalism(tree_demo_grammar):
    g = hg("S", ("S", "c *A b"), ("A", "*a"))
    assert repr(g) == "HeadGrammar(start='S', 2 rules)"
    assert repr(augment(g)) == "HeadGrammar(start='S', 3 rules)"
    assert repr(tree_demo_grammar) == "GenHeadGrammar(start='S', 5 rules)"
