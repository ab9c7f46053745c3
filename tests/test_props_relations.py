"""Property group: closure laws of the head-corner relation family."""

from hypothesis import given, settings, strategies as st

from headparse import FULL, LEFT, RIGHT, HeadGrammar, HeadRule, augment, head_corner

NTS = ("S", "A", "B", "C")
TERMS = ("a", "b")


@st.composite
def grammars(draw):
    n_rules = draw(st.integers(1, 7))
    lhs_list = ["S"] + draw(st.lists(st.sampled_from(NTS),
                                     min_size=n_rules - 1, max_size=n_rules - 1))
    pool = list(TERMS) + sorted(set(lhs_list))
    rules = []
    for lhs in lhs_list:
        rhs = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        head = draw(st.integers(0, len(rhs) - 1))
        rules.append(HeadRule(lhs, rhs, head))
    return HeadGrammar(rules, "S")


@settings(max_examples=60, deadline=None)
@given(grammars(), st.sampled_from([FULL, LEFT, RIGHT]))
def test_reflexive(g, variant):
    aug = augment(g)
    rel = head_corner(aug, variant)
    for x in aug.nonterminals:
        assert (x, x) in rel


@settings(max_examples=60, deadline=None)
@given(grammars(), st.sampled_from([FULL, LEFT, RIGHT]))
def test_transitive(g, variant):
    pairs = head_corner(augment(g), variant)
    for (b, a) in pairs:
        for (c, b2) in pairs:
            if b2 == b:
                assert (c, a) in pairs


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_side_variants_are_subsets_of_full(g):
    aug = augment(g)
    full = head_corner(aug, FULL)
    assert head_corner(aug, LEFT) <= full
    assert head_corner(aug, RIGHT) <= full


@settings(max_examples=60, deadline=None)
@given(grammars())
def test_no_head_recursion_means_acyclic_graph(g):
    from headparse import detect_head_recursion
    aug = augment(g)
    if detect_head_recursion(aug) is not None:
        return
    # topological order must exist over the head-corner edges
    edges = {}
    indegree = {x: 0 for x in aug.nonterminals}
    for r in aug.rules:
        h = r.rhs[r.head]
        if h in aug.nonterminals and r.lhs not in edges.get(h, set()):
            edges.setdefault(h, set()).add(r.lhs)
    for targets in edges.values():
        for t in targets:
            indegree[t] += 1
    ready = [x for x, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for t in edges.get(node, ()):
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    assert seen == len(aug.nonterminals)
