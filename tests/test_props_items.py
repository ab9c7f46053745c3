"""Property group: every item ever pushed satisfies its shape's invariants."""

from headparse import augment, run
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.recognizer_ghi import (DoneItem, FullItem, LeftOpenItem,
                                      RightOpenItem, build_ghi)
from headparse.recognizer_hi import HiItem, build_hi
from headparse.recognizers_basic import (Dotted, Goal, SetInfix, build_ehi,
                                         build_hc, build_phi, build_td)

GRAMMARS = head_grammar_corpus(10, seed=1201)
INPUTS = all_inputs(("a", "b"), 3)


def _visited(builder, name):
    out = []
    for g in GRAMMARS:
        aug = augment(g)
        if not eligible(aug, name):
            continue
        auto = builder(aug)
        for tokens in INPUTS:
            result = run(auto, tokens, exhaustive=True, keep_visited=True)
            out.append((aug, len(tokens), result.visited))
    assert out
    return out


def _check_dotted(aug, n, item):
    rule = aug.rules[item.rule]
    assert -1 <= item.i <= item.k < item.m <= item.j <= n
    assert 0 <= item.ld <= rule.head < item.rd <= len(rule.rhs)


def test_td_items_well_formed():
    for aug, n, visited in _visited(build_td, "td"):
        for cfg in visited:
            for item in cfg:
                if type(item) is Goal:
                    assert -1 <= item.i < item.j <= n
                else:
                    _check_dotted(aug, n, item)


def test_hc_items_well_formed():
    for aug, n, visited in _visited(build_hc, "hc"):
        for cfg in visited:
            for item in cfg:
                assert type(item) is Dotted
                _check_dotted(aug, n, item)


def test_phi_items_well_formed():
    from headparse.recognizers_basic import InfixIndex
    for aug, n, visited in _visited(build_phi, "phi"):
        index = InfixIndex(aug)
        for cfg in visited:
            for item in cfg:
                assert type(item) is SetInfix and len(item.delta) == 1
                assert -1 <= item.i <= item.k < item.m <= item.j <= n
                assert item.gamma
                # some rule of the left-hand side really has this
                # head-containing infix
                (lhs,) = item.delta
                assert (lhs, item.gamma) in index.valid


def test_ehi_items_well_formed():
    from headparse.recognizers_basic import InfixIndex
    for aug, n, visited in _visited(build_ehi, "ehi"):
        index = InfixIndex(aug)
        for cfg in visited:
            for item in cfg:
                assert type(item) is SetInfix
                assert item.delta and item.gamma
                assert -1 <= item.i <= item.k < item.m <= item.j <= n
                for lhs in item.delta:
                    assert (lhs, item.gamma) in index.valid


def test_hi_items_well_formed():
    for aug, n, visited in _visited(build_hi, "hi"):
        for cfg in visited:
            for item in cfg:
                assert type(item) is HiItem
                assert item.q
                assert -1 <= item.i <= item.k < item.m <= item.j <= n
                for rid, ld, rd in item.q:
                    rule = aug.rules[rid]
                    assert 0 <= ld <= rule.head < rd <= len(rule.rhs)


def test_ghi_items_well_formed():
    checked = 0
    for g in gen_grammar_corpus(8, seed=1202):
        if not gen_eligible(g):
            continue
        auto = build_ghi(g)
        for tokens in INPUTS:
            result = run(auto, tokens, exhaustive=True, keep_visited=True)
            n = len(tokens)
            for cfg in result.visited:
                checked += 1
                for item in cfg:
                    kind = type(item)
                    if kind is FullItem:
                        assert -1 <= item.i <= item.k < item.m <= item.j <= n
                        assert item.q
                    elif kind is RightOpenItem:
                        assert -1 <= item.k < item.m <= item.j <= n
                        assert item.q
                    elif kind is LeftOpenItem:
                        assert -1 <= item.i <= item.k < item.m <= n
                        assert item.q
                    else:
                        assert kind is DoneItem
                        assert -1 <= item.k < item.m <= n
    assert checked
