"""Grammar families that grow along one axis: many rules, or long rules."""

from time import perf_counter

import pytest

from headparse import HeadGrammar, HeadRule, Verdict, augment, run
from headparse.recognizer_ghi import build_ghi
from headparse.recognizer_hi import build_hi
from headparse.recognizers_basic import build_ehi, build_hc
from headparse.transform import embed


def unit_chain(n):
    """A0 -> *A1, ..., A(n-1) -> *An, An -> *a: n + 1 rules, one sentence."""
    names = ["A%d" % i for i in range(n + 1)]
    rules = [HeadRule(a, (b,), 0) for a, b in zip(names, names[1:])]
    return HeadGrammar(rules + [HeadRule(names[-1], ("a",), 0)], names[0])


def test_unit_chain_builds_without_a_quadratic_relation():
    # every name is a head corner of A0, so a grammar-wide pair set holds
    # n^2/2 pairs; reading the relation per target asks for A0's alone
    aug = augment(unit_chain(2000))
    start = perf_counter()
    for build in (build_hc, build_ehi, build_hi):
        assert run(build(aug), ("a",)).verdict is Verdict.ACCEPT
    assert perf_counter() - start < 1.0


def long_rule(k):
    """S -> a^k *a a^k, whose only sentence is a^(2k+1)."""
    return HeadGrammar([HeadRule("S", ("a",) * (2 * k + 1), k)], "S")


# hi's and ghi's stacks keep the order in which the members either side of
# the head were taken, so no two orders merge: about x3.8 and x7.5 per k
LONG_RULE_CONFIGS = {
    "hi": (5, 16, 57, 211, 793),
    "ghi": (24, 126, 854, 6180, 45652),
}


@pytest.mark.parametrize("name", sorted(LONG_RULE_CONFIGS))
def test_long_rule_configurations(name):
    for k, pinned in enumerate(LONG_RULE_CONFIGS[name], start=1):
        g = long_rule(k)
        auto = build_hi(augment(g)) if name == "hi" else build_ghi(embed(g))
        result = run(auto, ("a",) * (2 * k + 1))
        assert result.verdict is Verdict.ACCEPT
        assert result.stats.configurations_explored == pinned
