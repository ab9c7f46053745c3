"""Acceptance gate: one test per criterion, each printing a PASS line.

Covers: the golden trace of the tree recognizer on the demo grammar; exact
differential agreement of every recognizer with the chart oracle over the
seeded corpora; language preservation of both grammar transformations;
loop characterization (loop-free grammars never hit resource bounds,
loop-prone ones are caught by pruning or bounds instead of diverging); the
monotone nondeterminism ordering on the designated common-infix family;
the correct-subsequence property of consulted input positions; and the
presence of the standalone property suites.
"""

import importlib
import time

import pytest

from headparse import (Verdict, augment, differential, run, tau_head,
                       tau_two)
from headparse.corpus import (all_inputs, common_infix_family, cyclic_examples,
                              eligible, gen_grammar_corpus, head_grammar_corpus,
                              head_recursive_examples)
from headparse.oracle import (SubsequenceVerdict, check_subsequence_property,
                              enumerate_language, enumerate_report,
                              useless_symbols)
from headparse.recognizer_ghi import build_ghi
from headparse.recognizers_basic import build_td
from headparse.transform import embed
from conftest import explore

HEAD_SEED = 31415
GEN_SEED = 27182
HEAD_COUNT = 200
GEN_COUNT = 100
MAX_INPUT_LEN = 5

FLAT = tuple(differential.FLAT_BUILDERS.items())

GOLDEN_ROWS = ["3a", "1a", "3b", "1a", "1d", "7b", "2a", "1a, 1d", "4a",
               "3b", "1a, 1d", "5b", "5b", "7a", "1a, 1d", "5a"]


@pytest.fixture(scope="session")
def head_corpus():
    grammars = head_grammar_corpus(HEAD_COUNT, seed=HEAD_SEED)
    return [(g, enumerate_language(g, MAX_INPUT_LEN)) for g in grammars]


@pytest.fixture(scope="session")
def gen_corpus():
    grammars = gen_grammar_corpus(GEN_COUNT, seed=GEN_SEED)
    return [(g, enumerate_language(g, MAX_INPUT_LEN)) for g in grammars]


@pytest.fixture(scope="session")
def flat_differential(head_corpus):
    return differential.check(head_corpus, all_inputs(("a", "b"), MAX_INPUT_LEN),
                              max_steps=200_000)


@pytest.fixture(scope="session")
def ghi_differential(gen_corpus):
    return differential.check(gen_corpus, all_inputs(("a", "b"), MAX_INPUT_LEN),
                              max_steps=200_000)


def assert_agrees(data):
    """No wrong completed verdict, and every eligible run completed."""
    unfinished = [o for o in data.limit_hits
                  if o.verdict is Verdict.RESOURCE_LIMIT]
    assert data.mismatches == [], data.mismatches[:5]
    assert unfinished == [], unfinished[:5]


def test_criterion_golden_trace(tree_demo_automaton):
    started = time.perf_counter()
    result = run(tree_demo_automaton, ("c", "a", "b", "s"))
    elapsed = time.perf_counter() - started
    assert result.verdict is Verdict.ACCEPT
    rows = tree_demo_automaton.collapse_rows(result.accepting_trace.steps)
    labels = [label for label, _ in rows]
    assert labels == GOLDEN_ROWS
    assert len(rows) == 16
    assert elapsed < 1.0
    print("\nPASS golden-trace: 16 rows, clause column [%s], %.3fs"
          % (" | ".join(labels), elapsed))


def test_criterion_differential_flat(flat_differential):
    data = flat_differential
    assert_agrees(data)
    print("\nPASS differential-flat: %d eligible runs agree with the oracle "
          "(%d opportunistic runs on loop-prone grammars, %d resource-limited; "
          "td skipped on %d head-recursive grammars)"
          % (data.eligible_runs, data.opportunistic_runs, data.limits,
             data.skipped))


def test_criterion_differential_ghi(ghi_differential):
    data = ghi_differential
    assert_agrees(data)
    print("\nPASS differential-ghi: %d eligible runs agree with the oracle "
          "(%d opportunistic runs on cyclic grammars, %d resource-limited)"
          % (data.eligible_runs, data.opportunistic_runs, data.limits))


def test_criterion_transformations_preserve_language(head_corpus, gen_corpus):
    for g, language in gen_corpus:
        assert enumerate_language(tau_head(g), MAX_INPUT_LEN) == language
    for g, language in head_corpus:
        assert enumerate_language(tau_two(g), MAX_INPUT_LEN) == language
    print("\nPASS transformation-soundness: languages up to length %d equal on "
          "%d flattenings and %d binarizations"
          % (MAX_INPUT_LEN, len(gen_corpus), len(head_corpus)))


def test_criterion_loop_characterization(flat_differential, ghi_differential):
    assert flat_differential.limit_hits == []
    assert ghi_differential.limit_hits == []

    guarded = 0
    for g, inputs in head_recursive_examples():
        automaton = build_td(augment(g))
        for tokens in inputs:
            result = run(automaton, tokens, exhaustive=True, max_steps=30_000)
            assert result.stats.duplicates_pruned > 0 or result.stats.limit_hit
            guarded += 1
    for g, inputs in cyclic_examples():
        aug = augment(g)
        language = enumerate_language(g, MAX_INPUT_LEN)
        for name, builder in FLAT[1:]:
            automaton = builder(aug)
            caught = False
            for tokens in inputs:
                result = run(automaton, tokens, exhaustive=True, max_steps=30_000)
                caught = caught or result.stats.duplicates_pruned > 0 \
                    or result.stats.limit_hit
                if not result.stats.limit_hit:
                    assert (result.verdict is Verdict.ACCEPT) == (tokens in language)
            assert caught, (name, [str(r) for r in g.rules])
            guarded += 1
        ghi = build_ghi(embed(g))
        caught = False
        for tokens in inputs:
            result = run(ghi, tokens, exhaustive=True, max_steps=30_000)
            caught = caught or result.stats.duplicates_pruned > 0 \
                or result.stats.limit_hit
        assert caught
        guarded += 1
    print("\nPASS loop-characterization: no eligible run hit a bound; "
          "%d loop-prone grammar/recognizer pairs caught by pruning or bounds"
          % guarded)


def test_criterion_nondeterminism_ordering():
    family = common_infix_family()
    assert len(family) >= 5
    checked = 0
    for g, inputs in family:
        aug = augment(g)
        shares_infix = any(
            set(r1.rhs[s1:e1]) and r1.rhs[s1:e1] == r2.rhs[s2:e2]
            for a, r1 in enumerate(aug.rules) for b, r2 in enumerate(aug.rules)
            if a < b
            for s1 in range(r1.head + 1) for e1 in range(r1.head + 1, len(r1.rhs) + 1)
            for s2 in range(r2.head + 1) for e2 in range(r2.head + 1, len(r2.rhs) + 1))
        assert shares_infix  # each family member shares a head-containing infix
        automata = [(name, builder(aug)) for name, builder in FLAT[:4]]
        for tokens in inputs:
            counts = []
            for name, automaton in automata:
                result = run(automaton, tokens, exhaustive=True)
                assert result.verdict is Verdict.ACCEPT, (name, tokens)
                counts.append(result.stats.configurations_explored)
            assert all(x >= y for x, y in zip(counts, counts[1:])), \
                (g.rules, tokens, counts)
            checked += 1

    # global behaviour outside the family: reported, not asserted
    holds = 0
    total = 0
    for g in head_grammar_corpus(30, seed=HEAD_SEED):
        aug = augment(g)
        if not all(eligible(aug, name) for name, _ in FLAT[:4]):
            continue
        automata = [builder(aug) for _, builder in FLAT[:4]]
        for tokens in all_inputs(("a", "b"), 3):
            counts = [run(a, tokens, exhaustive=True).stats.configurations_explored
                      for a in automata]
            total += 1
            holds += all(x >= y for x, y in zip(counts, counts[1:]))
    print("\nPASS nondeterminism-ordering: td >= hc >= phi >= ehi on all %d "
          "(grammar, input) pairs of the designated family; globally the "
          "ordering held on %d/%d sampled corpus pairs (reported only)"
          % (checked, holds, total))


def test_criterion_subsequence_property(head_corpus):
    target = 50
    picked = []
    for g, _ in head_corpus:
        if useless_symbols(g):
            continue
        try:
            enumerate_report(g, 8, frontier_cap=300_000)
        except Exception:
            continue
        picked.append(g)
        if len(picked) == target:
            break
    assert len(picked) == target

    inputs = all_inputs(("a", "b"), 3) + [("a", "b", "a", "b", "a"),
                                          ("b", "a", "b", "a", "b")]
    held = 0
    inconclusive = 0
    failures = []
    for g in picked:
        aug = augment(g)
        verdict_cache = {}
        automata = [(name, builder(aug)) for name, builder in FLAT
                    if eligible(aug, name)]
        if eligible(aug, "hi"):
            automata.append(("ghi", build_ghi(embed(g))))
        for tokens in inputs:
            for name, automaton in automata:
                # the consulted set of every path, pruned or not
                for consulted in explore(automaton, tokens).consulted:
                    needle = tuple(tokens[p - 1] for p in sorted(consulted))
                    verdict = verdict_cache.get(needle)
                    if verdict is None:
                        verdict = check_subsequence_property(
                            g, tokens, consulted, max_len=8)
                        verdict_cache[needle] = verdict
                    if verdict is SubsequenceVerdict.HOLDS:
                        held += 1
                    elif verdict is SubsequenceVerdict.INCONCLUSIVE:
                        inconclusive += 1
                    else:
                        failures.append((g.rules, name, tokens, sorted(consulted)))
    assert failures == [], failures[:3]
    total = held + inconclusive
    rate = (100.0 * inconclusive / total) if total else 0.0
    print("\nPASS correct-subsequence: %d consulted sets checked over %d "
          "grammars, 0 failures, %.2f%% inconclusive at bound 8"
          % (total, target, rate))


def test_criterion_property_suites_present():
    groups = ["test_props_relations", "test_props_closure", "test_props_goto",
              "test_props_items", "test_props_replay"]
    for module_name in groups:
        module = importlib.import_module(module_name)
        names = [n for n in dir(module) if n.startswith("test_")]
        assert names, module_name
    print("\nPASS property-suites: %d standalone groups collected (%s)"
          % (len(groups), ", ".join(groups)))
