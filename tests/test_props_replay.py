"""Property group: every accepting trace replays from the initial stack."""

from headparse import Verdict, augment, replay, run
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.recognizer_ghi import build_ghi
from headparse.recognizer_hi import build_hi
from headparse.recognizers_basic import build_ehi, build_hc, build_phi, build_td

BUILDERS = {"td": build_td, "hc": build_hc, "phi": build_phi,
            "ehi": build_ehi, "hi": build_hi}


def test_flat_accepting_traces_replay():
    replayed = 0
    for g in head_grammar_corpus(40, seed=1301):
        aug = augment(g)
        for name, builder in BUILDERS.items():
            if not eligible(aug, name):
                continue
            auto = builder(aug)
            for tokens in all_inputs(("a", "b"), 3, include_empty=False):
                result = run(auto, tokens)
                if result.verdict is Verdict.ACCEPT:
                    assert replay(auto, tokens, result.accepting_trace)
                    replayed += 1
    assert replayed > 20


def test_ghi_accepting_traces_replay():
    replayed = 0
    for g in gen_grammar_corpus(30, seed=1302):
        if not gen_eligible(g):
            continue
        auto = build_ghi(g)
        for tokens in all_inputs(("a", "b"), 3, include_empty=False):
            result = run(auto, tokens)
            if result.verdict is Verdict.ACCEPT:
                assert replay(auto, tokens, result.accepting_trace)
                replayed += 1
    assert replayed > 5


def test_replay_rejects_tampered_traces(tiny_grammar):
    from headparse.engine import Trace, TraceStep
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    trace = run(auto, tokens).accepting_trace
    # wrong label on the first step
    bad = Trace(trace.initial,
                (TraceStep("2a", trace.steps[0].stack),) + trace.steps[1:])
    assert not replay(auto, tokens, bad)
    # a label no clause of the automaton carries
    unknown = Trace(trace.initial,
                    (TraceStep("9z", trace.steps[0].stack),) + trace.steps[1:])
    assert not replay(auto, tokens, unknown)
    # dropped final step: end stack is not accepting
    short = Trace(trace.initial, trace.steps[:-1])
    assert not replay(auto, tokens, short)
    # wrong initial stack
    alien = Trace((auto.make_fin(3),), trace.steps)
    assert not replay(auto, tokens, alien)
