"""Property group: every accepting trace replays from the initial stack."""

import dataclasses

from headparse import Verdict, augment, replay, run
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from headparse.recognizer_ghi import build_ghi
from headparse.recognizer_hi import build_hi
from headparse.recognizers_basic import build_ehi, build_hc, build_phi, build_td

BUILDERS = {"td": build_td, "hc": build_hc, "phi": build_phi,
            "ehi": build_ehi, "hi": build_hi}
NONEMPTY = [tokens for tokens in all_inputs(("a", "b"), 3) if tokens]


def test_flat_accepting_traces_replay():
    replayed = 0
    for g in head_grammar_corpus(40, seed=1301):
        aug = augment(g)
        for name, builder in BUILDERS.items():
            if not eligible(aug, name):
                continue
            auto = builder(aug)
            for tokens in NONEMPTY:
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
        for tokens in NONEMPTY:
            result = run(auto, tokens)
            if result.verdict is Verdict.ACCEPT:
                assert replay(auto, tokens, result.accepting_trace)
                replayed += 1
    assert replayed > 5


def test_replay_rejects_tampered_traces(tiny_grammar):
    from headparse.engine import Trace
    auto = build_td(augment(tiny_grammar))
    tokens = ("c", "a", "b")
    trace = run(auto, tokens).accepting_trace
    first = trace.steps[0]

    def with_first(**fields):
        return Trace(trace.initial, (first._replace(**fields),) + trace.steps[1:])
    # wrong label on the first step
    assert not replay(auto, tokens, with_first(label="2a"))
    # a label no clause of the automaton carries
    assert not replay(auto, tokens, with_first(label="9z"))
    # the right label, but a pop count or an item its clause does not yield;
    # where every stack accepts, only the step itself can reject the trace
    lenient = dataclasses.replace(auto, make_accepting=lambda n: lambda stack: True)
    assert replay(lenient, tokens, Trace(trace.initial, (first,)))
    assert trace.steps[-1].item != first.item
    for wrong in ({"popped": first.popped + 1}, {"item": trace.steps[-1].item}):
        assert not replay(lenient, tokens, Trace(trace.initial,
                                                 (first._replace(**wrong),)))
    # dropped final step: end stack is not accepting
    short = Trace(trace.initial, trace.steps[:-1])
    assert not replay(auto, tokens, short)
    # wrong initial stack
    alien = Trace((auto.make_fin(3),), trace.steps)
    assert not replay(auto, tokens, alien)
