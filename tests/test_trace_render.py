"""Trace text and records against the whole-row reference renderer.

`render_trace_text` and `trace_records` build each row from the row
before it; `conftest.reference_trace_text` and
`conftest.reference_trace_records` render every row's whole stack afresh.
They must agree byte for byte on every kind of row change the
recognizers make, and on arbitrary step sequences.
"""

import dataclasses
import hashlib
import json
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from headparse import (accepting_trace, augment, build_ghi, embed, engine,
                       enumerate_language, parse_ghg, parse_hg,
                       render_trace_text, run, trace_records)
from headparse.corpus import (all_inputs, eligible, gen_eligible,
                              gen_grammar_corpus, head_grammar_corpus)
from conftest import (DEMO_GHG, FLAT_BUILDERS, hg, reference_trace_records,
                      reference_trace_text)
from test_stacks import ROOT, _child

CENTER = hg("S", ("S", "*a S b"), ("S", "*c"))
CENTER_HI = hg("S", ("S", "a *S b"), ("S", "*c"))


def center_input(k):
    return ("a",) * k + ("c",) + ("b",) * k


def center_automaton(name):
    """The deep workload's recognizers: hi on the head-inner grammar."""
    if name == "ghi":
        return build_ghi(embed(CENTER))
    return FLAT_BUILDERS[name](augment(CENTER_HI if name == "hi" else CENTER))


def assert_matches_reference(automaton, trace):
    assert render_trace_text(automaton, trace) == \
        reference_trace_text(automaton, trace)
    assert trace_records(automaton, trace) == \
        reference_trace_records(automaton, trace)


def accepting_traces(automaton, inputs):
    for tokens in inputs:
        result = run(automaton, tokens, max_steps=20_000)
        if result.verdict is engine.Verdict.ACCEPT:
            yield accepting_trace(result)


def test_corpus_traces_match_reference():
    inputs = all_inputs(("a", "b"), 4)
    cases = []
    for g in head_grammar_corpus(12, seed=1400):
        aug = augment(g)
        cases.extend(FLAT_BUILDERS[name](aug) for name in FLAT_BUILDERS
                     if eligible(aug, name))
    cases.extend(build_ghi(g) for g in gen_grammar_corpus(12, seed=1401)
                 if gen_eligible(g))
    checked = 0
    for automaton in cases:
        for trace in accepting_traces(automaton, inputs):
            assert_matches_reference(automaton, trace)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("name", ["td", "hc", "phi", "ehi", "hi", "ghi"])
def test_deep_traces_match_reference(name):
    automaton = center_automaton(name)
    trace = accepting_trace(run(automaton, center_input(50)))
    assert_matches_reference(automaton, trace)
    records = trace_records(automaton, trace)  # no two records share a list
    assert len({id(record["stack"]) for record in records}) == len(records)


def test_collapsed_ghi_rows_match_reference():
    # a '1a, 1d' row stands for two steps, so it skips one stack
    demo = parse_ghg(DEMO_GHG)
    automaton = build_ghi(demo)
    traces = list(accepting_traces(automaton, sorted(enumerate_language(demo, 4))))
    assert any(label == "1a, 1d" for trace in traces
               for label, _ in automaton.collapse_rows(trace.steps))
    for trace in traces:
        assert_matches_reference(automaton, trace)


def test_multi_item_reductions_match_reference():
    # hi's reductions on S -> S *S pop a rule's members and the item below
    automaton = FLAT_BUILDERS["hi"](augment(hg("S", ("S", "S *S"), ("S", "*a"))))
    trace = accepting_trace(run(automaton, ("a",) * 5))
    assert any(step.popped > 1 for step in trace.steps)
    assert_matches_reference(automaton, trace)


def _paired_rows(steps):
    """Rows of two steps each, as a collapsing convention may make them."""
    return [(" ".join(step.label for step in steps[at:at + 2]), steps[at:at + 2])
            for at in range(0, len(steps), 2)]


def _stub_automaton(collapse_rows):
    """Items are ints rendered as that many 'x's, so 0 renders empty."""
    return engine.Automaton("stub", (), lambda n: 0, lambda n: 0,
                            lambda item: "x" * item,
                            collapse_rows=collapse_rows, plan=lambda top: ((), None))


@st.composite
def step_traces(draw):
    """A trace from any stack whose steps each pop at most the stack's
    depth; the few item values make a push often equal what it replaced."""
    initial = tuple(draw(st.lists(st.integers(0, 3), max_size=8)))
    depth = len(initial)
    steps = []
    for at in range(draw(st.integers(0, 10))):
        popped = draw(st.integers(0, depth))
        steps.append(engine.TraceStep("s%d" % at, popped, draw(st.integers(0, 3))))
        depth += 1 - popped
    return engine.Trace(initial, tuple(steps))


@settings(max_examples=300, deadline=None)
@given(trace=step_traces(), collapse_rows=st.sampled_from([None, _paired_rows]))
def test_arbitrary_stack_sequences_match_reference(trace, collapse_rows):
    assert_matches_reference(_stub_automaton(collapse_rows), trace)


def _cuts_through_blocks(trace):
    """Whether the stack reaches three of the rope's blocks deep, and some
    step pops more than one item down into a block that was complete."""
    depth = deepest = len(trace.initial)
    cuts = False
    for step in trace.steps:
        below = depth - step.popped
        cuts |= (step.popped > 1 and below % engine.BLOCK != 0
                 and below // engine.BLOCK < depth // engine.BLOCK)
        depth = below + 1
        deepest = max(deepest, depth)
    return deepest >= 3 * engine.BLOCK and cuts


@st.composite
def deep_step_traces(draw):
    """Traces whose stacks grow past three of the rope's blocks and then
    lose many items at a time, down into the blocks below."""
    initial = tuple(draw(st.lists(st.integers(0, 3), max_size=8)))
    depth = len(initial)
    steps = []
    for run in range(draw(st.integers(1, 3))):
        least = 3 * engine.BLOCK if run == 0 else 0
        for item in draw(st.lists(st.integers(0, 3), min_size=least,
                                  max_size=least + 2 * engine.BLOCK)):
            steps.append(engine.TraceStep("push", 0, item))
            depth += 1
        for _ in range(draw(st.integers(1, 4))):
            popped = draw(st.integers(min(2, depth), depth))
            steps.append(engine.TraceStep("pop %d" % popped, popped,
                                          draw(st.integers(0, 3))))
            depth += 1 - popped
    return engine.Trace(initial, tuple(steps))


@settings(max_examples=60, deadline=None)
@given(trace=deep_step_traces(), collapse_rows=st.sampled_from([None, _paired_rows]))
def test_traces_deeper_than_three_blocks_match_reference(trace, collapse_rows):
    assert_matches_reference(_stub_automaton(collapse_rows), trace)


@pytest.mark.parametrize("collapse_rows", [None, _paired_rows])
def test_multi_item_pops_through_blocks_match_reference(collapse_rows):
    # pops of 2 to 7 items from 3 blocks deep, down into the blocks below
    steps = [engine.TraceStep("push", 0, at % 4) for at in range(3 * engine.BLOCK + 5)]
    steps += [engine.TraceStep("pop %d" % popped, popped, popped % 4)
              for popped in range(2, 8)]
    trace = engine.Trace((1, 2), tuple(steps))
    assert _cuts_through_blocks(trace)
    assert_matches_reference(_stub_automaton(collapse_rows), trace)


@pytest.mark.parametrize("name", ["td", "ghi"])
def test_deep_recognizer_pops_through_blocks_match_reference(name):
    # td pops two items at a time; ghi's collapsed '1a, 1d' rows are two steps
    automaton = center_automaton(name)
    trace = accepting_trace(run(automaton, center_input(3 * engine.BLOCK + 4)))
    assert _cuts_through_blocks(trace)
    if name == "ghi":
        assert any(len(steps) == 2 for _, steps in automaton.collapse_rows(trace.steps))
    assert_matches_reference(automaton, trace)


@pytest.mark.parametrize("name", ["td", "hc", "phi", "ehi", "hi", "ghi"])
def test_each_pushed_item_is_rendered_once(name):
    automaton = center_automaton(name)
    trace = accepting_trace(run(automaton, center_input(50)))
    calls = []

    def counted(item):
        calls.append(item)
        return automaton.render_item(item)
    counting = dataclasses.replace(automaton, render_item=counted)
    if name == "ghi":  # rows of two steps render both steps' items, no more
        assert len(automaton.collapse_rows(trace.steps)) < len(trace.steps)
    for render in (render_trace_text, trace_records):
        calls.clear()
        render(counting, trace)
        assert len(calls) == len(trace.initial) + len(trace.steps)


def test_render_peak_memory_is_about_the_text():
    # the text is held once, as the join of parts that share item texts
    automaton = center_automaton("ghi")
    trace = accepting_trace(run(automaton, center_input(150)))
    tracemalloc.start()
    try:
        text = render_trace_text(automaton, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sys.getsizeof(text)


# a fresh parent per command waits for that command alone, so its peak is
# that command's, whatever children this process waited for before
PEAK_OF = ("import os, resource, subprocess, sys\n"
           "with open(sys.argv[1], 'w', encoding='utf-8') as out:\n"
           "    subprocess.run(sys.argv[2:], stdout=out, check=True,\n"
           "                   env={**os.environ, 'PYTHONIOENCODING': 'utf-8'})\n"
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def test_cli_trace_peak_memory_is_about_the_text(tmp_path):
    grammar = tmp_path / "center.hg"
    grammar.write_text("start S\nS -> *a S b\nS -> *c\n")
    command = [sys.executable, "-m", "headparse", "recognize", "--grammar", str(grammar),
               "--algorithm", "ghi", "--embed", "--chars",
               "--input", "".join(center_input(150))]
    peaks_kb = []
    for extra in ([], ["--trace"]):
        done, _ = _child([sys.executable, "-c", PEAK_OF, str(tmp_path / "out.txt")]
                         + command + extra)
        assert done.returncode == 0, done.stderr
        peaks_kb.append(int(done.stdout))
    text = (tmp_path / "out.txt").read_text(encoding="utf-8")
    assert text.startswith("Stack")
    assert (peaks_kb[1] - peaks_kb[0]) * 1024 <= 1.4 * sys.getsizeof(text), peaks_kb


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digests():
    """sha256 of `render_trace_text` and of the JSON of `trace_records` per
    recognizer and case: a^k c b^k for k in 25 and 150 on the deep
    workload's grammars, and every accepted input up to length 4 of the
    demo grammars (demo.hg for the five flat recognizers, demo.ghg for
    ghi), those inputs' texts hashed together in sorted order."""
    cases = {}
    for name in ("td", "hc", "phi", "ehi", "hi", "ghi"):
        automaton = center_automaton(name)
        for k in (25, 150):
            cases["%s a^%d c b^%d" % (name, k, k)] = (automaton, [center_input(k)])
    demo = augment(parse_hg((ROOT / "grammars" / "demo.hg").read_text()))
    inputs = sorted(enumerate_language(demo, 4))
    for name, builder in FLAT_BUILDERS.items():
        cases["%s demo.hg" % name] = (builder(demo), inputs)
    demo_ghg = parse_ghg((ROOT / "grammars" / "demo.ghg").read_text())
    cases["ghi demo.ghg"] = (build_ghi(demo_ghg), sorted(enumerate_language(demo_ghg, 4)))
    digests = {}
    for key, (automaton, inputs) in cases.items():
        traces = [accepting_trace(run(automaton, tokens)) for tokens in inputs]
        text = "".join(render_trace_text(automaton, trace) for trace in traces)
        records = "".join(json.dumps(trace_records(automaton, trace)) for trace in traces)
        digests[key] = (_sha256(text), _sha256(records))
    return digests


# recorded from the renderer that built each row as a string; however
# rendering builds its output, the output stays byte for byte the same
TRACE_DIGESTS = {
    "td a^25 c b^25": (
        "89e4034878755fe4c1ec2f65abeea0e14d00ba60c84750a9f29a8e15ed1e9e74",
        "1cb48e2632a7b1b587134c3cfc305c15f5ed79e1b5649c9dd1441091a7b34708"),
    "td a^150 c b^150": (
        "fc0c78a31bb9a5933a820024cf3d8e024595164957f7607be28ff2b4001b0658",
        "8955ecc917f7918bb039cc41ab66fcdcec5eafe912ca68546ccd39f02ba89efa"),
    "hc a^25 c b^25": (
        "3a8b13f2654c2195f48cff84e8f14243dafb2c8763536adde03a6b1a724abc72",
        "6dcf7474b14959948977fffb56cfd12260014917566a8ab386505870e5e532a0"),
    "hc a^150 c b^150": (
        "5bb333c554341e5976acb69d422ad1a05b4c0f08f34e4b797a411778ef8e9219",
        "d14879b718148af12a9595e86a9276bcd7df2712da6bf433463de9fb2fe646e3"),
    "phi a^25 c b^25": (
        "49e65bb687e74f18f6047c2f51fece7e6f26099c4f3f339d56fd2e41af8a8de5",
        "26f6861fb6a022fa1d0fa75219462e60292185bed6a2d41c697299a60c80abfd"),
    "phi a^150 c b^150": (
        "2f5ba5f5454711f83bf3d7b01a627427efbcd3821d8063ab5b4eec49151d3676",
        "92f8782ad077668e65c04a4f861ad10aab4083238f71ad0195964077cfa7bf86"),
    "ehi a^25 c b^25": (
        "5a0d8361772b4ff87ecc87ede61f2bc70f774cdd757161d672513cb8eb7b1d5f",
        "2ffa45d9194f7f5d63885768f4b25e62988d7799e0d49942d9fafb9705c2ce72"),
    "ehi a^150 c b^150": (
        "952cbcb3670010115c8a8a6785127b13520df1e0807b53665299e4b4c7492520",
        "3a4968112008bdca7bc1f7bc6a814a15287bb940c69acc33497f2c7a0894c96a"),
    "hi a^25 c b^25": (
        "7cfb14e2357eae9d2fd514bf746a8aa7c6639bc33335d53193c84a8eea75314f",
        "2a2902875687398d0edff2a06177b074adea8f86067c9ae8a1d7480b213a1f2c"),
    "hi a^150 c b^150": (
        "240efaadd87cebfcacfae90bf1e75f81e4a5e05012180ead8af740559933ad9d",
        "102fc776a1dd232278bdc2be64975a0573e40ea47f434f0c226b0fd1ee35a322"),
    "ghi a^25 c b^25": (
        "909b4bd2deebebbfb4811a03a0732578a923bf82fa7c69d388bda096d71f6414",
        "84f66cc8c5b4f8ccbaada52ba170bf7b3437a230fb929387849c46c527d84825"),
    "ghi a^150 c b^150": (
        "c146c8db1dc2e1403b940505f0caaf10d089bd1d8070214662f9cd05c59095f8",
        "f4a7917126cde0640332b86e3e4f64eb7058ce7f130dfcb5b460db6b35077cea"),
    "td demo.hg": (
        "e43b7f0ddcecfbb9010cb9dff331dfd5037bc6282e69e0fc93fc5b9ada01d7a7",
        "8875815f1e1f7844349cb9eb0586bd3f8817b2ee678b162a3ecae606965420ce"),
    "hc demo.hg": (
        "d9b1e2b8c1b0155edf48d253b431dd5a3b772ccbfbdc176550f69ba8fb58ca02",
        "619c770bb962509f66a6022b039db0f6a79dd3dc9204758e7b90632da4c9ee1e"),
    "phi demo.hg": (
        "9ca205122c14e02d9ae71afdc4b5450bd3771aa2d5ea7a3114170c32b19247bd",
        "f6dc42beced2f962d498f1c3d18f3f2507479df7cdfc40716544abe71ad6b2d1"),
    "ehi demo.hg": (
        "13e02161bdd7ec3ba9b9128b505813a8881004a61c1b80508ceb535eb3a62751",
        "eef40e741af44a13b35a21a41f5709dad6a55fadd121ff54d520361ea4947661"),
    "hi demo.hg": (
        "5ea78812e07889b32da116eb0dd506de168a66172c65b641ff8a98bcda61158b",
        "3c1f51a2d3641657aae64dff0588bd74933bb8097a9c4a14791400bcf8c1aae2"),
    "ghi demo.ghg": (
        "b8fb7ec4963e41789c0d8e80bc5dd37d7ee642fd2107aa70aa5a1b120fd93076",
        "f6b9fa26510c05b4aedd0cc18b5309f1a3de11ddb8b499e94f989ee22bcf4748"),
}


def test_trace_digests_are_unchanged():
    assert trace_digests() == TRACE_DIGESTS
