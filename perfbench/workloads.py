"""The benchmark's workloads and the pass that runs one of them.

A workload is a list of units.  A unit is one grammar, the recognizers to
run on it and the inputs with their expected verdicts.  A pass runs every
unit the way a user of the library would: augment, check loop
eligibility, build each automaton, ask the oracle, then for every input
and recognizer take a verdict (`run`, plus `accepting_trace` and `replay`
on acceptance) and render each accepting trace as text and as records,
as ``recognize --trace [--json]`` does.

Workloads:

* ``corpus``: the acceptance gate's differential shape on a fixed slice
  of its seeded corpora; expectations come from `enumerate_language`.
* ``growth``: ladders of single large searches, `S -> S *S | *a` on a^n
  (exhaustive) and the near-miss rejects a^k c b^(k-1) on
  `S -> *a S b | *c`.
* ``deep``: long accepted inputs a^k c b^k with stacks about k deep,
  plus ``hi`` on `S -> a *S b | *c` as the shallow-stack control.

Ladder expectations follow from how the inputs are built; each ladder's
family rule is also checked against the oracle's language up to
`FAMILY_CHECK_LEN` tokens.

`--seed` fixes the order in which the corpus grammars are visited.  The
ladders of ``growth`` and ``deep`` are fixed by construction and always run
in the same order: their few, widely spaced calls are sensitive to what ran
just before them, and in one process alternating seeded orders moved their
median call time by up to a fifth.  The work itself is the
same for every seed, so runs on different seeds compare.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

FLAT = ("td", "hc", "phi", "ehi", "hi")
ALGS = FLAT + ("ghi",)
WORKLOADS = ("corpus", "growth", "deep")
BUILDERS = {
    "td": ("recognizers_basic", "build_td"),
    "hc": ("recognizers_basic", "build_hc"),
    "phi": ("recognizers_basic", "build_phi"),
    "ehi": ("recognizers_basic", "build_ehi"),
    "hi": ("recognizer_hi", "build_hi"),
    "ghi": ("recognizer_ghi", "build_ghi"),
}

HEAD_SEED = 31415   # the acceptance gate's corpus seeds
GEN_SEED = 27182
GATE_MAX_STEPS = 200_000
FAMILY_CHECK_LEN = 7

AMB = "start S\nS -> S *S\nS -> *a\n"
CENTER = "start S\nS -> *a S b\nS -> *c\n"
CENTER_HI = "start S\nS -> a *S b\nS -> *c\n"

# Sizes per workload: full runs in the benchmark, min in its self-test.
SIZES = {
    "full": {
        "corpus_head": 16, "corpus_gen": 8, "corpus_len": 5,
        "amb_n": range(2, 11, 2), "amb_ghi_n": range(2, 7, 2),
        "miss_k": range(1, 12), "miss_ghi_k": range(1, 6),
        "deep_k": (25, 50, 100, 150),
    },
    "min": {
        "corpus_head": 2, "corpus_gen": 1, "corpus_len": 3,
        "amb_n": (2, 4), "amb_ghi_n": (2, 4),
        "miss_k": (1, 2), "miss_ghi_k": (1, 2),
        "deep_k": (2, 4),
    },
}


@dataclass
class Unit:
    ladder: str            # curve name; rungs of one ladder share a grammar
    grammar: object        # HeadGrammar, or GenHeadGrammar when `tree`
    algs: tuple
    inputs: list           # (tokens, expected); None means ask the oracle
    tree: bool = False
    exhaustive: bool = False
    max_steps: int = 1_000_000
    oracle_len: int = 0    # enumerate_language bound; 0 for no oracle
    family: Optional[Callable] = None  # max_len -> the language by construction
    gate_rules: bool = False  # eligibility as in the gate, see _run_unit


@dataclass
class Call:
    alg: str
    ladder: str
    n: int
    verdict: str
    configs: int
    applications: int
    pruned: int
    depth: int
    run_s: float
    verdict_s: float


@dataclass
class PassRecord:
    wall_s: float
    calls: list = field(default_factory=list)
    failed: int = 0
    unit_errors: int = 0
    problems: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.calls) + self.unit_errors


def _family_amb(max_len):
    return frozenset(("a",) * n for n in range(1, max_len + 1))


def _family_center(max_len):
    return frozenset(("a",) * k + ("c",) + ("b",) * k
                     for k in range((max_len - 1) // 2 + 1))


def make_units(lib, workload, seed, size="full"):
    """The workload's inputs; `seed` only orders the corpus grammars."""
    spec = SIZES[size]
    if workload == "corpus":
        units = _corpus_units(lib, spec)
        random.Random(seed).shuffle(units)
        return units
    if workload == "growth":
        return growth_units(lib, spec)
    if workload == "deep":
        return _deep_units(lib, spec)
    raise ValueError("unknown workload %r" % workload)


def _corpus_units(lib, spec):
    corpus = lib.corpus
    inputs = corpus.all_inputs(("a", "b"), spec["corpus_len"])
    units = []
    for g in corpus.head_grammar_corpus(spec["corpus_head"], HEAD_SEED):
        units.append(Unit("corpus.head", g, FLAT, [(t, None) for t in inputs],
                          max_steps=GATE_MAX_STEPS, oracle_len=spec["corpus_len"],
                          gate_rules=True))
    for g in corpus.gen_grammar_corpus(spec["corpus_gen"], GEN_SEED):
        units.append(Unit("corpus.gen", g, ("ghi",), [(t, None) for t in inputs],
                          tree=True, max_steps=GATE_MAX_STEPS,
                          oracle_len=spec["corpus_len"]))
    return units


def _ladder(lib, ladder, text, algs, inputs, family, exhaustive=False):
    return Unit(ladder, lib.grammar.parse_hg(text), algs, inputs,
                exhaustive=exhaustive, oracle_len=FAMILY_CHECK_LEN, family=family)


def near_miss(k):
    """a^k c b^(k-1): not in the language of `CENTER`."""
    return ("a",) * k + ("c",) + ("b",) * (k - 1)


def growth_units(lib, spec):
    """The ``growth`` ladders, with the rungs that `spec` gives."""
    return [
        _ladder(lib, "growth.amb", AMB, ("hc", "phi", "ehi", "hi"),
                [(("a",) * n, True) for n in spec["amb_n"]], _family_amb,
                exhaustive=True),
        _ladder(lib, "growth.amb", AMB, ("ghi",),
                [(("a",) * n, True) for n in spec["amb_ghi_n"]], _family_amb,
                exhaustive=True),
        _ladder(lib, "growth.miss", CENTER, FLAT,
                [(near_miss(k), False) for k in spec["miss_k"]], _family_center),
        _ladder(lib, "growth.miss", CENTER, ("ghi",),
                [(near_miss(k), False) for k in spec["miss_ghi_k"]], _family_center),
    ]


def _deep_units(lib, spec):
    inputs = [(("a",) * k + ("c",) + ("b",) * k, True) for k in spec["deep_k"]]
    return [
        _ladder(lib, "deep.center", CENTER, ("td", "hc", "phi", "ehi", "ghi"),
                list(inputs), _family_center),
        _ladder(lib, "deep.hi", CENTER_HI, ("hi",), list(inputs), _family_center),
    ]


def build(lib, alg, grammar):
    module, name = BUILDERS[alg]
    return getattr(getattr(lib, module), name)(grammar)


def run_pass(lib, units, tracer=None):
    """Run every unit once and check every verdict.  With a tracer, the
    clause matchers are timed."""
    record = PassRecord(0.0)
    started = perf_counter()
    for unit in units:
        try:
            _run_unit(lib, unit, tracer, record)
        except Exception:
            record.unit_errors += 1
            record.failed += 1
            record.problems.append("%s: %s" % (unit.ladder, traceback.format_exc()))
    record.wall_s = perf_counter() - started
    return record


def _run_unit(lib, unit, tracer, record):
    engine, grammar, transform = lib.engine, lib.grammar, lib.transform
    if unit.tree:
        flat = transform.tau_head(unit.grammar)
        aug = None
    else:
        flat = unit.grammar
        aug = grammar.augment(flat)
    language = None
    if unit.oracle_len:
        language = lib.oracle.enumerate_language(flat, unit.oracle_len)
        if unit.family is not None and language != unit.family(unit.oracle_len):
            record.problems.append("%s: oracle disagrees with the family rule"
                                   % unit.ladder)
    automata = []
    for alg in unit.algs:
        if alg == "ghi":
            automaton = build(lib, "ghi", unit.grammar if unit.tree
                              else transform.embed(unit.grammar))
        else:
            if not lib.corpus.eligible(aug, alg):
                if not unit.gate_rules:
                    record.problems.append("%s: %s is not loop-free here"
                                           % (unit.ladder, alg))
                elif alg == "td":
                    continue  # the gate runs the others on loop-prone grammars too
            automaton = build(lib, alg, aug)
        searched = automaton if tracer is None else \
            tracer.wrap_automaton(engine, alg, automaton)
        automata.append((alg, automaton, searched))

    for tokens, expected in unit.inputs:
        if expected is None:
            expected = tokens in language
        for alg, automaton, searched in automata:
            try:
                call = _verdict(engine, unit, alg, automaton, searched, tokens,
                                expected, record)
            except Exception:
                record.failed += 1
                record.problems.append("%s %s %r: %s" % (
                    unit.ladder, alg, " ".join(tokens), traceback.format_exc()))
                call = Call(alg, unit.ladder, len(tokens), "error", 0, 0, 0, 0,
                            0.0, 0.0)
            record.calls.append(call)


def _verdict(engine, unit, alg, automaton, searched, tokens, expected, record):
    accept = engine.Verdict.ACCEPT
    start = perf_counter()
    result = engine.run(searched, tokens, max_steps=unit.max_steps,
                        exhaustive=unit.exhaustive)
    ran = perf_counter()
    replayed = True
    trace = None
    if result.verdict is accept:
        trace = engine.accepting_trace(result)
        replayed = engine.replay(automaton, tokens, trace)
    done = perf_counter()
    if trace is not None:
        engine.render_trace_text(automaton, trace)
        engine.trace_records(automaton, trace)

    verdict = result.verdict.value
    if (result.verdict is engine.Verdict.RESOURCE_LIMIT
            or (result.verdict is accept) != expected or not replayed):
        record.failed += 1
        record.problems.append("%s %s %r: %s (expected %s%s)" % (
            unit.ladder, alg, " ".join(tokens), verdict,
            "accept" if expected else "reject",
            "" if replayed else ", replay failed"))
    stats = result.stats
    return Call(alg, unit.ladder, len(tokens), verdict,
                stats.configurations_explored, stats.clause_applications,
                stats.duplicates_pruned, stats.max_stack_depth,
                ran - start, done - start)
