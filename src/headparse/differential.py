"""Differential check of every recognizer against the oracle.

This module holds the one policy for which recognizer runs on which
grammar, `lineup`: the acceptance gate and `headparse compare --random`
call it through `check`, and `headparse compare --grammar` without
`--algorithms` calls it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import engine
from .corpus import eligible, gen_eligible
from .grammar import augment
from .recognizer_ghi import build_ghi
from .recognizer_hi import build_hi
from .recognizers_basic import build_ehi, build_hc, build_phi, build_td
from .transform import GenHeadGrammar

FLAT_BUILDERS = {
    "td": build_td,
    "hc": build_hc,
    "phi": build_phi,
    "ehi": build_ehi,
    "hi": build_hi,
}


class Lineup(NamedTuple):
    automata: list  # (name, automaton, whether it is eligible), in table order
    skipped: list  # names left out: td on a head-recursive grammar


def lineup(grammar) -> Lineup:
    """The recognizers that run on `grammar` by default, and which of them
    are eligible: guaranteed loop-free, so their runs must end in a
    verdict.

    A plain head grammar gets td, hc, phi, ehi and hi. td is left out where
    the grammar is head-recursive, since its stack then grows until the
    depth bound stops it; the others also run where it is cyclic, but are
    not eligible there. A generalized head grammar gets ghi, eligible
    unless its flattening is cyclic.
    """
    if isinstance(grammar, GenHeadGrammar):
        return Lineup([("ghi", build_ghi(grammar), gen_eligible(grammar))], [])
    aug = augment(grammar)
    automata, skipped = [], []
    for name, builder in FLAT_BUILDERS.items():
        is_eligible = eligible(aug, name)
        if name == "td" and not is_eligible:
            skipped.append(name)
        else:
            automata.append((name, builder(aug), is_eligible))
    return Lineup(automata, skipped)


class Outcome(NamedTuple):
    grammar: int  # index into the corpus
    algorithm: str
    tokens: tuple
    expected: bool  # whether the oracle's language holds the input
    verdict: engine.Verdict


@dataclass
class Differential:
    mismatches: list = field(default_factory=list)  # wrong completed verdicts
    limit_hits: list = field(default_factory=list)  # eligible runs that hit a bound
    eligible_runs: int = 0
    opportunistic_runs: int = 0  # runs on grammars the recognizer may loop on
    limits: int = 0  # runs of either kind that ended in RESOURCE_LIMIT
    skipped: int = 0  # td on head-recursive grammars


def check(corpus, inputs, **bounds) -> Differential:
    """Run the `lineup` of each grammar of the corpus on every input and
    compare each completed verdict with membership in the grammar's
    `language`; `bounds` (`max_steps`, `max_depth`) go to `engine.run`.
    Runs of recognizers that are not eligible count as opportunistic. A
    resource limit is counted, never reported as a mismatch.
    """
    out = Differential()
    for index, (grammar, language) in enumerate(corpus):
        automata, skipped = lineup(grammar)
        out.skipped += len(skipped)
        for tokens in inputs:
            expected = tokens in language
            for name, automaton, is_eligible in automata:
                result = engine.run(automaton, tokens, **bounds)
                outcome = Outcome(index, name, tokens, expected, result.verdict)
                if is_eligible:
                    out.eligible_runs += 1
                    if result.stats.limit_hit:
                        out.limit_hits.append(outcome)
                else:
                    out.opportunistic_runs += 1
                if result.verdict is engine.Verdict.RESOURCE_LIMIT:
                    out.limits += 1
                elif (result.verdict is engine.Verdict.ACCEPT) != expected:
                    out.mismatches.append(outcome)
    return out
