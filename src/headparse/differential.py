"""Differential check of every recognizer against the oracle.

This module holds the one policy for which recognizer runs on which
grammar; the acceptance gate and `headparse compare --random` both call
`check`.
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
    """Run recognizers on every input of every `(grammar, language)` pair of
    the corpus and compare each completed verdict with membership in
    `language`; `bounds` (`max_steps`, `max_depth`) go to `engine.run`.

    A plain head grammar gets td, hc, phi, ehi and hi. td is skipped where
    the grammar is head-recursive, since its stack then grows without
    bound; the others also run where it is cyclic, as opportunistic runs.
    A generalized head grammar gets ghi, opportunistic where its flattening
    is cyclic. A resource limit is counted, never reported as a mismatch.
    """
    out = Differential()
    for index, (grammar, language) in enumerate(corpus):
        if isinstance(grammar, GenHeadGrammar):
            automata = [("ghi", build_ghi(grammar), gen_eligible(grammar))]
        else:
            aug = augment(grammar)
            automata = [(name, builder(aug), eligible(aug, name))
                        for name, builder in FLAT_BUILDERS.items()
                        if name != "td" or eligible(aug, "td")]
            out.skipped += len(FLAT_BUILDERS) - len(automata)
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
