"""Head-driven recognizers for head grammars.

A head grammar is a context-free grammar in which every rule distinguishes
one right-hand-side member as its head; recognition starts at heads and
works outward instead of left to right.  The package provides a family of
recognizers of increasing determinism (top-down, head-corner, predictive
head-inward, extended head-inward, head-inward), a generalized recognizer
over binary-tree right-hand sides, the flattening/binarization
transformations between the formalisms, a nondeterministic stack-automaton
engine with traces and statistics, and a brute-force oracle for
differential verification.
"""

from .engine import (Automaton, Clause, EngineError, RunResult, RunStats,
                     Trace, Verdict, accepting_trace, render_trace_text,
                     replay, run, trace_records)
from .grammar import (FULL, LEFT, RIGHT, AugmentedGrammar, Grammar,
                      GrammarError, GrammarFormatError, HeadGrammar, HeadRule,
                      augment, detect_cyclic, detect_head_recursion,
                      file_safe_grammar, format_hg, head_corner, parse_hg,
                      validate)
from .oracle import (EnumerationLimitError, SubsequenceVerdict,
                     check_subsequence_property, enumerate_language,
                     enumerate_report, recognize, useless_symbols)
from .recognizer_ghi import build_ghi, closure, goto, gotoleft, gotoright, \
    left_set, right_set, yld
from .recognizer_hi import (Relations, build_hi, compute_relations, gotoleft1,
                            gotoleft2, gotoright1, gotoright2)
from .recognizers_basic import build_ehi, build_hc, build_phi, build_td
from .transform import (GenHeadGrammar, GenHeadRule, Tree, bracket_symbol,
                        embed, format_ghg, parse_ghg, tau_head, tau_two,
                        tree_to_text, tree_yield)

__version__ = "0.1.0"

__all__ = [
    "Automaton", "AugmentedGrammar", "Clause", "EngineError",
    "EnumerationLimitError", "FULL", "GenHeadGrammar", "GenHeadRule",
    "Grammar", "GrammarError", "GrammarFormatError", "HeadGrammar",
    "HeadRule", "LEFT", "RIGHT", "Relations", "RunResult", "RunStats",
    "SubsequenceVerdict", "Trace", "Tree", "Verdict", "accepting_trace",
    "augment", "bracket_symbol", "build_ehi", "build_ghi", "build_hc",
    "build_hi", "build_phi", "build_td", "check_subsequence_property",
    "closure", "compute_relations", "detect_cyclic", "detect_head_recursion",
    "embed", "enumerate_language", "enumerate_report", "file_safe_grammar",
    "format_ghg", "format_hg", "goto", "gotoleft", "gotoleft1", "gotoleft2",
    "gotoright", "gotoright1", "gotoright2", "head_corner", "left_set",
    "parse_ghg", "parse_hg", "recognize", "render_trace_text", "replay",
    "right_set", "run", "tau_head", "tau_two", "trace_records",
    "tree_to_text", "tree_yield", "useless_symbols", "validate", "yld",
]
