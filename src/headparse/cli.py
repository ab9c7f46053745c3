"""Command line front door.

Subcommands: recognize, transform, compare, enumerate.

Exit codes: 0 accept, 1 reject, 2 resource limit (a search bound, or the
oracle's cap on enumerated sentential forms), 3 grammar or input errors,
4 usage errors, 5 verdict disagreement in `compare`, 6 internal error (a
fault in headparse itself, reported on stderr).

`compare --random N` runs the acceptance gate's policy,
`headparse.differential.check`, over N seeded head grammars: td is skipped
on head-recursive grammars, and hc/phi/ehi/hi also run on cyclic ones.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

from . import differential, engine, oracle
from .corpus import all_inputs, head_grammar_corpus
from .differential import FLAT_BUILDERS
from .grammar import GrammarError, augment, file_safe_grammar, format_hg, parse_hg
from .recognizer_ghi import build_ghi
from .transform import GenHeadGrammar, embed, parse_ghg, tau_head, tau_two

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_LIMIT = 2
EXIT_ERROR = 3
EXIT_USAGE = 4
EXIT_DISAGREE = 5
EXIT_INTERNAL = 6

_EXIT_BY_VERDICT = {
    engine.Verdict.ACCEPT: EXIT_ACCEPT,
    engine.Verdict.REJECT: EXIT_REJECT,
    engine.Verdict.RESOURCE_LIMIT: EXIT_LIMIT,
}

ALGORITHMS = tuple(FLAT_BUILDERS) + ("ghi",)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type for counts and bounds; a bad value becomes a usage
    error through `_Parser.error`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer: %d" % value)
    return value


@dataclass
class RunReport:
    """Losslessly serializable record of one recognition run."""

    grammar: str
    algorithm: str
    input: list
    verdict: str
    stats: dict
    trace: Optional[list] = None

    def to_dict(self):
        return {
            "grammar": self.grammar,
            "algorithm": self.algorithm,
            "input": list(self.input),
            "verdict": self.verdict,
            "stats": dict(self.stats),
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(grammar=data["grammar"], algorithm=data["algorithm"],
                   input=list(data["input"]), verdict=data["verdict"],
                   stats=dict(data["stats"]), trace=data["trace"])


def _stats_dict(stats: engine.RunStats) -> dict:
    return {
        "configurations_explored": stats.configurations_explored,
        "clause_applications": stats.clause_applications,
        "max_stack_depth": stats.max_stack_depth,
        "consulted_positions": sorted(stats.consulted_positions),
        "duplicates_pruned": stats.duplicates_pruned,
        "limit_hit": stats.limit_hit,
    }


def _load_grammar(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GrammarError("cannot read %s: %s" % (path, exc))
    if path.endswith(".ghg"):
        return parse_ghg(text, source=path)
    if path.endswith(".hg"):
        return parse_hg(text, source=path)
    raise UsageError("grammar file must end in .hg or .ghg: %s" % path)


def _tokens(args) -> tuple:
    text = args.input or ""
    if args.chars:
        return tuple(ch for ch in text if not ch.isspace())
    return tuple(text.split())


def _automaton_for(algorithm: str, grammar, embed_plain: bool):
    if algorithm == "ghi":
        if isinstance(grammar, GenHeadGrammar):
            return build_ghi(grammar)
        if not embed_plain:
            raise UsageError("algorithm ghi needs a .ghg grammar or --embed")
        return build_ghi(embed(grammar))
    if isinstance(grammar, GenHeadGrammar):
        raise UsageError("algorithm %s works on plain .hg grammars" % algorithm)
    return FLAT_BUILDERS[algorithm](augment(grammar))


def _run_limits(args) -> dict:
    out = {}
    if getattr(args, "max_steps", None) is not None:
        out["max_steps"] = args.max_steps
    if getattr(args, "max_depth", None) is not None:
        out["max_depth"] = args.max_depth
    return out


def cmd_recognize(args) -> int:
    grammar = _load_grammar(args.grammar)
    tokens = _tokens(args)
    automaton = _automaton_for(args.algorithm, grammar, args.embed)
    result = engine.run(automaton, tokens, **_run_limits(args))
    trace_recs = None
    if result.verdict is engine.Verdict.ACCEPT:
        trace = engine.accepting_trace(result)
        if not engine.replay(automaton, tokens, trace):
            raise engine.EngineError("accepting trace failed to replay")
        if args.trace:
            trace_recs = engine.trace_records(automaton, trace)
            if not args.json:
                print(engine.render_trace_text(automaton, trace), end="")
    report = RunReport(grammar=args.grammar, algorithm=args.algorithm,
                       input=list(tokens), verdict=result.verdict.value,
                       stats=_stats_dict(result.stats), trace=trace_recs)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    elif not (args.trace and result.verdict is engine.Verdict.ACCEPT):
        print("%s: %s" % (args.algorithm, result.verdict.value))
    return _EXIT_BY_VERDICT[result.verdict]


def cmd_transform(args) -> int:
    if args.tau_head:
        grammar = _load_grammar(args.tau_head)
        if not isinstance(grammar, GenHeadGrammar):
            raise UsageError("--tau-head expects a .ghg grammar")
        result = tau_head(grammar)
    else:
        grammar = _load_grammar(args.tau_two)
        if isinstance(grammar, GenHeadGrammar):
            raise UsageError("--tau-two expects a plain .hg grammar")
        result = tau_two(grammar)
    safe, mapping = file_safe_grammar(result)
    comments = ["%s = %s" % (new, old) for old, new in sorted(
        mapping.items(), key=lambda kv: kv[1])]
    text = format_hg(safe, comments=comments)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _compare_rows(grammar, tokens, algorithms, embed_plain, limits, exhaustive):
    rows = []
    for name in algorithms:
        automaton = _automaton_for(name, grammar, embed_plain)
        result = engine.run(automaton, tokens, exhaustive=exhaustive, **limits)
        rows.append((name, result))
    return rows


def _print_table(rows):
    header = ("algorithm", "verdict", "configs", "applications", "max-depth")
    table = [header]
    for name, result in rows:
        table.append((name, result.verdict.value,
                      str(result.stats.configurations_explored),
                      str(result.stats.clause_applications),
                      str(result.stats.max_stack_depth)))
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def cmd_compare(args) -> int:
    if args.random is not None:
        return _compare_random(args)
    grammar = _load_grammar(args.grammar)
    tokens = _tokens(args)
    if args.algorithms:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        for name in algorithms:
            if name not in ALGORITHMS:
                raise UsageError("unknown algorithm %r" % name)
    elif isinstance(grammar, GenHeadGrammar):
        algorithms = ["ghi"]
    else:
        algorithms = list(FLAT_BUILDERS)
    rows = _compare_rows(grammar, tokens, algorithms, args.embed,
                         _run_limits(args), args.exhaustive)
    _print_table(rows)
    verdicts = {r.verdict for _, r in rows if r.verdict is not engine.Verdict.RESOURCE_LIMIT}
    if len(verdicts) > 1:
        print("error: verdicts disagree", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_ACCEPT


def _compare_random(args) -> int:
    seed = args.seed if args.seed is not None else random.randrange(2 ** 32)
    corpus = [(g, oracle.enumerate_language(g, args.max_len))
              for g in head_grammar_corpus(args.random, seed)]
    data = differential.check(corpus, all_inputs(("a", "b"), args.max_len),
                              **_run_limits(args))
    print("seed %d, %d grammars, inputs up to length %d"
          % (seed, args.random, args.max_len))
    for o in data.mismatches:
        print("disagreement: grammar %d, %s, input %r (oracle %s)"
              % (o.grammar, o.algorithm, " ".join(o.tokens), o.expected))
    print("%d runs (%d on loop-prone grammars), %d disagreements, "
          "%d resource limits, td skipped on %d head-recursive grammars"
          % (data.eligible_runs + data.opportunistic_runs,
             data.opportunistic_runs, len(data.mismatches),
             data.limits, data.skipped))
    return EXIT_DISAGREE if data.mismatches else EXIT_ACCEPT


def cmd_enumerate(args) -> int:
    grammar = _load_grammar(args.grammar)
    strings = oracle.enumerate_language(grammar, args.max_len)
    for tokens in sorted(strings):
        print(" ".join(tokens))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="headparse",
                     description="Head-driven recognizers for head grammars")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="run one recognizer on one input")
    rec.add_argument("--grammar", required=True)
    rec.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    rec.add_argument("--input", default="")
    rec.add_argument("--chars", action="store_true",
                     help="split the input into single-character tokens")
    rec.add_argument("--embed", action="store_true",
                     help="lift a plain .hg grammar into tree form for ghi")
    rec.add_argument("--trace", action="store_true",
                     help="print the accepting trace as a two-column table")
    rec.add_argument("--json", action="store_true")
    rec.add_argument("--max-steps", type=_positive_int)
    rec.add_argument("--max-depth", type=_positive_int)
    rec.set_defaults(func=cmd_recognize)

    tra = sub.add_parser("transform", help="flatten or binarize a grammar")
    group = tra.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau-head", metavar="FILE.ghg",
                       help="flatten a generalized grammar to a plain head grammar")
    group.add_argument("--tau-two", metavar="FILE.hg",
                       help="rewrite a grammar into two normal form")
    tra.add_argument("--output", "-o")
    tra.set_defaults(func=cmd_transform)

    cmp_ = sub.add_parser("compare", help="run several recognizers and tabulate stats")
    cmp_.add_argument("--grammar")
    cmp_.add_argument("--input", default="")
    cmp_.add_argument("--chars", action="store_true")
    cmp_.add_argument("--embed", action="store_true")
    cmp_.add_argument("--algorithms", help="comma-separated subset of: %s" % ",".join(ALGORITHMS))
    cmp_.add_argument("--exhaustive", action="store_true",
                      help="explore the whole space even after accepting")
    cmp_.add_argument("--random", type=_positive_int, metavar="N",
                      help="differential batch over N seeded random grammars")
    cmp_.add_argument("--max-len", type=_positive_int, default=4,
                      help="input length bound for --random")
    cmp_.add_argument("--seed", type=int)
    cmp_.add_argument("--max-steps", type=_positive_int)
    cmp_.add_argument("--max-depth", type=_positive_int)
    cmp_.set_defaults(func=cmd_compare)

    enu = sub.add_parser("enumerate", help="list the language up to a length bound")
    enu.add_argument("--grammar", required=True)
    enu.add_argument("--max-len", type=_positive_int, required=True)
    enu.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "compare" and args.random is None and not args.grammar:
            raise UsageError("compare needs --grammar or --random N")
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except GrammarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except oracle.EnumerationLimitError as exc:
        print("error: language enumeration stopped: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:
        # a fault in headparse, not a verdict: never exit 0-5 for it
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
