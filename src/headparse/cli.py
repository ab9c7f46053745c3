"""Command line front door.

Subcommands: recognize, transform, compare, enumerate.

Exit codes: 0 accept, 1 reject, 2 resource limit (a search bound, or the
oracle's cap on enumerated sentential forms), 3 grammar, input or file errors,
4 usage errors, 5 verdict disagreement in `compare`, 6 internal error (a
fault in headparse itself, reported on stderr).

`compare --random N` runs the acceptance gate's check,
`headparse.differential.check`, over N seeded head grammars, and
`compare --grammar` without `--algorithms` runs its one grammar's default
recognizers; both take them from `headparse.differential.lineup`: td is
skipped on head-recursive grammars, and hc/phi/ehi/hi also run on cyclic
ones.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from dataclasses import asdict

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


def _load_grammar(path: str):
    try:
        # utf-8-sig: a byte order mark some editors save is not a token
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    limits = {"max_steps": args.max_steps, "max_depth": args.max_depth}
    return {key: value for key, value in limits.items() if value is not None}


def _write(text: str):
    """Write `text` to stdout a buffer's worth at a time.  A single larger
    write whose reader closes the pipe part way can return without an
    error, losing the rest silently; smaller pieces raise it."""
    for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        sys.stdout.write(text[start:start + io.DEFAULT_BUFFER_SIZE])


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
        if args.trace and args.json:
            trace_recs = engine.trace_records(automaton, trace)
        elif args.trace:
            _write(engine.render_trace_text(automaton, trace))
    if args.json:
        stats = result.stats
        report = {"grammar": args.grammar, "algorithm": args.algorithm,
                  "input": list(tokens), "verdict": result.verdict.value,
                  "stats": dict(asdict(stats), consulted_positions=sorted(
                      stats.consulted_positions)),
                  "trace": trace_recs}
        print(json.dumps(report, indent=2, ensure_ascii=False))
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
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.output, exc), file=sys.stderr)
            return EXIT_ERROR
    else:
        _write(text)
    return 0


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


# flags of `compare` that only one source reads, by source
_COMPARE_FLAGS = {
    "--random": ("input", "chars", "embed", "algorithms", "exhaustive"),
    "--grammar": ("max_len", "seed"),
}


def cmd_compare(args) -> int:
    source = "--grammar" if args.random is None else "--random"
    for dest in _COMPARE_FLAGS[source]:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise UsageError("--%s does not apply to compare %s"
                             % (dest.replace("_", "-"), source))
    if args.random is not None:
        return _compare_random(args)
    grammar = _load_grammar(args.grammar)
    tokens = _tokens(args)
    if args.algorithms is not None:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        if not algorithms:
            raise UsageError("--algorithms names no algorithm")
        for name in algorithms:
            if name not in ALGORITHMS:
                raise UsageError("unknown algorithm %r" % name)
        automata = [(name, _automaton_for(name, grammar, args.embed))
                    for name in algorithms]
        skipped = []
    else:
        lineup = differential.lineup(grammar)
        automata = [(name, automaton) for name, automaton, _ in lineup.automata]
        skipped = lineup.skipped
    limits = _run_limits(args)
    rows = [(name, engine.run(automaton, tokens, exhaustive=args.exhaustive, **limits))
            for name, automaton in automata]
    _print_table(rows)
    for name in skipped:
        print("%s skipped: grammar is head-recursive" % name)
    verdicts = {r.verdict for _, r in rows if r.verdict is not engine.Verdict.RESOURCE_LIMIT}
    if len(verdicts) > 1:
        print("error: verdicts disagree", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_ACCEPT


def _compare_random(args) -> int:
    seed = args.seed if args.seed is not None else random.randrange(2 ** 32)
    max_len = args.max_len if args.max_len is not None else 4
    corpus = [(g, oracle.enumerate_language(g, max_len))
              for g in head_grammar_corpus(args.random, seed)]
    data = differential.check(corpus, all_inputs(("a", "b"), max_len),
                              **_run_limits(args))
    print("seed %d, %d grammars, inputs up to length %d"
          % (seed, args.random, max_len))
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
    source = cmp_.add_mutually_exclusive_group(required=True)
    source.add_argument("--grammar")
    source.add_argument("--random", type=_positive_int, metavar="N",
                        help="differential batch over N seeded random grammars")
    cmp_.add_argument("--input")
    cmp_.add_argument("--chars", action="store_true")
    cmp_.add_argument("--embed", action="store_true")
    cmp_.add_argument("--algorithms", help="comma-separated subset of: %s" % ",".join(ALGORITHMS))
    cmp_.add_argument("--exhaustive", action="store_true",
                      help="explore the whole space even after accepting")
    cmp_.add_argument("--max-len", type=_positive_int,
                      help="input length bound for --random (default 4)")
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
        code = args.func(args)
        sys.stdout.flush()  # a write that fails fails here, not at exit
        return code
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except GrammarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except oracle.EnumerationLimitError as exc:
        print("error: language enumeration stopped: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except (OSError, UnicodeEncodeError) as exc:
        # commands read files through `_load_grammar`, write `-o` files
        # themselves and encode no text, so what gets here is a failed write
        # to stdout, or output that stdout's encoding cannot spell
        print("error: cannot write stdout: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a fault in headparse, not a verdict: never exit 0-5 for it
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
