"""Front-door fuzzing: grammar texts and command lines built from the
toolkit's own vocabulary end in a grammar, a `GrammarError` or a
documented exit code, never in a traceback or an internal error."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from headparse import (GenHeadGrammar, GrammarError, HeadGrammar, cli,
                       parse_ghg, parse_hg)
from conftest import DEMO_GHG

GRAMMAR_WORDS = (
    "start", "S", "A", "B", "a", "b", "S'", "⊥", "x1", "->", "-", ">", "*",
    "*S", "*a", "**a", "(", ")", "()", "(a)", "(S (a) ())", "(A () (b))",
    "#", "é", "{", " ", " ", "\t", "\n", "\n",
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("", "start S\n")),
       st.lists(st.sampled_from(GRAMMAR_WORDS), max_size=24))
def test_grammar_parsers_return_a_grammar_or_raise_grammar_error(header, words):
    text = header + "".join(words)
    for parse, kind in ((parse_hg, HeadGrammar), (parse_ghg, GenHeadGrammar)):
        try:
            grammar = parse(text)
        except GrammarError:
            continue
        assert isinstance(grammar, kind)


# "@name" stands for a file of that name in the fixture's directory
GRAMMAR_FILES = {
    "tiny.hg": "start S\nS -> c *A b\nA -> *a\n",
    "demo.ghg": DEMO_GHG,
    "broken.hg": "start S\nS -> *a *b\n",
    "broken.ghg": "start S\nS -> (a (b)\n",
    "notes.txt": "start S\n",
}
FILES = ("@tiny.hg", "@demo.ghg", "@broken.hg", "@broken.ghg", "@notes.txt",
         "@missing.hg")
NUMBERS = ("0", "1", "2", "3", "-1", "x")
VALUES = {
    "--grammar": FILES, "--tau-head": FILES, "--tau-two": FILES,
    "--output": ("@out.hg",),
    "--algorithm": cli.ALGORITHMS + ("xx",),
    "--algorithms": ("td,ghi", "hi", "hi,xx", ""),
    "--input": ("a", "c a b", "cab", "", "a d s"),
    "--max-steps": NUMBERS, "--max-depth": NUMBERS, "--random": NUMBERS,
    "--max-len": NUMBERS, "--seed": NUMBERS,
}
SWITCHES = ("--chars", "--embed", "--trace", "--json", "--exhaustive")
# each command's own options, plus one it does not have
OPTIONS = {
    "recognize": ("--grammar", "--algorithm", "--input", "--chars", "--embed",
                  "--trace", "--json", "--max-steps", "--max-depth", "--random"),
    "transform": ("--tau-head", "--tau-two", "--output", "--input"),
    "compare": ("--grammar", "--input", "--chars", "--embed", "--algorithms",
                "--exhaustive", "--random", "--max-len", "--seed",
                "--max-steps", "--max-depth", "--trace"),
    "enumerate": ("--grammar", "--max-len", "--json"),
    "bogus": ("--grammar",),
}
# what each command needs to get past argument checking: one of each group
REQUIRED = {
    "recognize": (("--grammar",), ("--algorithm",)),
    "transform": (("--tau-head", "--tau-two"),),
    "compare": (("--grammar", "--random"),),
    "enumerate": (("--grammar",), ("--max-len",)),
    "bogus": (),
}


def _option(flag):
    if flag in SWITCHES:
        return st.just([flag])
    return st.sampled_from(VALUES[flag]).map(lambda value: [flag, value])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    groups = REQUIRED[command] if draw(st.booleans()) else ()
    options = [draw(st.sampled_from(group).flatmap(_option)) for group in groups]
    options += draw(st.lists(st.sampled_from(OPTIONS[command]).flatmap(_option),
                             max_size=4))
    return [command] + [word for option in options for word in option]


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in GRAMMAR_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_cli_exits_with_a_documented_code(grammar_dir, words):
    argv = [str(grammar_dir / w[1:]) if w.startswith("@") else w for w in words]
    out, err = io.StringIO(), io.StringIO()
    # an unseeded --random draws a fixed seed, so every example replays
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli.random, "randrange", return_value=7):
        code = cli.main(argv)
    assert 0 <= code <= 5, (argv, err.getvalue())
