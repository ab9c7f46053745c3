"""The steps every reachable stack allows, and the tables they come from.

A run records each stack's steps from its top's plan: the clauses that
read the top alone, then those of its window.  However a builder computes
them, every stack a search can reach must allow the same steps, each
(label, popped, item, consulted), in the same order.  The digests cover
each recognizer on a seeded corpus slice and on every input up to length
4 of the demo grammars.

A builder works out what its clauses read of the grammar once per state,
in tables that last as long as the automaton; they are keyed by grammar
states (and tokens), never by input positions, so a longer input over
the same states adds no entry.
"""

import functools
import hashlib
import itertools
import types

import pytest

from headparse import augment, build_ghi, embed, parse_ghg, parse_hg, run
from headparse.corpus import (all_inputs, common_infix_family, eligible,
                              gen_eligible, gen_grammar_corpus,
                              head_grammar_corpus)
from conftest import FLAT_BUILDERS, explore, hg
from test_engine import _groups, _steps
from test_stacks import ROOT


def canonical(value):
    """Text for `value` that does not depend on hash order: a set's
    members are listed sorted by their own text."""
    if isinstance(value, frozenset):
        return "{%s}" % ", ".join(sorted(map(canonical, value)))
    if isinstance(value, tuple):
        name = type(value).__name__ if hasattr(value, "_fields") else ""
        return "%s(%s)" % (name, ", ".join(map(canonical, value)))
    return repr(value)


def step_digest(automaton, inputs):
    """sha256 of every reachable stack's steps as a run records them, in
    order, per input; the stacks of an input in the order of their text."""
    digest = hashlib.sha256()
    for tokens in inputs:
        digest.update(canonical(tokens).encode("utf-8"))
        stacks = sorted((canonical(stack), stack)
                        for stack in explore(automaton, tokens).stacks)
        for text, stack in stacks:
            digest.update(text.encode("utf-8"))
            for window, clauses in _groups(automaton, stack):
                for step in _steps(clauses, window, tokens):
                    digest.update(canonical(step).encode("utf-8"))
    return digest.hexdigest()


def inputs_up_to(grammar, size):
    return [tokens for length in range(size + 1)
            for tokens in itertools.product(sorted(grammar.terminals), repeat=length)]


def step_digests():
    """Per recognizer and case: a seeded corpus slice on every {a, b}
    input up to length 4, with the grammars whose rules share infixes (so
    ehi merges left-hand sides) on every input up to length 3 over their
    terminals and on their sample sentences; and the demo grammars
    (demo.hg for the five flat recognizers, demo.ghg for ghi) on every
    input up to length 4 over their terminals."""
    digests = {}
    short = all_inputs(("a", "b"), 4)
    grammars = [(g, short) for g in head_grammar_corpus(12, seed=2000)]
    grammars += [(g, inputs_up_to(g, 3) + sentences)
                 for g, sentences in common_infix_family()]
    for name, builder in FLAT_BUILDERS.items():
        digests["%s corpus" % name] = _joined(
            step_digest(builder(aug), inputs)
            for aug, inputs in ((augment(g), inputs) for g, inputs in grammars)
            if eligible(aug, name))
    trees = [g for g in gen_grammar_corpus(8, seed=2001) if gen_eligible(g)]
    digests["ghi corpus"] = _joined(step_digest(build_ghi(g), short) for g in trees)
    demo = parse_hg((ROOT / "grammars" / "demo.hg").read_text())
    aug = augment(demo)
    for name, builder in FLAT_BUILDERS.items():
        digests["%s demo.hg" % name] = step_digest(builder(aug), inputs_up_to(demo, 4))
    demo_ghg = parse_ghg((ROOT / "grammars" / "demo.ghg").read_text())
    digests["ghi demo.ghg"] = step_digest(build_ghi(demo_ghg), inputs_up_to(demo_ghg, 4))
    return digests


def _joined(digests):
    return hashlib.sha256("".join(digests).encode("utf-8")).hexdigest()


# recorded from builders that worked each clause's grammar facts out on
# every call; however a builder computes its steps, they stay the same
STEP_DIGESTS = {
    'td corpus':
        'e5bb81b561b6dfd9650e6d9883220040afed27cf7225a57d3f14e68b76cc5690',
    'hc corpus':
        '500280ca55ec479a4586e2d03146f6b3e0c250b0934504f46535c5edd0bc5555',
    'phi corpus':
        '6057012602969a59eede1946e26760d0b005844c28b5c0c3f42d6de69c85bc3b',
    'ehi corpus':
        'c7dd503825497bae38dfad5dc9cc46b9ab7c46b3a95a0275f17b55c768c621ea',
    'hi corpus':
        '5a486ee3ceb373c70dab2553c6c316d37419d47502338277dceb8dc9ef0d968c',
    'ghi corpus':
        'a6802f58dc4a925441eca30f9d512ca1f2373ecb9da081b688bb5fdbe95b51fe',
    'td demo.hg':
        'ccfc99f968e07a252aa0b97599ee75642ef3ced26c705597629aedde6e386633',
    'hc demo.hg':
        '53ed00ca1bfcd9a2803493b447ad61252cd1cc10d40cada452c393550c248c83',
    'phi demo.hg':
        '3c7b71de43b0aefe9ee341027dabdc6b333245c20e1ca6b768c9c8e6e749f53e',
    'ehi demo.hg':
        '3c7b71de43b0aefe9ee341027dabdc6b333245c20e1ca6b768c9c8e6e749f53e',
    'hi demo.hg':
        '4bc6cf806dd64d10b4242b949251a793246cf343177a394fa513dd8710d3d204',
    'ghi demo.ghg':
        '6a5679f388b14acaf51963129a86ea5f5c0d61c24555b67f934ce5fba0ee6777',
}


def test_step_digests_are_unchanged():
    assert step_digests() == STEP_DIGESTS


def tables(automaton):
    """Every functools cache that the automaton's matchers and plan reach
    through their closures, by identity."""
    found, seen = {}, set()
    work = [clause.matcher for clause in automaton.clauses] + [automaton.plan]
    while work:
        value = work.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if hasattr(value, "cache_info"):
            found[id(value)] = value
            work.append(value.__wrapped__)
        elif isinstance(value, functools.partial):
            work.append(value.func)
        elif isinstance(value, dict):
            work.extend(value.values())
        elif isinstance(value, types.FunctionType):
            work.extend(cell.cell_contents for cell in value.__closure__ or ())
    return found


# grammars with a few states on every a^n: the head-left S -> *a S | *a
# for td and ghi, and S -> a *S a | *a, which td may not run (its head
# recursion) and on which hi explores polynomially many stacks, for the rest
HEAD_LEFT = hg("S", ("S", "*a S"), ("S", "*a"))
CENTER_A = hg("S", ("S", "a *S a"), ("S", "*a"))


@pytest.mark.parametrize("name", ["td", "hc", "phi", "ehi", "hi", "ghi"])
def test_tables_are_keyed_by_state_not_position(name):
    grammar = HEAD_LEFT if name in ("td", "ghi") else CENTER_A
    automaton = build_ghi(embed(grammar)) if name == "ghi" \
        else FLAT_BUILDERS[name](augment(grammar))
    found = tables(automaton)
    sizes = []
    for n in (20, 60):
        run(automaton, ("a",) * n)
        sizes.append({key: table.cache_info().currsize for key, table in found.items()})
    assert len(found) >= 7 and sum(sizes[0].values()) > 10
    assert sizes[0] == sizes[1]
