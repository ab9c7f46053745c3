"""Ground truth for differential testing.

Heads direct the order in which a recognizer visits the input; they never
change the generated language.  This module therefore ignores head and
tree annotations entirely and answers language questions about the plain
context-free reading of a grammar, favouring obvious correctness over
speed:

  * `recognize`: bottom-up chart recognizer over spans, with a unit-rule
    closure per cell (there are no empty right-hand sides, so spans shrink
    strictly except through single-member rules, whose closure is finite).
  * `enumerate_language`: breadth-first derivation up to a length bound;
    sound to prune by length because sentential forms only grow.
  * `check_subsequence_property`: whether the input positions a run
    consulted spell, in order, a subsequence of some string in the
    language; the bounded enumeration makes "not found" either a definite
    failure (finite language fully enumerated) or explicitly inconclusive.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable


class EnumerationLimitError(RuntimeError):
    """The enumeration frontier outgrew its cap."""


def _plain_rules(g):
    """(lhs, members) pairs of the context-free reading of the grammar."""
    return [(r.lhs, g.plain_rhs(r.rhs)) for r in g.rules]


def recognize(g, tokens) -> bool:
    """True iff the start symbol derives exactly the token sequence."""
    tokens = tuple(tokens)
    n = len(tokens)
    if n == 0:
        return False  # no empty right-hand sides, so never the empty string
    chart = _chart(g, tokens)
    return g.start in chart[(0, n)]


def _chart(g, tokens):
    n = len(tokens)
    nts = g.nonterminals
    rules = _plain_rules(g)
    unit_rules = [(lhs, members[0]) for lhs, members in rules
                  if len(members) == 1 and members[0] in nts]
    other_rules = [(lhs, members) for lhs, members in rules
                   if not (len(members) == 1 and members[0] in nts)]
    chart = {}
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell = set()
            chart[(i, j)] = cell
            for lhs, members in other_rules:
                if _derives_span(g, chart, tokens, members, i, j):
                    cell.add(lhs)
            # unit closure; stabilizes within |nonterminals| passes
            changed = True
            while changed:
                changed = False
                for lhs, member in unit_rules:
                    if member in cell and lhs not in cell:
                        cell.add(lhs)
                        changed = True
    return chart


def _derives_span(g, chart, tokens, members, i, j):
    """Can the member sequence tile exactly the span (i, j]?"""
    reach = {i}
    for sym in members:
        nxt = set()
        if sym in g.nonterminals:
            for p in reach:
                for q in range(p + 1, j + 1):
                    if sym in chart[(p, q)]:
                        nxt.add(q)
        else:
            for p in reach:
                if p < j and tokens[p] == sym:
                    nxt.add(p + 1)
        if not nxt:
            return False
        reach = nxt
    return j in reach


def enumerate_report(g, max_len: int, frontier_cap: int = 200_000):
    """All derivable strings of length <= max_len, plus a truncation flag.

    The flag is set when some derivation was cut off by the length bound;
    when it is clear, the language is finite and was enumerated completely.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    expansions = {}  # nonterminal -> its plain right-hand sides
    for lhs, members in _plain_rules(g):
        expansions.setdefault(lhs, []).append(members)
    start_form = (g.start,)
    seen = {start_form}
    queue = [start_form]
    out = set()
    truncated = False
    idx = 0
    while idx < len(queue):
        form = queue[idx]
        idx += 1
        for pos, sym in enumerate(form):
            if sym in expansions:
                break
        else:
            out.add(form)
            continue
        for members in expansions.get(form[pos], ()):
            new_form = form[:pos] + members + form[pos + 1:]
            if len(new_form) > max_len:
                truncated = True
                continue
            if new_form in seen:
                continue
            seen.add(new_form)
            if len(seen) > frontier_cap:
                raise EnumerationLimitError(
                    "more than %d sentential forms at bound %d" % (frontier_cap, max_len))
            queue.append(new_form)
    return frozenset(out), truncated


def enumerate_language(g, max_len: int, frontier_cap: int = 200_000) -> frozenset:
    strings, _ = enumerate_report(g, max_len, frontier_cap)
    return strings


def useless_symbols(g) -> frozenset:
    """Symbols that are unproductive or unreachable in the plain reading."""
    rules = _plain_rules(g)
    productive = set(g.terminals)
    changed = True
    while changed:
        changed = False
        for lhs, members in rules:
            if lhs not in productive and all(m in productive for m in members):
                productive.add(lhs)
                changed = True
    reachable = {g.start}
    changed = True
    while changed:
        changed = False
        for lhs, members in rules:
            if lhs in reachable:
                for m in members:
                    if m not in reachable:
                        reachable.add(m)
                        changed = True
    return frozenset(s for s in g.symbols if s not in productive or s not in reachable)


def is_subsequence(needle, hay) -> bool:
    it = iter(hay)
    return all(sym in it for sym in needle)


class SubsequenceVerdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


def check_subsequence_property(g, tokens, positions: Iterable,
                               max_len: int = 8) -> SubsequenceVerdict:
    """Do the consulted input symbols, in order, occur as a subsequence of
    some string of the language?

    `positions` are 1-based input positions as reported in run statistics
    (the per-path consulted sets).  The grammar should have no useless
    symbols for the property to be meaningful.  When the consulted
    sequence is not found below the bound and the language continues past
    it, the verdict is INCONCLUSIVE rather than FAILS.
    """
    tokens = tuple(tokens)
    needle = tuple(tokens[p - 1] for p in sorted(positions))
    if not needle:
        return SubsequenceVerdict.HOLDS
    strings, truncated = enumerate_report(g, max_len)
    if any(is_subsequence(needle, s) for s in strings):
        return SubsequenceVerdict.HOLDS
    return SubsequenceVerdict.INCONCLUSIVE if truncated else SubsequenceVerdict.FAILS
