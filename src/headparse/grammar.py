"""Head grammars: context-free rules in which exactly one right-hand-side
member is distinguished as the head.

Symbols are plain strings.  Whether a symbol is a nonterminal is derived,
never declared: a symbol is a nonterminal exactly when it occurs as the
left-hand side of some rule.  Rules with empty right-hand sides are not
representable, on purpose; several algorithms in this package rely on the
fact that every symbol derives at least one terminal position.

Besides the grammar model itself this module provides:

  * `augment`: adds a fresh start symbol rewriting to a fresh bottom
    marker followed by the old start symbol.  The bottom marker acts as an
    imaginary zeroth input symbol occupying the span (-1, 0]; recognizers
    begin with it already recognized.
  * the head-corner relation family (`head_corner`): the reflexive and
    transitive closure of "is the head of a rule for", optionally
    restricted to rules whose head is leftmost or rightmost.
  * loop detectors (`detect_head_recursion`, `detect_cyclic`) that tell
    which recognizers are guaranteed to terminate on a given grammar.
  * the `.hg` text format (`parse_hg` / `format_hg`).
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

BOTTOM_BASE = "⊥"  # the bottom marker; not writable in grammar files
START_PRIME_BASE = "S'"

TOKEN_RE = re.compile(r"[A-Za-z0-9_']+")

FULL = "full"
LEFT = "left"
RIGHT = "right"


class GrammarError(ValueError):
    """Raised for structurally broken grammars."""


class GrammarFormatError(GrammarError):
    """A parse error in a grammar file, carrying line/column information."""

    def __init__(self, message, line, column, source="<string>"):
        super().__init__("%s:%d:%d: %s" % (source, line, column, message))
        self.message = message
        self.line = line
        self.column = column
        self.source = source


class HeadRule(NamedTuple):
    lhs: str
    rhs: tuple
    head: int

    @property
    def head_symbol(self):
        return self.rhs[self.head]

    def __str__(self):
        parts = [("*" + s) if p == self.head else s for p, s in enumerate(self.rhs)]
        return "%s -> %s" % (self.lhs, " ".join(parts))


class HeadGrammar:
    """An immutable list of head rules plus a start symbol.

    Derived indexes (nonterminals, terminals, rules by left-hand side) are
    computed once at construction; instances are safe to share between
    concurrent recognizer runs.
    """

    def __init__(self, rules: Iterable[HeadRule], start: str):
        self.rules = tuple(rules)
        self.start = start
        self.nonterminals = frozenset(r.lhs for r in self.rules)
        syms = {start}
        for r in self.rules:
            syms.add(r.lhs)
            syms.update(r.rhs)
        self.symbols = frozenset(syms)
        self.terminals = self.symbols - self.nonterminals
        by_lhs = {}
        for idx, r in enumerate(self.rules):
            by_lhs.setdefault(r.lhs, []).append(idx)
        self.rules_by_lhs = {a: tuple(ids) for a, ids in by_lhs.items()}

    def __eq__(self, other):
        if not isinstance(other, HeadGrammar):
            return NotImplemented
        return self.rules == other.rules and self.start == other.start

    def __hash__(self):
        return hash((self.rules, self.start))

    def __repr__(self):
        return "HeadGrammar(start=%r, %d rules)" % (self.start, len(self.rules))


def validate(g: HeadGrammar) -> list:
    """Check the grammar invariants; one diagnostic string per violation.

    An empty list means the grammar is well formed.  Diagnostics name the
    offending rule, so they can be surfaced directly to users.
    """
    out = []
    for idx, rule in enumerate(g.rules):
        where = "rule %d (%s)" % (idx, rule.lhs)
        if len(rule.rhs) == 0:
            out.append("%s: empty right-hand side" % where)
            continue
        if not 0 <= rule.head < len(rule.rhs):
            out.append("%s: head index %d out of range" % (where, rule.head))
    if g.start not in g.nonterminals:
        out.append("start symbol %s has no rules" % g.start)
    return out


def _fresh(base, taken):
    name = base
    while name in taken:
        name += "'"
    return name


class AugmentedGrammar(HeadGrammar):
    """A base grammar plus the extra rule ``S' -> *bottom S``.

    ``start_prime`` and ``bottom`` are fresh (apostrophes are appended
    until they collide with nothing in the base grammar).  The extra rule
    is appended after the base rules, so base rule indexes are preserved.
    """

    def __init__(self, base: HeadGrammar, start_prime: str, bottom: str):
        extra = HeadRule(start_prime, (bottom, base.start), 0)
        super().__init__(base.rules + (extra,), base.start)
        self.base = base
        self.start_prime = start_prime
        self.bottom = bottom
        self.start_rule_id = len(self.rules) - 1
        term_heads = {}
        nt_heads = {}
        all_heads = {}
        for idx, r in enumerate(self.rules):
            h = r.rhs[r.head]
            target = nt_heads if h in self.nonterminals else term_heads
            target.setdefault(h, []).append(idx)
            all_heads.setdefault(h, []).append(idx)
        self.rules_with_terminal_head = {a: tuple(v) for a, v in term_heads.items()}
        self.rules_with_nonterminal_head = {b: tuple(v) for b, v in nt_heads.items()}
        self.rules_with_head = {x: tuple(v) for x, v in all_heads.items()}


def augment(g: HeadGrammar) -> AugmentedGrammar:
    problems = validate(g)
    if problems:
        raise GrammarError("cannot augment an invalid grammar: " + "; ".join(problems))
    sp = _fresh(START_PRIME_BASE, g.symbols)
    bot = _fresh(BOTTOM_BASE, g.symbols | {sp})
    return AugmentedGrammar(g, sp, bot)


class HeadCornerRelation:
    """Reflexive-transitive closure of "is the head of a rule for".

    ``(b, a)`` in the relation means a chain of rules leads from ``a`` down
    to ``b`` through head members only.  The ``left`` variant only follows
    rules whose head is the leftmost member, ``right`` only rules whose
    head is rightmost.  Pairs range over nonterminals.
    """

    def __init__(self, variant, pairs):
        self.variant = variant
        self.pairs = frozenset(pairs)

    def __contains__(self, pair):
        return pair in self.pairs

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return "HeadCornerRelation(%s, %d pairs)" % (self.variant, len(self.pairs))


def _reachable_closure(edges, universe):
    """All (b, a) with an edge path b -> ... -> a, plus identity pairs."""
    pairs = {(x, x) for x in universe}
    for origin in universe:
        seen = {origin}
        work = [origin]
        while work:
            cur = work.pop()
            for nxt in edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        pairs.update((origin, x) for x in seen)
    return frozenset(pairs)


def head_corner(g: AugmentedGrammar, variant: str = FULL) -> HeadCornerRelation:
    if variant not in (FULL, LEFT, RIGHT):
        raise ValueError("unknown head-corner variant: %r" % variant)
    edges = {}
    for r in g.rules:
        h = r.rhs[r.head]
        if h not in g.nonterminals:
            continue
        if variant == LEFT and r.head != 0:
            continue
        if variant == RIGHT and r.head != len(r.rhs) - 1:
            continue
        edges.setdefault(h, set()).add(r.lhs)
    return HeadCornerRelation(variant, _reachable_closure(edges, g.nonterminals))


def _find_cycle(edges, nodes) -> Optional[list]:
    """Return one cycle of the digraph as a node list, or None.

    Depth first from each node in sorted order, successors in sorted order;
    iterative, so long chains do not hit the recursion limit.
    """
    color = {}  # missing: white, 1: on path, 2: done
    for root in sorted(nodes):
        if root in color:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(sorted(edges.get(root, ())))]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                pending.pop()
                color[path.pop()] = 2
                continue
            state = color.get(nxt)
            if state == 1:
                return path[path.index(nxt):]
            if state is None:
                color[nxt] = 1
                path.append(nxt)
                pending.append(iter(sorted(edges.get(nxt, ()))))
    return None


def detect_head_recursion(g: AugmentedGrammar) -> Optional[list]:
    """Witness cycle through head members, or None.

    The top-down recognizer can grow its stack forever exactly when such a
    cycle exists; the other recognizers do not care.
    """
    edges = {}
    for r in g.rules:
        h = r.rhs[r.head]
        if h in g.nonterminals:
            edges.setdefault(r.lhs, set()).add(h)
    return _find_cycle(edges, g.nonterminals)


def detect_cyclic(g: AugmentedGrammar) -> Optional[list]:
    """Witness cycle A => ... => A, or None.

    Without empty right-hand sides a nonterminal can only rederive itself
    through single-member rules, so cycles over those are the whole story.
    """
    edges = {}
    for r in g.rules:
        if len(r.rhs) == 1 and r.rhs[0] in g.nonterminals:
            edges.setdefault(r.lhs, set()).add(r.rhs[0])
    return _find_cycle(edges, g.nonterminals)


# --------------------------------------------------------------------------
# The .hg file format.
#
#   * UTF-8 text; '#' starts a comment running to end of line.
#   * first meaningful line:  start <Symbol>
#   * one rule per line:      <Lhs> -> <m1> <m2> ... <mk>
#     with exactly one member carrying the head prefix '*'.
#   * tokens match [A-Za-z0-9_']+ ;  '*', '->' and '#' are reserved.


def _split_words(line):
    """Whitespace-separated words of a line with their 1-based columns."""
    return [(match.start() + 1, match.group())
            for match in re.finditer(r"\S+", line)]


def _check_token(word, line_no, col, source):
    if not TOKEN_RE.fullmatch(word):
        raise GrammarFormatError("bad token %r" % word, line_no, col, source)


def parse_hg(text: str, source: str = "<string>") -> HeadGrammar:
    start = None
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = _split_words(line)
        if not words:
            continue
        if start is None:
            if len(words) != 2 or words[0][1] != "start":
                raise GrammarFormatError(
                    "expected 'start <Symbol>' header", line_no, words[0][0], source)
            _check_token(words[1][1], line_no, words[1][0], source)
            start = words[1][1]
            continue
        if len(words) < 2 or words[1][1] != "->":
            raise GrammarFormatError(
                "expected '<Lhs> -> <members>'", line_no, words[0][0], source)
        lhs_col, lhs = words[0]
        _check_token(lhs, line_no, lhs_col, source)
        members = []
        head = None
        for col, word in words[2:]:
            starred = word.startswith("*")
            body = word[1:] if starred else word
            _check_token(body, line_no, col, source)
            if starred:
                if head is not None:
                    raise GrammarFormatError("multiple heads in rule", line_no, col, source)
                head = len(members)
            members.append(body)
        if not members:
            raise GrammarFormatError("empty right-hand side", line_no, lhs_col, source)
        if head is None:
            raise GrammarFormatError(
                "missing head: exactly one member must be marked with '*'",
                line_no, lhs_col, source)
        rules.append(HeadRule(lhs, tuple(members), head))
    if start is None:
        raise GrammarFormatError("missing 'start <Symbol>' header", 1, 1, source)
    g = HeadGrammar(rules, start)
    problems = validate(g)
    if problems:
        raise GrammarError("%s: %s" % (source, "; ".join(problems)))
    return g


def format_hg(g: HeadGrammar, comments: Iterable = ()) -> str:
    """Render a grammar in .hg syntax; the result re-parses to an equal grammar.

    Raises GrammarError when a symbol cannot be written as an .hg token
    (see `file_safe_grammar` for the renaming helper).
    """
    bad = sorted(s for s in g.symbols if not TOKEN_RE.fullmatch(s))
    if bad:
        raise GrammarError("symbols not expressible as .hg tokens: %s" % ", ".join(bad))
    lines = ["# %s" % c for c in comments]
    lines.append("start %s" % g.start)
    lines.extend(str(r) for r in g.rules)
    return "\n".join(lines) + "\n"


def file_safe_grammar(g: HeadGrammar):
    """Rename symbols the .hg token syntax cannot express.

    Returns ``(renamed grammar, mapping old -> new)``.  Replacement names
    are B1, B2, ... in order of first occurrence, with apostrophes appended
    until fresh.  Language is preserved up to the renaming.
    """
    mapping = {}
    taken = set(s for s in g.symbols if TOKEN_RE.fullmatch(s))
    counter = 1

    def rename(sym):
        nonlocal counter
        if TOKEN_RE.fullmatch(sym):
            return sym
        if sym not in mapping:
            name = _fresh("B%d" % counter, taken)
            counter += 1
            taken.add(name)
            mapping[sym] = name
        return mapping[sym]

    new_start = rename(g.start)
    new_rules = []
    for r in g.rules:
        new_rules.append(HeadRule(rename(r.lhs), tuple(rename(s) for s in r.rhs), r.head))
    return HeadGrammar(new_rules, new_start), dict(mapping)
