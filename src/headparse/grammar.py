"""Head grammars: context-free rules in which exactly one right-hand-side
member is distinguished as the head.  `Grammar` is the model shared with
the generalized head grammars of `transform`, whose right-hand sides are
trees; each formalism supplies only `plain_rhs`, a rule's plain reading.

Symbols are plain strings.  Whether a symbol is a nonterminal is derived,
never declared: a symbol is a nonterminal exactly when it occurs as the
left-hand side of some rule.  Rules with empty right-hand sides are not
representable, on purpose; several algorithms in this package rely on the
fact that every symbol derives at least one terminal position.

Besides the grammar model itself this module provides:

  * `validate`, for both formalisms.
  * `augment`: adds a fresh start symbol rewriting to a fresh bottom
    marker followed by the old start symbol (`fresh_markers`).  The bottom
    marker acts as an imaginary zeroth input symbol occupying the span
    (-1, 0]; recognizers begin with it already recognized.
  * the head-corner relation family: the reflexive and transitive closure
    of "is the head of a rule for", optionally restricted to rules whose
    head is leftmost or rightmost.  `head_corners` reads it per target,
    lazily, as the recognizers need it; `head_corner` materialises its
    pairs.
  * loop detectors (`detect_head_recursion`, `detect_cyclic`) that tell
    which recognizers are guaranteed to terminate on a given grammar.
  * the `.hg` text format (`parse_hg` / `format_hg`), whose front the
    `.ghg` format shares.
"""

from __future__ import annotations

import re
from functools import cache
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


def _group(keys) -> dict:
    """key -> tuple of the indexes where it occurs, in first-occurrence order."""
    out = {}
    for idx, key in enumerate(keys):
        out.setdefault(key, []).append(idx)
    return {key: tuple(ids) for key, ids in out.items()}


class Grammar:
    """An immutable list of rules plus a start symbol.

    Each formalism supplies `plain_rhs(rhs)`, the members of a rule's
    context-free reading in order.  The derived indexes (nonterminals,
    symbols, terminals, rules by left-hand side) are computed from it once
    at construction; instances are safe to share between concurrent
    recognizer runs.
    """

    def __init__(self, rules: Iterable, start: str):
        self.rules = tuple(rules)
        self.start = start
        self.nonterminals = frozenset(r.lhs for r in self.rules)
        syms = {start}
        for r in self.rules:
            syms.add(r.lhs)
            syms.update(self.plain_rhs(r.rhs))
        self.symbols = frozenset(syms)
        self.terminals = self.symbols - self.nonterminals
        self.rules_by_lhs = _group(r.lhs for r in self.rules)

    @staticmethod
    def plain_rhs(rhs) -> tuple:
        raise NotImplementedError

    def _formalism(self):
        """The class right below `Grammar`: an augmented grammar is a head grammar."""
        mro = type(self).__mro__
        return mro[mro.index(Grammar) - 1]

    def __eq__(self, other):
        if not isinstance(other, Grammar):
            return NotImplemented
        return (self._formalism() is other._formalism()
                and self.rules == other.rules and self.start == other.start)

    def __hash__(self):
        return hash((self.rules, self.start))

    def __repr__(self):
        return "%s(start=%r, %d rules)" % (
            self._formalism().__name__, self.start, len(self.rules))


class HeadGrammar(Grammar):
    """Head rules: a right-hand side is the member tuple itself."""

    @staticmethod
    def plain_rhs(rhs) -> tuple:
        return rhs


def validate(g: Grammar) -> list:
    """Check the grammar invariants; one diagnostic string per violation.

    An empty list means the grammar is well formed.  Diagnostics name the
    offending rule, so they can be surfaced directly to users.  A tree
    rule's head is its root, so only head rules carry a head index to check.
    """
    out = []
    for idx, rule in enumerate(g.rules):
        where = "rule %d (%s)" % (idx, rule.lhs)
        members = g.plain_rhs(rule.rhs)
        if not members:
            out.append("%s: empty right-hand side" % where)
        elif isinstance(rule, HeadRule) and not 0 <= rule.head < len(members):
            out.append("%s: head index %d out of range" % (where, rule.head))
    if g.start not in g.nonterminals:
        out.append("start symbol %s has no rules" % g.start)
    return out


def _fresh(base, taken):
    name = base
    while name in taken:
        name += "'"
    return name


def fresh_markers(symbols: frozenset) -> tuple:
    """Fresh names (start symbol S', bottom marker) next to `symbols`."""
    start_prime = _fresh(START_PRIME_BASE, symbols)
    return start_prime, _fresh(BOTTOM_BASE, symbols | {start_prime})


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
        heads = self.rules_with_head = _group(r.head_symbol for r in self.rules)
        self.rules_with_terminal_head = {
            a: ids for a, ids in heads.items() if a not in self.nonterminals}
        self.rules_with_nonterminal_head = {
            b: ids for b, ids in heads.items() if b in self.nonterminals}


def augment(g: HeadGrammar) -> AugmentedGrammar:
    problems = validate(g)
    if problems:
        raise GrammarError("cannot augment an invalid grammar: " + "; ".join(problems))
    return AugmentedGrammar(g, *fresh_markers(g.symbols))


def head_corners(g: AugmentedGrammar, variant: str = FULL):
    """The head-corner relation read per target: a function from a
    nonterminal ``b`` to the frozenset of its head corners, the ``c`` with
    ``(c, b)`` in ``head_corner(g, variant)``.

    The first time ``b`` is asked for, one walk down the head members of
    its rules, and of theirs, finds its corners; the answer is cached, so
    no grammar-wide table is built.  The variants follow the rules
    `head_corner` describes.
    """
    if variant not in (FULL, LEFT, RIGHT):
        raise ValueError("unknown head-corner variant: %r" % variant)
    heads = {}
    for r in g.rules:
        h = r.rhs[r.head]
        if h not in g.nonterminals:
            continue
        if variant == LEFT and r.head != 0:
            continue
        if variant == RIGHT and r.head != len(r.rhs) - 1:
            continue
        heads.setdefault(r.lhs, set()).add(h)

    @cache
    def corners(b):
        seen = {b}
        work = [b]
        while work:
            for c in heads.get(work.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    work.append(c)
        return frozenset(seen)
    return corners


def head_corner(g: AugmentedGrammar, variant: str = FULL) -> frozenset:
    """Reflexive-transitive closure of "is the head of a rule for".

    ``(b, a)`` in the relation means a chain of rules leads from ``a`` down
    to ``b`` through head members only.  The ``left`` variant only follows
    rules whose head is the leftmost member, ``right`` only rules whose
    head is rightmost.  Pairs range over nonterminals.  The recognizers
    read the relation per target through `head_corners`; this is its
    materialised form.
    """
    corners = head_corners(g, variant)
    return frozenset((c, b) for b in g.nonterminals for c in corners(b))


def _find_cycle(arcs, nodes) -> Optional[list]:
    """Return one cycle of the digraph as a node list, or None.

    The digraph has the (a, b) pairs of `arcs` whose b is one of `nodes`.
    Depth first from each node in sorted order, successors in sorted order;
    iterative, so long chains do not hit the recursion limit.
    """
    edges = {}
    for a, b in arcs:
        if b in nodes:
            edges.setdefault(a, set()).add(b)
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
    return _find_cycle(((r.lhs, r.head_symbol) for r in g.rules), g.nonterminals)


def detect_cyclic(g: AugmentedGrammar) -> Optional[list]:
    """Witness cycle A => ... => A, or None.

    Without empty right-hand sides a nonterminal can only rederive itself
    through single-member rules, so cycles over those are the whole story.
    """
    return _find_cycle(((r.lhs, r.rhs[0]) for r in g.rules if len(r.rhs) == 1),
                       g.nonterminals)


# --------------------------------------------------------------------------
# The grammar file formats, .hg here and .ghg in `transform`, share one front:
#
#   * UTF-8 text; '#' starts a comment running to end of line; blank lines
#     are ignored.
#   * first meaningful line:  start <Symbol>
#   * every other line is one rule, read by the format's own rule reader.
#   * tokens match [A-Za-z0-9_']+ .
#   * errors carry source:line:column of the offending character, columns
#     counted from 1 at the start of the line.
#
# .hg rules:  <Lhs> -> <m1> <m2> ... <mk>
#   with exactly one member carrying the head prefix '*'; '*', '->' and
#   '#' are reserved.


class _LineError(Exception):
    """A format error at a column of the line being read (args: message,
    column); the front adds the source and the line number."""


def _split_words(line):
    """Whitespace-separated words of a line with their 1-based columns."""
    return [(match.start() + 1, match.group())
            for match in re.finditer(r"\S+", line)]


def _token(col, word) -> str:
    """`word`, checked to be a token; `col` is where it starts."""
    if not TOKEN_RE.fullmatch(word):
        raise _LineError("bad token %r" % word, col)
    return word


def _read_grammar(text: str, source: str, make, read_rule) -> Grammar:
    """The grammar `make(rules, start)` written in `text`, each rule line
    read by `read_rule(line, words)` (words as `_split_words` gives them);
    a grammar that fails `validate` raises GrammarError."""
    start = None
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = _split_words(line)
        if not words:
            continue
        try:
            if start is not None:
                rules.append(read_rule(line, words))
            elif len(words) != 2 or words[0][1] != "start":
                raise _LineError("expected 'start <Symbol>' header", words[0][0])
            else:
                start = _token(*words[1])
        except _LineError as err:
            message, column = err.args
            raise GrammarFormatError(message, line_no, column, source) from None
    if start is None:
        raise GrammarFormatError("missing 'start <Symbol>' header", 1, 1, source)
    g = make(rules, start)
    problems = validate(g)
    if problems:
        raise GrammarError("%s: %s" % (source, "; ".join(problems)))
    return g


def _write_grammar(g: Grammar, comments: Iterable, rule_text) -> str:
    lines = ["# %s" % c for c in comments]
    lines.append("start %s" % g.start)
    lines.extend(map(rule_text, g.rules))
    return "\n".join(lines) + "\n"


def _hg_rule(line, words) -> HeadRule:
    if len(words) < 2 or words[1][1] != "->":
        raise _LineError("expected '<Lhs> -> <members>'", words[0][0])
    lhs_col, lhs = words[0]
    _token(lhs_col, lhs)
    members = []
    head = None
    for col, word in words[2:]:
        starred = word.startswith("*")
        body = _token(col, word[1:] if starred else word)
        if starred:
            if head is not None:
                raise _LineError("multiple heads in rule", col)
            head = len(members)
        members.append(body)
    if not members:
        raise _LineError("empty right-hand side", lhs_col)
    if head is None:
        raise _LineError(
            "missing head: exactly one member must be marked with '*'", lhs_col)
    return HeadRule(lhs, tuple(members), head)


def parse_hg(text: str, source: str = "<string>") -> HeadGrammar:
    return _read_grammar(text, source, HeadGrammar, _hg_rule)


def format_hg(g: HeadGrammar, comments: Iterable = ()) -> str:
    """Render a grammar in .hg syntax; the result re-parses to an equal grammar.

    Raises GrammarError when a symbol cannot be written as an .hg token
    (see `file_safe_grammar` for the renaming helper).
    """
    bad = sorted(s for s in g.symbols if not TOKEN_RE.fullmatch(s))
    if bad:
        raise GrammarError("symbols not expressible as .hg tokens: %s" % ", ".join(bad))
    return _write_grammar(g, comments, str)


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
