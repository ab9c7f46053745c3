"""Generalized head grammars and the flattening transformations.

A generalized head rule's right-hand side is a binary tree of grammar
symbols.  The root of the tree is recognized first; the left subtree
carries the material to the left of the root, the right subtree the
material to the right, and each subtree again has its own root recognized
first.  The plain-string yield of a rule is the in-order traversal of its
tree, so head/tree structure never changes the generated language, only
the order in which a recognizer visits the input.

`tau_head` flattens a generalized grammar into a plain head grammar by
introducing one bracket nonterminal per distinct proper subtree: ``[t]``
derives exactly what the tree ``t`` derives.  `tau_two` is the string
version of the same idea and puts any grammar into two normal form (one or
two members per right-hand side).  `embed` goes the other way: it injects
a plain head grammar into the generalized form this toolkit uses, choosing
chains that mirror the inward recognition order of the flat recognizers
(this convention is the toolkit's own, not part of the transformations).

Linear tree notation, used in traces and bracket symbols: a leaf is just
its symbol, an inner node is written (left)root(right) with empty sides
omitted, e.g. ``((c)A(b))s`` or ``A(d)``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .grammar import (GrammarError, GrammarFormatError, HeadGrammar, HeadRule,
                      TOKEN_RE, _split_words)


class Tree:
    """An immutable binary tree of symbols.  Equality is structural."""

    __slots__ = ("root", "left", "right", "_hash")

    def __init__(self, root: str, left: "Optional[Tree]" = None,
                 right: "Optional[Tree]" = None):
        self.root = root
        self.left = left
        self.right = right
        self._hash = hash((root,
                           None if left is None else left._hash,
                           None if right is None else right._hash))

    @property
    def is_leaf(self):
        return self.left is None and self.right is None

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a is None or b is None or a._hash != b._hash or a.root != b.root:
                return False
            pairs += ((a.right, b.right), (a.left, b.left))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Tree(%r)" % tree_to_text(self)


def _unfold(t: Optional[Tree], parts) -> list:
    """The strings that `parts` spells out for `t`, in order.  `parts(node)`
    lists a node's strings and subtrees; a stack in place of recursion
    takes trees of any depth."""
    out = []
    todo = [t]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:
            todo += parts(item)[::-1]
    return out


def _text_parts(node):
    left = () if node.left is None else ("(", node.left, ")")
    right = () if node.right is None else ("(", node.right, ")")
    return left + (node.root,) + right


def tree_to_text(t: Tree) -> str:
    return "".join(_unfold(t, _text_parts))


def bracket_symbol(t: Tree) -> str:
    """Display name of the bracket nonterminal standing for subtree `t`.

    The linear notation is injective, so textual equality of these names
    coincides with structural equality of the trees.
    """
    return "[%s]" % tree_to_text(t)


def tree_yield(t: Tree) -> tuple:
    """In-order traversal: the plain-string right-hand side of the tree."""
    return tuple(_unfold(t, lambda node: tuple(
        part for part in (node.left, node.root, node.right) if part is not None)))


def subtrees(t: Tree):
    """All subtree nodes of `t`, including `t` itself (preorder)."""
    todo = [t]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in (node.right, node.left) if child is not None)


class GenHeadRule(NamedTuple):
    lhs: str
    rhs: Tree

    def __str__(self):
        return "%s -> %s" % (self.lhs, tree_to_text(self.rhs))


class GenHeadGrammar:
    """Rule list with tree right-hand sides plus a start symbol; immutable."""

    def __init__(self, rules: Iterable[GenHeadRule], start: str):
        self.rules = tuple(rules)
        self.start = start
        self.nonterminals = frozenset(r.lhs for r in self.rules)
        syms = {start}
        for r in self.rules:
            syms.add(r.lhs)
            for node in subtrees(r.rhs):
                syms.add(node.root)
        self.symbols = frozenset(syms)
        self.terminals = self.symbols - self.nonterminals
        by_lhs = {}
        for idx, r in enumerate(self.rules):
            by_lhs.setdefault(r.lhs, []).append(idx)
        self.rules_by_lhs = {a: tuple(ids) for a, ids in by_lhs.items()}

    def __eq__(self, other):
        if not isinstance(other, GenHeadGrammar):
            return NotImplemented
        return self.rules == other.rules and self.start == other.start

    def __hash__(self):
        return hash((self.rules, self.start))

    def __repr__(self):
        return "GenHeadGrammar(start=%r, %d rules)" % (self.start, len(self.rules))


def validate_gen(g: GenHeadGrammar) -> list:
    out = []
    if g.start not in g.nonterminals:
        out.append("start symbol %s has no rules" % g.start)
    return out


def _flatten_rule(lhs: str, t: Tree, names) -> HeadRule:
    members = []
    if t.left is not None:
        members.append(names[t.left])
    head = len(members)
    members.append(t.root)
    if t.right is not None:
        members.append(names[t.right])
    return HeadRule(lhs, tuple(members), head)


def _bracket_names(trees) -> dict:
    """`bracket_symbol` of each tree in `trees` and of its subtrees.

    Each distinct subtree's text is composed once, as ``(left)root(right)``
    from its children's texts, so naming costs the length of the names
    rather than one full rendering per subtree.
    """
    texts = {}
    for top in trees:
        todo = [top]
        while todo:
            node = todo[-1]
            if node in texts:
                todo.pop()
                continue
            pending = [child for child in (node.left, node.right)
                       if child is not None and child not in texts]
            if pending:
                todo += pending
                continue
            todo.pop()
            left = "" if node.left is None else "(%s)" % texts[node.left]
            right = "" if node.right is None else "(%s)" % texts[node.right]
            texts[node] = left + node.root + right
    return {node: "[%s]" % text for node, text in texts.items()}


def tau_head(g: GenHeadGrammar) -> HeadGrammar:
    """Flatten a generalized head grammar into a plain head grammar.

    Each rule ``A -> (a)X(b)`` becomes ``A -> [a] *X [b]`` (brackets for
    empty subtrees omitted) and every distinct proper subtree ``t`` of any
    right-hand side contributes one rule ``[t] -> ...`` of the same shape.
    Identical subtrees are merged across the whole grammar, so the output
    has exactly rules(g) + (number of distinct proper subtrees) rules.
    """
    seen = {}  # ordered set of proper subtrees, parents first
    for r in g.rules:
        todo = [r.rhs.right, r.rhs.left]
        while todo:
            node = todo.pop()
            if node is not None and node not in seen:
                seen[node] = None
                todo += (node.right, node.left)
    # a subtree first met under one rule can recur under a later parent,
    # so `seen` is not children-first in general
    names = _bracket_names(seen)
    rules = [_flatten_rule(r.lhs, r.rhs, names) for r in g.rules]
    rules.extend(_flatten_rule(names[t], t, names) for t in seen)
    return HeadGrammar(rules, g.start)


def tau_two(g: HeadGrammar) -> HeadGrammar:
    """Two normal form: every right-hand side gets one or two members.

    Head marks on the input are ignored; a rule ``A -> X alpha`` becomes
    ``A -> X [alpha]`` and every distinct proper suffix gets its own rule.
    Output rules mark their first member as head, which keeps the result a
    well-formed head grammar without affecting the generated language.
    Suffix nonterminals are named ``[x y ...]`` and deduplicated by
    sequence equality.
    """
    problems = [p for p in _empty_rhs_problems(g)]
    if problems:
        raise GrammarError("; ".join(problems))

    def seq_symbol(seq):
        return "[%s]" % " ".join(seq)

    suffixes = {}  # ordered set of proper suffixes still to process

    def shorten(lhs, seq):
        if len(seq) == 1:
            return HeadRule(lhs, (seq[0],), 0)
        rest = seq[1:]
        if rest not in suffixes:
            suffixes[rest] = None
        return HeadRule(lhs, (seq[0], seq_symbol(rest)), 0)

    rules = [shorten(r.lhs, tuple(r.rhs)) for r in g.rules]
    worklist = list(suffixes)
    seen = set(worklist)
    idx = 0
    while idx < len(worklist):
        seq = worklist[idx]
        idx += 1
        rules.append(shorten(seq_symbol(seq), seq))
        rest = seq[1:]
        if len(seq) >= 2 and rest not in seen:
            seen.add(rest)
            worklist.append(rest)
    return HeadGrammar(rules, g.start)


def _empty_rhs_problems(g):
    for idx, r in enumerate(g.rules):
        if len(r.rhs) == 0:
            yield "rule %d (%s): empty right-hand side" % (idx, r.lhs)


def embed(g: HeadGrammar) -> GenHeadGrammar:
    """Inject a plain head grammar into the generalized form.

    For a rule ``A -> alpha *X beta`` the tree root is X, the left subtree
    is a right-leaning chain over alpha (rightmost member on top) and the
    right subtree a left-leaning chain over beta (leftmost member on top),
    matching the inward recognition order of the flat recognizers.
    """
    def chain_before(seq):
        t = None
        for sym in seq:
            t = Tree(sym, t, None)
        return t

    def chain_after(seq):
        t = None
        for sym in reversed(seq):
            t = Tree(sym, None, t)
        return t

    rules = []
    for r in g.rules:
        left = chain_before(r.rhs[:r.head])
        right = chain_after(r.rhs[r.head + 1:])
        rules.append(GenHeadRule(r.lhs, Tree(r.head_symbol, left, right)))
    return GenHeadGrammar(rules, g.start)


# --------------------------------------------------------------------------
# The .ghg file format.
#
#   * header line:  start <Symbol>
#   * one rule per line:  <Lhs> -> <tree>
#   * tree  := (<Symbol>) | (<Symbol> <child> <child>)
#   * child := <tree> | ()           -- () is an empty subtree


def _tokenize_tree(text, line_no, source):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            out.append((i + 1, ch))
            i += 1
            continue
        match = TOKEN_RE.match(text, i)
        if not match:
            raise GrammarFormatError("bad character %r" % ch, line_no, i + 1, source)
        out.append((match.start() + 1, match.group()))
        i = match.end()
    return out


def _parse_tree(tokens, pos, line_no, source):
    def fail(msg, at):
        col = tokens[at][0] if at < len(tokens) else (tokens[-1][0] if tokens else 1)
        raise GrammarFormatError(msg, line_no, col, source)

    open_nodes = []  # (root, children found so far) of unfinished inner nodes
    while True:
        if pos >= len(tokens) or tokens[pos][1] != "(":
            fail("expected '('", pos)
        pos += 1
        if pos >= len(tokens):
            fail("unterminated tree", pos)
        if tokens[pos][1] == ")":  # "()" : the empty subtree
            tree, pos = None, pos + 1
        else:
            root = tokens[pos][1]
            if root in "()":
                fail("expected symbol", pos)
            pos += 1
            if pos >= len(tokens) or tokens[pos][1] != ")":
                open_nodes.append((root, []))
                continue
            tree, pos = Tree(root), pos + 1
        # a finished subtree finishes every open node it is the right child of
        while open_nodes:
            root, children = open_nodes[-1]
            children.append(tree)
            if len(children) < 2:
                break
            if pos >= len(tokens) or tokens[pos][1] != ")":
                fail("expected ')'", pos)
            open_nodes.pop()
            tree, pos = Tree(root, *children), pos + 1
        else:
            return tree, pos


def parse_ghg(text: str, source: str = "<string>") -> GenHeadGrammar:
    start = None
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if start is None:
            words = _split_words(line)
            if len(words) != 2 or words[0][1] != "start":
                raise GrammarFormatError(
                    "expected 'start <Symbol>' header", line_no, words[0][0], source)
            start = words[1][1]
            if not TOKEN_RE.fullmatch(start):
                raise GrammarFormatError("bad token %r" % start, line_no, words[1][0], source)
            continue
        arrow = line.find("->")
        if arrow < 0:
            raise GrammarFormatError("expected '<Lhs> -> <tree>'", line_no, 1, source)
        lhs = line[:arrow].strip()
        if not TOKEN_RE.fullmatch(lhs):
            raise GrammarFormatError("bad token %r" % lhs, line_no, 1, source)
        tokens = _tokenize_tree(line[arrow + 2:], line_no, source)
        tree, pos = _parse_tree(tokens, 0, line_no, source)
        if tree is None:
            raise GrammarFormatError("rule tree may not be empty", line_no, 1, source)
        if pos != len(tokens):
            raise GrammarFormatError("trailing input after tree", line_no, tokens[pos][0], source)
        rules.append(GenHeadRule(lhs, tree))
    if start is None:
        raise GrammarFormatError("missing 'start <Symbol>' header", 1, 1, source)
    g = GenHeadGrammar(rules, start)
    problems = validate_gen(g)
    if problems:
        raise GrammarError("%s: %s" % (source, "; ".join(problems)))
    return g


def _src_parts(node):
    if node is None:
        return ("()",)
    if node.is_leaf:
        return ("(", node.root, ")")
    return ("(", node.root, " ", node.left, " ", node.right, ")")


def _tree_to_src(t: Optional[Tree]) -> str:
    return "".join(_unfold(t, _src_parts))


def format_ghg(g: GenHeadGrammar, comments: Iterable = ()) -> str:
    lines = ["# %s" % c for c in comments]
    lines.append("start %s" % g.start)
    lines.extend("%s -> %s" % (r.lhs, _tree_to_src(r.rhs)) for r in g.rules)
    return "\n".join(lines) + "\n"
