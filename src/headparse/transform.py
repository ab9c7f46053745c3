"""Generalized head grammars and the flattening transformations.

A generalized head rule's right-hand side is a binary tree of grammar
symbols.  The root of the tree is recognized first; the left subtree
carries the material to the left of the root, the right subtree the
material to the right, and each subtree again has its own root recognized
first.  The plain-string yield of a rule is the in-order traversal of its
tree, so head/tree structure never changes the generated language, only
the order in which a recognizer visits the input.  That yield is the
`plain_rhs` of `GenHeadGrammar`, the tree formalism of `grammar.Grammar`;
the `.ghg` file format shares its front with `.hg`.

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

from .grammar import (Grammar, GrammarError, HeadGrammar, HeadRule, TOKEN_RE,
                      _LineError, _read_grammar, _split_words, _token,
                      _write_grammar, validate)


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


class GenHeadGrammar(Grammar):
    """Tree rules: the plain reading of a right-hand side is its yield."""

    plain_rhs = staticmethod(tree_yield)


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
    # ordered set of proper subtrees, parents first
    seen = dict.fromkeys(node for r in g.rules for side in (r.rhs.left, r.rhs.right)
                         if side is not None for node in subtrees(side))
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
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))

    def seq_symbol(seq):
        return "[%s]" % " ".join(seq)

    worklist, seen = [], set()  # proper suffixes, in first-seen order

    def shorten(lhs, seq):
        if len(seq) == 1:
            return HeadRule(lhs, (seq[0],), 0)
        rest = seq[1:]
        if rest not in seen:
            seen.add(rest)
            worklist.append(rest)
        return HeadRule(lhs, (seq[0], seq_symbol(rest)), 0)

    rules = [shorten(r.lhs, tuple(r.rhs)) for r in g.rules]
    for seq in worklist:  # grows as shorten meets new suffixes
        rules.append(shorten(seq_symbol(seq), seq))
    return HeadGrammar(rules, g.start)


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
# The .ghg file format: the front of the .hg format (see `grammar`), with
#
#   * one rule per line:  <Lhs> -> <tree>
#   * tree  := (<Symbol>) | (<Symbol> <child> <child>)
#   * child := <tree> | ()           -- () is an empty subtree


def _tokenize_tree(line, i):
    """(column, token) pairs of `line` from index `i` on."""
    out = []
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            out.append((i + 1, ch))
            i += 1
            continue
        match = TOKEN_RE.match(line, i)
        if not match:
            raise _LineError("bad character %r" % ch, i + 1)
        out.append((match.start() + 1, match.group()))
        i = match.end()
    return out


def _parse_tree(tokens):
    def fail(msg, at):
        # a line that ends inside the tree is cut off, whatever was due next
        if at >= len(tokens):
            msg, at = "unterminated tree", len(tokens) - 1
        raise _LineError(msg, tokens[at][0] if tokens else 1)

    pos = 0
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


def _ghg_rule(line, words) -> GenHeadRule:
    arrow = line.find("->")
    lhs_words = _split_words(line[:arrow]) if arrow >= 0 else ()
    if len(lhs_words) != 1:
        raise _LineError("expected '<Lhs> -> <tree>'", words[0][0])
    lhs_col, lhs = lhs_words[0]
    _token(lhs_col, lhs)
    tokens = _tokenize_tree(line, arrow + 2)
    if not tokens:
        raise _LineError("empty right-hand side", lhs_col)
    tree, pos = _parse_tree(tokens)
    if tree is None:
        raise _LineError("rule tree may not be empty", tokens[0][0])
    if pos != len(tokens):
        raise _LineError("trailing input after tree", tokens[pos][0])
    return GenHeadRule(lhs, tree)


def parse_ghg(text: str, source: str = "<string>") -> GenHeadGrammar:
    return _read_grammar(text, source, GenHeadGrammar, _ghg_rule)


def _src_parts(node):
    if node is None:
        return ("()",)
    if node.is_leaf:
        return ("(", node.root, ")")
    return ("(", node.root, " ", node.left, " ", node.right, ")")


def _tree_to_src(t: Optional[Tree]) -> str:
    return "".join(_unfold(t, _src_parts))


def format_ghg(g: GenHeadGrammar, comments: Iterable = ()) -> str:
    return _write_grammar(
        g, comments, lambda r: "%s -> %s" % (r.lhs, _tree_to_src(r.rhs)))
