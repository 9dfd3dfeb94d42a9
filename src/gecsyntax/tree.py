"""Constituency trees in bracketed treebank notation.

A tree is represented by its root :class:`NonTerminal`.  Terminal nodes
are the words of the sentence, in yield order; non-terminal nodes carry
a constituent label and an ordered, non-empty child list.
The reserved labels ``SUB``, ``RED`` and ``MISS``, the edit categories,
mark substituted, redundant and missing-adjacent words in error-extended
trees; ordinary parser output must not contain them (projection rejects
a target tree that does).

Trees are treated as immutable after construction: no operation in
this package mutates its input.

:func:`bracket_tokens` is the one rule for valid bracket text.  Its
tokens are ``"(LABEL"`` for an open constituent, ``")"`` for a close and
the word as written (escaped) for a word; :func:`parse_bracketed` builds
nodes from them, :func:`serialize` writes them as canonical text, and
``project``, ``strip_pseudo`` and ``to_subword_tree`` rewrite them as text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .edits import CATEGORIES
from .errors import FormatError

PSEUDO_LABELS = frozenset(CATEGORIES)

_OPEN_SPACE_RE = re.compile(r"\(\s+")


@dataclass
class Terminal:
    """A word of the sentence; its index is its place in the yield."""

    token: str


@dataclass(eq=False, repr=False)
class NonTerminal:
    """A labeled constituent with an ordered, non-empty list of children.

    Trees compare by structure and print in bracketed form, by walks that
    do not recurse, so any depth that parses also compares and prints.
    """

    label: str
    children: list["Node"] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NonTerminal):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if isinstance(x, NonTerminal) and isinstance(y, NonTerminal):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        return f"NonTerminal({serialize(self)!r})"


Node = Union[Terminal, NonTerminal]


# Treebank escapes keep the one-tree-per-line format unambiguous when a
# word itself contains a bracket.
def escape_token(token: str) -> str:
    return token.replace("(", "-LRB-").replace(")", "-RRB-")


def unescape_token(token: str) -> str:
    return token.replace("-LRB-", "(").replace("-RRB-", ")")


def bracket_tokens(text: str, lineno: int | None = None,
                   path: str | None = None) -> list[str]:
    """The checked tokens of one bracketed tree: ``"(S (NN cat))"`` gives
    ``["(S", "(NN", "cat", ")", ")"]``.

    The input must be a single balanced-parenthesis expression.  Raises
    :class:`FormatError` on empty input, unbalanced parentheses, an empty
    constituent ``()``, a missing label, a non-terminal with zero children,
    or trailing material, whichever comes first in the text; the error
    carries ``lineno`` and ``path`` when given.
    """
    # Spaced so, the split keeps each "(" on the label that follows it at once.
    tokens = text.replace("(", " (").replace(")", " ) ").split()
    if not tokens:
        raise FormatError("empty input, expected a bracketed tree", lineno, path)
    if tokens[0][0] != "(":
        raise FormatError(f"expected '(', got {tokens[0]!r}", lineno, path)
    depth = 0
    prev = ""
    it = iter(tokens)
    for tok in it:
        if tok == ")":
            if prev[0] == "(":  # closes the constituent just opened
                raise FormatError(f"non-terminal {prev[1:]!r} has no children",
                                  lineno, path)
            depth -= 1
            if not depth:
                break
        elif tok[0] == "(":
            if tok == "(":  # a "(" not followed at once by its label
                label = next(it, None)
                if label is None:
                    raise FormatError("unbalanced parentheses", lineno, path)
                if label == ")":
                    raise FormatError("empty constituent '()'", lineno, path)
                if label[0] == "(":
                    raise FormatError("missing constituent label", lineno, path)
                return bracket_tokens(_OPEN_SPACE_RE.sub("(", text), lineno, path)
            depth += 1
        prev = tok
    else:  # the text ended inside the tree
        raise FormatError("unbalanced parentheses", lineno, path)
    if next(it, None) is not None:
        raise FormatError("trailing material after the tree", lineno, path)
    return tokens


def parse_bracketed(text: str | list[str], lineno: int | None = None,
                    path: str | None = None) -> NonTerminal:
    """Parse one bracketed tree, e.g. ``"(S (NP (DT the) (NN cat)))"``, or
    the tokens :func:`bracket_tokens` gives for one.

    Raises the :class:`FormatError` of :func:`bracket_tokens` on text that
    is not one valid tree.
    """
    tokens = text if isinstance(text, list) else bracket_tokens(text, lineno, path)
    top: list[Node] = []
    kids, open_kids = top, []
    for tok in tokens:
        if tok == ")":
            kids = open_kids.pop()
        elif tok[0] == "(":
            node = NonTerminal(tok[1:], [])
            kids.append(node)
            open_kids.append(kids)
            kids = node.children
        else:
            kids.append(Terminal(unescape_token(tok)))
    return top[0]


def serialize(tree: Node | list[str]) -> str:
    """Render a tree, or the tokens of :func:`bracket_tokens`, in canonical
    bracketed form (single spaces)."""
    if isinstance(tree, list):
        return " ".join(tree).replace(" )", ")")
    tokens, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            tokens.append(node)
        elif isinstance(node, Terminal):
            tokens.append(escape_token(node.token))
        else:
            tokens.append("(" + node.label)
            stack.append(")")
            stack.extend(reversed(node.children))
    return serialize(tokens)


def terminals(root: Node) -> Iterator[Terminal]:
    """All terminals in left-to-right order."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            yield node
        else:
            stack.extend(reversed(node.children))


def yield_tokens(root: Node) -> list[str]:
    """The sentence spanned by the tree: its terminal tokens, left to right."""
    return [t.token for t in terminals(root)]


def tree_line_tokens(line: str, lineno: int | None = None,
                     path: str | None = None) -> list[str]:
    """The :func:`bracket_tokens` of one line of a one-tree-per-line file.
    A blank line is an error."""
    if not line.strip():
        raise FormatError("blank line in tree file", lineno, path)
    return bracket_tokens(line, lineno, path)


def read_trees(lines: Iterable[str], path: str | None = None) -> Iterator[NonTerminal]:
    """Parse a one-tree-per-line stream."""
    for lineno, line in enumerate(lines, start=1):
        yield parse_bracketed(tree_line_tokens(line, lineno, path))
