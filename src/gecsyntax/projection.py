"""Project a target-side constituency tree onto the source sentence.

Given a corrected sentence's tree and the edit script that separates the
ungrammatical source from it, :func:`project` rewrites the erroneous part
and keeps the correct part unchanged, producing a tree whose yield is the
source sentence with pseudo non-terminals marking each error:

* SUB — the target word's terminal is replaced by the source word and a
  ``SUB`` node is inserted as the word's new head.
* RED — a ``(RED word)`` subtree is placed in the phrase of the word's
  right-side neighbour, immediately left of the branch leading to it
  (right of the left neighbour's branch when the redundant word ends the
  sentence).  Chained redundant words land as siblings in one phrase.
* MISS — the missing target words are deleted (pruning any ancestors
  this empties) and a single ``MISS`` node is inserted above the
  right-side adjacent source word (left-side at the end of the sentence),
  one node no matter how many words are missing at that point.

A word can carry several pseudo nodes at once; SUB sits innermost, MISS
outermost.  ``placement="below"`` puts pseudo nodes directly above the
terminal (below its POS tag); ``placement="above"`` puts them above the
preterminal instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from . import tree as T
from .edits import MISS, RED, SUB, EditScript, make_script

PLACEMENTS = ("below", "above")
_RED_OPEN = "(" + RED
_SPLICED_OPENS = ("(" + SUB, "(" + MISS)


@dataclass
class ProjectionResult:
    source_tree: T.NonTerminal
    inserted: list[tuple[str, int]]  # (pseudo label, source token position)


def _index_of(parent: T.NonTerminal, node: T.Node) -> int:
    for idx, child in enumerate(parent.children):
        if child is node:
            return idx
    raise RuntimeError("node is not a child of its recorded parent")


class _Copy:
    """A fresh copy of the target tree, edited in place by projection.

    The copy hangs below ``top``, a holder node outside the tree.  Each
    node's parent is kept in ``parent``, keyed by ``id(node)``, not in the
    node, so the edits create no reference cycles.  Every node made by an
    edit writes its own entry, so the stale entry of a pruned node whose
    id is reused is never read.
    """

    def __init__(self, root: T.NonTerminal):
        self.top = T.NonTerminal("", [])
        self.parent: dict[int, T.NonTerminal] = {}
        self.words: list[T.Terminal] = []  # left to right
        parent_of, words = self.parent, self.words
        stack: list[tuple[T.Node, T.NonTerminal]] = [(root, self.top)]
        while stack:
            node, parent = stack.pop()
            if isinstance(node, T.Terminal):
                made = T.Terminal(node.token)
                words.append(made)
            elif node.label in T.PSEUDO_LABELS:
                raise ValueError(f"target tree already contains {node.label!r} nodes")
            else:
                made = T.NonTerminal(node.label, [])
                stack.extend(zip(reversed(node.children), repeat(made)))
            parent_of[id(made)] = parent
            parent.children.append(made)

    def mark(self, word: T.Terminal, label: str, placement: str) -> None:
        """Insert a ``label`` node above ``word`` (or above its preterminal
        with ``placement="above"``), outside the pseudo nodes already there."""
        node, parent = word, self.parent[id(word)]
        if placement == "above" and len(parent.children) == 1 \
                and parent.label not in T.PSEUDO_LABELS:
            node, parent = parent, self.parent[id(parent)]
        while parent.label in T.PSEUDO_LABELS:
            node, parent = parent, self.parent[id(parent)]
        wrapper = T.NonTerminal(label, [node])
        self.parent[id(wrapper)] = parent
        self.parent[id(node)] = wrapper
        parent.children[_index_of(parent, node)] = wrapper

    def insert_red(self, word: T.Terminal, token: str, before: bool) -> T.Terminal:
        """Place ``(RED token)`` next to ``word``'s branch of its lowest
        multi-child ancestor (or of the root); returns the new word."""
        node, parent = word, self.parent[id(word)]
        while self.parent[id(parent)] is not self.top and len(parent.children) == 1:
            node, parent = parent, self.parent[id(parent)]
        new = T.Terminal(token)
        red = T.NonTerminal(RED, [new])
        self.parent[id(new)] = red
        self.parent[id(red)] = parent
        idx = _index_of(parent, node)
        parent.children.insert(idx if before else idx + 1, red)
        return new

    def delete_word(self, node: T.Node) -> None:
        """Remove a word and every ancestor that this leaves empty."""
        parent = self.parent[id(node)]
        parent.children.pop(_index_of(parent, node))
        while not parent.children:
            node, parent = parent, self.parent[id(parent)]
            if parent is self.top:
                raise ValueError("deleting missing words emptied the whole tree")
            parent.children.pop(_index_of(parent, node))


def project(
    target_tree: T.NonTerminal,
    script: EditScript,
    src_tokens: Sequence[str],
    placement: str = "below",
) -> ProjectionResult:
    """Rewrite ``target_tree`` into a tree over ``src_tokens``.

    Requires a valid script in any order, ``yield(target_tree) ==
    apply_edits(src_tokens, script)`` and a target tree free of SUB/RED/MISS
    nodes; raises ``ValueError`` otherwise.  An empty script returns a
    structurally identical tree.  One walk over the ordered script checks
    it against the source and the tree's words; a second, right to left,
    makes the edits.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}")
    src_tokens = list(src_tokens)
    n = len(src_tokens)
    if not src_tokens and len(script):
        raise ValueError("empty source sentence with a non-empty edit script")
    tree = _Copy(target_tree)
    edits = make_script(script).edits
    # The yield the script asks for; per source position the copy's word (None
    # under a RED); per MISS point the words it deletes; the rightmost kept one.
    # Slices, not indexes, let a tree with too few words reach the yield check.
    expected: list[str] = []
    src_node: list[T.Terminal | None] = []
    miss_words: dict[int, list[T.Terminal]] = {}
    rightmost = -1
    sp = 0
    for e in edits:
        if e.i < 0 or e.j > n:
            raise ValueError(f"edit span [{e.i},{e.j}) out of range for {n} tokens")
        tp = len(expected)
        expected += src_tokens[sp:e.i]
        expected += e.tgt_tokens
        kept = (e.j if e.category == SUB else e.i) - sp
        src_node += tree.words[tp:tp + kept]
        if kept:
            rightmost = sp + kept - 1
        if e.category == RED:
            src_node.append(None)
        elif e.category == MISS:
            miss_words[e.i] = tree.words[tp + kept:len(expected)]
        sp = e.j
    src_node += tree.words[len(expected):]
    expected += src_tokens[sp:]
    if sp < n:
        rightmost = n - 1
    got = [t.token for t in tree.words]
    if got != expected:
        raise ValueError(
            "target tree yield does not match apply(src, script): "
            f"{got!r} vs {expected!r}"
        )

    inserted: list[tuple[str, int]] = []
    # Right to left, so chained RED words stack as siblings and at one position
    # SUB/RED land before the MISS that wraps them.  An edit's anchor is its
    # own word (SUB, MISS) or its right neighbour (RED); past the end sits the
    # rightmost kept word, and no RED word is right of it yet.
    src_node.append(src_node[rightmost] if rightmost >= 0 else None)
    for e in reversed(edits):
        if e.category == MISS:
            for word in miss_words[e.i]:
                tree.delete_word(word)
        anchor = src_node[e.i + (e.category == RED)]
        if anchor is None:
            raise ValueError("no source word available to anchor the edit")
        if e.category == SUB:
            anchor.token = src_tokens[e.i]
            tree.mark(anchor, SUB, placement)
            inserted.append((SUB, e.i))
        elif e.category == RED:
            src_node[e.i] = tree.insert_red(anchor, src_tokens[e.i], before=e.i < n - 1)
            inserted.append((RED, e.i))
        else:
            tree.mark(anchor, MISS, placement)
            inserted.append((MISS, e.i if e.i < n else rightmost))

    result = tree.top.children[0]
    if T.yield_tokens(result) != src_tokens:
        raise RuntimeError("projection produced a tree with the wrong yield")
    inserted.sort(key=lambda item: (item[1], item[0]))
    return ProjectionResult(result, inserted)


def strip_pseudo(tree: T.NonTerminal | list[str]) -> T.NonTerminal | str:
    """Remove all inserted pseudo nodes.

    A RED node is deleted together with the terminal(s) it dominates;
    SUB/MISS nodes are spliced out with their children promoted.  Nodes
    emptied by a deletion are pruned; what is left must be one rooted
    tree, or ``ValueError``.  Given the tokens of :func:`tree.bracket_tokens`,
    one pass over them gives the bracket text; given a root node, it gives
    fresh nodes parsed from that text.
    """
    if not isinstance(tree, list):
        return T.parse_bracketed(strip_pseudo(T.bracket_tokens(T.serialize(tree))))
    out: list[str] = []
    # Per open constituent, the index of its token in ``out``; -1 when spliced.
    opened: list[int] = []
    end = -1  # where the constituent that starts ``out`` ends
    for tok in tree:
        if tok == ")":
            at = opened.pop()
            if at < 0:
                continue
            if at == len(out) - 1 or out[at] == _RED_OPEN:  # empty, or a RED
                del out[at:]
            else:
                out.append(")")
                if not at:
                    end = len(out)
        elif tok in _SPLICED_OPENS:
            opened.append(-1)
        else:
            if tok[0] == "(":
                opened.append(len(out))
            out.append(tok)
    if end != len(out):
        raise ValueError("stripping pseudo nodes did not leave a single rooted tree")
    return T.bracket_text(out)
