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
from .edits import MISS, RED, SUB, EditScript, apply_edits, _script_key

PLACEMENTS = ("below", "above")


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


def _nearest_left(src_node: dict[int, T.Terminal], pos: int) -> int:
    for q in range(pos, -1, -1):
        if q in src_node:
            return q
    raise ValueError("no source word available to anchor the edit")


def project(
    target_tree: T.NonTerminal,
    script: EditScript,
    src_tokens: Sequence[str],
    placement: str = "below",
) -> ProjectionResult:
    """Rewrite ``target_tree`` into a tree over ``src_tokens``.

    Requires ``yield(target_tree) == apply_edits(src_tokens, script)`` and
    a target tree free of SUB/RED/MISS nodes.  An empty script returns a
    structurally identical tree.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}")
    src_tokens = list(src_tokens)
    if not src_tokens and len(script):
        raise ValueError("empty source sentence with a non-empty edit script")
    tree = _Copy(target_tree)
    expected = apply_edits(src_tokens, script)
    got = [t.token for t in tree.words]
    if got != expected:
        raise ValueError(
            "target tree yield does not match apply(src, script): "
            f"{got!r} vs {expected!r}"
        )

    # Map source positions to their terminals in the copy and find the target
    # positions each MISS edit will delete.
    edits = sorted(script, key=_script_key)
    src_node: dict[int, T.Terminal] = {}
    miss_positions: dict[int, list[int]] = {}
    sp = tp = 0
    for e in edits:
        while sp < e.i:
            src_node[sp] = tree.words[tp]
            sp += 1
            tp += 1
        if e.category == SUB:
            src_node[sp] = tree.words[tp]
            sp += 1
            tp += 1
        elif e.category == RED:
            sp += 1
        else:  # MISS
            miss_positions[e.i] = list(range(tp, tp + len(e.tgt_tokens)))
            tp += len(e.tgt_tokens)
    while sp < len(src_tokens):
        src_node[sp] = tree.words[tp]
        sp += 1
        tp += 1

    inserted: list[tuple[str, int]] = []
    n = len(src_tokens)
    # Right to left so sibling insertions for chained redundant words stack
    # correctly; at one position SUB/RED land before MISS so MISS wraps them.
    for e in reversed(edits):
        if e.category == SUB:
            term = src_node[e.i]
            term.token = src_tokens[e.i]
            tree.mark(term, SUB, placement)
            inserted.append((SUB, e.i))
        elif e.category == RED:
            last = e.i == n - 1
            anchor = src_node[_nearest_left(src_node, e.i - 1) if last else e.i + 1]
            src_node[e.i] = tree.insert_red(anchor, src_tokens[e.i], before=not last)
            inserted.append((RED, e.i))
        else:  # MISS
            for tpos in miss_positions[e.i]:
                tree.delete_word(tree.words[tpos])
            apos = e.i if e.i < n else _nearest_left(src_node, n - 1)
            tree.mark(src_node[apos], MISS, placement)
            inserted.append((MISS, apos))

    result = tree.top.children[0]
    if T.yield_tokens(result) != src_tokens:
        raise RuntimeError("projection produced a tree with the wrong yield")
    inserted.sort(key=lambda item: (item[1], item[0]))
    return ProjectionResult(result, inserted)


def strip_pseudo(root: T.NonTerminal) -> T.NonTerminal:
    """Remove all inserted pseudo nodes.

    A RED node is deleted together with the terminal(s) it dominates;
    SUB/MISS nodes are spliced out with their children promoted.  Nodes
    emptied by a deletion are pruned.
    """
    kept: list[T.Node] = []
    # Each entry is a node and the list its output joins; ``(None, out)``
    # closes the constituent last added to ``out``, pruning it if empty.
    stack: list[tuple[T.Node | None, list[T.Node]]] = [(root, kept)]
    while stack:
        node, out = stack.pop()
        if node is None:
            if not out[-1].children:
                out.pop()
        elif isinstance(node, T.Terminal):
            out.append(T.Terminal(node.token))
        elif node.label in (SUB, MISS):
            stack.extend(zip(reversed(node.children), repeat(out)))
        elif node.label != RED:
            made = T.NonTerminal(node.label, [])
            out.append(made)
            stack.append((None, out))
            stack.extend(zip(reversed(node.children), repeat(made.children)))
    if len(kept) != 1 or not isinstance(kept[0], T.NonTerminal):
        raise ValueError("stripping pseudo nodes did not leave a single rooted tree")
    return kept[0]
