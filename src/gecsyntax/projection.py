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

:func:`project` (over integer node ids built from the tokens) and
:func:`strip_pseudo` take :func:`tree.bracket_tokens` and give bracket text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import tree as T
from .edits import MISS, RED, SUB, EditScript, make_script

PLACEMENTS = ("below", "above")
_RED_OPEN = "(" + RED
_SPLICED_OPENS = ("(" + SUB, "(" + MISS)


@dataclass
class ProjectionResult:
    source_tree: str  # bracket text
    inserted: list[tuple[str, int]]  # (pseudo label, source token position)


class _Tree:
    """The target tree as integer node ids, edited in place by projection:
    node ``v`` has ``text[v]`` (its label, or its unescaped word), ``kids[v]``
    (``None`` for a word) and ``parent[v]``; node 0 holds the root.  Ids are
    never reused.  ``words`` holds the word ids, left to right."""

    def __init__(self, tokens: list[str]):
        self.text, self.kids, self.parent, self.words = [""], [[]], [0], []
        text, kids, parent = self.text, self.kids, self.parent
        at = 0
        for tok in tokens:
            if tok == ")":
                at = parent[at]
                continue
            kids[at].append(len(text))
            parent.append(at)
            if tok[0] != "(":
                self.words.append(len(text))
                text.append(T.unescape_token(tok))
                kids.append(None)
            elif tok[1:] in T.PSEUDO_LABELS:
                raise ValueError(f"target tree already contains {tok[1:]!r} nodes")
            else:
                at = len(text)
                text.append(tok[1:])
                kids.append([])

    def _add(self, text: str, kids: list[int] | None, parent: int) -> int:
        self.text.append(text)
        self.kids.append(kids)
        self.parent.append(parent)
        return len(self.text) - 1

    def mark(self, v: int, label: str, placement: str) -> None:
        """Insert a ``label`` node above word ``v`` (or above its preterminal
        with ``placement="above"``), outside the pseudo nodes already there."""
        text, kids, parent = self.text, self.kids, self.parent
        p = parent[v]
        if placement == "above" and len(kids[p]) == 1 and text[p] not in T.PSEUDO_LABELS:
            v, p = p, parent[p]
        while text[p] in T.PSEUDO_LABELS:
            v, p = p, parent[p]
        kids[p][kids[p].index(v)] = parent[v] = self._add(label, [v], p)

    def insert_red(self, v: int, word: str, before: bool) -> int:
        """Place ``(RED word)`` next to word ``v``'s branch of its lowest
        multi-child ancestor (or of the root); returns the new word's id."""
        kids, parent = self.kids, self.parent
        p = parent[v]
        while parent[p] and len(kids[p]) == 1:
            v, p = p, parent[p]
        red = self._add(RED, [len(kids) + 1], p)  # its word takes the next id
        kids[p].insert(kids[p].index(v) + (not before), red)
        return self._add(word, None, red)

    def delete_word(self, v: int) -> None:
        """Remove a word and every ancestor that this leaves empty."""
        p = self.parent[v]
        self.kids[p].remove(v)
        while not self.kids[p]:
            v, p = p, self.parent[p]
            if not p:
                raise ValueError("deleting missing words emptied the whole tree")
            self.kids[p].remove(v)


def project(
    target_tree: list[str],
    script: EditScript,
    src_tokens: Sequence[str],
    placement: str = "below",
) -> ProjectionResult:
    """Rewrite the tokens ``target_tree`` into bracket text over ``src_tokens``.

    Requires edits in any order that :func:`make_script` accepts,
    ``yield(target_tree) == apply_edits(src_tokens, script)`` and a target
    tree free of SUB/RED/MISS nodes; raises ``ValueError`` otherwise.  An
    empty script returns a structurally identical tree.  ``make_script``
    gives the script as a tuple in slot order; one walk over it checks it
    against the source and the tree's words, and a second, right to left,
    makes the edits.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}")
    src_tokens = list(src_tokens)
    n = len(src_tokens)
    if not src_tokens and len(script):
        raise ValueError("empty source sentence with a non-empty edit script")
    tree = _Tree(target_tree)
    edits = make_script(script)
    # The yield the script asks for; per source position the word's id (None
    # under a RED); per MISS point the words it deletes; the rightmost kept
    # one.  Slices, not indexes, let a tree with too few words reach the
    # yield check.
    expected: list[str] = []
    src_node: list[int | None] = []
    miss_words: dict[int, list[int]] = {}
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
    got = [tree.text[v] for v in tree.words]
    if got != expected:
        raise ValueError("target tree yield does not match apply(src, script): "
                         f"{got!r} vs {expected!r}")

    inserted: list[tuple[str, int]] = []
    # Right to left, so chained RED words stack as siblings and at one position
    # SUB/RED land before the MISS that wraps them.  An edit's anchor is its
    # own word (SUB, MISS) or its right neighbour (RED); past the end sits the
    # rightmost kept word, and no RED word is right of it yet.
    src_node.append(src_node[rightmost] if rightmost >= 0 else None)
    for e in reversed(edits):
        if e.category == MISS:
            for v in miss_words[e.i]:
                tree.delete_word(v)
        anchor = src_node[e.i + (e.category == RED)]
        if anchor is None:
            raise ValueError("no source word available to anchor the edit")
        if e.category == SUB:
            tree.text[anchor] = src_tokens[e.i]
            tree.mark(anchor, SUB, placement)
            inserted.append((SUB, e.i))
        elif e.category == RED:
            src_node[e.i] = tree.insert_red(anchor, src_tokens[e.i], before=e.i < n - 1)
            inserted.append((RED, e.i))
        else:
            tree.mark(anchor, MISS, placement)
            inserted.append((MISS, e.i if e.i < n else rightmost))

    # The text, by one walk; the words it writes, for the self-check.
    text, kids = tree.text, tree.kids
    out, words, stack = [], [], kids[0][:]
    while stack:
        v = stack.pop()
        if v < 0:
            out.append(")")
        elif kids[v] is None:
            words.append(text[v])
            out.append(T.escape_token(text[v]))
        else:
            out.append("(" + text[v])
            stack.append(-1)
            stack += reversed(kids[v])
    if words != src_tokens:
        raise RuntimeError("projection produced a tree with the wrong yield")
    inserted.sort(key=lambda item: (item[1], item[0]))
    return ProjectionResult(T.serialize(out), inserted)


def strip_pseudo(tree: list[str]) -> str:
    """Remove all inserted pseudo nodes from the tokens ``tree``, by one pass.

    A RED node is deleted together with the terminal(s) it dominates;
    SUB/MISS nodes are spliced out with their children promoted.  Nodes
    emptied by a deletion are pruned; what is left must be one rooted
    tree, or ``ValueError``.
    """
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
    return T.serialize(out)
