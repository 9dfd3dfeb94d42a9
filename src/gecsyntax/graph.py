"""Undirected syntax graphs over constituency and dependency trees.

All tree nodes become graph nodes and every parent-child connection
becomes one undirected edge.  Node order is fixed: terminals first, in
yield order, then non-terminals in pre-order, so the first
``num_terminals`` rows of any node matrix are the token representations.
Both kinds of graph are trees, so a graph stores one parent id per node
(-1 at the root) and nothing else about its edges: node ``v`` and
``parent[v]`` are joined by an edge whenever ``parent[v] >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from . import tree as T


@dataclass
class SyntaxGraph:
    num_terminals: int
    nt_labels: list[str]                 # pre-order, node id = num_terminals + index
    parent: list[int]                    # parent id of each node, -1 at the root

    @property
    def num_nodes(self) -> int:
        return self.num_terminals + len(self.nt_labels)

    @property
    def num_edges(self) -> int:
        return len(self.parent) - self.parent.count(-1)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix (nodes x nodes), built on first use.

        Dense, so a graph of n nodes holds n * n floats: meant for
        sentence-sized graphs, not for graphs of many thousand nodes.
        """
        parent = np.array(self.parent, dtype=np.intp)
        child = np.flatnonzero(parent >= 0)
        a = np.zeros((self.num_nodes, self.num_nodes))
        a[child, parent[child]] = 1.0
        a[parent[child], child] = 1.0
        return a


def build_graph(root: T.NonTerminal) -> SyntaxGraph:
    """Graph over all nodes of a constituency tree, edges per tree link."""
    nt_labels: list[str] = []
    # Parents by non-terminal index, which the last line shifts past the
    # terminals: one list for the terminals, one for the non-terminals.
    word_parent: list[int] = []
    nt_parent: list[int] = []
    # Pre-order walk, which meets terminals left to right; each entry is a
    # node and its parent's non-terminal index (-1 at the root).
    stack: list[tuple[T.Node, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, T.Terminal):
            word_parent.append(parent)
        else:
            stack.extend(zip(reversed(node.children), repeat(len(nt_labels))))
            nt_labels.append(node.label)
            nt_parent.append(parent)
    shift = len(word_parent)
    parent = [p + shift for p in word_parent + nt_parent]
    parent[shift] = -1   # the root, first in pre-order
    return SyntaxGraph(shift, nt_labels, parent)


def build_graph_dep(heads: Sequence[int]) -> SyntaxGraph:
    """Graph over the tokens of a dependency tree.

    ``heads[i]`` is the 1-based head of token ``i + 1``; head 0 marks the
    root.  Raises ``ValueError`` unless the heads encode a single-rooted
    tree.
    """
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h == 0]
    if n and not roots:
        raise ValueError("dependency heads contain no root")
    if len(roots) > 1:
        raise ValueError(f"multiple roots at tokens {[r + 1 for r in roots]}")
    for h in heads:
        if not 0 <= h <= n:
            raise ValueError(f"head index {h} out of range for {n} tokens")
    # Each token has one head, so the heads form a tree iff one walk down
    # from head 0 reaches every token; a token on a cycle is never reached.
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for token, h in enumerate(heads, start=1):
        children[h].append(token)
    stack = [0]
    reached = 0
    while stack:
        below = children[stack.pop()]
        reached += len(below)
        stack.extend(below)
    if reached != n:
        raise ValueError("dependency heads contain a cycle")
    return SyntaxGraph(n, [], [h - 1 for h in heads])
