"""Undirected syntax graphs over constituency and dependency trees.

All tree nodes become graph nodes and every parent-child connection
becomes one undirected edge.  Node order is fixed: terminals first, in
yield order, then non-terminals in pre-order, so the first
``num_terminals`` rows of any node matrix are the token representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from . import tree as T


@dataclass
class SyntaxGraph:
    num_terminals: int
    nt_labels: list[str]                 # pre-order, node id = num_terminals + index
    adjacency: list[list[int]]           # symmetric neighbor lists

    @property
    def num_nodes(self) -> int:
        return self.num_terminals + len(self.nt_labels)

    @property
    def num_edges(self) -> int:
        return sum(len(n) for n in self.adjacency) // 2

    @cached_property
    def matrix(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix (nodes x nodes), built on first use.

        Dense, so a graph of n nodes holds n * n floats: meant for
        sentence-sized graphs, not for graphs of many thousand nodes.
        """
        n = self.num_nodes
        rows = np.repeat(np.arange(n), [len(neigh) for neigh in self.adjacency])
        cols = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.intp,
                           count=len(rows))
        a = np.zeros((n, n))
        a[rows, cols] = 1.0
        return a


def _add_edge(adjacency: list[list[int]], u: int, v: int) -> None:
    adjacency[u].append(v)
    adjacency[v].append(u)


def build_graph(root: T.NonTerminal) -> SyntaxGraph:
    """Graph over all nodes of a constituency tree, edges per tree link."""
    num_terminals = sum(1 for _ in T.terminals(root))
    nt_labels: list[str] = []
    adjacency: list[list[int]] = [[] for _ in range(num_terminals)]
    # Pre-order walk, which meets terminals left to right; each entry is a
    # node and its parent's id (-1 at the root).
    stack: list[tuple[T.Node, int]] = [(root, -1)]
    word = 0
    while stack:
        node, parent = stack.pop()
        if isinstance(node, T.Terminal):
            v = word
            word += 1
        else:
            v = len(adjacency)
            adjacency.append([])
            nt_labels.append(node.label)
            stack.extend(zip(reversed(node.children), repeat(v)))
        if parent >= 0:
            _add_edge(adjacency, parent, v)
    return SyntaxGraph(num_terminals, nt_labels, adjacency)


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
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, h in enumerate(heads):
        if h == 0:
            continue
        if not (1 <= h <= n):
            raise ValueError(f"head index {h} out of range for {n} tokens")
        _add_edge(adjacency, i, h - 1)
    # A single-rooted, (n-1)-edge head assignment is a tree iff every token
    # reaches the root without revisiting a node.  mark[i] is start + 1
    # while the walk from start passes token i, and -1 once i is known to
    # reach the root, so each token is walked at most twice.
    mark = [0] * n
    for start in range(n):
        i = start
        while mark[i] == 0 and heads[i] != 0:
            mark[i] = start + 1
            i = heads[i] - 1
        if mark[i] == start + 1:
            raise ValueError("dependency heads contain a cycle")
        i = start
        while mark[i] == start + 1:
            mark[i] = -1
            i = heads[i] - 1
    return SyntaxGraph(n, [], adjacency)
