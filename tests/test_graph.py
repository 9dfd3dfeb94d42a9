import itertools
import random
import time

import numpy as np
import pytest

from gecsyntax import tree as T
from gecsyntax.edits import apply_edits
from gecsyntax.graph import build_graph, build_graph_dep
from gecsyntax.projection import project, strip_pseudo
from gecsyntax.subword import to_subword_tree

from tests.helpers import (
    SRC_VOCAB, dense_adjacency, dep_graph_oracle, neighbour_lists, random_heads,
    random_script, random_tokens, random_tree, tree_edges_oracle,
)


def test_single_terminal_tree():
    g = build_graph(T.parse_bracketed("(X a)"))
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert g.num_terminals == 1
    assert g.nt_labels == ["X"]


def test_small_tree_counts_and_degrees():
    g = build_graph(T.parse_bracketed("(S (NP (DT a) (NN cat)))"))
    assert g.num_nodes == 6
    assert g.num_edges == 5
    # node order: terminals a(0) cat(1); then pre-order S(2) NP(3) DT(4) NN(5)
    assert g.nt_labels == ["S", "NP", "DT", "NN"]
    assert g.parent == [4, 5, -1, 2, 3, 3]
    adjacency = neighbour_lists(g.parent)
    assert len(adjacency[2]) == 1   # S: only NP
    assert len(adjacency[3]) == 3   # NP: S, DT, NN
    assert sorted(adjacency[3]) == [2, 4, 5]
    assert adjacency[0] == [4]


def test_adjacency_symmetric_and_tree_edge_count():
    # Trees built from Terminal(token) alone, by hand, or parsed from the text
    # of project, strip_pseudo and to_subword_tree, give the graph of their
    # reparsed text.
    roots = [T.NonTerminal("S", [T.NonTerminal("NP", [T.Terminal("a")]),
                                 T.NonTerminal("VP", [T.Terminal("b")])])]
    rng = random.Random(3)
    for _ in range(50):
        src = random_tokens(rng, rng.randint(1, 9), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB)
        target = random_tree(apply_edits(src, script), rng)
        text = project(T.bracket_tokens(T.serialize(target)), script, src).source_tree
        projected = T.bracket_tokens(text)
        pieces = [[w[:1], "@@" + w[1:]] if len(w) > 1 else [w] for w in src]
        roots += [target, *map(T.parse_bracketed, (
            text, strip_pseudo(projected), to_subword_tree(projected, pieces)))]
    for root in roots:
        g = build_graph(root)
        assert g == build_graph(T.parse_bracketed(T.serialize(root)))
        assert g.num_edges == g.num_nodes - 1
        assert g.parent.count(-1) == 1
        adjacency = neighbour_lists(g.parent)
        for v, neigh in enumerate(adjacency):
            assert v not in neigh
            for u in neigh:
                assert v in adjacency[u]


def test_dep_graph_single_token():
    g = build_graph_dep([0])
    assert g.num_nodes == 1
    assert g.num_edges == 0


def test_dep_graph_example():
    g = build_graph_dep([2, 0, 2])
    assert g.num_edges == 2
    assert g.parent == [1, -1, 1]
    adjacency = neighbour_lists(g.parent)
    assert sorted(adjacency[0]) == [1]
    assert sorted(adjacency[1]) == [0, 2]
    assert sorted(adjacency[2]) == [1]


def test_dep_graph_rejects_cycles_and_bad_roots():
    with pytest.raises(ValueError):
        build_graph_dep([2, 1])
    with pytest.raises(ValueError):
        build_graph_dep([0, 0])
    with pytest.raises(ValueError):
        build_graph_dep([3, 0])
    with pytest.raises(ValueError):
        build_graph_dep([0, 3, 2])  # 2 -> 3 -> 2 cycle beside the root


def test_dep_graph_accepts_exactly_the_trees():
    # Every head vector of up to 4 tokens: a tree has one root and every
    # token reaches it within n steps.
    for n in range(1, 5):
        for heads in itertools.product(range(n + 1), repeat=n):
            def reaches_root(i):
                for _ in range(n):
                    if heads[i] == 0:
                        return True
                    i = heads[i] - 1
                return heads[i] == 0
            is_tree = heads.count(0) == 1 and all(map(reaches_root, range(n)))
            try:
                build_graph_dep(heads)
            except ValueError:
                assert not is_tree, heads
            else:
                assert is_tree, heads


KINDS = ("no root", "multiple roots", "out of range", "cycle")


def test_dep_graph_matches_the_head_following_oracle():
    # Random head lists with cycles, several roots and out-of-range heads:
    # the same parent vector, or the same error text, as the oracle.
    rng = random.Random(93)
    outcomes = set()
    for _ in range(20_000):
        heads = random_heads(rng)
        expected = dep_graph_oracle(heads)
        try:
            got = build_graph_dep(heads).parent
        except ValueError as err:
            got = str(err)
        assert got == expected, heads
        if isinstance(got, list):
            outcomes.add("tree")
        else:
            outcomes.update(k for k in KINDS if k in got)
    assert outcomes == {"tree", *KINDS}


def test_dep_graph_long_chain_builds_in_linear_time():
    n = 20_000
    heads = list(range(n))  # token 1 is the root, token k + 1 hangs off token k
    start = time.perf_counter()
    g = build_graph_dep(heads)
    assert time.perf_counter() - start < 1.0
    assert g.num_edges == n - 1


def test_dep_graph_rejects_cycle_behind_long_chain():
    n = 20_000
    # Token 1 is the root; tokens 2 .. n - 2 form a chain that ends in the
    # two-token cycle n - 1 <-> n.
    heads = [0] + [k + 1 for k in range(2, n - 1)] + [n, n - 1]
    assert len(heads) == n
    with pytest.raises(ValueError, match="dependency heads contain a cycle"):
        build_graph_dep(heads)


def _edges(g):
    return {(v, p) for v, p in enumerate(g.parent) if p >= 0}


def test_dense_adjacency_matches_edges_read_off_the_text():
    # Some trees are mostly unary chains; every tree is checked against the
    # (child, parent) edges its bracketed text states.
    rng = random.Random(808)
    roots = [T.parse_bracketed("(X a)"),
             T.parse_bracketed("(S (A (B (C x))) (D y (E (F z))))")]
    for k in range(240):
        tokens = random_tokens(rng, rng.randint(1, 30), SRC_VOCAB)
        roots.append(random_tree(tokens, rng, unary_prob=0.7 if k % 4 == 0 else 0.15))
    assert build_graph(roots[0]).matrix.tolist() == [[0, 1], [1, 0]]
    for root in roots:
        num_terminals, labels, edges = tree_edges_oracle(T.serialize(root))
        g = build_graph(root)
        assert (g.num_terminals, g.nt_labels) == (num_terminals, labels)
        assert _edges(g) == edges
        assert g.num_edges == len(edges) == g.num_nodes - 1
        a = g.matrix
        assert a is g.matrix  # built once, then cached
        assert np.array_equal(a, dense_adjacency(g.num_nodes, edges))


def test_dep_dense_adjacency_matches_the_heads():
    rng = random.Random(809)
    graphs = []
    for _ in range(200):
        # Tokens join the tree in a random order, each under a token
        # already in it, so the heads form a tree.
        n = rng.randint(1, 40)
        order = rng.sample(range(n), n)
        heads = [0] * n
        for k in range(1, n):
            heads[order[k]] = order[rng.randrange(k)] + 1
        graphs.append((build_graph_dep(heads),
                       {(i, h - 1) for i, h in enumerate(heads) if h}))
    assert build_graph_dep([2, 0, 2]).matrix.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    for g, edges in graphs:
        assert _edges(g) == edges
        assert g.num_edges == len(edges)
        assert np.array_equal(g.matrix, dense_adjacency(g.num_nodes, edges))


def test_build_graph_on_deep_chain_tree():
    # Builds the parent vector only: the dense matrix of a graph this
    # size would need 80 GB, so it is never touched here.
    depth = 100_000
    text = "(S " * depth + "(X w)" + ")" * depth
    g = build_graph(T.parse_bracketed(text))
    assert g.num_terminals == 1
    assert g.num_nodes == depth + 2
    assert g.num_edges == g.num_nodes - 1
    assert g.nt_labels == ["S"] * depth + ["X"]
    assert _edges(g) == tree_edges_oracle(text)[2]
    adjacency = neighbour_lists(g.parent)
    assert adjacency[0] == [depth + 1]
    assert adjacency[depth] == [depth - 1, depth + 1]
