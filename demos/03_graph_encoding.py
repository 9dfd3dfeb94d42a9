"""
Encoding a syntax tree with graph convolutions
==============================================

A constituency tree becomes an undirected graph over all of its nodes;
token vectors initialize the terminals, a label embedding table
initializes the constituents; stacked graph-convolution layers then let
every node absorb its neighbourhood.  The token rows are finally fused
with the basic encoder states by a weighted sum.
"""

import numpy as np

from gecsyntax import build_graph, build_graph_dep, fuse, gcn_encode, init_stack
from gecsyntax import parse_bracketed

tree = parse_bracketed("(S (NP (DT a) (NN (SUB cat))) (VP (VBD sat)))")
graph = build_graph(tree)
print(f"{graph.num_nodes} nodes ({graph.num_terminals} terminals), "
      f"{graph.num_edges} edges")
print("labels in pre-order:", graph.nt_labels)

d = 8
stack = init_stack(sorted(set(graph.nt_labels)), d=d, num_layers=3, seed=0)

# Stand-in for the sentence encoder output: one vector per token.
rng = np.random.default_rng(0)
token_states = rng.standard_normal((graph.num_terminals, d))

encoded = gcn_encode(graph, token_states, stack)
print("encoded node matrix:", encoded.shape)

# Fuse the syntax-aware token rows back into the basic representation;
# terminals come first in the node matrix.
h_syn = encoded[:graph.num_terminals]
h_final = fuse(h_syn, token_states, lam=0.5)
print("fused token matrix: ", h_final.shape)

# Dependency trees (head index per token, 0 = root) go through the same
# machinery, with token nodes only.
dep = build_graph_dep([2, 0, 2])
print("dependency graph edges:", dep.num_edges)
