"""Numeric self-checks: per-edge reference encoder and finite differences.

Used by the command-line ``gcn-check`` to demonstrate that the encoder,
which aggregates with one adjacency-matrix product per layer, matches a
per-edge formulation over the graph's (child, parent) edges and that
analytic gradients agree with central finite differences.  One random
instance per tree suffices: the gradient check skips each probe that
moves a ReLU across its kink, and every other probe is exact.
"""

from __future__ import annotations

import numpy as np

from .gcn import GcnStack, _encode_with_cache, encode_backward, initial_node_matrix
from .graph import SyntaxGraph


def edge_encode_reference(graph: SyntaxGraph, terminal_inits: np.ndarray,
                          stack: GcnStack) -> np.ndarray:
    """Encoder recomputed edge by edge from the parent vector.

    Each (child, parent) edge adds the child's message to the parent's
    pre-activation row and the parent's message to the child's, without
    the adjacency matrix the encoder multiplies by.
    """
    H = initial_node_matrix(graph, terminal_inits, stack)
    edges = [(v, p) for v, p in enumerate(graph.parent) if p >= 0]
    for params in stack.layers:
        msgs = H @ params.W.T
        pre = np.zeros_like(msgs)
        for v, p in edges:
            pre[p] += msgs[v]
            pre[v] += msgs[p]
        H = np.maximum(pre + params.b, 0.0)
    return H


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def gcn_gradient_check(graph: SyntaxGraph, terminal_inits: np.ndarray,
                       stack: GcnStack, rng: np.random.Generator,
                       samples_per_tensor: int = 8) -> float:
    """Max relative error between analytic and numeric gradients.

    Probes a random subset of coordinates of W/b of every layer, of the
    label embeddings, and of the terminal inits, for the loss
    ``sum(gcn_encode(...))``.  A probe whose perturbation flips any ReLU
    activation is skipped: central differences are meaningless across a
    kink.  With every mask fixed the output is linear in any one
    coordinate, so each probe that is kept gives the exact derivative up
    to rounding, however close a pre-activation lies to its kink.
    """
    grads = encode_backward(graph, terminal_inits, stack)
    h = 1e-5

    def loss_and_masks() -> tuple[float, list[np.ndarray]]:
        out, _, pres = _encode_with_cache(graph, terminal_inits, stack)
        return float(out.sum()), [p > 0 for p in pres]

    _, base_masks = loss_and_masks()

    def probe(arr: np.ndarray, flat_index: int) -> float | None:
        flat = arr.reshape(-1)
        old = flat[flat_index]
        flat[flat_index] = old + h
        up, up_masks = loss_and_masks()
        flat[flat_index] = old - h
        down, down_masks = loss_and_masks()
        flat[flat_index] = old
        for m_up, m_dn, m0 in zip(up_masks, down_masks, base_masks):
            if not (np.array_equal(m_up, m0) and np.array_equal(m_dn, m0)):
                return None
        return (up - down) / (2.0 * h)

    worst = 0.0
    tensors = []
    for l, params in enumerate(stack.layers):
        tensors.append((params.W, grads.dW[l]))
        tensors.append((params.b, grads.db[l]))
    if len(stack.labels):
        tensors.append((stack.E_nt, grads.dE_nt))
    if graph.num_terminals:
        tensors.append((terminal_inits, grads.d_terminal_inits))
    for arr, analytic in tensors:
        size = arr.size
        count = min(samples_per_tensor, size)
        for idx in rng.choice(size, size=count, replace=False):
            numeric = probe(arr, int(idx))
            if numeric is None:
                continue
            worst = max(worst, rel_err(analytic.reshape(-1)[int(idx)], numeric))
    return worst
