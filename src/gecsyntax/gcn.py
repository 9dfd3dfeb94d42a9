"""Reference graph-convolution encoder over syntax graphs.

One layer computes, for every node v,

    out_v = ReLU( sum_{u in N(v)} W @ h_u + b )

summing over one-hop neighbours only: no self term and no degree
normalization, as the paper specifies.  Terminal nodes are initialized
from caller-supplied token vectors, non-terminal nodes from a label
embedding table.  The syntax-aware token representations are fused
with the basic encoder states by a weighted sum,
``lam * h_syn + (1 - lam) * h_basic``.

Each layer aggregates with one product by the graph's dense 0/1
adjacency matrix, so a graph of n nodes costs n * n floats of memory.
Everything is plain numpy; :func:`encode_backward` supplies analytic
gradients so the encoder can be verified against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import SyntaxGraph


@dataclass
class GcnLayerParams:
    W: np.ndarray  # (d, d)
    b: np.ndarray  # (d,)


@dataclass
class GcnStack:
    layers: list[GcnLayerParams]
    labels: list[str]            # row i of E_nt embeds labels[i]
    E_nt: np.ndarray             # (n_labels, d): its width is the stack's
    _row_of: dict[str, int] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self._row_of = {lab: i for i, lab in enumerate(self.labels)}
        if self.E_nt.ndim != 2 or len(self.E_nt) != len(self.labels):
            raise ValueError("embedding table shape does not match labels/width")
        d = self.d
        for layer in self.layers:
            if layer.W.shape != (d, d) or layer.b.shape != (d,):
                raise ValueError(
                    f"layer shapes {layer.W.shape}/{layer.b.shape} do not match width {d}"
                )
            if not (np.isfinite(layer.W).all() and np.isfinite(layer.b).all()):
                raise ValueError("non-finite layer parameters")

    @property
    def d(self) -> int:
        return self.E_nt.shape[1]

    def rows(self, labels) -> np.ndarray:
        """The ``E_nt`` row of each label, as an ``intp`` index array (so no
        labels index no rows)."""
        try:
            return np.array([self._row_of[lab] for lab in labels], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"no embedding row for label {exc.args[0]!r}") from None


def init_stack(labels, d: int = 64, num_layers: int = 3, seed: int = 0) -> GcnStack:
    """Seeded random parameters; embeddings uniform in [-0.1, 0.1].

    Weights are uniform in +-sqrt(3/d) (unit variance per product column),
    so activation magnitudes stay roughly stable across layers instead of
    decaying toward the ReLU kink.
    """
    rng = np.random.default_rng(seed)
    scale = float(np.sqrt(3.0 / d))
    layers = [
        GcnLayerParams(rng.uniform(-scale, scale, (d, d)),
                       rng.uniform(-scale, scale, d))
        for _ in range(num_layers)
    ]
    E_nt = rng.uniform(-0.1, 0.1, (len(labels), d))
    return GcnStack(layers, list(labels), E_nt)


def gcn_layer(graph: SyntaxGraph, H: np.ndarray, params: GcnLayerParams) -> np.ndarray:
    """One graph-convolution layer over the node matrix H (nodes x d)."""
    d = params.W.shape[0]
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape != (graph.num_nodes, d):
        raise ValueError(
            f"node matrix shape {H.shape} does not match "
            f"({graph.num_nodes}, {d})"
        )
    return _layer_forward(graph, H, params)[0]


def _layer_forward(graph, H, params):
    pre = graph.matrix @ (H @ params.W.T)
    pre += params.b
    return np.maximum(pre, 0.0), pre


def initial_node_matrix(graph: SyntaxGraph, terminal_inits: np.ndarray,
                        stack: GcnStack) -> np.ndarray:
    terminal_inits = np.asarray(terminal_inits, dtype=float)
    if terminal_inits.shape != (graph.num_terminals, stack.d):
        raise ValueError(
            f"terminal inits shape {terminal_inits.shape} does not match "
            f"({graph.num_terminals}, {stack.d})"
        )
    return np.vstack([terminal_inits, stack.E_nt[stack.rows(graph.nt_labels)]])


def _encode_with_cache(graph, terminal_inits, stack):
    H = initial_node_matrix(graph, terminal_inits, stack)
    inputs, pres = [], []
    for params in stack.layers:
        inputs.append(H)
        H, pre = _layer_forward(graph, H, params)
        pres.append(pre)
    return H, inputs, pres


def gcn_encode(graph: SyntaxGraph, terminal_inits: np.ndarray,
               stack: GcnStack) -> np.ndarray:
    """Run the full stack; returns the final node matrix (nodes x d)."""
    return _encode_with_cache(graph, terminal_inits, stack)[0]


@dataclass
class GcnGradients:
    dW: list[np.ndarray]
    db: list[np.ndarray]
    dE_nt: np.ndarray
    d_terminal_inits: np.ndarray


def encode_backward(graph: SyntaxGraph, terminal_inits: np.ndarray,
                    stack: GcnStack, d_out: np.ndarray | None = None) -> GcnGradients:
    """Analytic gradients of sum(d_out * output) w.r.t. all parameters.

    With the default ``d_out`` of ones this is the gradient of the plain
    sum of the encoder output.
    """
    out, inputs, pres = _encode_with_cache(graph, terminal_inits, stack)
    grad = np.ones_like(out) if d_out is None else np.asarray(d_out, dtype=float)
    if grad.shape != out.shape:
        raise ValueError("d_out shape does not match encoder output")
    A = graph.matrix
    dW = [None] * len(stack.layers)
    db = [None] * len(stack.layers)
    for l in range(len(stack.layers) - 1, -1, -1):
        H_in = inputs[l]
        d_pre = grad * (pres[l] > 0)
        db[l] = d_pre.sum(axis=0)
        # pre = A @ (H W^T) + b, and A is symmetric, so the message
        # gradient is A @ d_pre.
        d_msgs = A @ d_pre
        dW[l] = d_msgs.T @ H_in
        grad = d_msgs @ stack.layers[l].W
    nt = graph.num_terminals
    dE = np.zeros_like(stack.E_nt)
    np.add.at(dE, stack.rows(graph.nt_labels), grad[nt:])
    return GcnGradients(dW, db, dE, grad[:nt].copy())


def fuse(h_syn: np.ndarray, h_basic: np.ndarray, lam: float) -> np.ndarray:
    """Weighted sum of syntax-aware and basic representations."""
    h_syn = np.asarray(h_syn, dtype=float)
    h_basic = np.asarray(h_basic, dtype=float)
    if h_syn.shape != h_basic.shape:
        raise ValueError(f"shape mismatch {h_syn.shape} vs {h_basic.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"fusion factor {lam} outside [0, 1]")
    return lam * h_syn + (1.0 - lam) * h_basic
