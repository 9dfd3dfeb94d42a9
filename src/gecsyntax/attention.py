"""Single-head cross-attention kernels for combining two syntax memories.

The decoder-side combination attends to a constituency memory and a
dependency memory with two cross-attention computations and sums the
results.  The ablation variant shares one set of projections and attends
over the concatenated memories instead.  Multi-head projection splitting
is an orthogonal refinement and is deliberately left out of this
reference kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("independent", "sharing")


@dataclass
class AttentionParams:
    Wq: np.ndarray
    Wk: np.ndarray
    Wv: np.ndarray

    def check(self, d: int) -> None:
        for name, m in (("Wq", self.Wq), ("Wk", self.Wk), ("Wv", self.Wv)):
            if m.shape != (d, d):
                raise ValueError(f"{name} has shape {m.shape}, expected ({d}, {d})")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} contains non-finite entries")


def init_attention(d: int, seed: int = 0) -> AttentionParams:
    rng = np.random.default_rng(seed)
    return AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _forward(Q: np.ndarray, M: np.ndarray, params: AttentionParams):
    """``(Q, M, Qp, Kp, Vp, weights)``: the checked inputs as float arrays,
    their projections and the row-stochastic attention weights."""
    Q = np.asarray(Q, dtype=float)
    M = np.asarray(M, dtype=float)
    if Q.ndim != 2 or M.ndim != 2 or Q.shape[1] != M.shape[1]:
        raise ValueError(f"incompatible shapes {Q.shape} and {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("attention over an empty memory")
    d = Q.shape[1]
    params.check(d)
    Qp, Kp, Vp = Q @ params.Wq, M @ params.Wk, M @ params.Wv
    return Q, M, Qp, Kp, Vp, _softmax_rows(Qp @ Kp.T / np.sqrt(d))


def cross_attention(Q: np.ndarray, M: np.ndarray, params: AttentionParams,
                    return_weights: bool = False):
    """Scaled dot-product attention of queries Q (m x d) over memory M (k x d).

    Returns the m x d output; with ``return_weights=True`` also the
    row-stochastic m x k attention matrix.
    """
    *_, Vp, weights = _forward(Q, M, params)
    out = weights @ Vp
    if return_weights:
        return out, weights
    return out


def cross_attention_backward(Q: np.ndarray, M: np.ndarray, params: AttentionParams,
                             d_out: np.ndarray | None = None) -> AttentionParams:
    """Analytic gradients of sum(d_out * output) w.r.t. Wq, Wk, Wv."""
    Q, M, Qp, Kp, Vp, A = _forward(Q, M, params)
    scale = 1.0 / np.sqrt(Q.shape[1])
    # The output has the shape of the projected queries.
    g = np.ones(Qp.shape) if d_out is None else np.asarray(d_out, dtype=float)
    if g.shape != Qp.shape:
        raise ValueError("d_out shape does not match attention output")
    dA = g @ Vp.T
    dVp = A.T @ g
    # softmax backward, row-wise
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    dQp = dS @ Kp * scale
    dKp = dS.T @ Qp * scale
    return AttentionParams(Q.T @ dQp, M.T @ dKp, M.T @ dVp)


def dual_combine(
    Q: np.ndarray,
    mem_const: np.ndarray,
    mem_dep: np.ndarray,
    mode: str = "independent",
    params_const: AttentionParams | None = None,
    params_dep: AttentionParams | None = None,
    params_shared: AttentionParams | None = None,
) -> np.ndarray:
    """Attend to both syntax memories and sum the results.

    ``independent`` runs one cross-attention per memory with its own
    parameters and adds the outputs; ``sharing`` (the ablation) runs a
    single cross-attention with one parameter set over the concatenated
    memories.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "independent":
        if params_const is None or params_dep is None:
            raise ValueError("independent mode needs params_const and params_dep")
        return (cross_attention(Q, mem_const, params_const)
                + cross_attention(Q, mem_dep, params_dep))
    if params_shared is None:
        raise ValueError("sharing mode needs params_shared")
    return cross_attention(Q, np.vstack([mem_const, mem_dep]), params_shared)
