"""Inter-model combination: pool edits across systems, keep the good ones.

Edits proposed by k correction systems for the same source sentence are
gathered into deduplicated candidates with per-system vote indicators.
A binary logistic-regression selector, trained on candidates labeled
against gold edits, decides which candidates to keep; surviving edits are
conflict-resolved and re-applied to the source.  A candidate's score
depends only on its feature row and needs no numpy; only training does.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .edits import CATEGORIES, Edit, EditScript, align, apply_edits
from .errors import FormatError

_CATEGORY_ORDER = {cat: k for k, cat in enumerate(CATEGORIES)}
_DIVERGED = "training diverged (non-finite loss or parameters); lower the lr"


@dataclass
class EditCandidate:
    edit: Edit
    votes: tuple[int, ...]  # 0/1 per system


def _feature_row(votes: tuple[int, ...], category: str) -> list[float]:
    """A candidate's features: its votes, its vote fraction and a one-hot
    of its category, in the order of :func:`feature_names`."""
    onehot = [0.0, 0.0, 0.0]
    onehot[_CATEGORY_ORDER[category]] = 1.0
    return [*map(float, votes), sum(votes) / len(votes), *onehot]


def feature_names(num_systems: int) -> list[str]:
    return [f"system_{i}" for i in range(num_systems)] + [
        "vote_fraction", "is_sub", "is_red", "is_miss",
    ]


def gather(src_tokens: Sequence[str],
           hypotheses: Sequence[Sequence[str]]) -> list[EditCandidate]:
    """Pool the edits of every system's correction of one source sentence.

    Candidates are the deduplicated union of per-system alignments, with
    identity (category, span, replacement); order is span start, then
    category name, then replacement.  Systems that output the same tokens
    share one alignment and each vote for its edits.
    """
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    k = len(hypotheses)
    voters: dict[tuple[str, ...], list[int]] = {}
    for sys_idx, hyp in enumerate(hypotheses):
        voters.setdefault(tuple(hyp), []).append(sys_idx)
    found: dict[tuple, tuple[Edit, list[int]]] = {}
    for hyp, systems in voters.items():
        for edit in align(src_tokens, hyp):
            key = edit.identity()
            if key not in found:
                found[key] = (edit, [0] * k)
            for sys_idx in systems:
                found[key][1][sys_idx] = 1
    candidates = [EditCandidate(edit, tuple(votes)) for edit, votes in found.values()]
    candidates.sort(key=lambda c: (c.edit.i, c.edit.category,
                                   c.edit.tgt_tokens, c.edit.j))
    return candidates


def label_candidates(candidates: Sequence[EditCandidate],
                     gold: EditScript) -> list[float]:
    """1.0 where a candidate exactly matches a gold edit, else 0.0."""
    gold_keys = {e.identity() for e in gold}
    return [1.0 if c.edit.identity() in gold_keys else 0.0 for c in candidates]


@dataclass
class LogRegModel:
    weights: tuple[float, ...]
    bias: float
    threshold: float = 0.5
    feature_names: list[str] | None = None
    final_loss: float | None = None

    def probability(self, votes: tuple[int, ...], category: str) -> float:
        """The sigmoid of ``bias + row . weights`` for this feature row."""
        row = _feature_row(votes, category)
        z = self.bias + sum(x * w for x, w in zip(row, self.weights, strict=True))
        return 0.5 * (1.0 + math.tanh(0.5 * z))


def loss_and_grad(weights, bias: float, X, y, l2: float = 0.0, counts=None):
    """Mean L2-regularized logistic loss and its analytic gradient.

    Row ``r`` of ``X`` stands for ``counts[r]`` examples (default one each),
    and the mean is over examples.  The bias is not regularized.  Returns
    (loss, grad_weights, grad_bias).
    """
    import numpy as np

    counts = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=float)
    total = counts.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ weights + bias
        # log(1 + exp(-s*z)) with s = +-1, computed stably
        s = 2.0 * y - 1.0
        loss = float(counts @ np.logaddexp(0.0, -s * z) / total
                     + 0.5 * l2 * weights @ weights)
        residual = counts * (0.5 * (1.0 + np.tanh(0.5 * z)) - y)
        grad_w = X.T @ residual / total + l2 * weights
        grad_b = float(residual.sum() / total)
    return loss, grad_w, grad_b


def row_counts(labeled: Iterable[tuple[EditCandidate, float]]) -> Counter:
    """How many of the ``(candidate, label)`` pairs share each feature row
    and label, keyed ``(votes, category, label)`` in first-seen order."""
    return Counter((c.votes, c.edit.category, float(label)) for c, label in labeled)


def train(counts: Mapping[tuple[tuple[int, ...], str, float], int],
          lr: float = 0.5, epochs: int = 500, l2: float = 0.0) -> LogRegModel:
    """Full-batch gradient descent from zero-initialized parameters.

    Trains on ``counts``, the feature rows as :func:`row_counts` gives
    them: each distinct ``(votes, category, label)`` is one row weighted
    by its count, in key order, so the loss is the mean over all
    candidates.  Deterministic: no sampling is involved.  Raises
    ``ValueError`` if there are no rows, or if the loss or the parameters
    go non-finite (learning rate too large).
    """
    import numpy as np

    if not counts:
        raise ValueError("no candidates to train on")
    X = np.array([_feature_row(votes, cat) for votes, cat, _ in counts])
    y = np.array([label for _, _, label in counts])
    freq = np.array(list(counts.values()), dtype=float)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        loss, gw, gb = loss_and_grad(w, b, X, y, l2, freq)
        if not np.isfinite(loss):
            raise ValueError(_DIVERGED)
        w -= lr * gw
        b -= lr * gb
    loss, _, _ = loss_and_grad(w, b, X, y, l2, freq)
    if not (math.isfinite(loss) and math.isfinite(b) and np.isfinite(w).all()):
        raise ValueError(_DIVERGED)
    return LogRegModel(tuple(w.tolist()), b,
                       feature_names=feature_names(len(next(iter(counts))[0])),
                       final_loss=loss)


def select_edits(candidates: Sequence[EditCandidate],
                 model: LogRegModel) -> list[EditCandidate]:
    """Keep candidates scoring at or above the threshold, take them by
    descending score (ties: leftmost span, SUB > RED > MISS, replacement)
    unless one already taken holds their ``Edit.slot``, and return them in
    that order.  So two MISS edits conflict at one point, and two SUB/RED
    edits on one word, the only width :func:`gather` gives them.
    """
    scored = ((model.probability(c.votes, c.edit.category), c) for c in candidates)
    kept = [(s, c) for s, c in scored if s >= model.threshold]
    kept.sort(key=lambda item: (-item[0], item[1].edit.i,
                                _CATEGORY_ORDER[item[1].edit.category],
                                item[1].edit.tgt_tokens))
    chosen: list[EditCandidate] = []
    taken: set[int] = set()  # slots of the chosen edits
    for _, cand in kept:
        slot = cand.edit.slot
        if slot not in taken:
            taken.add(slot)
            chosen.append(cand)
    return chosen


def select_and_apply(src_tokens: Sequence[str],
                     candidates: Sequence[EditCandidate],
                     model: LogRegModel) -> list[str]:
    """Apply the selected, conflict-free edits to the source sentence."""
    return apply_edits(src_tokens, (c.edit for c in select_edits(candidates, model)))


# --- model (de)serialization -------------------------------------------

def model_to_dict(model: LogRegModel) -> dict:
    return {
        "weights": list(model.weights),
        "bias": model.bias,
        "threshold": model.threshold,
        "feature_names": model.feature_names,
    }


def model_from_dict(data: dict) -> LogRegModel:
    """Model from its JSON form; ``ValueError`` unless ``weights`` is a list
    of finite numbers and ``bias`` and ``threshold`` are finite numbers."""
    weights = data.get("weights") if isinstance(data, dict) else None
    if not isinstance(weights, list) or "bias" not in data:
        raise ValueError("a model needs a 'weights' list and a 'bias'")
    values = [data["bias"], data.get("threshold", 0.5), *weights]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in values):
        raise ValueError("model parameters must be finite numbers")
    return LogRegModel(tuple(map(float, weights)), float(values[0]),
                       float(values[1]), data.get("feature_names"))


def load_model(path: str) -> LogRegModel:
    """Read a model file; :class:`FormatError` with the path if it is not one."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            # Integers are read as floats, so a long one cannot overflow.
            return model_from_dict(json.load(fh, parse_int=float))
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"bad model file: {exc}", path=path) from None
