"""Inter-model combination: pool edits across systems, keep the good ones.

Edits proposed by k correction systems for the same source sentence are
gathered into deduplicated candidates with per-system vote indicators.
A binary logistic-regression selector, trained on candidates labeled
against gold edits, decides which candidates to keep; surviving edits are
conflict-resolved and re-applied to the source.  Scoring and training
share one logit formula in plain floats, so nothing here loads numpy.
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
    candidates.sort(key=lambda c: (c.edit.i, c.edit.category, c.edit.tgt_tokens))
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
        """The sigmoid of the logit of this feature row."""
        return _sigmoid(_logit(self.weights, self.bias, _feature_row(votes, category)))


def _logit(weights, bias: float, row) -> float:
    """``bias + row . weights``; ``ValueError`` if their lengths differ."""
    return bias + sum(x * w for x, w in zip(row, weights, strict=True))


def _sigmoid(z: float) -> float:
    return 0.5 * (1.0 + math.tanh(0.5 * z))


def loss_and_grad(weights, bias: float, X, y, l2: float = 0.0, counts=None):
    """Mean L2-regularized logistic loss and its analytic gradient.

    Row ``r`` of ``X`` stands for ``counts[r]`` examples (default one each),
    and the mean is over examples.  The bias is not regularized.  Returns
    (loss, grad_weights, grad_bias).
    """
    counts = [1.0] * len(y) if counts is None else counts
    total = sum(counts)
    loss, residuals = 0.0, []
    for row, label, count in zip(X, y, counts, strict=True):
        z = _logit(weights, bias, row)
        # log(1 + exp(-s*z)) with s = +-1, computed stably
        t = (1.0 - 2.0 * label) * z
        loss += count * (max(t, 0.0) + math.log1p(math.exp(-abs(t))))
        residuals.append(count * (_sigmoid(z) - label))
    loss = loss / total + sum(0.5 * l2 * w * w for w in weights)
    grad_w = [sum(x * r for x, r in zip(column, residuals)) / total + l2 * w
              for column, w in zip(zip(*X), weights)]
    return loss, grad_w, sum(residuals) / total


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
    ``ValueError`` if there are no candidates, if vote tuples differ in
    length, or if the loss or the parameters go non-finite (lr too large).
    """
    if not sum(counts.values()):
        raise ValueError("no candidates to train on")
    X = [_feature_row(votes, cat) for votes, cat, _ in counts]
    y = [label for _, _, label in counts]
    w, b = [0.0] * len(X[0]), 0.0
    for _ in range(epochs):
        loss, gw, gb = loss_and_grad(w, b, X, y, l2, counts.values())
        if not math.isfinite(loss):
            raise ValueError(_DIVERGED)
        w = [wk - lr * g for wk, g in zip(w, gw)]
        b -= lr * gb
    loss, _, _ = loss_and_grad(w, b, X, y, l2, counts.values())
    if not all(map(math.isfinite, (loss, b, *w))):
        raise ValueError(_DIVERGED)
    return LogRegModel(tuple(w), b,
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
