"""Edit-level precision / recall / F0.5 scoring.

Hypothesis and gold edits over the same source are matched exactly on
(category, span, replacement); counts are summed over the corpus before
the ratios are computed (micro-average).  Zero denominators score 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .edits import EditScript


@dataclass
class Scores:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f05(self) -> float:
        return f_beta(self.precision, self.recall, beta=0.5)

    def to_json(self) -> str:
        return json.dumps({
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "P": self.precision, "R": self.recall, "F05": self.f05,
        })

    def summary(self) -> str:
        return (f"TP {self.tp}  FP {self.fp}  FN {self.fn}  "
                f"P {self.precision:.4f}  R {self.recall:.4f}  "
                f"F0.5 {self.f05:.4f}")


def match_edits(hyp: EditScript, gold: EditScript) -> tuple[int, int, int]:
    """Exact-match (tp, fp, fn) between two scripts over one source."""
    hyp_keys = {e.identity() for e in hyp}
    gold_keys = {e.identity() for e in gold}
    tp = len(hyp_keys & gold_keys)
    return tp, len(hyp_keys) - tp, len(gold_keys) - tp


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted F-measure; beta < 1 emphasizes precision."""
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


def corpus_score(pairs: Iterable[tuple[EditScript, EditScript]]) -> Scores:
    """Micro-averaged scores over per-sentence (hypothesis, gold) pairs."""
    tp = fp = fn = 0
    for hyp, gold in pairs:
        a, b, c = match_edits(hyp, gold)
        tp += a
        fp += b
        fn += c
    return Scores(tp, fp, fn)
