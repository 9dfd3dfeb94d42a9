import json
import random

import pytest

from gecsyntax import edits as E
from gecsyntax.scoring import Scores, corpus_score, f_beta, match_edits

from tests.helpers import miss, red, sub


def test_match_identical_single_edit():
    script = E.make_script([sub(1, "cat", "dog")])
    assert match_edits(script, script) == (1, 0, 0)


def test_match_empty_hypothesis():
    gold = E.make_script([sub(0, "a", "b"), red(2, "x")])
    assert match_edits(E.EditScript(), gold) == (0, 0, 2)


def test_match_partial_overlap():
    shared = [sub(0, "a", "b"), red(2, "x"), miss(4, ["w"])]
    hyp = E.make_script(shared + [sub(6, "p", "q")])
    gold = E.make_script(shared + [red(6, "p")])
    assert match_edits(hyp, gold) == (3, 1, 1)


def test_f_beta_values():
    assert f_beta(1.0, 1.0) == 1.0
    assert f_beta(0.0, 0.7) == 0.0
    assert f_beta(0.3, 0.0) == 0.0
    assert abs(f_beta(0.75, 0.5) - 0.681818) < 1e-6
    assert f_beta(0.5, 0.5, beta=1.0) == pytest.approx(0.5)


def test_f_beta_between_min_and_max():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.uniform(0.01, 1.0)
        r = rng.uniform(0.01, 1.0)
        f = f_beta(p, r)
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


def test_added_true_positive_never_hurts():
    for tp, fp, fn in [(0, 3, 2), (1, 1, 1), (5, 0, 2), (2, 4, 0)]:
        before = Scores(tp, fp, fn)
        after = Scores(tp + 1, fp, fn)
        assert after.precision >= before.precision
        assert after.recall >= before.recall
        assert after.f05 >= before.f05


def test_single_sentence_equals_corpus():
    hyp = E.make_script([sub(0, "a", "b")])
    gold = E.make_script([sub(0, "a", "b"), miss(2, ["x"])])
    scores = corpus_score([(hyp, gold)])
    assert (scores.tp, scores.fp, scores.fn) == match_edits(hyp, gold)


def test_corpus_micro_average_two_sentences():
    e = sub(0, "a", "b")
    s1 = (E.EditScript((e,)), E.EditScript((e,)))          # (1, 0, 0)
    hyp2 = E.EditScript((red(1, "x"),))
    gold2 = E.EditScript((miss(0, ["y"]),))
    s2 = (hyp2, gold2)                                     # (0, 1, 1)
    scores = corpus_score([s1, s2])
    assert (scores.tp, scores.fp, scores.fn) == (1, 1, 1)
    assert scores.precision == 0.5
    assert scores.recall == 0.5
    assert scores.f05 == pytest.approx(0.5)


def test_empty_corpus_scores_zero():
    scores = corpus_score([])
    assert (scores.precision, scores.recall, scores.f05) == (0.0, 0.0, 0.0)


def test_scores_serialization_and_summary():
    scores = Scores(3, 1, 1)
    data = json.loads(scores.to_json())
    assert data["tp"] == 3 and data["P"] == 0.75 and data["R"] == 0.75
    assert "F0.5" in scores.summary()
