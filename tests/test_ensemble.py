import json
import math
import random
import time
import warnings

import numpy as np
import pytest

from gecsyntax import edits as E
from gecsyntax import ensemble
from gecsyntax.ensemble import (
    EditCandidate, LogRegModel, feature_matrix, feature_names, gather,
    label_candidates, loss_and_grad, model_from_dict, model_to_dict, row_counts,
    select_and_apply, select_edits, train,
)
from gecsyntax.scoring import corpus_score

from tests.helpers import (
    build_ensemble_corpus, miss, numeric_grad, red, select_edits_oracle,
    selector_gd_oracle, sub,
)


def test_gather_no_edits_when_all_hypotheses_match_source():
    src = ["a", "cat"]
    assert gather(src, [src, list(src)]) == []


def test_gather_deduplicates_shared_edit():
    src = ["a", "cat", "sat"]
    hyp = ["a", "dog", "sat"]
    cands = gather(src, [hyp, list(hyp)])
    assert len(cands) == 1
    assert cands[0].votes == (1, 1)
    assert cands[0].edit == sub(1, "cat", "dog")


def test_gather_matches_per_system_alignments():
    src = ["a", "cat", "sat", "on", "mat"]
    hyps = [
        ["a", "dog", "sat", "on", "mat"],   # SUB at 1
        ["a", "cat", "sat", "mat"],         # RED at 3
        ["a", "dog", "sat", "on", "mat"],   # SUB at 1 again
    ]
    cands = gather(src, hyps)
    by_key = {c.edit.identity(): c.votes for c in cands}
    expected = {}
    for idx, hyp in enumerate(hyps):
        for edit in E.align(src, hyp):
            votes = expected.setdefault(edit.identity(), [0, 0, 0])
            votes[idx] = 1
    assert by_key == {k: tuple(v) for k, v in expected.items()}
    assert [c.edit.i for c in cands] == sorted(c.edit.i for c in cands)


def test_gather_requires_a_hypothesis():
    with pytest.raises(ValueError):
        gather(["a"], [])


def test_feature_vector_layout():
    cand = EditCandidate(red(2, "x"), (1, 0, 1))
    feats = feature_matrix([cand, EditCandidate(miss(0, ["y"]), (0, 0, 1))])
    assert feats.tolist() == [[1, 0, 1, 2 / 3, 0, 1, 0], [0, 0, 1, 1 / 3, 0, 0, 1]]
    assert feature_names(3) == [
        "system_0", "system_1", "system_2",
        "vote_fraction", "is_sub", "is_red", "is_miss",
    ]


def test_zero_model_predicts_half():
    model = LogRegModel(np.zeros(7), 0.0)
    cand = EditCandidate(sub(0, "a", "b"), (1, 0, 0))
    assert model.predict_proba(feature_matrix([cand])) == pytest.approx([0.5])


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 6))
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    w = rng.standard_normal(6)
    b = 0.3
    for l2 in (0.0, 0.01):
        _, grad_w, grad_b = loss_and_grad(w, b, X, y, l2)
        num_w = numeric_grad(lambda: loss_and_grad(w, b, X, y, l2)[0], w)
        assert np.max(np.abs(grad_w - num_w)) < 1e-6
        barr = np.array([b])

        def loss_of_b():
            return loss_and_grad(w, float(barr[0]), X, y, l2)[0]

        assert abs(grad_b - numeric_grad(loss_of_b, barr)[0]) < 1e-6


def test_separable_toy_set_reaches_full_accuracy():
    k = 4
    cands, labels = [], []
    rng = random.Random(0)
    for i in range(40):
        positive = i % 2 == 0
        votes = (1,) * k if positive else tuple(
            1 if j == rng.randrange(k) else 0 for j in range(k))
        if not positive and sum(votes) == 0:
            votes = (1,) + (0,) * (k - 1)
        cat = rng.choice([sub(i, "a", "b"), red(i, "a"), miss(i, ["c"])])
        cands.append(EditCandidate(cat, votes))
        labels.append(1.0 if positive else 0.0)
    model = train(row_counts(zip(cands, labels)), lr=0.5, epochs=500, l2=0.0)
    probs = model.predict_proba(feature_matrix(cands))
    acc = np.mean((probs >= 0.5) == np.asarray(labels, bool))
    assert acc == 1.0
    assert model.final_loss is not None and model.final_loss < 0.5


def test_training_rejects_divergence_and_empty_input():
    with pytest.raises(ValueError):
        train(row_counts([]))
    # a huge step size against the L2 pull makes the updates alternate with
    # exploding magnitude until the loss overflows
    cands = [EditCandidate(sub(0, "a", "b"), (1, 0)),
             EditCandidate(red(1, "c"), (0, 1))]
    with pytest.raises(ValueError, match="diverged"):
        train(row_counts(zip(cands, [1.0, 0.0])), lr=1e12, l2=1.0, epochs=500)


def test_training_rejects_divergence_after_the_last_epoch():
    # One step from zero is taken with a finite loss; the L2 term of the
    # weights it reaches overflows, so only the final check catches it.
    cands = [EditCandidate(sub(0, "a", "b"), (1, 0)),
             EditCandidate(red(1, "c"), (0, 1))]
    with pytest.raises(ValueError, match="^training diverged"):
        train(row_counts(zip(cands, [1.0, 0.0])), lr=1e300, l2=1.0, epochs=1)


def test_training_on_counts_matches_training_on_candidates():
    sources, golds, hyps = build_ensemble_corpus(seed=3, n_sentences=30)
    labeled = []
    for i, src in enumerate(sources):
        sent = gather(src, [h[i] for h in hyps])
        labeled.extend(zip(sent, label_candidates(sent, E.align(src, golds[i]))))
    whole = row_counts(labeled)
    half = len(labeled) // 2
    # Counts merged in row order, as from consecutive batches.
    merged = row_counts(labeled[:half])
    merged.update(row_counts(labeled[half:]))
    assert list(merged.items()) == list(whole.items())
    assert (model_to_dict(train(merged, epochs=50))
            == model_to_dict(train(whole, epochs=50)))
    with pytest.raises(ValueError, match="no candidates"):
        train({})


def test_predict_proba_with_huge_weights_warns_nothing():
    # A finite model that training with --lr 1e308 can produce.
    model = LogRegModel(np.full(7, 1e308), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = model.predict_proba(np.ones((2, 7)))
    assert probs.tolist() == [1.0, 1.0]


def test_select_empty_candidates_leaves_source():
    model = LogRegModel(np.zeros(5), 0.0)
    assert select_and_apply(["a", "cat"], [], model) == ["a", "cat"]


def test_select_all_gold_reconstructs_target():
    src = ["a", "cat", "sat"]
    tgt = ["a", "dog", "sat", "down"]
    gold = E.align(src, tgt)
    cands = gather(src, [tgt])
    model = LogRegModel(np.ones(len(feature_names(1))), 5.0)  # keep all
    assert select_and_apply(src, cands, model) == tgt


def test_overlapping_candidates_resolved_by_score():
    # score depends only on which system voted: sigma(2.2) ~ 0.9, sigma(0.4) ~ 0.6
    weights = np.array([2.1972245773362196, 0.40546510810816444, 0.0, 0.0, 0.0, 0.0])
    model = LogRegModel(weights, 0.0, threshold=0.5)
    strong = EditCandidate(sub(1, "cat", "dog"), (1, 0))
    weak = EditCandidate(sub(1, "cat", "rat"), (0, 1))
    assert model.predict_proba(feature_matrix([strong, weak])) == pytest.approx(
        [0.9, 0.6])
    chosen = select_edits([weak, strong], model)
    assert [c.edit for c in chosen] == [strong.edit]
    assert select_and_apply(["a", "cat"], [weak, strong], model) == ["a", "dog"]


def test_conflict_tie_breaks_leftmost_then_category():
    model = LogRegModel(np.zeros(6), 10.0)  # every candidate scores ~1.0
    left = EditCandidate(red(0, "a"), (1, 0))
    right = EditCandidate(red(1, "b"), (0, 1))
    sub_cand = EditCandidate(sub(0, "a", "x"), (1, 1))
    chosen = select_edits([right, left, sub_cand], model)
    kept = [c.edit for c in chosen]
    assert sub(0, "a", "x") in kept and red(1, "b") in kept
    assert red(0, "a") not in kept  # same span as the SUB, SUB wins the tie


def test_threshold_monotonicity():
    rng = random.Random(3)
    src = [f"w{i}" for i in range(10)]
    hyps = []
    for _ in range(4):
        hyp = list(src)
        hyp[rng.randrange(10)] = "changed"
        if rng.random() < 0.5:
            del hyp[rng.randrange(len(hyp))]
        hyps.append(hyp)
    cands = gather(src, hyps)
    labels = [1.0 if sum(c.votes) / len(c.votes) > 0.3 else 0.0 for c in cands]
    model = train(row_counts(zip(cands, labels)), epochs=200)
    prev = None
    for thr in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        model.threshold = thr
        n = len(select_edits(cands, model))
        if prev is not None:
            assert n <= prev
        prev = n


def test_training_is_deterministic():
    sources, _, hyps = build_ensemble_corpus(seed=5, n_sentences=12)
    cands, labels = [], []
    for i, src in enumerate(sources):
        sent = gather(src, [h[i] for h in hyps])
        cands.extend(sent)
        labels.extend([1.0 if all(c.votes) else 0.0 for c in sent])
    m1 = train(row_counts(zip(cands, labels)), epochs=50)
    m2 = train(row_counts(zip(cands, labels)), epochs=50)
    assert json.dumps(model_to_dict(m1)) == json.dumps(model_to_dict(m2))


def test_model_json_round_trip():
    model = LogRegModel(np.array([0.5, -1.0]), 0.25, 0.6, feature_names(2)[:2])
    again = model_from_dict(model_to_dict(model))
    assert np.allclose(again.weights, model.weights)
    assert again.bias == model.bias
    assert again.threshold == model.threshold


def test_selector_beats_plain_union_precision():
    sources, golds, hyps = build_ensemble_corpus(seed=7, n_sentences=60)
    per_sentence = []
    cands_all, labels_all = [], []
    for i, src in enumerate(sources):
        gold_script = E.align(src, golds[i])
        cands = gather(src, [h[i] for h in hyps])
        labels = label_candidates(cands, gold_script)
        cands_all.extend(cands)
        labels_all.extend(labels)
        per_sentence.append((src, cands, gold_script))
    model = train(row_counts(zip(cands_all, labels_all)))

    union_pairs, selected_pairs = [], []
    for src, cands, gold_script in per_sentence:
        union = E.EditScript(tuple(c.edit for c in cands))
        kept = E.EditScript(tuple(c.edit for c in select_edits(cands, model)))
        union_pairs.append((union, gold_script))
        selected_pairs.append((kept, gold_script))
    union_scores = corpus_score(union_pairs)
    sel_scores = corpus_score(selected_pairs)
    assert sel_scores.precision > union_scores.precision
    assert sel_scores.f05 >= union_scores.f05


def test_sigmoid_stability_extreme_logits():
    model = LogRegModel(np.array([1000.0]), 0.0)
    assert model.predict_proba(np.array([[1.0]]))[0] == pytest.approx(1.0)
    assert model.predict_proba(np.array([[-1.0]]))[0] == pytest.approx(0.0)
    assert math.isfinite(loss_and_grad(np.array([1000.0]), 0.0,
                                       np.array([[1.0]]), np.array([0.0]))[0])


def _corpus_candidates(seed):
    """Per-sentence (candidates, labels) of a synthetic corpus."""
    sources, golds, hyps = build_ensemble_corpus(seed=seed)
    out = []
    for i, src in enumerate(sources):
        cands = gather(src, [h[i] for h in hyps])
        out.append((cands, label_candidates(cands, E.align(src, golds[i]))))
    return out


@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_grouped_training_matches_per_row_oracle(seed, l2):
    sentences = _corpus_candidates(seed)
    cands = [c for sent, _ in sentences for c in sent]
    labels = [y for _, sent in sentences for y in sent]
    model = train(row_counts(zip(cands, labels)), lr=0.5, epochs=500, l2=l2)
    w, b = selector_gd_oracle([(c.votes, c.edit.category) for c in cands],
                              labels, lr=0.5, epochs=500, l2=l2)
    np.testing.assert_allclose(model.weights, w, rtol=1e-9, atol=1e-12)
    assert model.bias == pytest.approx(b, rel=1e-9)


def _select_scoring_each_candidate(candidates, model):
    """Threshold and greedy conflict resolution, scoring one candidate at
    a time."""
    return select_edits_oracle(
        [(float(model.predict_proba(feature_matrix([c])[0])), c) for c in candidates],
        model.threshold)


@pytest.mark.parametrize("seed", [5, 7])
def test_select_edits_matches_per_candidate_scoring(seed):
    sentences = _corpus_candidates(seed)
    model = train(row_counts(pair for sent in sentences for pair in zip(*sent)))
    for threshold in (0.2, 0.5, 0.8):
        model.threshold = threshold
        for cands, _ in sentences:
            assert select_edits(cands, model) == _select_scoring_each_candidate(
                cands, model)


def _random_candidate(rng, n):
    """A candidate over ``n`` source tokens from two systems: a MISS, or a
    one-word SUB/RED, the shapes :func:`gather` gives."""
    category = rng.choice(E.CATEGORIES)
    if category == E.MISS:
        i = j = rng.randint(0, n)
    else:
        i = rng.randrange(n)
        j = i + 1
    tgt = () if category == E.RED else (rng.choice("xyz"),)
    return EditCandidate(E.Edit(category, i, j, ("s",) * (j - i), tgt),
                         (rng.randint(0, 1), rng.randint(0, 1)))


@pytest.mark.parametrize("seed", range(4))
def test_select_edits_matches_pairwise_oracle_on_tied_scores(seed):
    # Two systems and three categories give at most 12 distinct scores, so
    # most candidates tie and the tie-breaks decide.
    rng = random.Random(seed)
    model = LogRegModel(np.array([1.0, -1.0, 0.5, 0.5, 0.0, -0.5]), 0.0, threshold=0.4)
    for _ in range(300):
        n = rng.randint(1, 12)
        cands = [_random_candidate(rng, n) for _ in range(rng.randint(1, 25))]
        scores = model.predict_proba(feature_matrix(cands)).tolist()
        assert select_edits(cands, model) == select_edits_oracle(
            list(zip(scores, cands)), model.threshold)


def test_select_edits_scales_linearly():
    # 20,000 kept, mutually compatible candidates: a pairwise conflict check
    # makes 2e8 comparisons.
    cands = [EditCandidate(miss(i, ["x"]) if i % 3 == 0 else sub(i, "s", "x"), (1,))
             for i in range(20_000)]
    model = LogRegModel(np.zeros(len(feature_names(1))), 5.0)
    start = time.perf_counter()
    chosen = select_edits(cands, model)
    elapsed = time.perf_counter() - start
    assert len(chosen) == len(cands)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("seed", [5, 7])
def test_gather_aligns_each_distinct_hypothesis_once(seed, monkeypatch):
    calls = []

    def counting_align(src, hyp):
        calls.append(tuple(hyp))
        return E.align(src, hyp)

    monkeypatch.setattr(ensemble, "align", counting_align)
    sources, _, hyps = build_ensemble_corpus(seed=seed)
    for i, src in enumerate(sources):
        outputs = [h[i] for h in hyps]
        union = {}
        for sys_idx, hyp in enumerate(outputs):
            for edit in E.align(src, hyp):
                union.setdefault(edit.identity(), (edit, [0] * len(outputs)))
                union[edit.identity()][1][sys_idx] = 1
        expected = sorted(((edit, tuple(votes)) for edit, votes in union.values()),
                          key=lambda ev: (ev[0].i, ev[0].category,
                                          ev[0].tgt_tokens, ev[0].j))
        start = len(calls)
        assert [(c.edit, c.votes) for c in gather(src, outputs)] == expected
        assert sorted(calls[start:]) == sorted({tuple(h) for h in outputs})
    assert len(calls) < len(sources) * len(hyps)  # the gold systems agree
