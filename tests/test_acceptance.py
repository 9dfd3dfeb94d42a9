"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import multiprocessing
import random
import time

import numpy as np
import pytest

from gecsyntax import edits as E
from gecsyntax import tree as T
from gecsyntax.attention import (
    AttentionParams, cross_attention, cross_attention_backward, dual_combine,
    init_attention,
)
from gecsyntax.cli import main as cli_main
from gecsyntax.ensemble import (
    gather, label_candidates, loss_and_grad, row_counts, select_edits,
)
from gecsyntax.ensemble import train as train_selector
from gecsyntax.ensemble import EditCandidate, feature_matrix
from gecsyntax.gcn import GcnLayerParams, encode_backward, fuse, gcn_encode, gcn_layer
from gecsyntax.graph import build_graph
from gecsyntax.projection import project, strip_pseudo
from gecsyntax.scoring import corpus_score, f_beta
from tests.helpers import (
    SRC_VOCAB, all_pairs_levenshtein, all_sequences, attention_scalar_oracle,
    build_ensemble_corpus, category_counts, gcn_dense_oracle, kink_free_gcn_instance,
    levenshtein_scalar, max_rel_err, miss, numeric_grad, our_cost_row, random_pair,
    random_script, random_tokens, random_tree, red, sub,
)


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num} failed: {detail}"


# --- criterion 1: alignment round trip and minimality --------------------

def test_criterion_1_alignment_round_trip_and_minimality():
    rng = random.Random(101)
    trips = 0
    for _ in range(1000):
        src, tgt = random_pair(rng, SRC_VOCAB, max_len=12)
        if E.apply_edits(src, E.align(src, tgt)) == tgt:
            trips += 1

    seqs = all_sequences()                      # every sequence of length <= 6
    oracle = all_pairs_levenshtein(seqs)        # vectorized independent DP
    # guard the oracle itself against a scalar textbook DP on a sample
    for _ in range(200):
        a = rng.randrange(len(seqs))
        b = rng.randrange(len(seqs))
        assert oracle[a, b] == levenshtein_scalar(seqs[a], seqs[b])

    try:
        with multiprocessing.get_context("fork").Pool(2) as pool:
            rows = pool.map(our_cost_row, seqs, chunksize=48)
    except OSError:
        rows = [our_cost_row(s) for s in seqs]
    ours = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(seqs), -1)
    mismatches = int(np.count_nonzero(ours != oracle))

    _report(1, trips == 1000 and mismatches == 0,
            f"{trips}/1000 round trips; {mismatches} cost mismatches over "
            f"{oracle.size} exhaustive pairs (len<=6, 3-symbol alphabet)")


# --- criteria 2 and 3: projection corpus ---------------------------------

@pytest.fixture(scope="module")
def projection_corpus():
    rng = random.Random(202)
    corpus = []
    for _ in range(1000):
        src = random_tokens(rng, rng.randint(1, 12), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB, force_empty_prob=0.08)
        tgt = E.apply_edits(src, script)
        if not tgt:
            script = E.EditScript()
            tgt = list(src)
        target_tree = random_tree(tgt, rng)
        result = project(T.bracket_tokens(T.serialize(target_tree)), script, src)
        corpus.append((src, script, target_tree, result))
    return corpus


def _pseudo_counts_in(root):
    counts = {"SUB": 0, "RED": 0, "MISS": 0}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, T.NonTerminal):
            if node.label in counts:
                counts[node.label] += 1
            stack.extend(node.children)
    return counts


def _node_counts(root):
    nts = terms = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, T.Terminal):
            terms += 1
        else:
            nts += 1
            stack.extend(node.children)
    return nts, terms


def test_criterion_2_projection_correctness(projection_corpus):
    good = 0
    for src, script, _, result in projection_corpus:
        projected = T.parse_bracketed(result.source_tree)
        ok = T.yield_tokens(projected) == src
        ok = ok and _pseudo_counts_in(projected) == category_counts(script)
        good += ok

    hand = [
        ("(S (NP (DT a) (NN dog)))", [sub(1, "cat", "dog")], ["a", "cat"],
         "(S (NP (DT a) (NN (SUB cat))))"),
        ("(S (NP (DT a) (NN cat)) (VP (VBD sat)))", [red(1, "the")],
         ["a", "the", "cat", "sat"],
         "(S (NP (DT a) (RED the) (NN cat)) (VP (VBD sat)))"),
        ("(S (NP (DT the) (NN cat)) (VP (VBD sat)))", [miss(0, ["the"])],
         ["cat", "sat"],
         "(S (NP (NN (MISS cat))) (VP (VBD sat)))"),
    ]
    hand_ok = all(
        project(T.bracket_tokens(text), E.make_script(edits), src).source_tree
        == expected
        for text, edits, src, expected in hand)

    _report(2, good == len(projection_corpus) and hand_ok,
            f"{good}/{len(projection_corpus)} randomized projections kept the "
            f"source yield and pseudo multiset; hand examples "
            f"{'matched' if hand_ok else 'diverged'}")


def test_criterion_3_ablation_hooks(projection_corpus):
    strip_exact = identity_ok = empty_seen = 0
    for src, script, target_tree, result in projection_corpus:
        projected = T.parse_bracketed(result.source_tree)
        stripped = T.parse_bracketed(strip_pseudo(T.bracket_tokens(result.source_tree)))
        red_words = {e.i for e in script if e.category == E.RED}
        counts = _pseudo_counts_in(projected)
        nts_p, terms_p = _node_counts(projected)
        nts_s, terms_s = _node_counts(stripped)
        ok = T.yield_tokens(stripped) == [w for i, w in enumerate(src)
                                          if i not in red_words]
        ok = ok and nts_s == nts_p - sum(counts.values())
        ok = ok and terms_s == terms_p - counts["RED"]
        ok = ok and _pseudo_counts_in(stripped) == {"SUB": 0, "RED": 0, "MISS": 0}
        strip_exact += ok
        if not script:
            empty_seen += 1
            identity_ok += projected == target_tree

    _report(3, strip_exact == len(projection_corpus)
            and empty_seen > 0 and identity_ok == empty_seen,
            f"strip removed exactly the inserted nodes on "
            f"{strip_exact}/{len(projection_corpus)} trees; "
            f"{identity_ok}/{empty_seen} error-free pairs projected unchanged")


# --- criterion 4: GCN oracle equivalence and gradients --------------------

def test_criterion_4_gcn_oracle_and_gradients():
    rng = random.Random(404)
    np_rng = np.random.default_rng(404)
    worst_abs = 0.0
    for _ in range(100):
        while True:
            tokens = random_tokens(rng, rng.randint(1, 4), SRC_VOCAB)
            g = build_graph(random_tree(tokens, rng, unary_prob=0.05))
            if g.num_nodes <= 10:
                break
        d = 6
        H = np_rng.standard_normal((g.num_nodes, d))
        params = GcnLayerParams(np_rng.standard_normal((d, d)),
                                np_rng.standard_normal(d))
        got = gcn_layer(g, H, params)
        want = gcn_dense_oracle(g, H, params.W, params.b)
        worst_abs = max(worst_abs, float(np.max(np.abs(got - want))))

    worst_rel = 0.0
    for seed in range(20):
        g, stack, inits = kink_free_gcn_instance(500 + seed)
        grads = encode_backward(g, inits, stack)

        def loss():
            return float(gcn_encode(g, inits, stack).sum())

        for l, params in enumerate(stack.layers):
            worst_rel = max(worst_rel,
                            max_rel_err(grads.dW[l], numeric_grad(loss, params.W)),
                            max_rel_err(grads.db[l], numeric_grad(loss, params.b)))
        worst_rel = max(worst_rel,
                        max_rel_err(grads.dE_nt, numeric_grad(loss, stack.E_nt)),
                        max_rel_err(grads.d_terminal_inits,
                                    numeric_grad(loss, inits)))

    _report(4, worst_abs < 1e-6 and worst_rel < 1e-4,
            f"dense-oracle max abs diff {worst_abs:.2e} over 100 graphs; "
            f"gradient max rel err {worst_rel:.2e} over 20 instances")


# --- criterion 5: fusion ---------------------------------------------------

def test_criterion_5_fusion():
    rng = np.random.default_rng(505)
    h_syn = rng.standard_normal((8, 16))
    h_basic = rng.standard_normal((8, 16))
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 0.7, 1.0):
        fused = fuse(h_syn, h_basic, lam)
        for i in range(8):
            for j in range(16):
                expected = lam * h_syn[i, j] + (1.0 - lam) * h_basic[i, j]
                worst = max(worst, abs(fused[i, j] - expected))
    boundary = (np.array_equal(fuse(h_syn, h_basic, 1.0), h_syn)
                and np.array_equal(fuse(h_syn, h_basic, 0.0), h_basic))
    _report(5, worst < 1e-12 and boundary,
            f"elementwise oracle max diff {worst:.2e}; boundary identities "
            f"{'hold' if boundary else 'broken'}")


# --- criterion 6: dual attention -------------------------------------------

def test_criterion_6_dual_attention():
    rng = np.random.default_rng(606)
    d = 4
    Q = rng.standard_normal((3, d))
    M_c = rng.standard_normal((3, d))
    M_d = rng.standard_normal((3, d))
    params = init_attention(d, seed=606)

    _, weights = cross_attention(Q, M_c, params, return_weights=True)
    rows_ok = bool(np.all(weights >= 0)
                   and np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9)

    doubled = dual_combine(Q, M_c, M_c, "independent",
                           params_const=params, params_dep=params)
    dup_ok = np.allclose(doubled, 2.0 * cross_attention(Q, M_c, params))

    independent = dual_combine(Q, M_c, M_d, "independent",
                               params_const=params, params_dep=params)
    sharing = dual_combine(Q, M_c, M_d, "sharing", params_shared=params)
    modes_differ = not np.allclose(independent, sharing)

    oracle_diff = float(np.max(np.abs(
        cross_attention(Q, M_c, params)
        - attention_scalar_oracle(Q, M_c, params.Wq, params.Wk, params.Wv))))

    worst_rel = 0.0
    for seed in range(5):
        g_rng = np.random.default_rng(700 + seed)
        Qg = g_rng.standard_normal((3, d))
        Mg = g_rng.standard_normal((4, d))
        pg = AttentionParams(*(g_rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
        grads = cross_attention_backward(Qg, Mg, pg)

        def loss():
            return float(cross_attention(Qg, Mg, pg).sum())

        worst_rel = max(worst_rel,
                        max_rel_err(grads.Wq, numeric_grad(loss, pg.Wq)),
                        max_rel_err(grads.Wk, numeric_grad(loss, pg.Wk)),
                        max_rel_err(grads.Wv, numeric_grad(loss, pg.Wv)))

    _report(6, rows_ok and dup_ok and modes_differ and oracle_diff < 1e-10
            and worst_rel < 1e-4,
            f"rows stochastic: {rows_ok}; duplication identity: {dup_ok}; "
            f"modes differ: {modes_differ}; scalar oracle diff "
            f"{oracle_diff:.2e}; gradient max rel err {worst_rel:.2e}")


# --- criterion 7: ensemble precision gain ----------------------------------

def test_criterion_7_ensemble_precision_gain():
    sources, golds, hyps = build_ensemble_corpus(seed=707, n_sentences=220)
    per_sentence = []
    cands_all, labels_all = [], []
    for i, src in enumerate(sources):
        gold_script = E.align(src, golds[i])
        cands = gather(src, [h[i] for h in hyps])
        labels = label_candidates(cands, gold_script)
        cands_all.extend(cands)
        labels_all.extend(labels)
        per_sentence.append((cands, gold_script))
    model = train_selector(row_counts(zip(cands_all, labels_all)))

    union_scores = corpus_score(
        (E.EditScript(tuple(c.edit for c in cands)), gold)
        for cands, gold in per_sentence)
    sel_scores = corpus_score(
        (E.EditScript(tuple(c.edit for c in select_edits(cands, model))), gold)
        for cands, gold in per_sentence)
    gain_ok = (sel_scores.precision > union_scores.precision
               and sel_scores.f05 >= union_scores.f05)

    fd_rng = np.random.default_rng(708)
    X = fd_rng.standard_normal((5, 7))
    y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    w = fd_rng.standard_normal(7)
    _, grad_w, grad_b = loss_and_grad(w, 0.1, X, y, 0.01)
    num_w = numeric_grad(lambda: loss_and_grad(w, 0.1, X, y, 0.01)[0], w)
    barr = np.array([0.1])
    num_b = numeric_grad(
        lambda: loss_and_grad(w, float(barr[0]), X, y, 0.01)[0], barr)[0]
    fd_ok = (float(np.max(np.abs(grad_w - num_w))) < 1e-6
             and abs(grad_b - num_b) < 1e-6)

    k = 4
    toy, toy_labels = [], []
    for i in range(32):
        positive = i % 2 == 0
        votes = (1,) * k if positive else tuple(
            1 if j == i % k else 0 for j in range(k))
        toy.append(EditCandidate(sub(i, "a", "b"), votes))
        toy_labels.append(1.0 if positive else 0.0)
    toy_model = train_selector(row_counts(zip(toy, toy_labels)), lr=0.5, epochs=500,
                               l2=0.0)
    probs = toy_model.predict_proba(feature_matrix(toy))
    sep_ok = bool(np.all((probs >= 0.5) == np.asarray(toy_labels, bool)))

    _report(7, gain_ok and fd_ok and sep_ok,
            f"selector P {sel_scores.precision:.3f} vs union P "
            f"{union_scores.precision:.3f}, F0.5 {sel_scores.f05:.3f} vs "
            f"{union_scores.f05:.3f}; gradient FD ok: {fd_ok}; separable toy "
            f"100% accuracy: {sep_ok}")


# --- criterion 8: scoring ---------------------------------------------------

def test_criterion_8_scoring():
    value_ok = abs(f_beta(0.75, 0.5, 0.5) - 0.681818) < 1e-6

    blocks = [
        (["a", "cat"], E.align(["a", "cat"], ["a", "dog"])),
        (["the", "dog", "ran"], E.align(["the", "dog", "ran"], ["the", "dog"])),
    ]
    self_scores = corpus_score((script, script) for _, script in blocks)
    self_ok = (self_scores.precision == 1.0 and self_scores.recall == 1.0
               and self_scores.f05 == 1.0)

    e = sub(0, "a", "b")
    pair1 = (E.EditScript((e,)), E.EditScript((e,)))
    pair2 = (E.EditScript((red(1, "x"),)), E.EditScript((miss(0, ["y"]),)))
    agg = corpus_score([pair1, pair2])
    agg_ok = ((agg.tp, agg.fp, agg.fn) == (1, 1, 1)
              and agg.precision == 0.5 and agg.recall == 0.5
              and abs(agg.f05 - 0.5) < 1e-12)

    _report(8, value_ok and self_ok and agg_ok,
            f"f_beta(0.75, 0.5) = {f_beta(0.75, 0.5, 0.5):.6f}; self-score "
            f"perfect: {self_ok}; micro-aggregation (tp,fp,fn)=({agg.tp},"
            f"{agg.fp},{agg.fn}) P=R=F0.5=0.5: {agg_ok}")


# --- criterion 9: throughput -------------------------------------------------

def test_criterion_9_projection_throughput(tmp_path):
    rng = random.Random(909)
    parallel = tmp_path / "pairs.tsv"
    trees = tmp_path / "targets.trees"
    n_pairs = 10_000
    with open(parallel, "w", encoding="utf-8") as ptsv, \
            open(trees, "w", encoding="utf-8") as tfh:
        for _ in range(n_pairs):
            src = random_tokens(rng, rng.randint(10, 20), SRC_VOCAB)
            script = random_script(src, rng, SRC_VOCAB,
                                   sub_prob=0.08, red_prob=0.05, miss_prob=0.04)
            tgt = E.apply_edits(src, script)
            ptsv.write(" ".join(src) + "\t" + " ".join(tgt) + "\n")
            tfh.write(T.serialize(random_tree(tgt, rng, unary_prob=0.05)) + "\n")

    out = tmp_path / "projected.trees"
    summary = tmp_path / "summary.json"
    start = time.perf_counter()
    rc = cli_main(["project", str(parallel), str(trees),
                   "-o", str(out), "--summary", str(summary)])
    elapsed = time.perf_counter() - start
    produced = sum(1 for _ in open(out, encoding="utf-8"))

    _report(9, rc == 0 and elapsed < 10.0 and produced == n_pairs,
            f"projected {produced}/{n_pairs} pairs in {elapsed:.2f}s "
            f"(limit 10s, single-threaded)")
