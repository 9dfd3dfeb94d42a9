import contextlib
import dataclasses
import io
import random

import numpy as np
import pytest

from gecsyntax import tree as T
from gecsyntax.gcn import (
    GcnLayerParams, GcnStack, encode_backward, fuse, gcn_encode, gcn_layer, init_stack,
)
from gecsyntax.checks import edge_encode_reference, gcn_gradient_check
from gecsyntax.cli import main
from gecsyntax.graph import SyntaxGraph, build_graph, build_graph_dep

from tests.helpers import (
    SRC_VOCAB, gcn_dense_oracle, gcn_preactivations, kink_free_gcn_instance,
    max_rel_err, neighbour_lists, numeric_grad, random_tokens, random_tree,
)


def small_graph():
    return build_graph(T.parse_bracketed("(S (NP (DT a) (NN cat)))"))


def test_zero_parameters_give_zero_output():
    g = small_graph()
    params = GcnLayerParams(np.zeros((3, 3)), np.zeros(3))
    H = np.random.default_rng(0).standard_normal((g.num_nodes, 3))
    assert np.array_equal(gcn_layer(g, H, params), np.zeros((g.num_nodes, 3)))


def test_two_connected_nodes_swap():
    g = SyntaxGraph(2, [], [-1, 0])
    params = GcnLayerParams(np.array([[1.0]]), np.array([0.0]))
    H = np.array([[3.0], [-2.0]])
    out = gcn_layer(g, H, params)
    assert out.tolist() == [[0.0], [3.0]]  # ReLU of the neighbour's value


def test_layer_matches_dense_oracle_on_random_graphs():
    rng = random.Random(5)
    np_rng = np.random.default_rng(5)
    for _ in range(60):
        tokens = random_tokens(rng, rng.randint(1, 4), SRC_VOCAB)
        g = build_graph(random_tree(tokens, rng))
        d = 7
        H = np_rng.standard_normal((g.num_nodes, d))
        params = GcnLayerParams(np_rng.standard_normal((d, d)),
                                np_rng.standard_normal(d))
        got = gcn_layer(g, H, params)
        want = gcn_dense_oracle(g, H, params.W, params.b)
        assert np.max(np.abs(got - want)) < 1e-6


def test_edge_reference_matches_dense_oracle():
    rng = random.Random(13)
    np_rng = np.random.default_rng(13)
    graphs = [build_graph_dep([0])]  # one node, no edges
    for _ in range(30):
        tokens = random_tokens(rng, rng.randint(1, 6), SRC_VOCAB)
        graphs.append(build_graph(random_tree(tokens, rng)))
    d = 5
    for g in graphs:
        labels = sorted(set(g.nt_labels))
        inits = np_rng.standard_normal((g.num_terminals, d))
        stack = init_stack(labels, d=d, num_layers=2, seed=rng.randrange(1000))
        want = np.vstack([inits, stack.E_nt[[labels.index(l) for l in g.nt_labels]]])
        for params in stack.layers:
            want = gcn_dense_oracle(g, want, params.W, params.b)
        got = edge_encode_reference(g, inits, stack)
        assert np.max(np.abs(got - want)) < 1e-9


def test_layer_rejects_bad_width():
    g = small_graph()
    params = GcnLayerParams(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        gcn_layer(g, np.zeros((g.num_nodes, 4)), params)


def test_zero_layer_stack_returns_initial_matrix():
    g = small_graph()
    stack = init_stack(g.nt_labels, d=5, num_layers=0, seed=1)
    inits = np.random.default_rng(1).standard_normal((g.num_terminals, 5))
    out = gcn_encode(g, inits, stack)
    assert np.allclose(out[:2], inits)
    for k, lab in enumerate(g.nt_labels):
        assert np.allclose(out[2 + k], stack.E_nt[stack.labels.index(lab)])


def test_zero_inits_single_layer_is_relu_bias():
    g = small_graph()
    d = 4
    rng = np.random.default_rng(2)
    layer = GcnLayerParams(rng.standard_normal((d, d)), rng.standard_normal(d))
    stack = GcnStack([layer], sorted(set(g.nt_labels)),
                     np.zeros((len(set(g.nt_labels)), d)))
    out = gcn_encode(g, np.zeros((g.num_terminals, d)), stack)
    expected = np.tile(np.maximum(layer.b, 0.0), (g.num_nodes, 1))
    assert np.allclose(out, expected)


def test_encode_equals_sequential_layers():
    g = small_graph()
    stack = init_stack(g.nt_labels, d=6, num_layers=3, seed=3)
    inits = np.random.default_rng(3).standard_normal((g.num_terminals, 6))
    out = gcn_encode(g, inits, stack)
    H = np.vstack([inits, stack.E_nt[[stack.labels.index(l) for l in g.nt_labels]]])
    for params in stack.layers:
        H = gcn_layer(g, H, params)
    assert np.allclose(out, H)


def test_permutation_equivariance():
    rng = random.Random(9)
    np_rng = np.random.default_rng(9)
    tokens = random_tokens(rng, 4, SRC_VOCAB)
    g = build_graph(random_tree(tokens, rng))
    d = 5
    H = np_rng.standard_normal((g.num_nodes, d))
    params = GcnLayerParams(np_rng.standard_normal((d, d)), np_rng.standard_normal(d))
    perm = list(range(g.num_nodes))
    rng.shuffle(perm)
    inverse = [0] * len(perm)
    for new, old in enumerate(perm):
        inverse[old] = new
    permuted = SyntaxGraph(
        g.num_nodes, [],
        [-1 if g.parent[old] < 0 else inverse[g.parent[old]] for old in perm])
    lists, permuted_lists = neighbour_lists(g.parent), neighbour_lists(permuted.parent)
    for v, old in enumerate(perm):
        assert sorted(permuted_lists[v]) == sorted(inverse[u] for u in lists[old])
    out = gcn_layer(g, H, params)
    out_perm = gcn_layer(permuted, H[perm], params)
    assert np.allclose(out_perm, out[perm])


def test_missing_label_row_is_an_error():
    g = small_graph()
    stack = init_stack(["S", "NP"], d=4, num_layers=1)
    for run in (gcn_encode, encode_backward):
        with pytest.raises(ValueError, match="^no embedding row for label 'DT'$"):
            run(g, np.zeros((g.num_terminals, 4)), stack)


def test_terminal_inits_shape_checked():
    g = small_graph()
    stack = init_stack(g.nt_labels, d=4, num_layers=1)
    with pytest.raises(ValueError):
        gcn_encode(g, np.zeros((g.num_terminals + 1, 4)), stack)


def test_terminal_inits_may_be_a_nested_list():
    g = small_graph()
    stack = init_stack(g.nt_labels, d=4, num_layers=2, seed=3)
    x = np.random.default_rng(3).uniform(-0.5, 0.5, (g.num_terminals, 4))
    assert np.array_equal(gcn_encode(g, x.tolist(), stack), gcn_encode(g, x, stack))
    grads = [encode_backward(g, inits, stack) for inits in (x.tolist(), x)]
    by_list, by_array = ([*gr.dW, *gr.db, gr.dE_nt, gr.d_terminal_inits] for gr in grads)
    assert len(by_list) == 6 and all(map(np.array_equal, by_list, by_array))
    bad = np.zeros((g.num_terminals + 1, 4))
    for run in (gcn_encode, encode_backward):
        for inits in (bad, bad.tolist()):
            with pytest.raises(ValueError, match=r"^terminal inits shape \(3, 4\) "
                                                 r"does not match \(2, 4\)$"):
                run(g, inits, stack)


@pytest.mark.parametrize("change,message", [
    (lambda d: {"layers": [GcnLayerParams(np.zeros((d, d + 1)), np.zeros(d))]},
     r"layer shapes \(4, 5\)/\(4,\) do not match width 4"),
    (lambda d: {"layers": [GcnLayerParams(np.zeros((d, d)), np.zeros(d + 1))]},
     r"layer shapes \(4, 4\)/\(5,\) do not match width 4"),
    (lambda d: {"layers": [GcnLayerParams(np.zeros((d, d)), np.full(d, np.inf))]},
     "non-finite layer parameters"),
    (lambda d: {"layers": [GcnLayerParams(np.full((d, d), np.nan), np.zeros(d))]},
     "non-finite layer parameters"),
    (lambda d: {"E_nt": np.zeros((3, d))},
     "embedding table shape does not match labels/width"),
], ids=["W-shape", "b-shape", "inf-b", "nan-W", "embedding-rows"])
def test_stack_rejects_bad_parameters(change, message):
    # replace() rebuilds the stack through its constructor, the checks included.
    stack = init_stack(["S", "NP"], d=4, num_layers=1, seed=0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(stack, **change(4))


def test_encode_backward_checks_the_d_out_shape():
    g = small_graph()
    stack = init_stack(g.nt_labels, d=3, num_layers=1, seed=0)
    with pytest.raises(ValueError, match="^d_out shape does not match encoder output$"):
        encode_backward(g, np.ones((g.num_terminals, 3)), stack,
                        d_out=np.ones((g.num_nodes, 4)))


def test_init_stack_draw_order():
    labels, d, layers, seed = ["S", "NP", "VP"], 5, 3, 11
    stack = init_stack(labels, d, layers, seed)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(3.0 / d)
    for params in stack.layers:
        assert np.array_equal(params.W, rng.uniform(-scale, scale, (d, d)))
        assert np.array_equal(params.b, rng.uniform(-scale, scale, d))
    assert np.array_equal(stack.E_nt, rng.uniform(-0.1, 0.1, (len(labels), d)))
    assert stack.labels == labels and len(stack.layers) == layers and stack.d == d


def test_gradients_match_finite_differences():
    for seed in range(6):
        g, stack, inits = kink_free_gcn_instance(seed)
        grads = encode_backward(g, inits, stack)

        def loss():
            return float(gcn_encode(g, inits, stack).sum())

        for l, params in enumerate(stack.layers):
            assert max_rel_err(grads.dW[l], numeric_grad(loss, params.W)) < 1e-4
            assert max_rel_err(grads.db[l], numeric_grad(loss, params.b)) < 1e-4
        assert max_rel_err(grads.dE_nt, numeric_grad(loss, stack.E_nt)) < 1e-4
        assert max_rel_err(grads.d_terminal_inits, numeric_grad(loss, inits)) < 1e-4


def test_gradient_check_holds_next_to_a_kink():
    g, stack, inits = kink_free_gcn_instance(17, d=3)
    # Move one layer-1 pre-activation to 1e-7 through the bias, so the
    # bias probe of its column (h = 1e-5) flips that ReLU both ways.
    pres = gcn_preactivations(g, inits, stack)
    v, c = np.unravel_index(np.argmax(pres[0]), pres[0].shape)
    stack.layers[0].b[c] -= pres[0][v, c] - 1e-7
    assert min(np.min(np.abs(p)) for p in gcn_preactivations(g, inits, stack)) < 1e-6
    every = max(arr.size for arr in (stack.E_nt, inits, *(p.W for p in stack.layers)))
    worst = gcn_gradient_check(g, inits, stack, np.random.default_rng(0),
                               samples_per_tensor=every)
    assert worst <= 1e-4


def test_gcn_check_defaults_pass_on_random_trees(tmp_path):
    rng = random.Random(41)
    trees = tmp_path / "t.trees"
    trees.write_text("".join(
        T.serialize(random_tree(random_tokens(rng, rng.randint(10, 20), SRC_VOCAB),
                                rng)) + "\n"
        for _ in range(5)), encoding="utf-8")
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gcn-check", str(trees)]) == 0
        outputs.append(out.getvalue())
    assert outputs[0].count(" ok\n") == 5
    assert outputs[0] == outputs[1]


def test_fuse_basics():
    assert fuse(np.array([2.0]), np.array([0.0]), 0.5).tolist() == [1.0]
    h_syn = np.array([[1.0, 2.0]])
    h_basic = np.array([[3.0, 4.0]])
    assert np.array_equal(fuse(h_syn, h_basic, 1.0), h_syn)
    assert np.array_equal(fuse(h_syn, h_basic, 0.0), h_basic)


def test_fuse_matches_scalar_loop():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 7))
    b = rng.standard_normal((6, 7))
    lam = 0.3
    got = fuse(a, b, lam)
    for i in range(6):
        for j in range(7):
            assert abs(got[i, j] - (lam * a[i, j] + (1 - lam) * b[i, j])) < 1e-12


def test_fuse_is_affine_in_both_arguments():
    rng = np.random.default_rng(22)
    a, b, c, d = (rng.standard_normal((3, 4)) for _ in range(4))
    lam = 0.42
    assert np.allclose(fuse(a, b, lam) + fuse(c, d, lam), fuse(a + c, b + d, lam))


def test_fuse_validates_inputs():
    with pytest.raises(ValueError):
        fuse(np.zeros((2, 2)), np.zeros((2, 3)), 0.5)
    with pytest.raises(ValueError):
        fuse(np.zeros(2), np.zeros(2), 1.5)
