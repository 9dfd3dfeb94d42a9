import numpy as np
import pytest

from gecsyntax import tree as T
from gecsyntax.attention import (
    AttentionParams, cross_attention, cross_attention_backward, dual_combine,
    init_attention,
)
from gecsyntax.gcn import encode_backward, fuse, gcn_encode, init_stack
from gecsyntax.graph import build_graph

from tests.helpers import attention_scalar_oracle, max_rel_err, numeric_grad


def test_single_key_memory_ignores_queries():
    d = 3
    params = init_attention(d, seed=0)
    M = np.random.default_rng(1).standard_normal((1, d))
    expected = M @ params.Wv
    for seed in range(3):
        Q = np.random.default_rng(seed + 10).standard_normal((4, d))
        out = cross_attention(Q, M, params)
        assert np.allclose(out, np.tile(expected, (4, 1)))


def test_identical_keys_give_uniform_weights():
    d = 4
    params = init_attention(d, seed=2)
    row = np.random.default_rng(3).standard_normal(d)
    M = np.tile(row, (5, 1))
    Q = np.random.default_rng(4).standard_normal((2, d))
    _, weights = cross_attention(Q, M, params, return_weights=True)
    assert np.allclose(weights, 1.0 / 5.0)


def test_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((2, 2))
    M = rng.standard_normal((3, 2))
    params = AttentionParams(*(rng.standard_normal((2, 2)) for _ in range(3)))
    got = cross_attention(Q, M, params)
    want = attention_scalar_oracle(Q, M, params.Wq, params.Wk, params.Wv)
    assert np.max(np.abs(got - want)) < 1e-10


def test_rows_are_stochastic():
    rng = np.random.default_rng(6)
    params = init_attention(5, seed=6)
    Q = rng.standard_normal((7, 5))
    M = rng.standard_normal((4, 5))
    _, weights = cross_attention(Q, M, params, return_weights=True)
    assert np.all(weights >= 0)
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9


def test_memory_row_permutation_invariance():
    rng = np.random.default_rng(7)
    params = init_attention(4, seed=7)
    Q = rng.standard_normal((3, 4))
    M = rng.standard_normal((5, 4))
    perm = rng.permutation(5)
    assert np.allclose(cross_attention(Q, M, params),
                       cross_attention(Q, M[perm], params))


def test_empty_memory_rejected():
    params = init_attention(2)
    with pytest.raises(ValueError):
        cross_attention(np.zeros((1, 2)), np.zeros((0, 2)), params)


def test_shape_mismatch_rejected():
    params = init_attention(3)
    with pytest.raises(ValueError):
        cross_attention(np.zeros((1, 2)), np.zeros((2, 3)), params)


def _params_with_nan_wq(d):
    params = init_attention(d)
    params.Wq[0, 0] = np.nan
    return params


def _params_with_non_square_wk(d):
    params = init_attention(d)
    params.Wk = np.zeros((d, d - 1))
    return params


@pytest.mark.parametrize("Q,M,params", [
    (np.ones((2, 3)), np.ones((4, 3)), _params_with_nan_wq(3)),
    (np.ones((2, 2)), np.ones((4, 3)), init_attention(3)),
    (np.ones((2, 3)), np.zeros((0, 3)), init_attention(3)),
    (np.ones((2, 3)), np.ones((4, 3)), _params_with_non_square_wk(3)),
], ids=["nan-Wq", "width-mismatch", "empty-memory", "non-square-Wk"])
def test_backward_rejects_what_forward_rejects(Q, M, params):
    with pytest.raises(ValueError) as forward:
        cross_attention(Q, M, params)
    with pytest.raises(ValueError) as backward:
        cross_attention_backward(Q, M, params)
    assert str(backward.value) == str(forward.value)


def test_backward_checks_the_d_out_shape():
    with pytest.raises(ValueError, match="^d_out shape does not match attention output$"):
        cross_attention_backward(np.ones((2, 3)), np.ones((4, 3)), init_attention(3),
                                 d_out=np.ones((4, 3)))


def test_dual_zero_value_memory_adds_nothing():
    d = 3
    rng = np.random.default_rng(8)
    Q = rng.standard_normal((2, d))
    M_c = rng.standard_normal((3, d))
    params_c = init_attention(d, seed=8)
    params_d = AttentionParams(params_c.Wq.copy(), params_c.Wk.copy(),
                               np.zeros((d, d)))
    M_d = np.zeros((2, d))
    out = dual_combine(Q, M_c, M_d, "independent",
                       params_const=params_c, params_dep=params_d)
    assert np.allclose(out, cross_attention(Q, M_c, params_c))


def test_dual_duplicated_branch_doubles_output():
    d = 4
    rng = np.random.default_rng(9)
    Q = rng.standard_normal((3, d))
    M = rng.standard_normal((4, d))
    params = init_attention(d, seed=9)
    out = dual_combine(Q, M, M, "independent",
                       params_const=params, params_dep=params)
    assert np.allclose(out, 2.0 * cross_attention(Q, M, params))


def test_independent_and_sharing_differ():
    d = 4
    rng = np.random.default_rng(10)
    Q = rng.standard_normal((3, d))
    M_c = rng.standard_normal((3, d))
    M_d = rng.standard_normal((3, d))
    params = init_attention(d, seed=10)
    independent = dual_combine(Q, M_c, M_d, "independent",
                               params_const=params, params_dep=params)
    sharing = dual_combine(Q, M_c, M_d, "sharing", params_shared=params)
    assert not np.allclose(independent, sharing)


def test_dual_combine_validates_arguments():
    Q = np.zeros((1, 2))
    M = np.zeros((1, 2))
    with pytest.raises(ValueError):
        dual_combine(Q, M, M, "averaging")
    with pytest.raises(ValueError):
        dual_combine(Q, M, M, "independent")
    with pytest.raises(ValueError):
        dual_combine(Q, M, M, "sharing")


def test_gradients_match_finite_differences():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d = 4
        Q = rng.standard_normal((3, d))
        M = rng.standard_normal((5, d))
        params = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
        grads = cross_attention_backward(Q, M, params)

        def loss():
            return float(cross_attention(Q, M, params).sum())

        assert max_rel_err(grads.Wq, numeric_grad(loss, params.Wq)) < 1e-4
        assert max_rel_err(grads.Wk, numeric_grad(loss, params.Wk)) < 1e-4
        assert max_rel_err(grads.Wv, numeric_grad(loss, params.Wv)) < 1e-4


def test_dual_mode_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    d = 3
    Q = rng.standard_normal((2, d))
    M_c = rng.standard_normal((3, d))
    M_d = rng.standard_normal((2, d))
    params_c = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
    params_d = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))

    def loss_independent():
        return float(dual_combine(Q, M_c, M_d, "independent",
                                  params_const=params_c,
                                  params_dep=params_d).sum())

    gc = cross_attention_backward(Q, M_c, params_c)
    gd = cross_attention_backward(Q, M_d, params_d)
    assert max_rel_err(gc.Wq, numeric_grad(loss_independent, params_c.Wq)) < 1e-4
    assert max_rel_err(gd.Wv, numeric_grad(loss_independent, params_d.Wv)) < 1e-4

    shared = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))

    def loss_sharing():
        return float(dual_combine(Q, M_c, M_d, "sharing",
                                  params_shared=shared).sum())

    gs = cross_attention_backward(Q, np.vstack([M_c, M_d]), shared)
    assert max_rel_err(gs.Wk, numeric_grad(loss_sharing, shared.Wk)) < 1e-4


KERNEL_CALLS = {
    "gcn_encode": lambda a: gcn_encode(a["graph"], a["x"], a["stack"]),
    "encode_backward": lambda a: encode_backward(a["graph"], a["x"], a["stack"]),
    "encode_backward-d_out": lambda a: encode_backward(a["graph"], a["x"], a["stack"],
                                                       d_out=a["d_nodes"]),
    "cross_attention": lambda a: cross_attention(a["x"], a["mem_c"], a["att_c"]),
    "cross_attention-weights": lambda a: cross_attention(a["x"], a["mem_c"], a["att_c"],
                                                         return_weights=True),
    "cross_attention_backward": lambda a: cross_attention_backward(
        a["x"], a["mem_c"], a["att_c"]),
    "cross_attention_backward-d_out": lambda a: cross_attention_backward(
        a["x"], a["mem_c"], a["att_c"], d_out=a["d_tokens"]),
    "dual_combine-independent": lambda a: dual_combine(
        a["x"], a["mem_c"], a["mem_d"], "independent",
        params_const=a["att_c"], params_dep=a["att_d"]),
    "dual_combine-sharing": lambda a: dual_combine(
        a["x"], a["mem_c"], a["mem_d"], "sharing", params_shared=a["att_c"]),
    "fuse": lambda a: fuse(a["mem_c"][:len(a["x"])], a["x"], 0.3),
}


@pytest.mark.parametrize("call", KERNEL_CALLS.values(), ids=KERNEL_CALLS.keys())
def test_no_kernel_mutates_its_input(call):
    d = 5
    rng = np.random.default_rng(13)
    graph = build_graph(T.parse_bracketed("(S (NP (DT a) (NN cat)) (VP (VB sat)))"))
    stack = init_stack(graph.nt_labels, d=d, num_layers=2, seed=13)
    args = {
        "graph": graph, "stack": stack,
        "x": rng.standard_normal((graph.num_terminals, d)),
        "mem_c": rng.standard_normal((graph.num_nodes, d)),
        "mem_d": rng.standard_normal((graph.num_terminals, d)),
        "att_c": init_attention(d, seed=14), "att_d": init_attention(d, seed=15),
        "d_nodes": rng.standard_normal((graph.num_nodes, d)),
        "d_tokens": rng.standard_normal((graph.num_terminals, d)),
    }
    arrays = [args[k] for k in ("x", "mem_c", "mem_d", "d_nodes", "d_tokens")]
    arrays += [graph.matrix, stack.E_nt, *(p for layer in stack.layers
                                          for p in (layer.W, layer.b))]
    arrays += [getattr(args[k], w) for k in ("att_c", "att_d") for w in ("Wq", "Wk", "Wv")]
    before = [a.copy() for a in arrays]
    call(args)
    assert all(map(np.array_equal, arrays, before))
