from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temcgl.buffer import BudgetPolicy, MemoryBuffer
from temcgl.graph import build_graph, normalize_adjacency
from temcgl.model import (
    MlpParams,
    class_balance_weights,
    init_mlp,
    load_model,
    loss_and_grad,
    make_optimizer,
    mlp_forward,
    mlp_hidden,
    pseudo_gradient_check,
    replay_batch,
    save_model,
)
from temcgl.propagation import PropagationStrategy, propagation_row
from temcgl.rng import component_rng

from helpers import central_difference, dense_adjacency, dense_normalized, dense_propagation_matrix, random_edges


def _hand_params(weights, biases) -> MlpParams:
    return MlpParams(
        weights=[np.asarray(w, dtype=np.float64) for w in weights],
        biases=[np.asarray(b, dtype=np.float64) for b in biases],
    )


# ---------------------------------------------------------------------------
# init / forward
# ---------------------------------------------------------------------------


def test_init_mlp_shapes_bounds_determinism():
    params = init_mlp([4, 8, 3], component_rng(0, "model-init"))
    assert [w.shape for w in params.weights] == [(4, 8), (8, 3)]
    assert [b.shape for b in params.biases] == [(8,), (3,)]
    assert np.max(np.abs(params.weights[0])) <= 0.5  # 1/sqrt(4)
    assert np.max(np.abs(params.weights[1])) <= 1 / np.sqrt(8)
    again = init_mlp([4, 8, 3], component_rng(0, "model-init"))
    for a, b in zip(params.weights, again.weights):
        np.testing.assert_array_equal(a, b)
    other = init_mlp([4, 8, 3], component_rng(1, "model-init"))
    assert not np.array_equal(params.weights[0], other.weights[0])
    with pytest.raises(ValueError):
        init_mlp([4], component_rng(0, "x"))


def test_forward_hand_case():
    params = _hand_params(
        weights=[[[1.0, 0.0], [0.0, 1.0]], [[2.0], [3.0]]],
        biases=[[0.0, 0.0], [1.0]],
    )
    x = np.array([[1.0, -1.0]])
    # relu([1,-1]) = [1,0]; [1,0] @ [[2],[3]] + 1 = 3
    np.testing.assert_allclose(mlp_forward(params, x), [[3.0]])
    np.testing.assert_allclose(mlp_hidden(params, x), [[1.0, 0.0]])


def test_single_layer_is_linear():
    params = _hand_params(weights=[[[2.0, 0.0], [0.0, -1.0]]], biases=[[0.5, 0.5]])
    x = np.array([[1.0, 2.0], [3.0, -4.0]])
    np.testing.assert_allclose(mlp_forward(params, x), x @ params.weights[0] + 0.5)
    np.testing.assert_array_equal(mlp_hidden(params, x), x)  # no hidden layer


def test_params_copy_is_deep():
    params = init_mlp([3, 4, 2], component_rng(0, "a"))
    clone = params.copy()
    clone.weights[0][0, 0] += 1.0
    assert params.weights[0][0, 0] != clone.weights[0][0, 0]


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def test_loss_is_weighted_normalized_cross_entropy():
    params = _hand_params(weights=[np.eye(2)], biases=[[0.0, 0.0]])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    loss, _ = loss_and_grad(params, x, y, np.ones(2))
    # both rows give CE = log(1 + e^-1)
    expect = np.log(1 + np.exp(-1.0))
    assert loss == pytest.approx(expect, rel=1e-12)
    # scaling all weights by a constant changes nothing
    loss2, _ = loss_and_grad(params, x, y, 7.0 * np.ones(2))
    assert loss2 == pytest.approx(loss, rel=1e-12)
    # zero-weight samples drop out entirely
    x3 = np.vstack([x, [[50.0, 0.0]]])
    y3 = np.array([0, 1, 1])
    loss3, grads3 = loss_and_grad(params, x3, y3, np.array([1.0, 1.0, 0.0]))
    _, grads_ref = loss_and_grad(params, x, y, np.ones(2))
    assert loss3 == pytest.approx(loss, rel=1e-12)
    for g3, gr in zip(grads3.weights, grads_ref.weights):
        np.testing.assert_allclose(g3, gr, atol=1e-12)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(29)
    for trial in range(8):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
        dims.append(int(rng.integers(2, 5)))  # output classes
        params = init_mlp(dims, rng)
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, dims[0]))
        y = rng.integers(0, dims[-1], size=n)
        w = rng.uniform(0.5, 2.0, size=n)
        _, grads = loss_and_grad(params, x, y, w)

        def loss_fn():
            return loss_and_grad(params, x, y, w)[0]

        fd = central_difference(loss_fn, params.weights + params.biases)
        analytic = grads.weights + grads.biases
        for a, f in zip(analytic, fd):
            err = np.linalg.norm(a - f) / max(np.linalg.norm(f), 1e-12)
            assert err < 1e-5, (trial, err)


def test_class_balance_weights_hand_case():
    w = class_balance_weights(np.array([0, 0, 0, 1]))
    np.testing.assert_allclose(w, [2 / 3, 2 / 3, 2 / 3, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
def test_class_balance_weights_sum_to_n(raw_labels: list[int]):
    labels = np.array(raw_labels)
    w = class_balance_weights(labels)
    assert w.sum() == pytest.approx(len(labels))
    # every class present carries equal total mass
    totals = {cls: w[labels == cls].sum() for cls in set(raw_labels)}
    values = list(totals.values())
    np.testing.assert_allclose(values, values[0])


def test_replay_batch_composition():
    cur_x = np.zeros((2, 3))
    cur_y = np.array([0, 0])
    replay_x = np.stack([np.ones(3), 2 * np.ones(3)])
    replay_y = np.array([1, 1])
    x, y, w = replay_batch(cur_x, cur_y, replay_x, replay_y, replay_lambda=0.5, class_balance=False)
    assert x.shape == (4, 3)
    assert y.tolist() == [0, 0, 1, 1]
    np.testing.assert_allclose(w, [1.0, 1.0, 0.5, 0.5])

    x2, y2, w2 = replay_batch(cur_x, cur_y, replay_x, replay_y, replay_lambda=2.0, class_balance=True)
    # balance gives everyone 1.0 here (two per class), lambda then doubles replays
    np.testing.assert_allclose(w2, [1.0, 1.0, 2.0, 2.0])

    empty = MemoryBuffer(BudgetPolicy(count=1))  # its te is (0, 0)
    x3, y3, w3 = replay_batch(
        cur_x, cur_y, empty.te, empty.label, replay_lambda=0.5, class_balance=False
    )
    assert x3.shape == (2, 3) and w3.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_sgd_step_is_exact():
    params = _hand_params(weights=[[[1.0]]], biases=[[2.0]])
    grads = _hand_params(weights=[[[0.5]]], biases=[[-1.0]])
    opt = make_optimizer("sgd", lr=0.1)
    opt.step(params, grads)
    assert params.weights[0][0, 0] == pytest.approx(0.95)
    assert params.biases[0][0] == pytest.approx(2.1)
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", lr=0.1)


def test_adam_matches_scalar_reference():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = _hand_params(weights=[[[1.0]]], biases=[[0.0]])
    opt = make_optimizer("adam", lr=lr)
    # reference implementation on plain floats
    p_ref, m, v = 1.0, 0.0, 0.0
    for t in range(1, 6):
        g = p_ref - 3.0
        grads = _hand_params(weights=[[[params.weights[0][0, 0] - 3.0]]], biases=[[0.0]])
        opt.step(params, grads)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert params.weights[0][0, 0] == pytest.approx(p_ref, rel=1e-12)


def test_adam_converges_on_quadratic():
    params = _hand_params(weights=[[[1.0]]], biases=[[0.0]])
    opt = make_optimizer("adam", lr=0.05)
    for _ in range(200):
        grads = _hand_params(weights=[[[params.weights[0][0, 0] - 3.0]]], biases=[[0.0]])
        opt.step(params, grads)
    assert abs(params.weights[0][0, 0] - 3.0) < 1e-3


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_model_checkpoint_round_trip(tmp_path):
    params = init_mlp([5, 7, 3], component_rng(3, "model-init"))
    path = tmp_path / "model.bin"
    save_model(params, path)
    back = load_model(path)
    for a, b in zip(params.weights + params.biases, back.weights + back.biases):
        np.testing.assert_array_equal(a, b)
    resaved = tmp_path / "again.bin"
    save_model(back, resaved)
    assert path.read_bytes() == resaved.read_bytes()

    blob = bytearray(path.read_bytes())
    blob[1] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_model(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError):
        load_model(trunc)


# ---------------------------------------------------------------------------
# replay-gradient identity
# ---------------------------------------------------------------------------


def _positive_instance(seed: int, variant: str = "power"):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    edges = random_edges(n, 0.5, rng)
    features = rng.uniform(0.5, 2.0, size=(n, int(rng.integers(2, 5))))
    g = build_graph(n, edges, features=features)
    num_classes = int(rng.integers(2, 4))
    weights = rng.uniform(0.1, 1.0, size=(g.feature_dim, num_classes))
    if variant == "power":
        strategy = PropagationStrategy("power", int(rng.integers(1, 4)))
    else:
        strategy = PropagationStrategy(variant, int(rng.integers(1, 4)), alpha=float(rng.uniform(0.1, 0.5)))
    adj = normalize_adjacency(g, self_loops=strategy.default_self_loops)
    return g, adj, weights, strategy, rng


def test_pseudo_gradient_identity_holds():
    for seed, variant in enumerate(("power", "hop_average", "lazy_power") * 5):
        g, adj, weights, strategy, rng = _positive_instance(seed, variant)
        v = int(rng.integers(0, g.num_nodes))
        k = int(rng.integers(0, weights.shape[1]))
        report = pseudo_gradient_check(adj, g.features, weights, v, strategy, target_class=k)
        assert report.max_deviation < 1e-12, (seed, variant)
        # the reconstruction coefficients are a convex combination
        assert report.coefficients.min() >= 0.0
        assert report.coefficients.sum() == pytest.approx(1.0, abs=1e-12)


def test_pseudo_gradient_direct_side_matches_finite_differences():
    g, adj, weights, strategy, rng = _positive_instance(101)
    v = 0
    report = pseudo_gradient_check(adj, g.features, weights, v, strategy, target_class=1)
    pi = propagation_row(adj, strategy, v)
    te = pi @ g.features

    def loss_fn():
        return -np.log(te @ weights)[1]

    (fd,) = central_difference(loss_fn, [weights])
    err = np.linalg.norm(report.direct_grad - fd) / np.linalg.norm(fd)
    assert err < 1e-6


def test_pseudo_gradient_reconstruction_matches_dense_oracle():
    g, adj, weights, strategy, rng = _positive_instance(202, "hop_average")
    v, k = 1, 0
    report = pseudo_gradient_check(adj, g.features, weights, v, strategy, target_class=k)
    # independent dense-route reconstruction
    edges_rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    edges = np.column_stack([edges_rows, g.indices])
    pi = dense_propagation_matrix(
        dense_normalized(dense_adjacency(g.num_nodes, edges), strategy.default_self_loops),
        strategy.variant,
        strategy.hops,
        strategy.alpha,
    )[v]
    z_v = (pi @ g.features) @ weights
    recon = np.zeros_like(weights)
    for w_node in range(g.num_nodes):
        if pi[w_node] == 0.0:
            continue
        z_w = g.features[w_node] @ weights
        coef = z_w[k] * pi[w_node] / z_v[k]
        term = np.zeros_like(weights)
        term[:, k] = -g.features[w_node] / z_w[k]
        recon += coef * term
    np.testing.assert_allclose(report.reconstructed_grad, recon, atol=1e-12)
    # mechanism behind the identity: pi-weighted raw outputs add up exactly
    assert np.dot(pi, g.features @ weights[:, k]) == pytest.approx(z_v[k], rel=1e-12)


def test_pseudo_gradient_corruption_is_detected():
    g, adj, weights, strategy, rng = _positive_instance(303)
    report = pseudo_gradient_check(adj, g.features, weights, 0, strategy, target_class=0, corrupt=0.01)
    assert report.max_deviation > 1e-8


def test_pseudo_gradient_check_rejects_bad_inputs():
    g, adj, weights, strategy, rng = _positive_instance(404)
    with pytest.raises(ValueError):
        pseudo_gradient_check(
            adj, g.features, weights, 0,
            PropagationStrategy("reservoir", 2, hidden_dim=4), target_class=0,
        )
    bad_feats = g.features.copy()
    bad_feats[0, 0] = -1.0
    with pytest.raises(ValueError):
        pseudo_gradient_check(adj, bad_feats, weights, 0, strategy, target_class=0)
    with pytest.raises(ValueError):
        pseudo_gradient_check(adj, g.features, -weights, 0, strategy, target_class=0)
    with pytest.raises(ValueError):
        pseudo_gradient_check(adj, g.features, weights, 0, strategy, target_class=99)


def test_pseudo_gradient_isolated_node_without_mass_errors():
    g = build_graph(3, np.array([[0, 1]]), features=np.ones((3, 2)))
    adj = normalize_adjacency(g, self_loops=False)
    with pytest.raises(ValueError):
        pseudo_gradient_check(
            adj, g.features, np.ones((2, 2)), 2, PropagationStrategy("power", 1), target_class=0
        )
