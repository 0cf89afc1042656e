from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temcgl.buffer import BudgetPolicy, MemoryBuffer
from temcgl.graph import build_graph, normalize_adjacency
from temcgl.model import (
    MlpParams,
    _Workspace,
    _accuracy,
    _logits,
    _loss_and_grad,
    _train_head,
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

from helpers import (
    OracleAdam,
    OracleSgd,
    arrays_held,
    central_difference,
    dense_adjacency,
    dense_normalized,
    dense_propagation_matrix,
    oracle_forward,
    oracle_loss_and_grad,
    oracle_train_head,
    random_edges,
)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_replay_batch_rejects_non_finite_lambda(value):
    cur_x, cur_y = np.zeros((2, 3)), np.array([0, 1])
    with pytest.raises(ValueError, match="^replay_lambda must be finite"):
        replay_batch(cur_x, cur_y, np.ones((1, 3)), np.array([1]), replay_lambda=value)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_make_optimizer_rejects_non_finite_lr(name, value):
    with pytest.raises(ValueError, match="^lr must be finite"):
        make_optimizer(name, value)


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
# reused training arrays against the allocating oracles
# ---------------------------------------------------------------------------

# Widths and batch sizes reach the BLAS shapes of real runs (hidden 256,
# a few hundred rows) as well as degenerate ones (width 1, one row).
_widths = st.one_of(st.integers(1, 8), st.sampled_from([64, 128, 256]), st.integers(1, 256))
_rows = st.one_of(st.integers(1, 8), st.integers(1, 500))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tensors(params: MlpParams) -> list[np.ndarray]:
    return params.weights + params.biases


def _head_case(seed, dims, n, weighted):
    rng = np.random.default_rng(seed)
    params = init_mlp(dims, rng)
    x = rng.standard_normal((n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    w = rng.uniform(0.1, 3.0, size=n) if weighted else None
    return rng, params, x, y, w


def _oracle_optimizer(name, lr):
    return OracleSgd(lr) if name == "sgd" else OracleAdam(lr)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.lists(_widths, min_size=0, max_size=2),
    in_dim=_widths,
    classes=st.integers(1, 12),
    n=_rows,
    weighted=st.booleans(),
    name=st.sampled_from(["sgd", "adam"]),
)
def test_loss_grad_and_steps_match_allocating_oracle(
    seed, hidden, in_dim, classes, n, weighted, name
):
    _, params, x, y, w = _head_case(seed, [in_dim, *hidden, classes], n, weighted)
    ref_w = [a.copy() for a in params.weights]
    ref_b = [a.copy() for a in params.biases]
    workspace = _Workspace(params, x, y, w)
    optimizer, ref_optimizer = make_optimizer(name, 0.05), _oracle_optimizer(name, 0.05)
    for _ in range(3):
        loss, grads = _loss_and_grad(params, workspace)
        plain_loss, plain_grads = loss_and_grad(params, x, y, w)
        ref_loss, ref_gw, ref_gb = oracle_loss_and_grad(ref_w, ref_b, x, y, w)
        assert _same_bits(np.float64(loss), np.float64(ref_loss))
        assert _same_bits(np.float64(plain_loss), np.float64(ref_loss))
        for got, plain, want in zip(_tensors(grads), _tensors(plain_grads), ref_gw + ref_gb):
            assert _same_bits(got, want) and _same_bits(plain, want)
        optimizer.step(params, grads)
        ref_optimizer.step(ref_w + ref_b, ref_gw + ref_gb)
        for got, want in zip(_tensors(params), ref_w + ref_b):
            assert _same_bits(got, want)
        assert _same_bits(mlp_forward(params, x), oracle_forward(ref_w, ref_b, x))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.lists(_widths, min_size=0, max_size=2),
    in_dim=_widths,
    classes=st.integers(2, 12),
    n=_rows,
    n_valid=st.one_of(st.just(0), st.integers(1, 80)),
    weighted=st.booleans(),
    name=st.sampled_from(["sgd", "adam"]),
    epochs=st.integers(0, 8),
    patience=st.integers(1, 4),
)
def test_train_head_matches_allocating_oracle(
    seed, hidden, in_dim, classes, n, n_valid, weighted, name, epochs, patience
):
    rng, params, x, y, w = _head_case(seed, [in_dim, *hidden, classes], n, weighted)
    valid_x = rng.standard_normal((n_valid, in_dim))
    valid_y = rng.integers(0, classes, size=n_valid)
    allowed = rng.choice(classes, size=int(rng.integers(1, classes + 1)), replace=False)
    ref = oracle_train_head(
        [a.copy() for a in params.weights], [a.copy() for a in params.biases],
        _oracle_optimizer(name, 0.05), x, y, w, valid_x, valid_y, allowed, epochs, patience,
    )
    best = _train_head(
        params, make_optimizer(name, 0.05), x, y, w, valid_x, valid_y, allowed, epochs, patience
    )
    for got, want in zip(_tensors(best), ref[0] + ref[1]):
        assert _same_bits(got, want)


def test_loss_and_grad_rejects_labels_outside_the_output_layer():
    _, params, x, _, _ = _head_case(0, [4, 6, 3], 10, True)
    with pytest.raises(ValueError, match="one output class per row"):
        loss_and_grad(params, x, np.full(10, 3))
    with pytest.raises(ValueError, match="one output class per row"):
        loss_and_grad(params, x, np.full(10, -1))


def test_reused_workspace_matches_a_fresh_one_for_other_params():
    _, first, x, y, w = _head_case(1, [5, 7, 7, 4], 30, True)
    second = init_mlp([5, 7, 7, 4], component_rng(2, "model-init"))
    workspace = _Workspace(first, x, y, w)
    _loss_and_grad(first, workspace)
    loss, grads = _loss_and_grad(second, workspace)
    fresh_loss, fresh = loss_and_grad(second, x, y, w)
    assert loss == fresh_loss
    for got, want in zip(_tensors(grads), _tensors(fresh)):
        assert _same_bits(got, want)
    scoring = _Workspace(first, x)
    _logits(first, scoring)
    assert _same_bits(_logits(second, scoring), mlp_forward(second, x))


def test_kept_results_share_no_memory_with_a_workspace():
    _, params, x, y, w = _head_case(3, [6, 9, 3], 25, False)
    workspace = _Workspace(params, x, y, w)
    kept_a = loss_and_grad(params, x, y, w)[1]
    kept_b = loss_and_grad(params, x, y, w)[1]
    _, reused = _loss_and_grad(params, workspace)
    for a, b, c in zip(_tensors(kept_a), _tensors(kept_b), _tensors(reused)):
        assert not np.shares_memory(a, b) and not np.shares_memory(a, c)
        for owned in _tensors(params) + [x]:
            assert not np.shares_memory(a, owned)
    for kept in _tensors(kept_a):
        assert not any(np.shares_memory(kept, a) for a in arrays_held(workspace))


def test_one_epoch_allocates_no_batch_sized_array():
    rng, params, x, y, w = _head_case(4, [16, 256, 10], 400, True)
    valid_x, valid_y = rng.standard_normal((400, 16)), rng.integers(0, 10, size=400)
    allowed = np.arange(10)
    train = _Workspace(params, x, y, w)
    scoring = _Workspace(params, valid_x, classes=allowed)
    optimizer = make_optimizer("adam", 0.01)

    def epoch():
        _, grads = _loss_and_grad(params, train)
        optimizer.step(params, grads)
        _accuracy(params, scoring, valid_y)

    epoch()  # the optimiser allocates its state on its first step
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 400 * 256 * 8


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
