from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temcgl.graph import build_graph, normalize_adjacency
from temcgl.harness import write_embeddings
from temcgl.propagation import (
    LINEAR_VARIANTS,
    PropagationStrategy,
    TEMatrix,
    compute_tes,
    propagation_row,
    receptive_field,
    reservoir_weights,
    subnetwork_te,
)

from helpers import (
    ball_oracle,
    dense_adjacency,
    dense_normalized,
    dense_propagation_matrix,
    random_edges,
    star_edges,
)


def _random_linear_strategy(rng: np.random.Generator) -> PropagationStrategy:
    variant = LINEAR_VARIANTS[int(rng.integers(0, len(LINEAR_VARIANTS)))]
    hops = int(rng.integers(1, 5))
    alpha = float(rng.uniform(0.05, 0.95)) if variant != "power" else None
    return PropagationStrategy(variant=variant, hops=hops, alpha=alpha)


# ---------------------------------------------------------------------------
# strategy object
# ---------------------------------------------------------------------------


def test_strategy_validation():
    with pytest.raises(ValueError):
        PropagationStrategy(variant="mystery", hops=2)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="power", hops=0)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="power", hops=2, alpha=0.1)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="hop_average", hops=2)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="lazy_power", hops=2, alpha=1.5)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="reservoir", hops=2)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="power", hops=2, hidden_dim=8)
    with pytest.raises(ValueError):
        PropagationStrategy(variant="reservoir", hops=2, hidden_dim=8, weight_scale=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_strategy_rejects_non_finite_weight_scale(value):
    # caught here, not later as a non-finite embedding matrix
    with pytest.raises(ValueError, match="^weight_scale must be finite"):
        PropagationStrategy("reservoir", 2, hidden_dim=8, weight_scale=value)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("hops", dict(variant="power", hops=2.5)),
        ("hidden_dim", dict(variant="reservoir", hops=2, hidden_dim=4.5)),
        ("seed", dict(variant="reservoir", hops=2, hidden_dim=4, seed=1.5)),
    ],
)
def test_strategy_refuses_non_integer_fields(field, kwargs):
    # caught here, not later as a TypeError inside the run
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        PropagationStrategy(**kwargs)


def test_strategy_takes_numpy_integers_as_ints():
    s = PropagationStrategy("reservoir", np.int64(2), hidden_dim=np.int32(4), seed=np.int64(1))
    assert s == PropagationStrategy("reservoir", 2, hidden_dim=4, seed=1)
    assert {type(s.hops), type(s.hidden_dim), type(s.seed)} == {int}


def test_strategy_default_self_loops():
    assert PropagationStrategy("power", 2).default_self_loops is True
    assert PropagationStrategy("hop_average", 2, alpha=0.1).default_self_loops is False
    assert PropagationStrategy("lazy_power", 2, alpha=0.1).default_self_loops is False
    assert PropagationStrategy("reservoir", 2, hidden_dim=4).default_self_loops is False


# ---------------------------------------------------------------------------
# linear strategies against the dense oracle
# ---------------------------------------------------------------------------


def test_compute_tes_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(2, 200))
        edges = random_edges(n, min(1.0, 8.0 / n), rng)
        g = build_graph(n, edges, features=rng.standard_normal((n, 3)))
        strategy = _random_linear_strategy(rng)
        loops = bool(rng.integers(0, 2))
        adj = normalize_adjacency(g, self_loops=loops)
        tes = compute_tes(adj, g.features, strategy)
        pi = dense_propagation_matrix(
            dense_normalized(dense_adjacency(n, edges), loops),
            strategy.variant,
            strategy.hops,
            strategy.alpha,
        )
        assert np.max(np.abs(tes.values - pi @ g.features)) < 1e-10


def test_power_single_edge_hand_case():
    g = build_graph(2, np.array([[0, 1]]), features=np.array([[1.0, 2.0], [3.0, 4.0]]))
    adj = normalize_adjacency(g, self_loops=False)
    one_hop = compute_tes(adj, g.features, PropagationStrategy("power", 1))
    np.testing.assert_array_equal(one_hop.values, g.features[[1, 0]])
    two_hop = compute_tes(adj, g.features, PropagationStrategy("power", 2))
    np.testing.assert_array_equal(two_hop.values, g.features)


def test_isolated_node_has_zero_te():
    g = build_graph(3, np.array([[0, 1]]), features=np.ones((3, 2)))
    adj = normalize_adjacency(g, self_loops=False)
    tes = compute_tes(adj, g.features, PropagationStrategy("power", 1))
    assert np.all(tes.values[2] == 0.0)


def test_alpha_one_degenerates_to_features():
    g = build_graph(4, np.array([[0, 1], [1, 2], [2, 3]]), features=np.random.default_rng(0).standard_normal((4, 3)))
    adj = normalize_adjacency(g, self_loops=False)
    lazy = compute_tes(adj, g.features, PropagationStrategy("lazy_power", 3, alpha=1.0))
    np.testing.assert_array_equal(lazy.values, g.features)
    avg = compute_tes(adj, g.features, PropagationStrategy("hop_average", 1, alpha=1.0))
    np.testing.assert_array_equal(avg.values, g.features)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_linear_strategies_are_linear_maps(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = build_graph(n, random_edges(n, 0.2, rng))
    adj = normalize_adjacency(g, self_loops=bool(rng.integers(0, 2)))
    strategy = _random_linear_strategy(rng)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((n, 2))
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
    mixed = compute_tes(adj, a * x + b * y, strategy).values
    split = a * compute_tes(adj, x, strategy).values + b * compute_tes(adj, y, strategy).values
    np.testing.assert_allclose(mixed, split, atol=1e-9)


def test_propagation_row_matches_oracle_row():
    rng = np.random.default_rng(5)
    n = 40
    edges = random_edges(n, 0.15, rng)
    g = build_graph(n, edges)
    for loops in (False, True):
        adj = normalize_adjacency(g, self_loops=loops)
        strategy = PropagationStrategy("hop_average", 3, alpha=0.2)
        pi = dense_propagation_matrix(
            dense_normalized(dense_adjacency(n, edges), loops), "hop_average", 3, 0.2
        )
        for v in (0, 7, n - 1):
            np.testing.assert_allclose(propagation_row(adj, strategy, v), pi[v], atol=1e-12)


def test_propagation_row_rejects_reservoir():
    g = build_graph(3, np.array([[0, 1], [1, 2]]))
    adj = normalize_adjacency(g, self_loops=False)
    with pytest.raises(ValueError):
        propagation_row(adj, PropagationStrategy("reservoir", 2, hidden_dim=4), 0)


# ---------------------------------------------------------------------------
# reservoir encoder
# ---------------------------------------------------------------------------


def test_reservoir_deterministic_and_bounded():
    rng = np.random.default_rng(2)
    n = 25
    g = build_graph(n, random_edges(n, 0.2, rng), features=rng.standard_normal((n, 6)))
    adj = normalize_adjacency(g, self_loops=False)
    strategy = PropagationStrategy("reservoir", 2, hidden_dim=12, seed=4)
    a = compute_tes(adj, g.features, strategy)
    b = compute_tes(adj, g.features, strategy)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.shape == (n, 12)
    assert np.all(np.abs(a.values) <= 1.0)
    other = compute_tes(adj, g.features, PropagationStrategy("reservoir", 2, hidden_dim=12, seed=5))
    assert not np.array_equal(a.values, other.values)


def test_reservoir_weight_shapes_and_scaling():
    deep = PropagationStrategy("reservoir", 3, hidden_dim=10, seed=1)
    mats = reservoir_weights(deep, in_dim=6)
    assert [m.shape for m in mats] == [(10, 6), (10, 6), (10, 10), (10, 10)]
    # auto scale keeps the recurrent aggregation matrix comfortably contractive
    assert np.linalg.svd(mats[3], compute_uv=False)[0] <= 0.95

    shallow = PropagationStrategy("reservoir", 1, hidden_dim=10, seed=1)
    mats1 = reservoir_weights(shallow, in_dim=6)
    assert [m.shape for m in mats1] == [(10, 6), (10, 6)]
    assert np.linalg.svd(mats1[1], compute_uv=False)[0] <= 0.95

    explicit = PropagationStrategy("reservoir", 2, hidden_dim=10, weight_scale=0.3, seed=1)
    for m in reservoir_weights(explicit, in_dim=6):
        assert np.max(np.abs(m)) <= 0.3


def test_reservoir_weights_are_memoised_and_read_only():
    strategy = PropagationStrategy("reservoir", 2, hidden_dim=7, seed=4)
    first, second = reservoir_weights(strategy, 5), reservoir_weights(strategy, 5)
    for a, b in zip(first, second, strict=True):
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


# ---------------------------------------------------------------------------
# receptive fields and self-contained recomputation
# ---------------------------------------------------------------------------


def test_receptive_field_star():
    g = build_graph(8, star_edges(7))
    assert receptive_field(g, 0, 1).tolist() == list(range(8))
    assert receptive_field(g, 3, 0).tolist() == [3]
    assert receptive_field(g, 3, 1).tolist() == [0, 3]
    assert receptive_field(g, 3, 2).tolist() == list(range(8))
    with pytest.raises(ValueError):
        receptive_field(g, 3, -1)
    with pytest.raises(ValueError):
        receptive_field(g, 8, 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), hops=st.integers(0, 3))
def test_receptive_field_matches_set_bfs(seed: int, hops: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    edges = random_edges(n, 0.15, rng)
    g = build_graph(n, edges)
    v = int(rng.integers(0, n))
    got = receptive_field(g, v, hops)
    want = sorted(ball_oracle(n, edges, [v], hops))
    assert got.tolist() == want
    if hops:  # balls are monotone in the radius
        prev = set(receptive_field(g, v, hops - 1).tolist())
        assert prev <= set(got.tolist())


def test_receptive_field_matches_graph_neighborhood():
    rng = np.random.default_rng(13)
    n = 30
    g = build_graph(n, random_edges(n, 0.12, rng))
    for loops in (False, True):
        adj = normalize_adjacency(g, self_loops=loops)
        for v in range(0, n, 7):
            for hops in (1, 2, 3):
                np.testing.assert_array_equal(
                    receptive_field(adj, v, hops), receptive_field(g, v, hops)
                )


def test_subnetwork_te_bit_identical_for_linear_strategies():
    rng = np.random.default_rng(17)
    for trial in range(15):
        n = int(rng.integers(4, 40))
        g = build_graph(n, random_edges(n, 0.15, rng), features=rng.standard_normal((n, 4)))
        strategy = _random_linear_strategy(rng)
        adj = normalize_adjacency(g, self_loops=bool(rng.integers(0, 2)))
        full = compute_tes(adj, g.features, strategy).values
        for v in rng.choice(n, size=min(n, 6), replace=False):
            local = subnetwork_te(adj, g.features, strategy, int(v))
            assert np.array_equal(local, full[int(v)]), (trial, int(v))


def test_subnetwork_te_close_for_reservoir():
    rng = np.random.default_rng(19)
    n = 30
    g = build_graph(n, random_edges(n, 0.15, rng), features=rng.standard_normal((n, 5)))
    strategy = PropagationStrategy("reservoir", 2, hidden_dim=8, seed=2)
    adj = normalize_adjacency(g, self_loops=False)
    full = compute_tes(adj, g.features, strategy).values
    for v in range(0, n, 5):
        local = subnetwork_te(adj, g.features, strategy, v)
        np.testing.assert_allclose(local, full[v], atol=1e-12)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_te_matrix_csv_export(tmp_path):
    values = np.array([[1.5, -2.25], [0.125, 3.0], [1 / 3, -1e-300]])
    tes = TEMatrix(values=values)
    path = tmp_path / "te.csv"
    write_embeddings(path, np.array([4, 7, 9]), np.array([0, 2, 1]), tes.values, "abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest=abc"
    assert lines[1] == "node_id,label,c0,c1"
    parsed = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    np.testing.assert_array_equal(parsed[:, 2:], values)
    np.testing.assert_array_equal(parsed[:, 0], [4, 7, 9])
    np.testing.assert_array_equal(parsed[:, 1], [0, 2, 1])


def test_compute_tes_validates_inputs():
    g = build_graph(3, np.array([[0, 1], [1, 2]]), features=np.ones((3, 2)))
    adj = normalize_adjacency(g, self_loops=False)
    with pytest.raises(ValueError):
        compute_tes(adj, np.ones((4, 2)), PropagationStrategy("power", 1))
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        compute_tes(adj, bad, PropagationStrategy("power", 1))
