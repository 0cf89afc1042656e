from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from temcgl import graph as graph_module
from temcgl.graph import (
    TEST,
    TRAIN,
    VALID,
    Graph,
    build_graph,
    generate_sbm,
    homophily_ratio,
    induced_subgraph,
    load_edge_list,
    load_graph_files,
    normalize_adjacency,
    save_graph_files,
)
from temcgl.rng import component_rng

from helpers import (
    dense_adjacency,
    dense_normalized,
    oracle_sbm_edges,
    path_edges,
    random_edges,
)


def test_build_graph_canonicalizes_edges():
    # duplicates, reversed pairs and self loops all collapse to one clean CSR
    edges = np.array([[1, 0], [0, 1], [2, 2], [1, 3], [3, 1]])
    g = build_graph(4, edges)
    assert g.indptr.tolist() == [0, 1, 3, 3, 4]
    assert g.indices.tolist() == [1, 0, 3, 1]
    assert g.num_edges == 2
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64


def test_build_graph_defaults():
    g = build_graph(3, path_edges(3))
    assert g.features.shape == (3, 1)
    assert g.features.dtype == np.float64
    assert g.labels.tolist() == [0, 0, 0]
    assert np.all(g.split == TRAIN)
    assert g.num_classes == 1


def test_graph_rejects_malformed_arrays():
    g = build_graph(3, path_edges(3))
    # asymmetric structure: edge 0->1 without its mirror
    with pytest.raises(ValueError):
        Graph(
            num_nodes=2,
            indptr=np.array([0, 1, 1], dtype=np.int64),
            indices=np.array([1], dtype=np.int64),
            features=np.zeros((2, 1)),
            labels=np.zeros(2, dtype=np.int64),
            split=np.zeros(2, dtype=np.int8),
        )
    with pytest.raises(ValueError):
        build_graph(3, path_edges(3), features=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        build_graph(3, path_edges(3), labels=np.array([0, -1, 0]))
    with pytest.raises(ValueError):
        build_graph(3, path_edges(3), split=np.array([0, 1, 7]))
    with pytest.raises(ValueError):
        build_graph(2, np.array([[0, 5]]))
    assert g.num_nodes == 3  # the good one was untouched

    def raw(indptr, indices):
        n = len(indptr) - 1
        return Graph(
            num_nodes=n,
            indptr=np.array(indptr, dtype=np.int64),
            indices=np.array(indices, dtype=np.int64),
            features=np.zeros((n, 1)),
            labels=np.zeros(n, dtype=np.int64),
            split=np.zeros(n, dtype=np.int8),
        )

    # the message names the first bad row; inside one row, ordering faults
    # are reported before self loops
    cases = [
        ([0, 1, 3, 4], [1, 2, 0, 1], "row 1 has unsorted or duplicate neighbours"),
        ([0, 2, 3, 4], [1, 1, 0, 0], "row 0 has unsorted or duplicate neighbours"),
        ([0, 1, 2, 4], [1, 0, 1, 2], "self loop stored at node 2"),
        ([0, 2, 2, 3], [2, 1, 1], "row 0 has unsorted or duplicate neighbours"),
        ([0, 1, 3, 4], [1, 1, 0, 1], "row 1 has unsorted or duplicate neighbours"),
        ([0, 2, 3, 4], [2, 1, 0, 2], "row 0 has unsorted or duplicate neighbours"),
        ([0, 1, 3, 4], [0, 2, 0, 1], "self loop stored at node 0"),
        ([0, 1, 3, 5], [1, 0, 1, 1, 0], "self loop stored at node 1"),
        ([0, 0, 2, 3], [1, 0, 2], "row 1 has unsorted or duplicate neighbours"),
    ]
    for indptr, indices, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            raw(indptr, indices)
    # column ids may fall across a row boundary, and rows may be empty
    assert raw([0, 1, 1, 2], [2, 0]).num_edges == 1


def test_split_nodes():
    g = build_graph(4, path_edges(4), split=np.array([0, 1, 2, 0]))
    assert g.split_nodes(TRAIN).tolist() == [0, 3]
    assert g.split_nodes(VALID).tolist() == [1]
    assert g.split_nodes(TEST).tolist() == [2]


# ---------------------------------------------------------------------------
# symmetric normalisation
# ---------------------------------------------------------------------------


def test_normalize_path_hand_values():
    g = build_graph(3, path_edges(3))
    adj = normalize_adjacency(g, self_loops=False)
    dense = adj.to_scipy().toarray()
    s = 1.0 / np.sqrt(2.0)
    expect = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
    np.testing.assert_allclose(dense, expect, atol=1e-15)

    withloops = normalize_adjacency(g, self_loops=True).to_scipy().toarray()
    expect2 = np.array(
        [
            [1 / 2, 1 / np.sqrt(6), 0],
            [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
            [0, 1 / np.sqrt(6), 1 / 2],
        ]
    )
    np.testing.assert_allclose(withloops, expect2, atol=1e-15)


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        edges = random_edges(n, 0.2, rng)
        g = build_graph(n, edges)
        for loops in (False, True):
            adj = normalize_adjacency(g, self_loops=loops)
            oracle = dense_normalized(dense_adjacency(n, edges), loops)
            np.testing.assert_allclose(adj.to_scipy().toarray(), oracle, atol=1e-14)
            # stored values are exactly 1/sqrt(d_u d_v) for recorded degrees
            for u in range(n):
                for k in range(adj.indptr[u], adj.indptr[u + 1]):
                    v = adj.indices[k]
                    assert adj.values[k] == pytest.approx(
                        1.0 / np.sqrt(adj.degrees[u] * adj.degrees[v]), abs=1e-15
                    )


def test_isolated_node_gets_zero_row():
    g = build_graph(3, np.array([[0, 1]]))
    adj = normalize_adjacency(g, self_loops=False)
    dense = adj.to_scipy().toarray()
    assert np.all(dense[2] == 0.0) and np.all(dense[:, 2] == 0.0)
    assert np.all(np.isfinite(dense))
    out = adj.spmm(np.ones((3, 2)))
    assert np.all(out[2] == 0.0)


def test_spmm_and_restrict_match_dense():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(4, 30))
        edges = random_edges(n, 0.25, rng)
        g = build_graph(n, edges)
        adj = normalize_adjacency(g, self_loops=True)
        dense = adj.to_scipy().toarray()
        x = rng.standard_normal((n, 3))
        np.testing.assert_allclose(adj.spmm(x), dense @ x, atol=1e-12)

        keep = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        sub = adj.restrict(keep)
        # restriction copies operator values; it must NOT renormalise
        np.testing.assert_array_equal(sub.to_scipy().toarray(), dense[np.ix_(keep, keep)])


def test_spmm_reuses_one_scipy_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    n = 12
    edges = random_edges(n, 0.3, rng)
    adj = normalize_adjacency(build_graph(n, edges), self_loops=True)
    dense = dense_normalized(dense_adjacency(n, edges), self_loops=True)
    x1, x2 = rng.standard_normal((n, 3)), rng.standard_normal(n)
    first = adj.spmm(x1)
    matrix = adj.to_scipy()

    def no_rebuild(*args, **kwargs):
        raise AssertionError("the scipy matrix was built again")

    monkeypatch.setattr(graph_module.sp, "csr_matrix", no_rebuild)
    second = adj.spmm(x2)
    assert adj.to_scipy() is matrix
    np.testing.assert_allclose(first, dense @ x1, atol=1e-12)
    np.testing.assert_allclose(second, dense @ x2, atol=1e-12)


def test_restrict_requires_sorted_unique_ids():
    g = build_graph(4, path_edges(4))
    adj = normalize_adjacency(g, self_loops=False)
    with pytest.raises(ValueError):
        adj.restrict(np.array([2, 1]))
    with pytest.raises(ValueError):
        adj.restrict(np.array([1, 1, 2]))


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------


def test_homophily_triangle():
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    g = build_graph(3, edges, labels=np.array([0, 0, 1]))
    assert homophily_ratio(g) == pytest.approx(1.0 / 3.0)


def test_homophily_bounds_and_extremes():
    g_same = build_graph(3, path_edges(3), labels=np.array([1, 1, 1]))
    assert homophily_ratio(g_same) == 1.0
    g_diff = build_graph(2, np.array([[0, 1]]), labels=np.array([0, 1]))
    assert homophily_ratio(g_diff) == 0.0
    with pytest.raises(ValueError):
        homophily_ratio(build_graph(3, np.empty((0, 2), dtype=np.int64)))


def test_homophily_matches_edge_count_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        edges = random_edges(n, 0.3, rng)
        if len(edges) == 0:
            continue
        labels = rng.integers(0, 3, size=n)
        g = build_graph(n, edges, labels=labels)
        same = sum(1 for u, v in edges if labels[u] == labels[v])
        assert homophily_ratio(g) == pytest.approx(same / len(edges))


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------


def test_induced_subgraph_slices_everything():
    g = build_graph(
        4,
        path_edges(4),
        features=np.arange(8, dtype=float).reshape(4, 2),
        labels=np.array([0, 1, 2, 3]),
        split=np.array([0, 1, 2, 0]),
    )
    sub = induced_subgraph(g, np.array([0, 1, 3]))
    assert sub.num_nodes == 3
    # only the 0-1 edge survives; node 3 (local 2) is isolated
    assert sub.indptr.tolist() == [0, 1, 2, 2]
    assert sub.indices.tolist() == [1, 0]
    np.testing.assert_array_equal(sub.features, g.features[[0, 1, 3]])
    assert sub.labels.tolist() == [0, 1, 3]
    assert sub.split.tolist() == [0, 1, 0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_induced_subgraph_matches_build_graph_on_filtered_edges(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    edges = random_edges(n, float(rng.uniform(0.0, 0.4)), rng)
    g = build_graph(
        n,
        edges,
        features=rng.standard_normal((n, 2)),
        labels=rng.integers(0, 4, size=n),
        split=rng.integers(0, 3, size=n),
    )
    nodes = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    local = {int(v): i for i, v in enumerate(nodes)}
    kept = [[local[int(u)], local[int(v)]] for u, v in edges if u in local and v in local]
    want = build_graph(
        len(nodes),
        np.array(kept, dtype=np.int64).reshape(-1, 2),
        features=g.features[nodes],
        labels=g.labels[nodes],
        split=g.split[nodes],
    )
    got = induced_subgraph(g, nodes)
    assert got.num_nodes == want.num_nodes
    for name in ("indptr", "indices", "features", "labels", "split"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_induced_subgraph_renormalizes_degrees():
    g = build_graph(3, path_edges(3))
    sub = induced_subgraph(g, np.array([0, 1]))
    dense = normalize_adjacency(sub, self_loops=False).to_scipy().toarray()
    # inside the subgraph node 1 has degree 1, so the weight is 1, not 1/sqrt(2)
    np.testing.assert_allclose(dense, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)


# ---------------------------------------------------------------------------
# stochastic block model generator
# ---------------------------------------------------------------------------


def test_sbm_shapes_labels_and_determinism():
    sizes = (30, 20, 10)
    a = generate_sbm(sizes, p_in=0.3, p_out=0.02, feature_dim=5, feature_shift=2.0, seed=9)
    b = generate_sbm(sizes, p_in=0.3, p_out=0.02, feature_dim=5, feature_shift=2.0, seed=9)
    c = generate_sbm(sizes, p_in=0.3, p_out=0.02, feature_dim=5, feature_shift=2.0, seed=10)
    assert a.num_nodes == 60
    assert a.labels.tolist() == [0] * 30 + [1] * 20 + [2] * 10
    assert a.features.shape == (60, 5)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.split, b.split)
    assert not np.array_equal(a.features, c.features)


def test_sbm_block_structure_dominates():
    g = generate_sbm((60, 60, 60), p_in=0.4, p_out=0.01, feature_dim=4, feature_shift=1.0, seed=1)
    assert homophily_ratio(g) > 0.8


def test_sbm_split_counts_per_class():
    g = generate_sbm((100, 10, 3), p_in=0.2, p_out=0.05, feature_dim=3, feature_shift=1.0, seed=2)
    for cls, size in ((0, 100), (1, 10), (2, 3)):
        members = np.flatnonzero(g.labels == cls)
        n_tr = int(np.sum(g.split[members] == TRAIN))
        n_va = int(np.sum(g.split[members] == VALID))
        n_te = int(np.sum(g.split[members] == TEST))
        assert n_tr == max(1, (6 * size) // 10)
        assert n_va == (2 * size) // 10
        assert n_tr + n_va + n_te == size


def test_sbm_feature_means_are_separated():
    shift = 3.0
    g = generate_sbm((200, 200), p_in=0.05, p_out=0.01, feature_dim=6, feature_shift=shift, seed=4)
    m0 = g.features[g.labels == 0].mean(axis=0)
    m1 = g.features[g.labels == 1].mean(axis=0)
    # empirical class means sit near the planted ones, `shift` apart
    assert np.linalg.norm(m0 - m1) == pytest.approx(shift, rel=0.15)


def test_sbm_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_sbm((), p_in=0.1, p_out=0.1, feature_dim=2, feature_shift=1.0, seed=0)
    with pytest.raises(ValueError):
        generate_sbm((5, 5), p_in=1.5, p_out=0.1, feature_dim=2, feature_shift=1.0, seed=0)
    with pytest.raises(ValueError):
        generate_sbm((5, 0), p_in=0.5, p_out=0.1, feature_dim=2, feature_shift=1.0, seed=0)
    # non-integral sizes and widths are refused, not truncated or left to numpy
    with pytest.raises(ValueError, match="block_sizes"):
        generate_sbm((2.7, 3), p_in=0.5, p_out=0.1, feature_dim=2, feature_shift=1.0, seed=0)
    with pytest.raises(ValueError, match="feature_dim"):
        generate_sbm((5, 5), p_in=0.5, p_out=0.1, feature_dim=2.5, feature_shift=1.0, seed=0)


_SBM_CASES = [
    # uneven and size-1 blocks; the second has 28 135 cells, enough for three
    # workers of 4096-cell bands
    ((5, 1, 13, 1, 8), 0.5, 0.2, 3),
    ((100, 37, 1, 64), 0.1, 0.05, 8),
    ((1,), 0.5, 0.5, 0),
]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("band", [1, 7, 4096])
def test_sbm_edges_match_dense_draw(monkeypatch, band, cpus):
    monkeypatch.setattr(graph_module, "SBM_BAND_CELLS", band)
    monkeypatch.setattr(graph_module, "_cpu_count", lambda: cpus)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker threads as often as possible
    try:
        for sizes, p_in, p_out, seed in _SBM_CASES:
            n = sum(sizes)
            g = generate_sbm(sizes, p_in, p_out, feature_dim=2, feature_shift=1.0, seed=seed)
            oracle = oracle_sbm_edges(sizes, p_in, p_out, component_rng(seed, "sbm-edges"))
            dense = sp.csr_matrix(dense_adjacency(n, oracle))
            np.testing.assert_array_equal(g.indptr, dense.indptr)
            np.testing.assert_array_equal(g.indices, dense.indices)
            # the edge list itself comes out in the dense draw's order
            drawn = graph_module._sbm_edges(
                list(sizes), p_in, p_out, component_rng(seed, "sbm-edges")
            )
            np.testing.assert_array_equal(drawn, oracle)
    finally:
        sys.setswitchinterval(switch)


def test_sbm_extreme_probabilities_and_one_node():
    sizes = (4, 1, 6)
    empty = generate_sbm(sizes, p_in=0.0, p_out=0.0, feature_dim=2, feature_shift=1.0, seed=1)
    assert empty.num_edges == 0
    full = generate_sbm(sizes, p_in=1.0, p_out=1.0, feature_dim=2, feature_shift=1.0, seed=1)
    assert full.num_edges == 11 * 10 // 2
    single = generate_sbm((1,), p_in=1.0, p_out=1.0, feature_dim=3, feature_shift=1.0, seed=1)
    assert single.num_nodes == 1 and single.num_edges == 0
    assert single.features.shape == (1, 3)
    assert single.labels.tolist() == [0] and single.split.tolist() == [TRAIN]


# ---------------------------------------------------------------------------
# text file formats
# ---------------------------------------------------------------------------


def test_graph_files_round_trip(tmp_path):
    g = generate_sbm((12, 9), p_in=0.5, p_out=0.1, feature_dim=3, feature_shift=1.5, seed=5)
    paths = save_graph_files(g, tmp_path)
    back = load_graph_files(paths["edges"], paths["features"], paths["labels"], paths["split"])
    np.testing.assert_array_equal(back.indptr, g.indptr)
    np.testing.assert_array_equal(back.indices, g.indices)
    np.testing.assert_allclose(back.features, g.features, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(back.labels, g.labels)
    np.testing.assert_array_equal(back.split, g.split)


def test_edge_list_accepts_comments_and_blank_lines(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# a comment\n0 1\n\n2 1\n")
    edges = load_edge_list(p)
    assert edges.tolist() == [[0, 1], [2, 1]]


def test_loaders_reject_malformed_inputs(tmp_path):
    feats = tmp_path / "features.txt"
    labels = tmp_path / "labels.txt"
    split = tmp_path / "split.txt"
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n")
    feats.write_text("0.5 1.0\n1.5\n")  # ragged row
    labels.write_text("0\n1\n")
    split.write_text("train\nvalid\n")
    with pytest.raises(ValueError):
        load_graph_files(edges, feats, labels, split)

    feats.write_text("0.5 1.0\n1.5 2.0\n")
    split.write_text("train\nnope\n")
    with pytest.raises(ValueError):
        load_graph_files(edges, feats, labels, split)

    split.write_text("train\nvalid\n")
    labels.write_text("0\n1\n2\n")  # length mismatch vs features
    with pytest.raises(ValueError):
        load_graph_files(edges, feats, labels, split)

    labels.write_text("0\n1\n")
    edges.write_text("0 9\n")  # node id out of range
    with pytest.raises(ValueError):
        load_graph_files(edges, feats, labels, split)
