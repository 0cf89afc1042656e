from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npformat

from temcgl import graph as graph_module
from temcgl.buffer import MemoryBuffer, select_entries
from temcgl.coverage import coverage_max_sample, coverage_ratio, singleton_coverage_table
from temcgl.graph import (
    TEST,
    TRAIN,
    VALID,
    Graph,
    build_graph,
    generate_sbm,
    homophily_ratio,
    induced_subgraph,
    load_graph_files,
    normalize_adjacency,
    save_graph_files,
)
from temcgl.harness import build_task_sequence
from temcgl.model import init_mlp, loss_and_grad, masked_accuracy, pseudo_gradient_check
from temcgl.propagation import PropagationStrategy, TEMatrix, propagation_row, receptive_field, subnetwork_te
from temcgl.rng import component_rng, component_seed_words

from helpers import (
    ball_oracle,
    count_parses,
    dense_adjacency,
    dense_csr,
    dense_normalized,
    dense_operator,
    oracle_asymmetric_entries,
    oracle_sbm_edges,
    oracle_slice_csr,
    oracle_with_self_loops,
    path_edges,
    random_edges,
    traced_peak,
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


def test_graph_refuses_arrays_that_are_not_integers():
    good = dict(
        num_nodes=2,
        indptr=np.array([0, 1, 2]),
        indices=np.array([1, 0]),
        features=np.zeros((2, 1)),
        labels=np.array([0, 1]),
        split=np.zeros(2, dtype=np.int8),
    )
    assert Graph(**good).num_edges == 1
    cases = [
        ("indptr", np.array([0.0, 1.0, 2.0])),
        ("indices", np.array([1.0, 0.0])),
        ("indices", [1, 0]),
        ("indices", np.array([1, 0], dtype=np.uint64)),
        ("labels", np.array([0.5, 1.0])),
        ("split", np.zeros(2)),
    ]
    for name, bad in cases:
        with pytest.raises(ValueError, match=f"^{name} must be an array of signed integers$"):
            Graph(**{**good, name: bad})


def test_builders_refuse_values_that_are_not_whole_numbers():
    g = build_graph(3, path_edges(3))
    adj = normalize_adjacency(g, self_loops=False)
    with pytest.raises(ValueError, match="^edges must be whole numbers$"):
        build_graph(3, [[0.2, 1.9]])
    with pytest.raises(ValueError, match="^edges must be whole numbers$"):
        build_graph(3, [[0, np.nan]])
    with pytest.raises(ValueError, match="^labels must be whole numbers$"):
        build_graph(3, path_edges(3), labels=[0, 0.7, 1])
    with pytest.raises(ValueError, match="^nodes must be whole numbers$"):
        induced_subgraph(g, [0.0, 1.7])
    with pytest.raises(ValueError, match="^nodes must be whole numbers$"):
        adj.restrict([0.0, 1.7])
    # whole numbers stored as floats still work, as they always did
    assert build_graph(3, [[0.0, 1.0]], labels=[0.0, 1.0, 1.0]).labels.tolist() == [0, 1, 1]
    assert induced_subgraph(g, [0.0, 1.0]).num_edges == 1
    assert adj.restrict([1.0, 2.0]).num_nodes == 2


_TWO_ROWS = np.ones((2, 3))
_POWER = PropagationStrategy("power", 1)


def _select(g, candidates, n):
    return select_entries("uniform", g, TEMatrix(g.features), candidates, n, np.random.default_rng(0), 1)


def _pseudo_gradient(adj, node, target_class):
    return pseudo_gradient_check(adj, np.ones((6, 3)), np.ones((3, 2)), node, _POWER, target_class)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda g, adj, p: MemoryBuffer().commit(1.5, _TWO_ROWS, [0, 1], [0, 1]), "^task_id must be an integer"),
        (lambda g, adj, p: MemoryBuffer().commit(1, _TWO_ROWS, [0.7, 1.2], [0, 1]), "^label must be whole"),
        (lambda g, adj, p: MemoryBuffer().commit(1, _TWO_ROWS, [0, 1], [0.3, 1.9]), "^node_id must be whole"),
        (lambda g, adj, p: coverage_max_sample(g, [0.5, 3.9, 5.0], 1, 2, np.random.default_rng(0)),
         "^candidates must be whole"),
        (lambda g, adj, p: coverage_ratio(g, [0.5, 2.0], 1), "^nodes must be whole"),
        (lambda g, adj, p: coverage_ratio(g, [0, 2], 1, universe=[0.5, 3.0]), "^universe must be whole"),
        (lambda g, adj, p: singleton_coverage_table(g, [1.5], 1), "^candidates must be whole"),
        (lambda g, adj, p: loss_and_grad(p, _TWO_ROWS, [0.5, 1.0]), "^y must be whole"),
        (lambda g, adj, p: masked_accuracy(p, _TWO_ROWS, [0.5, 1.0], [0, 1]), "^y must be whole"),
        (lambda g, adj, p: masked_accuracy(p, _TWO_ROWS, [0, 1], [0.5, 1.0]), "^allowed_classes must be whole"),
        (lambda g, adj, p: receptive_field(g, 1.5, 1), "^v must be an integer"),
        (lambda g, adj, p: subnetwork_te(adj, g.features, _POWER, v=1.5), "^v must be an integer"),
        (lambda g, adj, p: propagation_row(adj, _POWER, 1.5), "^v must be an integer"),
        (lambda g, adj, p: _select(g, [0.5, 1.7, 2.0], 2), "^candidates must be whole"),
        (lambda g, adj, p: _select(g, [[0, 1], [2, 3]], 2), "^candidates must be a 1-D array of node ids$"),
        (lambda g, adj, p: _select(g, [0, 1, 2], 1.5), "^n must be an integer"),
        (lambda g, adj, p: coverage_ratio(g, [0, 2], 1.5), "^hops must be an integer"),
        (lambda g, adj, p: singleton_coverage_table(g, [1], 1.5), "^hops must be an integer"),
        (lambda g, adj, p: coverage_max_sample(g, [0, 3], 1.5, 1, np.random.default_rng(0)),
         "^hops must be an integer"),
        (lambda g, adj, p: coverage_max_sample(g, [0, 3], 1, 1.5, np.random.default_rng(0)),
         "^budget must be an integer"),
        (lambda g, adj, p: receptive_field(g, 1, 1.5), "^hops must be an integer"),
        (lambda g, adj, p: _pseudo_gradient(adj, 1.5, 0), "^node must be an integer"),
        (lambda g, adj, p: _pseudo_gradient(adj, 1, 1.5), "^target_class must be an integer"),
        (lambda g, adj, p: init_mlp([3, 2.5], np.random.default_rng(0)), "^layer_dims must be an integer"),
        (lambda g, adj, p: build_task_sequence(g, 1.5), "^classes_per_task must be an integer"),
    ],
    ids=[
        "commit-task_id", "commit-label", "commit-node_id", "coverage_max_sample", "coverage_ratio-nodes",
        "coverage_ratio-universe", "singleton_coverage_table", "loss_and_grad", "masked_accuracy-y",
        "masked_accuracy-classes", "receptive_field", "subnetwork_te", "propagation_row",
        "select_entries-candidates", "select_entries-2d-candidates", "select_entries-n", "coverage_ratio-hops",
        "singleton_coverage_table-hops", "coverage_max_sample-hops", "coverage_max_sample-budget",
        "receptive_field-hops", "pseudo_gradient_check-node", "pseudo_gradient_check-target_class",
        "init_mlp", "build_task_sequence",
    ],
)
def test_entry_points_refuse_ids_that_are_not_whole_numbers(call, match):
    # a fractional id, label or class is refused where it enters, never read as 1
    g = build_graph(6, path_edges(6), features=np.ones((6, 3)))
    params = init_mlp([3, 2], component_rng(0, "whole-numbers"))
    with pytest.raises(ValueError, match=match):
        call(g, normalize_adjacency(g, self_loops=True), params)


def test_build_graph_refuses_split_codes_a_narrowing_cast_would_hide():
    # an int8 cast turned both of these into [0, 1, 2]: node 0 became train
    with pytest.raises(ValueError, match="^split must be whole numbers$"):
        build_graph(3, [[0, 1]], split=np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ValueError, match="^split codes must be train/valid/test$"):
        build_graph(3, [[0, 1]], split=np.array([256, 1, 2]))
    with pytest.raises(ValueError, match="^split codes must be train/valid/test$"):
        build_graph(3, [[0, 1]], split=np.array([-1, 1, 2]))
    # whole codes stored as floats or wide integers still work
    g = build_graph(3, [[0, 1]], split=np.array([2.0, 1.0, 0.0]))
    assert g.split.dtype == np.int8 and g.split.tolist() == [2, 1, 0]
    g = build_graph(3, [[0, 1]], split=np.array([1, 2, 0], dtype=np.int64))
    assert g.split.dtype == np.int8 and g.split.tolist() == [1, 2, 0]


def test_build_graph_refuses_a_node_count_that_is_not_a_positive_integer():
    # numpy's UFuncTypeError and "'minlength' must not be negative" used to answer these
    with pytest.raises(ValueError, match="^num_nodes must be an integer, got 2.5$"):
        build_graph(2.5, [[0, 1]])
    for n in (0, -1):
        with pytest.raises(ValueError, match="^graph needs at least one node$"):
            build_graph(n, [])
    g = build_graph(np.int32(2), [[0, 1]])
    assert g.num_nodes == 2 and type(g.num_nodes) is int


# ---------------------------------------------------------------------------
# int64 CSR kernels against the scipy round trips they replace
# ---------------------------------------------------------------------------

# (num_nodes, edge probability, seed): random graphs with isolated nodes,
# single nodes and no edges among them
_PATTERNS = st.tuples(
    st.integers(1, 24), st.sampled_from([0.0, 0.05, 0.2, 0.6]), st.integers(0, 10**6)
)


def _random_adjacency(pattern) -> tuple[np.ndarray, np.random.Generator]:
    n, p, seed = pattern
    rng = np.random.default_rng(seed)
    return dense_adjacency(n, random_edges(n, p, rng)), rng


@settings(max_examples=120, deadline=None)
@given(pattern=_PATTERNS, fault=st.sampled_from(["none", "drop mirror", "move mirror"]))
@example(pattern=(1, 0.0, 0), fault="none")
@example(pattern=(5, 0.0, 0), fault="drop mirror")
@example(pattern=(2, 1.0, 0), fault="drop mirror")
@example(pattern=(3, 1.0, 0), fault="move mirror")
def test_symmetry_check_matches_scipy_transpose(pattern, fault):
    a, rng = _random_adjacency(pattern)
    n = len(a)
    stored = np.argwhere(a)
    if fault != "none" and len(stored):
        u, v = stored[rng.integers(len(stored))]
        a[u, v] = 0.0  # (v, u) loses its mirror ...
        free = np.flatnonzero(a[u] == 0.0)
        free = free[(free != u) & (free != v)]
        if fault == "move mirror" and len(free):
            a[u, rng.choice(free)] = 1.0  # ... which now sits in another column
    indptr, indices = dense_csr(a)

    def build():
        zeros = np.zeros(n, dtype=np.int64)
        return Graph(n, indptr, indices, np.zeros((n, 1)), zeros, zeros.astype(np.int8))

    if oracle_asymmetric_entries(n, indptr, indices):
        with pytest.raises(ValueError, match="^adjacency is not symmetric$"):
            build()
    else:
        assert build().num_edges * 2 == len(indices)


@settings(max_examples=80, deadline=None)
@given(pattern=_PATTERNS)
@example(pattern=(1, 0.0, 0))
@example(pattern=(4, 0.0, 0))
def test_self_loops_match_scipy_sum(pattern):
    a, _ = _random_adjacency(pattern)
    indptr, indices = dense_csr(a)
    n = len(a)
    want = oracle_with_self_loops(n, indptr, indices)
    zeros = np.zeros(n, dtype=np.int64)
    for ids in (indices, indices.astype(np.int32)):
        g = Graph(n, indptr, ids, np.zeros((n, 1)), zeros, zeros.astype(np.int8))
        adj = normalize_adjacency(g, self_loops=True)
        for x, y in zip(g._hop, want):  # the boolean A + I that `_reach` also steps over
            assert x.dtype == np.int64
            np.testing.assert_array_equal(x, y)
        for x, y in zip((adj.indptr, adj.indices), want):
            assert x.dtype == np.int64
            np.testing.assert_array_equal(x, y)


@settings(max_examples=80, deadline=None)
@given(pattern=_PATTERNS, pick=st.integers(0, 10**6))
@example(pattern=(1, 0.0, 0), pick=0)
@example(pattern=(6, 0.0, 0), pick=1)
def test_slice_csr_matches_full_row_oracle(pattern, pick):
    a, _ = _random_adjacency(pattern)
    n = len(a)
    rng = np.random.default_rng(pick)
    nodes = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    indptr, indices = dense_csr(a)
    got = graph_module._slice_csr(indptr, indices, nodes)
    for x, y in zip(got, oracle_slice_csr(indptr, indices, nodes)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# working memory of the graph step, in int64 entry arrays (nnz x 8 bytes)
# ---------------------------------------------------------------------------


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


@pytest.fixture(scope="module")
def sbm_4k():
    g = generate_sbm((250,) * 16, p_in=0.04, p_out=0.001, feature_dim=4, feature_shift=1.0, seed=3)
    return g, len(g.indices) * 8


def test_build_graph_peak_stays_near_its_graph(sbm_4k):
    g, entry_bytes = sbm_4k
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    upper = rows < g.indices
    edges = np.column_stack([rows[upper], g.indices[upper]])
    built, peak = traced_peak(lambda: build_graph(g.num_nodes, edges, g.features, g.labels, g.split))
    np.testing.assert_array_equal(built.indices, g.indices)
    # the sorted keys and their transposed copy, not scipy copies of the graph
    assert peak - _nbytes(built.indptr, built.indices) < 3 * entry_bytes


def test_normalize_adjacency_peak_stays_near_its_result(sbm_4k):
    g, entry_bytes = sbm_4k
    g = dataclasses.replace(g)  # a new object, so its cached boolean A + I is built in the traced call
    adj, peak = traced_peak(lambda: normalize_adjacency(g, self_loops=True))
    # one gathered factor beside the result, and no row array; the boolean
    # A + I kept on `g` shares its index arrays with the result
    assert peak - _nbytes(adj.indptr, adj.indices, adj.values, adj.degrees) < 2 * entry_bytes


def test_induced_subgraph_peak_stays_near_its_result(sbm_4k):
    g, entry_bytes = sbm_4k
    nodes = np.flatnonzero(g.labels < 12)
    sub, peak = traced_peak(lambda: induced_subgraph(g, nodes))
    held = _nbytes(sub.indptr, sub.indices, sub.features, sub.labels, sub.split)
    assert peak - held < 3 * entry_bytes


@pytest.fixture(scope="module")
def sbm_wide():
    # wide features outweigh the CSR arrays, so a copy of them shows in a peak
    return generate_sbm((200,) * 10, p_in=0.02, p_out=0.001, feature_dim=64, feature_shift=1.0, seed=5)


def test_contiguous_induced_subgraph_views_the_parent_read_only(sbm_wide):
    g = sbm_wide
    nodes = np.arange(200, 1800)
    sub, peak = traced_peak(lambda: induced_subgraph(g, nodes))
    for name in ("features", "labels", "split"):
        view, parent = getattr(sub, name), getattr(g, name)
        copied = parent[nodes]  # what any other selection gets
        assert view.dtype == copied.dtype
        np.testing.assert_array_equal(view, copied)
        assert not view.flags.writeable and np.shares_memory(view, parent)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1
        assert parent.flags.writeable
    # the views are not new arrays; only the slice's CSR arrays are
    assert peak - _nbytes(sub.indptr, sub.indices) < sub.features.nbytes


def test_induced_subgraph_of_every_node_is_the_graph_itself(sbm_wide):
    # so the last keep_seen task slices no CSR copy of the whole graph
    assert induced_subgraph(sbm_wide, np.arange(sbm_wide.num_nodes)) is sbm_wide


def test_scattered_induced_subgraph_copies_the_parent_columns(sbm_wide):
    g = sbm_wide
    nodes = np.flatnonzero(g.labels % 2 == 0)
    sub = induced_subgraph(g, nodes)
    for name in ("features", "labels", "split"):
        column, parent = getattr(sub, name), getattr(g, name)
        np.testing.assert_array_equal(column, parent[nodes])
        assert column.flags.writeable and not np.shares_memory(column, parent)


def test_sbm_draws_its_features_in_place(monkeypatch):
    # the noise matrix takes each class mean in place, so no second n x dim
    # array is live; one CPU keeps the edge workers' band buffers to one
    monkeypatch.setattr(graph_module, "_cpu_count", lambda: 1)
    g, peak = traced_peak(
        lambda: generate_sbm((500,) * 4, p_in=0.01, p_out=0.001, feature_dim=256, feature_shift=1.0, seed=6)
    )
    held = _nbytes(g.indptr, g.indices, g.features, g.labels, g.split)
    assert peak - held < g.features.nbytes // 2


def test_to_scipy_shares_the_operator_arrays(sbm_4k, monkeypatch):
    # `spmm` hands scipy's kernel the operator's own arrays instead of copies
    g, _ = sbm_4k
    calls, kernel = [], graph_module._sparsetools.csr_matvecs

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(graph_module._sparsetools, "csr_matvecs", spy)
    for loops in (False, True):
        adj = normalize_adjacency(g, self_loops=loops)
        out = adj.spmm(g.features)
        *_, indptr, indices, values, x, into = calls.pop()
        assert indptr is adj.indptr and indices is adj.indices and values is adj.values
        assert x is g.features and into is out


# ---------------------------------------------------------------------------
# symmetric normalisation
# ---------------------------------------------------------------------------


def test_normalize_path_hand_values():
    g = build_graph(3, path_edges(3))
    adj = normalize_adjacency(g, self_loops=False)
    dense = dense_operator(adj)
    s = 1.0 / np.sqrt(2.0)
    expect = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
    np.testing.assert_allclose(dense, expect, atol=1e-15)

    withloops = dense_operator(normalize_adjacency(g, self_loops=True))
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
            np.testing.assert_allclose(dense_operator(adj), oracle, atol=1e-14)
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
    dense = dense_operator(adj)
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
        dense = dense_operator(adj)
        x = rng.standard_normal((n, 3))
        np.testing.assert_allclose(adj.spmm(x), dense @ x, atol=1e-12)

        keep = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        sub = adj.restrict(keep)
        # restriction copies operator values; it must NOT renormalise
        np.testing.assert_array_equal(dense_operator(sub), dense[np.ix_(keep, keep)])


def test_spmm_allocates_only_its_result():
    rng = np.random.default_rng(5)
    n = 2000
    edges = random_edges(n, 0.005, rng)
    adj = normalize_adjacency(build_graph(n, edges), self_loops=True)
    for x in (rng.standard_normal((n, 8)), rng.standard_normal(n)):
        out, peak = traced_peak(lambda: adj.spmm(x))
        assert out.nbytes <= peak < out.nbytes + 1024


# ---------------------------------------------------------------------------
# scipy's kernels, called directly: the same bits as scipy's own calls
# ---------------------------------------------------------------------------


def _views_of(x: np.ndarray) -> dict[str, np.ndarray]:
    """`x` (n, 4) as every layout `spmm` takes."""
    wide = np.zeros((len(x), 12))
    wide[:, ::3] = x
    return {
        "vector": x[:, 0].copy(),
        "column": x[:, :1].copy(),
        "matrix": x,
        "fortran": np.asfortranarray(x),
        "strided columns": wide[:, ::3],
        "strided vector": wide[:, 3],
        "integers": np.rint(x * 4).astype(np.int64),
    }


@settings(max_examples=60, deadline=None)
@given(pattern=_PATTERNS, loops=st.booleans())
@example(pattern=(5, 0.0, 0), loops=False)  # every row empty
@example(pattern=(12, 0.2, 3), loops=False)
def test_spmm_matches_scipy_bit_for_bit(pattern, loops):
    a, rng = _random_adjacency(pattern)
    n = len(a)
    indptr, indices = dense_csr(a)
    zeros = np.zeros(n, dtype=np.int64)
    adj = normalize_adjacency(Graph(n, indptr, indices, np.zeros((n, 1)), zeros, zeros.astype(np.int8)), loops)
    matrix = sp.csr_array((adj.values, adj.indices, adj.indptr), shape=(n, n))
    for name, x in _views_of(rng.standard_normal((n, 4))).items():
        got, want = adj.spmm(x), matrix @ x
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64, name
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


def test_kernels_are_scipys_own_file():
    import scipy.sparse._sparsetools as scipy_kernels

    assert graph_module._sparsetools.__file__ == scipy_kernels.__file__


def test_kernel_loader_names_what_it_looked_for(monkeypatch):
    import importlib.machinery
    import importlib.util

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"_sparsetools\.missing\.so"):
        graph_module._load_sparsetools()
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        graph_module._load_sparsetools()


def _operator(**changes) -> graph_module.NormalizedAdjacency:
    """A valid 3-node path operator without self loops, with `changes` applied."""
    s = 1.0 / np.sqrt(2.0)
    fields = dict(
        num_nodes=3,
        indptr=np.array([0, 1, 3, 4]),
        indices=np.array([1, 0, 2, 1]),
        values=np.array([s, s, s, s]),
        degrees=np.array([1.0, 2.0, 1.0]),
        self_loops=False,
    )
    return graph_module.NormalizedAdjacency(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(indptr=np.array([0, 1, 3])), "index pointer size"),
        (dict(indptr=np.array([[0, 1, 3, 4]])), "index pointer size"),
        (dict(indptr=np.array([1, 1, 3, 4])), "start with 0"),
        (dict(indptr=np.array([0, 3, 1, 4])), "never decrease"),
        (dict(indptr=np.array([0, 1, 3, 3])), "last index pointer value 3"),
        (dict(indptr=np.array([0, 1, 3, 4.0])), "indptr must be an array of integers"),
        (dict(indices=np.array([1.0, 0, 2, 1])), "indices must be an array of integers"),
        (dict(values=np.ones(3)), "same size"),
        (dict(indices=np.array([[1, 0, 2, 1]])), "1-D"),
        (dict(indices=np.array([1, 0, 5, 1])), r"column indices should lie in \[0, 3\)"),
        (dict(indices=np.array([1, 0, -1, 1])), r"column indices should lie in \[0, 3\)"),
        (dict(degrees=np.ones(2)), "degrees shape"),
        (dict(num_nodes=0, indptr=np.array([0]), indices=np.array([], dtype=int), values=np.array([])), "at least one node"),
    ],
)
def test_operator_refuses_malformed_csr(changes, message):
    # the kernels read without bounds checks: a column of 5 or -1 once read
    # memory outside `x`
    with pytest.raises(ValueError, match=message):
        _operator(**changes)


def test_operator_stores_the_kernels_dtypes():
    adj = _operator(indptr=np.array([0, 1, 3, 4], dtype=np.int32), indices=np.array([1, 0, 2, 1], dtype=np.uint8))
    assert adj.indptr.dtype == adj.indices.dtype == np.int64
    assert adj.values.dtype == adj.degrees.dtype == np.float64
    np.testing.assert_array_equal(adj.spmm(np.ones(3)), _operator().spmm(np.ones(3)))


@pytest.mark.parametrize(
    "x, message",
    [
        (np.ones(2), "dimension mismatch"),
        (np.ones((4, 2)), "dimension mismatch"),
        (np.ones((3, 2, 1)), "could not interpret"),
        (np.float64(1.0), "could not interpret"),
    ],
)
def test_spmm_refuses_x_of_the_wrong_shape(x, message, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(graph_module._sparsetools, "csr_matvecs", no_kernel)
    with pytest.raises(ValueError, match=message):
        _operator().spmm(x)


def test_restrict_requires_sorted_unique_ids():
    g = build_graph(4, path_edges(4))
    adj = normalize_adjacency(g, self_loops=False)
    with pytest.raises(ValueError):
        adj.restrict(np.array([2, 1]))
    with pytest.raises(ValueError):
        adj.restrict(np.array([1, 1, 2]))


# ---------------------------------------------------------------------------
# L-hop reachability
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    pattern=_PATTERNS,
    hops=st.integers(0, 3),
    looped=st.booleans(),
    rows=st.lists(st.lists(st.integers(0, 10**6), max_size=6), min_size=1, max_size=5),
)
@example(pattern=(1, 0.0, 0), hops=0, looped=False, rows=[[]])
@example(pattern=(5, 0.6, 1), hops=2, looped=True, rows=[[3, 3, 0], [], [1, 4, 1]])
def test_reach_rows_match_set_bfs(pattern, hops, looped, rows):
    # rows of several seeds, repeated seeds or none, over the pattern of a
    # graph or of its self-looped operator, whose stored diagonal adds nothing
    n, p, seed = pattern
    edges = random_edges(n, p, np.random.default_rng(seed))
    g = build_graph(n, edges)
    structure = normalize_adjacency(g, True) if looped else g
    rows = [[s % n for s in row] for row in rows]
    seeds = np.array([s for row in rows for s in row], dtype=np.int64)
    starts = np.cumsum([0] + [len(row) for row in rows])
    given = seeds.copy(), starts.copy()
    indptr, indices = graph_module._reach(structure, seeds, starts, hops)
    np.testing.assert_array_equal(seeds, given[0])  # the caller's arrays are left as they were
    np.testing.assert_array_equal(starts, given[1])
    assert type(indptr) is np.ndarray and type(indices) is np.ndarray
    assert indptr.shape == (len(rows) + 1,) and indptr[0] == 0 and indptr[-1] == len(indices)
    for r, row in enumerate(rows):
        got = indices[indptr[r] : indptr[r + 1]].tolist()
        assert len(got) == len(set(got))  # each node once
        assert set(got) == ball_oracle(n, edges, row, hops)


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
    dense = dense_operator(normalize_adjacency(sub, self_loops=False))
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
    # refused up front, not later as non-finite features that name no argument
    for shift in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="^feature_shift must be finite and >= 0"):
            generate_sbm((5, 5), p_in=0.5, p_out=0.1, feature_dim=2, feature_shift=shift, seed=0)


def test_sbm_refuses_a_seed_that_is_not_an_integer():
    # seed=1.5 used to be truncated to seed 1's graph
    args = dict(p_in=0.5, p_out=0.1, feature_dim=2, feature_shift=1.0)
    for seed in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            generate_sbm((5, 5), seed=seed, **args)
    one = generate_sbm((5, 5), seed=1, **args)
    for same in (np.int64(1), np.uint8(1)):
        _assert_same_graph(generate_sbm((5, 5), seed=same, **args), one)
    # integer seeds keep their 64-bit two's-complement word
    for seed, word in ((-1, (1 << 64) - 1), (np.int64(-5), (1 << 64) - 5), ((1 << 64) + 3, 3)):
        assert component_seed_words(seed, "sbm-edges")[0] == word


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


def _load(paths) -> Graph:
    return load_graph_files(paths["edges"], paths["features"], paths["labels"], paths["split"])


def _assert_same_graph(a: Graph, b: Graph) -> None:
    assert a.num_nodes == b.num_nodes
    np.testing.assert_array_equal(a.features.view(np.int64), b.features.view(np.int64))
    for name in ("indptr", "indices", "labels", "split"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def test_graph_files_round_trip(tmp_path):
    g = generate_sbm((12, 9), p_in=0.5, p_out=0.1, feature_dim=3, feature_shift=1.5, seed=5)
    paths = save_graph_files(g, tmp_path)
    back = load_graph_files(paths["edges"], paths["features"], paths["labels"], paths["split"])
    np.testing.assert_array_equal(back.indptr, g.indptr)
    np.testing.assert_array_equal(back.indices, g.indices)
    np.testing.assert_allclose(back.features, g.features, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(back.labels, g.labels)
    np.testing.assert_array_equal(back.split, g.split)


def _annotated(text: str) -> str:
    """`text` with a comment line, blank lines and an inline comment on every value."""
    lines = [f"{line}  # row {i}" for i, line in enumerate(text.splitlines())]
    return "# header\n\n" + "\n\n".join(lines) + "\n\n"


def test_graph_files_accept_comments_and_blank_lines(tmp_path):
    g = generate_sbm((8, 7), p_in=0.5, p_out=0.1, feature_dim=3, feature_shift=1.5, seed=2)
    paths = save_graph_files(g, tmp_path / "plain")
    noted = tmp_path / "noted"
    noted.mkdir()
    for kind, path in paths.items():
        (noted / path.name).write_text(_annotated(path.read_text()))
    plain = _load(paths)
    back = _load({kind: noted / path.name for kind, path in paths.items()})
    _assert_same_graph(back, plain)


@pytest.mark.parametrize("text", ["", "# no edges\n\n   \n# at all  \n"])
def test_an_edges_file_without_pairs_loads_without_a_warning(tmp_path, text):
    # `save_graph_files` writes an empty edges file for an edgeless graph;
    # the suite turns numpy's "input contained no data" warning into an error
    path = tmp_path / "edges.txt"
    path.write_text(text)
    edges = graph_module.load_edge_list(path)
    assert edges.shape == (0, 2) and edges.dtype == np.int64


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


@pytest.mark.parametrize("kind,text,message", [
    ("edges", "0 1\n1 x\n", "could not convert"),
    ("features", "0.5 1.0\n1.5 x\n", "could not convert"),
    ("features", "0.5 1.0\n1.5\n", "number of columns changed"),
    ("labels", "0\n1.5\n", "could not convert"),
    ("split", "train\nnope\n", "unknown split token"),
], ids=["edges", "features", "features-short-row", "labels", "split"])
def test_parse_error_names_the_file_and_caches_nothing(tmp_path, kind, text, message):
    g = generate_sbm((1, 1), p_in=1.0, p_out=1.0, feature_dim=2, feature_shift=1.0, seed=0)
    paths = save_graph_files(g, tmp_path)
    paths[kind].write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        _load(paths)
    assert str(info.value).startswith(str(paths[kind]))
    assert "usecols" not in str(info.value)
    assert not (tmp_path / graph_module.CACHE_DIR / f"{kind}.txt.npy").exists()


# ---------------------------------------------------------------------------
# parse cache
# ---------------------------------------------------------------------------


@pytest.fixture
def graph_files(tmp_path):
    g = generate_sbm((14, 11), p_in=0.4, p_out=0.05, feature_dim=4, feature_shift=1.0, seed=3)
    return save_graph_files(g, tmp_path)


def test_parse_cache_hit_is_bit_equal_and_parses_nothing(graph_files, monkeypatch):
    parses = count_parses(monkeypatch)
    parsed = _load(graph_files)
    assert sorted(parses.values()) == [1, 1, 1, 1]
    cache = graph_files["features"].parent / graph_module.CACHE_DIR
    assert sorted(p.name for p in cache.iterdir()) == [
        "edges.txt.npy", "features.txt.npy", "labels.txt.npy", "split.txt.npy",
    ]

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed a file the cache holds")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    _assert_same_graph(_load(graph_files), parsed)
    assert sorted(parses.values()) == [1, 1, 1, 1]


def test_parse_cache_parses_an_edited_file_again(graph_files, monkeypatch):
    parses = count_parses(monkeypatch)
    first = _load(graph_files)
    labels = first.labels.copy()
    labels[0] = 1 - labels[0]
    np.savetxt(graph_files["labels"], labels, fmt="%d")
    np.testing.assert_array_equal(_load(graph_files).labels, labels)
    assert parses == {"labels.txt": 2, "features.txt": 1, "split.txt": 1, "edges.txt": 1}
    np.testing.assert_array_equal(_load(graph_files).labels, labels)
    assert parses["labels.txt"] == 2


def test_parse_cache_rewrites_a_truncated_entry(graph_files, monkeypatch):
    parses = count_parses(monkeypatch)
    parsed = _load(graph_files)
    entry = graph_files["features"].parent / graph_module.CACHE_DIR / "features.txt.npy"
    whole = entry.read_bytes()
    entry.write_bytes(whole[: len(whole) // 2])
    _assert_same_graph(_load(graph_files), parsed)
    assert parses["features.txt"] == 2
    assert entry.read_bytes() == whole


def test_parse_cache_write_failure_still_loads(graph_files, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    parsed = _load(graph_files)
    cache = graph_files["features"].parent / graph_module.CACHE_DIR
    shutil.rmtree(cache)
    monkeypatch.setattr(os, "replace", refuse)
    _assert_same_graph(_load(graph_files), parsed)
    assert list(cache.iterdir()) == []


def test_parse_cache_skips_a_file_edited_while_parsed(graph_files, monkeypatch):
    parse = graph_module._load_labels

    def parse_then_edit(path):
        labels = parse(path)
        with open(path, "a") as fh:
            fh.write("# edited\n")
        return labels

    monkeypatch.setattr(graph_module, "_load_labels", parse_then_edit)
    _load(graph_files)
    cache = graph_files["labels"].parent / graph_module.CACHE_DIR
    assert not (cache / "labels.txt.npy").exists()
    assert (cache / "features.txt.npy").exists()


def test_parse_cache_tells_the_parsers_apart(tmp_path, monkeypatch):
    # One file read as one-column features and as labels: the same key, two
    # arrays, told apart by dtype and number of dimensions.
    g = generate_sbm((5, 4), p_in=0.5, p_out=0.1, feature_dim=1, feature_shift=1.0, seed=4)
    paths = save_graph_files(g, tmp_path)
    paths["features"] = paths["labels"]
    parses = count_parses(monkeypatch)
    for _ in range(2):
        back = _load(paths)
        assert back.features.dtype == np.float64 and back.features.shape == (9, 1)
        np.testing.assert_array_equal(back.features[:, 0], g.labels)
        np.testing.assert_array_equal(back.labels, g.labels)
    assert parses["labels.txt"] == 4


def test_parse_key_is_the_digest_of_the_version_and_the_bytes(tmp_path):
    # pinned: every cache entry written so far carries this key for these bytes
    path = tmp_path / "labels.txt"
    path.write_bytes(b"0\n1\n")
    _, key = graph_module._parse_key(path)
    assert key.dtype == np.uint8
    assert key.tobytes().hex() == "be0e9157278bae14f0cf0983e7a7f84bed2edeae14d6e751ca69022e407fc71f"
    # a file of several read chunks hashes like its whole bytes at once
    blob = np.random.default_rng(0).bytes((5 << 19) + 7)
    path.write_bytes(blob)
    _, key = graph_module._parse_key(path)
    assert key.tobytes() == hashlib.sha256(graph_module.PARSE_VERSION + blob).digest()


_PARSERS = {
    "edges": graph_module.load_edge_list,
    "features": graph_module._load_features,
    "labels": graph_module._load_labels,
    "split": graph_module.load_split_file,
}


def test_parse_cache_reads_and_writes_entries_in_their_one_layout(graph_files, monkeypatch):
    # An entry is the key's uint8 array, then the parsed array, each in .npy
    # format. Entries made by hand that way load with no parse, and a cold
    # load writes the same bytes.
    cache = graph_files["features"].parent / graph_module.CACHE_DIR
    cache.mkdir()
    made = {}
    for kind, path in graph_files.items():
        digest = hashlib.sha256(graph_module.PARSE_VERSION + path.read_bytes()).digest()
        entry = cache / f"{path.name}.npy"
        with open(entry, "wb") as fh:
            npformat.write_array(fh, np.frombuffer(digest, dtype=np.uint8))
            npformat.write_array(fh, _PARSERS[kind](path), allow_pickle=False)
        made[entry.name] = entry.read_bytes()
    parses = count_parses(monkeypatch)
    warm = _load(graph_files)
    assert not parses
    shutil.rmtree(cache)
    _assert_same_graph(_load(graph_files), warm)
    assert sorted(parses.values()) == [1, 1, 1, 1]
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == made


@pytest.mark.parametrize("edits,error,message,culprit", [
    # a ragged features file wins over a bad labels file, as when the
    # features were loaded first
    ({"features": "0.5 1.0\n1.5\n", "labels": "0\nx\n"}, ValueError, "number of columns changed", "features"),
    ({"features": None, "labels": "0\nx\n"}, FileNotFoundError, "No such file", None),
    ({"labels": "0\nx\n", "edges": "0 1\n1 x\n"}, ValueError, "could not convert", "labels"),
    ({"split": "train\nnope\n", "edges": "0 x\n"}, ValueError, "unknown split token", "split"),
    # the count checks come before the edge ids
    ({"labels": "0\n" * 24, "edges": "0 -1\n"}, ValueError, "24 labels for 25 feature rows", "labels"),
    ({"split": "train\n" * 26, "edges": "0 25\n"}, ValueError, "26 split rows for 25 feature rows", "split"),
    ({"edges": "0 25\n3 -1\n"}, ValueError, "node id 25 out of range for 25 nodes", "edges"),
    ({"edges": "0 1\n3 -1\n"}, ValueError, "^edge endpoint out of range$", None),
], ids=["features-labels", "no-features", "labels-edges", "split-edges",
        "label-count", "split-count", "edge-id", "negative-id"])
def test_load_reports_the_first_bad_file_in_load_order(graph_files, edits, error, message, culprit):
    for kind, text in edits.items():
        if text is None:
            graph_files[kind].unlink()
        else:
            graph_files[kind].write_text(text)
    with pytest.raises(error, match=message) as info:
        _load(graph_files)
    if culprit is not None:
        assert str(info.value).startswith(str(graph_files[culprit]))


def test_parse_cache_skips_a_features_file_edited_while_hashed(graph_files, monkeypatch):
    key = graph_module._parse_key

    def key_then_edit(path):
        found = key(path)
        if Path(path).name == "features.txt":
            with open(path, "a") as fh:
                fh.write("# edited\n")
        return found

    expected = _load(graph_files)
    shutil.rmtree(graph_files["features"].parent / graph_module.CACHE_DIR)
    monkeypatch.setattr(graph_module, "_parse_key", key_then_edit)
    _assert_same_graph(_load(graph_files), expected)
    cache = graph_files["features"].parent / graph_module.CACHE_DIR
    assert not (cache / "features.txt.npy").exists()
    assert (cache / "labels.txt.npy").exists()


def test_load_leaves_no_thread_behind(graph_files, monkeypatch):
    before = threading.enumerate()
    _load(graph_files)  # cold
    _load(graph_files)  # cached
    assert threading.enumerate() == before

    def refuse(num_nodes, edges):
        raise RuntimeError("calling thread fails while the features are hashed")

    monkeypatch.setattr(graph_module, "_edge_csr", refuse)
    with pytest.raises(RuntimeError, match="calling thread fails"):
        _load(graph_files)
    assert threading.enumerate() == before
    monkeypatch.undo()
    graph_files["labels"].write_text("0\nx\n")
    with pytest.raises(ValueError, match="could not convert"):
        _load(graph_files)
    assert threading.enumerate() == before
    graph_files["features"].unlink()
    with pytest.raises(FileNotFoundError):
        _load(graph_files)
    assert threading.enumerate() == before


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda k: st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=25)),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
@example([], 0, 0)  # an empty edge file: one isolated node
@example([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)], 2, 1)  # duplicate, reversed, looped; two trailing isolated
def test_load_graph_files_matches_build_graph(pairs, isolated, seed):
    # `build_graph` on the arrays written is the oracle, cold and cached
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    n = (int(edges.max()) + 1 if len(edges) else 1) + isolated
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 3))
    labels = rng.integers(0, 4, n)
    split = rng.integers(0, 3, n).astype(np.int8)
    expected = build_graph(n, edges, features=features, labels=labels, split=split)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: Path(tmp) / f"{kind}.txt" for kind in ("edges", "features", "labels", "split")}
        np.savetxt(paths["edges"], edges, fmt="%d")
        np.savetxt(paths["features"], features, fmt="%.17g")
        np.savetxt(paths["labels"], labels, fmt="%d")
        graph_module.save_split_file(split, paths["split"])
        for g in (_load(paths), _load(paths)):
            _assert_same_graph(g, expected)
