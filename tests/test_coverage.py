from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temcgl import coverage
from temcgl.coverage import coverage_max_sample, coverage_ratio, singleton_coverage_table
from temcgl.graph import build_graph

from helpers import ball_oracle, path_edges, random_edges, star_edges


def _three_disjoint_stars():
    """Three stars with ball sizes 13, 15, 14 plus filler, 50 nodes total.

    With one-hop receptive fields the three centers cover disjoint node
    sets, so their joint coverage is exactly the sum of the singleton
    coverages: 42/50.
    """
    edges = []
    centers = []
    start = 0
    for degree in (12, 14, 13):
        center = start
        centers.append(center)
        edges.extend([center, center + 1 + i] for i in range(degree))
        start += degree + 1
    num_nodes = start + 8  # pad with isolated nodes up to 50
    g = build_graph(num_nodes, np.array(edges))
    assert num_nodes == 50
    return g, np.array(centers)


def test_coverage_ratio_trivial_cases():
    g = build_graph(8, star_edges(7))
    all_nodes = np.arange(8)
    assert coverage_ratio(g, all_nodes, hops=1) == 1.0
    assert coverage_ratio(g, np.array([], dtype=np.int64), hops=2) == 0.0
    assert coverage_ratio(g, np.array([0]), hops=1) == 1.0  # center sees everyone
    assert coverage_ratio(g, np.array([3]), hops=1) == pytest.approx(2 / 8)


def test_singleton_table_matches_set_bfs_oracle():
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(3, 40))
        edges = random_edges(n, 0.15, rng)
        g = build_graph(n, edges)
        hops = int(rng.integers(1, 4))
        candidates = rng.permutation(n)[: max(1, n // 2)]
        table = singleton_coverage_table(g, candidates, hops=hops)
        for c, got in zip(candidates, table):
            want = len(ball_oracle(n, edges, [int(c)], hops)) / n
            assert got == pytest.approx(want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), hops=st.integers(0, 3), block=st.sampled_from([3, 1024]))
def test_singleton_table_matches_set_bfs_with_universe(seed: int, hops: int, block: int):
    # a block of 3 makes the candidates span several sparse products
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    pad = int(rng.integers(0, 4))  # trailing isolated nodes
    edges = random_edges(n, float(rng.uniform(0.0, 0.3)), rng)
    g = build_graph(n + pad, edges)
    candidates = rng.permutation(n + pad)[: int(rng.integers(1, n + pad + 1))]
    universe = None
    members = set(range(n + pad))
    if rng.random() < 0.7:
        universe = rng.choice(n + pad, size=int(rng.integers(1, n + pad + 1)), replace=False)
        members = {int(u) for u in universe}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage, "COVERAGE_BLOCK_ROWS", block)
        table = singleton_coverage_table(g, candidates, hops=hops, universe=universe)
    want = [
        len(ball_oracle(n + pad, edges, [int(c)], hops) & members) / len(members)
        for c in candidates
    ]
    assert table.tolist() == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), hops=st.integers(0, 3), with_universe=st.booleans())
def test_coverage_ratio_matches_set_bfs(seed: int, hops: int, with_universe: bool):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    pad = int(rng.integers(0, 4))  # trailing isolated nodes
    edges = random_edges(n, float(rng.uniform(0.0, 0.3)), rng)
    g = build_graph(n + pad, edges)
    # drawn with replacement, so the seeds come unsorted and may repeat
    nodes = rng.integers(0, n + pad, size=int(rng.integers(1, 2 * (n + pad))))
    universe = None
    members = set(range(n + pad))
    if with_universe:
        universe = rng.choice(n + pad, size=int(rng.integers(1, n + pad + 1)), replace=False)
        members = {int(u) for u in universe}
    given = nodes.copy()
    got = coverage_ratio(g, nodes, hops=hops, universe=universe)
    np.testing.assert_array_equal(nodes, given)  # repeated seeds are merged in a copy
    assert got == len(ball_oracle(n + pad, edges, nodes, hops) & members) / len(members)


def test_singleton_table_rejects_out_of_range_candidates():
    g = build_graph(4, path_edges(4))
    for bad in ([0, 4], [-1]):
        with pytest.raises(ValueError, match="^candidates: node id out of range for a graph of 4 nodes$"):
            singleton_coverage_table(g, np.array(bad), hops=1)


def test_coverage_rejects_out_of_range_ids_and_negative_hops():
    g = build_graph(4, path_edges(4))
    for bad in ([-1], [0, 4]):
        with pytest.raises(ValueError, match="node id out of range"):
            coverage_ratio(g, np.array(bad), 1)
    with pytest.raises(ValueError, match="hops must be >= 0"):
        coverage_ratio(g, np.array([0]), hops=-1)
    with pytest.raises(ValueError, match="hops must be >= 0"):
        singleton_coverage_table(g, np.array([0]), hops=-1)


def test_union_not_sum_when_fields_overlap():
    g = build_graph(5, path_edges(5))
    nodes = np.array([1, 3])
    joint = coverage_ratio(g, nodes, hops=1)
    singles = singleton_coverage_table(g, nodes, hops=1)
    assert joint == 1.0
    assert joint < singles.sum()  # 3/5 + 3/5 double-counts node 2


def test_disjoint_fields_add_up():
    g, centers = _three_disjoint_stars()
    table = singleton_coverage_table(g, centers, hops=1)
    np.testing.assert_allclose(table, [13 / 50, 15 / 50, 14 / 50])
    joint = coverage_ratio(g, centers, hops=1)
    assert joint == pytest.approx(42 / 50)
    assert joint == pytest.approx(table.sum())


def test_coverage_universe_restriction():
    g = build_graph(8, star_edges(7))
    universe = np.array([0, 1, 2])
    # leaf 1 covers itself and the center; only those intersect the universe
    assert coverage_ratio(g, np.array([1]), hops=1, universe=universe) == pytest.approx(2 / 3)
    table = singleton_coverage_table(g, np.array([0, 3]), hops=1, universe=universe)
    np.testing.assert_allclose(table, [1.0, 1 / 3])
    with pytest.raises(ValueError):
        coverage_ratio(g, np.array([0]), hops=1, universe=np.array([], dtype=np.int64))


def test_coverage_max_sample_basic_contract():
    g, centers = _three_disjoint_stars()
    rng = np.random.default_rng(0)
    candidates = np.arange(50)
    picks = coverage_max_sample(g, candidates, hops=1, budget=10, rng=rng)
    assert len(picks) == 10
    assert len(set(picks.tolist())) == 10  # without replacement
    assert set(picks.tolist()) <= set(candidates.tolist())

    # budget == len(candidates) exhausts them
    rng = np.random.default_rng(1)
    all_picks = coverage_max_sample(g, centers, hops=1, budget=3, rng=rng)
    assert sorted(all_picks.tolist()) == sorted(centers.tolist())

    with pytest.raises(ValueError):
        coverage_max_sample(g, centers, hops=1, budget=4, rng=np.random.default_rng(2))


def test_coverage_max_sample_deterministic_given_rng():
    g, _ = _three_disjoint_stars()
    candidates = np.arange(50)
    a = coverage_max_sample(g, candidates, hops=1, budget=6, rng=np.random.default_rng(42))
    b = coverage_max_sample(g, candidates, hops=1, budget=6, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_coverage_max_sample_star_first_draw_distribution():
    # 7-node star, one-hop fields: center covers 7/7, each leaf 2/7,
    # so the center opens the draw with probability 7/19.
    g = build_graph(7, star_edges(6))
    rng = np.random.default_rng(777)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        first = coverage_max_sample(g, np.arange(7), hops=1, budget=1, rng=rng)[0]
        hits += first == 0
    assert hits / trials == pytest.approx(7 / 19, abs=0.02)


def test_coverage_max_sample_rejects_degenerate_inputs():
    g = build_graph(4, np.array([[0, 1]]))
    # candidates completely outside the universe have zero weight
    with pytest.raises(ValueError):
        coverage_max_sample(
            g,
            np.array([2, 3]),
            hops=1,
            budget=1,
            rng=np.random.default_rng(0),
            universe=np.array([0, 1]),
        )
    with pytest.raises(ValueError):
        coverage_max_sample(g, np.array([0, 0]), hops=1, budget=1, rng=np.random.default_rng(0))
    empty = coverage_max_sample(g, np.arange(4), hops=1, budget=0, rng=np.random.default_rng(0))
    assert empty.size == 0
