"""Receptive-field coverage accounting and the coverage-greedy sampler.

The coverage of a node set is the fraction of a universe of nodes that
falls inside at least one member's L-hop receptive field. Since balls
overlap, coverage of a set is a union, not a sum — the whole point of
sampling for coverage is to avoid paying twice for the same region.

Singleton coverages come from sparse reachability: row i of
E_C (A+I)^L marks the ball around candidate i, and its entries inside the
universe are counted. The sampler draws candidates sequentially without
replacement, each draw weighted by the candidate's singleton coverage.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph, _with_self_loops, bfs_ball

# Candidates whose balls are expanded together in one sparse product; bounds
# the fill-in of the reachability block on dense graphs or large radii.
COVERAGE_BLOCK_ROWS = 1024


def _universe_mask(g: Graph, universe: np.ndarray | None) -> np.ndarray:
    if universe is None:
        return np.ones(g.num_nodes, dtype=bool)
    universe = np.asarray(universe, dtype=np.int64)
    if universe.size == 0:
        raise ValueError("coverage universe is empty")
    if universe.min() < 0 or universe.max() >= g.num_nodes:
        raise ValueError("universe node id out of range")
    mask = np.zeros(g.num_nodes, dtype=bool)
    mask[universe] = True
    return mask


def coverage_ratio(g: Graph, nodes: np.ndarray, hops: int, universe: np.ndarray | None = None) -> float:
    """Fraction of the universe inside the joint receptive field of `nodes`."""
    if hops < 0:
        raise ValueError("hops must be >= 0")
    mask = _universe_mask(g, universe)
    total = int(mask.sum())
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return 0.0
    if nodes.min() < 0 or nodes.max() >= g.num_nodes:
        raise ValueError("node id out of range")
    ball = bfs_ball(g.indptr, g.indices, nodes, hops)
    return float(mask[ball].sum() / total)


def singleton_coverage_table(
    g: Graph, candidates: np.ndarray, hops: int, universe: np.ndarray | None = None
) -> np.ndarray:
    """Per-candidate coverage ratios, aligned with `candidates`."""
    if hops < 0:
        raise ValueError("hops must be >= 0")
    mask = _universe_mask(g, universe)
    total = int(mask.sum())
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) and (candidates.min() < 0 or candidates.max() >= g.num_nodes):
        raise ValueError("candidate node id out of range")
    indptr, indices = _with_self_loops(g.indptr, g.indices)
    # boolean products add by `or`, so every stored entry of a product is True
    step = sp.csr_array(
        (np.ones(len(indices), dtype=bool), indices, indptr), shape=(g.num_nodes, g.num_nodes)
    )
    in_universe = mask.astype(np.float64)
    table = np.empty(len(candidates))
    for start in range(0, len(candidates), COVERAGE_BLOCK_ROWS):
        block = candidates[start : start + COVERAGE_BLOCK_ROWS]
        k = len(block)
        # row i of `reach` is the indicator of the ball around block[i]
        reach = sp.csr_array(
            (np.ones(k, dtype=bool), block, np.arange(k + 1)), shape=(k, g.num_nodes)
        )
        for _ in range(hops):
            reach = reach @ step
        # sums of 1.0 are exact integers, so this divides the same counts
        table[start : start + k] = (reach @ in_universe) / total
    return table


def coverage_max_sample(
    g: Graph,
    candidates: np.ndarray,
    hops: int,
    budget: int,
    rng: np.random.Generator,
    universe: np.ndarray | None = None,
) -> np.ndarray:
    """Draw `budget` distinct candidates, each with probability proportional
    to its singleton coverage among the not-yet-drawn ones.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(np.unique(candidates)) != len(candidates):
        raise ValueError("candidates must be unique")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if budget > len(candidates):
        raise ValueError(f"budget {budget} exceeds {len(candidates)} candidates")
    weights = singleton_coverage_table(g, candidates, hops, universe)
    chosen = np.empty(budget, dtype=np.int64)
    alive = np.ones(len(candidates), dtype=bool)
    for k in range(budget):
        idx_alive = np.flatnonzero(alive)
        w = weights[idx_alive]
        total = w.sum()
        if total <= 0.0:
            raise ValueError("remaining candidates have zero total coverage")
        cum = np.cumsum(w)
        r = rng.uniform(0.0, total)
        j = int(np.searchsorted(cum, r, side="right"))
        j = min(j, len(idx_alive) - 1)
        pick = idx_alive[j]
        chosen[k] = candidates[pick]
        alive[pick] = False
    return chosen
