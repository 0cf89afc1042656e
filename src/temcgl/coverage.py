"""Receptive-field coverage accounting and the coverage-weighted sampler.

The coverage of a node set is the fraction of a universe of nodes that
falls inside at least one member's L-hop receptive field. Since balls
overlap, coverage of a set is a union, not a sum.

Balls come from `graph._reach` as plain index arrays: row i of a block of
candidates lists the ball around candidate i, and its members inside the
universe are counted.
`coverage_max_sample` draws candidates sequentially without replacement,
each draw in proportion to the candidate's singleton coverage. It ignores
overlap: drawing a candidate does not lower the weight of another whose
ball it already covers, so the draw does not maximise the union.
"""
from __future__ import annotations

import numpy as np

from .graph import Graph, _reach, _whole_numbers

# Candidates whose balls are expanded together in one sparse product; bounds
# the fill-in of the reachability block on dense graphs or large radii.
COVERAGE_BLOCK_ROWS = 1024


def _universe_mask(g: Graph, universe: np.ndarray | None) -> np.ndarray:
    if universe is None:
        return np.ones(g.num_nodes, dtype=bool)
    universe = _whole_numbers("universe", universe)
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
    nodes = _whole_numbers("nodes", nodes)
    if nodes.size == 0:
        return 0.0
    if nodes.min() < 0 or nodes.max() >= g.num_nodes:
        raise ValueError("node id out of range")
    _, ball = _reach(g, nodes.ravel(), [0, nodes.size], hops)
    return float(mask[ball].sum() / total)


def singleton_coverage_table(
    g: Graph, candidates: np.ndarray, hops: int, universe: np.ndarray | None = None
) -> np.ndarray:
    """Per-candidate coverage ratios, aligned with `candidates`."""
    if hops < 0:
        raise ValueError("hops must be >= 0")
    mask = _universe_mask(g, universe)
    total = int(mask.sum())
    candidates = _whole_numbers("candidates", candidates)
    if len(candidates) and (candidates.min() < 0 or candidates.max() >= g.num_nodes):
        raise ValueError("candidate node id out of range")
    table = np.empty(len(candidates))
    for start in range(0, len(candidates), COVERAGE_BLOCK_ROWS):
        block = candidates[start : start + COVERAGE_BLOCK_ROWS]
        indptr, ball = _reach(g, block, np.arange(len(block) + 1), hops)
        # each row's universe members; no row is empty, as each holds its candidate
        table[start : start + len(block)] = np.add.reduceat(mask[ball], indptr[:-1], dtype=np.int64) / total
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
    candidates = _whole_numbers("candidates", candidates)
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
