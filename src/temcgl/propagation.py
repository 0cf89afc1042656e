"""Parameter-free propagation: turning features into topology-aware embeddings.

A propagation strategy maps the node-feature matrix through the normalised
graph operator without any trainable weights. The resulting embedding of a
node is a fixed function of its receptive field, so it can be computed once,
stored, and later replayed in place of the subgraph it summarises. Three
linear variants (all polynomials in the normalised adjacency) and one
nonlinear fixed-random-weight encoder are provided:

* ``power``        E = A_hat^L X
* ``hop_average``  E = (1/L) * sum_{l=1..L} ((1-alpha) A_hat^l X + alpha X)
* ``lazy_power``   E = ((1-alpha) A_hat + alpha I)^L X
* ``reservoir``    H_0 = X;  H_i = tanh(H_{i-1} W_in^T + (A_hat H_{i-1}) W_agg^T)

For the linear variants, restricting the operator to a node's L-hop
receptive field (copying values, not renormalising) reproduces that node's
embedding bit for bit — `subnetwork_te` is that recomputation path.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import Graph, NormalizedAdjacency, _hop_count, _int_fields, _node_id, _reach
from .rng import component_rng

LINEAR_VARIANTS = ("power", "hop_average", "lazy_power")
VARIANTS = LINEAR_VARIANTS + ("reservoir",)


@dataclass(frozen=True)
class PropagationStrategy:
    """Recipe for one propagation run; hashable, fully descriptive.

    ``alpha`` applies to hop_average / lazy_power only. ``hidden_dim``,
    ``weight_scale`` and ``seed`` apply to the reservoir only; a None
    weight_scale means "auto": scale all weight matrices so the recurrent
    aggregation matrix has an estimated spectral norm of 0.9.
    """

    variant: str
    hops: int
    alpha: float | None = None
    hidden_dim: int | None = None
    weight_scale: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _int_fields(self, "hops", "hidden_dim", "seed")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown propagation variant {self.variant!r}")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.variant in ("hop_average", "lazy_power"):
            if self.alpha is None:
                raise ValueError(f"{self.variant} needs alpha")
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError("alpha must lie in [0, 1]")
        elif self.alpha is not None:
            raise ValueError(f"{self.variant} takes no alpha")
        if self.variant == "reservoir":
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ValueError("reservoir needs hidden_dim >= 1")
            if self.weight_scale is not None:
                if not np.isfinite(self.weight_scale):
                    raise ValueError(f"weight_scale must be finite, got {self.weight_scale}")
                if self.weight_scale <= 0:
                    raise ValueError("weight_scale must be positive")
        else:
            if self.hidden_dim is not None or self.weight_scale is not None:
                raise ValueError(f"{self.variant} takes no reservoir parameters")
            if self.seed != 0:
                raise ValueError("seed only applies to the reservoir variant")

    @property
    def is_linear(self) -> bool:
        return self.variant in LINEAR_VARIANTS

    @property
    def default_self_loops(self) -> bool:
        # power has no self-mixing term of its own; the others do
        # (alpha * I for the linear blends, W_in * x_v for the reservoir).
        return self.variant == "power"


@dataclass(frozen=True)
class TEMatrix:
    """One embedding row per node."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding matrix contains non-finite values")

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# forward computation
# ---------------------------------------------------------------------------


def _propagate_linear(adj: NormalizedAdjacency, x: np.ndarray, strategy: PropagationStrategy) -> np.ndarray:
    if strategy.variant == "power":
        p = x
        for _ in range(strategy.hops):
            p = adj.spmm(p)
        return p
    # A blend sums p * (1 - alpha) and y * alpha in that order, the bits of
    # (1 - alpha) * p + alpha * y, with one n x d temporary beside its result.
    a, p = strategy.alpha, x
    if strategy.variant == "hop_average":
        acc = np.zeros_like(x)
        for _ in range(strategy.hops):
            p = adj.spmm(p)
            blend = p * (1.0 - a)
            blend += x * a
            acc += blend
        acc /= strategy.hops
        return acc
    for _ in range(strategy.hops):  # lazy_power
        q = adj.spmm(p)
        q *= 1.0 - a
        q += np.multiply(p, a, out=None if p is x else p)  # p is not read again
        p = q
    return p


def _power_iteration_norm(mat: np.ndarray, iters: int = 50) -> float:
    v = np.ones(mat.shape[1]) / np.sqrt(mat.shape[1])
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return float(np.linalg.norm(mat @ v))


# Bounded: one entry holds 4 * hidden_dim * max(in_dim, hidden_dim) floats.
@functools.lru_cache(maxsize=16)
def reservoir_weights(strategy: PropagationStrategy, in_dim: int) -> tuple[np.ndarray, ...]:
    """Fixed random weight matrices for the reservoir encoder.

    Step 1 uses an (input->hidden) pair; steps 2..L share a
    (hidden->hidden) pair, returned as (W_in1, W_agg1, W_in2, W_agg2)
    (the last two only when hops > 1). All entries are i.i.d. uniform in
    [-s, +s]; with weight_scale=None, s is chosen so the recurrent
    aggregation matrix has an estimated spectral norm of 0.9.

    The draw is a pure function of (strategy, in_dim), so it is memoised;
    the arrays are shared between callers and therefore read-only.
    """
    if strategy.variant != "reservoir":
        raise ValueError("reservoir_weights needs a reservoir strategy")
    rng = component_rng(strategy.seed, "reservoir-weights")
    h = strategy.hidden_dim
    shapes = [(h, in_dim), (h, in_dim)]
    if strategy.hops > 1:
        shapes += [(h, h), (h, h)]
    raw = [rng.uniform(-1.0, 1.0, size=s) for s in shapes]
    if strategy.weight_scale is None:
        reference = raw[3] if strategy.hops > 1 else raw[1]
        scale = 0.9 / max(_power_iteration_norm(reference), 1e-12)
    else:
        scale = strategy.weight_scale
    mats = tuple(m * scale for m in raw)
    for m in mats:
        m.setflags(write=False)
    return mats


def _propagate_reservoir(adj: NormalizedAdjacency, x: np.ndarray, strategy: PropagationStrategy) -> np.ndarray:
    mats = reservoir_weights(strategy, x.shape[1])
    h = x
    for step in range(strategy.hops):
        w_in, w_agg = (mats[0], mats[1]) if step == 0 else (mats[2], mats[3])
        # the aggregate first, so A_hat h is freed before h W_in^T is made;
        # addition commutes, so the sum has the bits of h W_in^T + A_hat h W_agg^T
        agg = adj.spmm(h) @ w_agg.T
        agg += h @ w_in.T
        h = np.tanh(agg, out=agg)
    return h


def compute_tes(adj: NormalizedAdjacency, features: np.ndarray, strategy: PropagationStrategy) -> TEMatrix:
    """Topology-aware embeddings for every node of the graph behind `adj`."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != adj.num_nodes:
        raise ValueError(
            f"features must be ({adj.num_nodes}, dim), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    if strategy.is_linear:
        values = _propagate_linear(adj, x, strategy)
    else:
        values = _propagate_reservoir(adj, x, strategy)
    return TEMatrix(values=np.ascontiguousarray(values))


def propagation_row(adj: NormalizedAdjacency, strategy: PropagationStrategy, v: int) -> np.ndarray:
    """Row v of the implied dense propagation operator, without building it.

    Works by pushing the indicator vector of v through the strategy; since
    the operator is a polynomial in the symmetric normalised adjacency, its
    column v equals its row v.
    """
    if not strategy.is_linear:
        raise ValueError("propagation_row is defined for linear strategies only")
    v = _node_id("v", v, adj.num_nodes)
    indicator = np.zeros((adj.num_nodes, 1))
    indicator[v, 0] = 1.0
    return _propagate_linear(adj, indicator, strategy)[:, 0]


# ---------------------------------------------------------------------------
# receptive fields
# ---------------------------------------------------------------------------


def receptive_field(g: Graph | NormalizedAdjacency, v: int, hops: int) -> np.ndarray:
    """Sorted node ids whose features can reach v within `hops` steps.

    This is the closed `hops`-ball around v (v included). `g` may be a
    `Graph` or a `NormalizedAdjacency`; only the CSR structure is read.
    """
    v = _node_id("v", v, g.num_nodes)
    return np.sort(_reach(g, [v], [0, 1], _hop_count(hops))[1]).astype(np.int64)


def subnetwork_te(adj: NormalizedAdjacency, features: np.ndarray, strategy: PropagationStrategy, v: int) -> np.ndarray:
    """Node v's embedding recomputed from its receptive field alone.

    Restricts the parent operator (values copied verbatim) to the L-hop
    ball around v and reruns the strategy there. For linear strategies the
    result is bit-identical to row v of `compute_tes` on the full graph.
    """
    nodes = receptive_field(adj, v, strategy.hops)
    sub = adj.restrict(nodes)
    x = np.asarray(features, dtype=np.float64)[nodes]
    values = compute_tes(sub, x, strategy).values
    return values[int(np.searchsorted(nodes, v))]
