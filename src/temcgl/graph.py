"""Undirected graph container, symmetric normalisation, and data plumbing.

Everything downstream operates on a simple undirected graph held in CSR
form. Node features, integer class labels, and a train/valid/test split
travel with the structure so that task slicing stays consistent. The
normalised operator D^{-1/2}(A[+I])D^{-1/2} is kept as a separate value
object because two different restrictions matter later on:

* ``induced_subgraph`` builds a *new* graph (degrees are recomputed when
  it is normalised) — this models a network that has only grown so far;
* ``NormalizedAdjacency.restrict`` copies the parent operator's values
  verbatim — this is what makes a node's receptive field self-contained.

Both restrictions slice the parent CSR arrays with one keep-mask over its
entries, and construction, validation, normalisation and BFS work on whole
arrays (sort keys, masks, bincounts, scipy products); no step loops over
nodes in Python. The SBM generator still draws one uniform per node pair,
O(n^2) time, but in bounded bands spread over threads.
"""
from __future__ import annotations

import copy
import functools
import logging
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .rng import component_rng

logger = logging.getLogger(__name__)

TRAIN, VALID, TEST = 0, 1, 2
SPLIT_TOKENS = {TRAIN: "train", VALID: "valid", TEST: "test"}
SPLIT_CODES = {v: k for k, v in SPLIT_TOKENS.items()}


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with per-node features, labels and split.

    Invariants enforced at construction: CSR structure is valid, column ids
    are strictly increasing inside each row, there are no self loops, and
    the adjacency is symmetric. Builders (`build_graph`, the loaders, the
    generator) canonicalise raw edge lists before constructing one of these.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_nodes
        if n < 1:
            raise ValueError("graph needs at least one node")
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0:
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != len(self.indices):
            raise ValueError("malformed indptr")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("edge endpoint out of range")
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        unsorted = rows[1:][(rows[1:] == rows[:-1]) & (np.diff(self.indices) <= 0)]
        looped = rows[self.indices == rows]
        if unsorted.size or looped.size:
            # report the first bad row; inside it, ordering before self loops
            u = min(unsorted[:1].tolist() + looped[:1].tolist())
            if unsorted.size and unsorted[0] == u:
                raise ValueError(f"row {u} has unsorted or duplicate neighbours")
            raise ValueError(f"self loop stored at node {u}")
        m = self.adjacency()
        if (m != m.T).nnz:
            raise ValueError("adjacency is not symmetric")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be (num_nodes, dim)")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.labels.shape != (n,) or (len(self.labels) and self.labels.min() < 0):
            raise ValueError("labels must be non-negative, one per node")
        if self.split.shape != (n,) or not np.all(np.isin(self.split, (TRAIN, VALID, TEST))):
            raise ValueError("split codes must be train/valid/test")

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def adjacency(self) -> sp.csr_matrix:
        """The 0/1 adjacency matrix as scipy CSR."""
        return sp.csr_matrix(
            (np.ones(len(self.indices)), self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def split_nodes(self, code: int) -> np.ndarray:
        return np.flatnonzero(self.split == code)


def build_graph(
    num_nodes: int,
    edges: np.ndarray,
    features: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    split: np.ndarray | None = None,
) -> Graph:
    """Canonicalise a raw edge array into a `Graph`.

    Edges may appear in either direction, duplicated, or as self loops;
    they are symmetrised, deduplicated, and self loops are dropped.
    Missing features/labels/split default to a single zero feature, label
    zero, and an all-train split.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    u, v = edges[edges[:, 0] != edges[:, 1]].T
    # u*n + v sorts exactly like the pair (u, v), since 0 <= v < n; a sort and
    # a mask dedupe it (np.unique hashes integer keys first, which is slower)
    key = np.sort(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    key = key[np.diff(key, prepend=-1) > 0]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // num_nodes, minlength=num_nodes), out=indptr[1:])
    indices = key % num_nodes

    if features is None:
        features = np.zeros((num_nodes, 1))
    features = np.asarray(features, dtype=np.float64)
    if labels is None:
        labels = np.zeros(num_nodes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if split is None:
        split = np.full(num_nodes, TRAIN, dtype=np.int8)
    split = np.asarray(split, dtype=np.int8)
    return Graph(num_nodes, indptr, indices, features, labels, split)


def _slice_csr(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns `nodes` (sorted, unique) of a CSR pattern, renumbered.

    Returns the new ``indptr`` and ``indices`` plus the mask of kept entries,
    so per-entry values can be sliced alongside. The renumbering is
    monotone, so columns stay sorted inside each row.
    """
    local = np.full(len(indptr) - 1, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    rows = np.repeat(local, np.diff(indptr))
    cols = local[indices]
    keep = (rows >= 0) & (cols >= 0)
    sliced = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=len(nodes)), out=sliced[1:])
    return sliced, cols[keep], keep


# ---------------------------------------------------------------------------
# normalised operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedAdjacency:
    """CSR form of D^{-1/2}(A[+I])D^{-1/2}.

    ``degrees`` records the (post-self-loop) row sums of A[+I]; every stored
    value equals 1/sqrt(degrees[u] * degrees[v]). Rows of isolated nodes are
    empty, never NaN.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    degrees: np.ndarray
    self_loops: bool

    @functools.cached_property
    def _csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def to_scipy(self) -> sp.csr_matrix:
        """The operator as scipy CSR, built once and shared; do not modify it."""
        return self._csr

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Sparse-dense product; the one kernel all propagation goes through.

        scipy's CSR multiply accumulates each output row sequentially in
        stored column order, which is what makes restricted recomputation
        reproduce full-graph rows bit for bit.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        out = self.to_scipy() @ x
        return out[:, 0] if squeeze else out

    def restrict(self, nodes: np.ndarray) -> "NormalizedAdjacency":
        """Submatrix on `nodes` (sorted, unique), copying values verbatim.

        Deliberately does NOT renormalise: the restriction of the parent
        operator is what a node's receptive field needs to reproduce its
        full-graph embedding exactly.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or len(nodes) == 0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("restriction wants a sorted array of unique node ids")
        if nodes[0] < 0 or nodes[-1] >= self.num_nodes:
            raise ValueError("restriction node id out of range")
        indptr, indices, keep = _slice_csr(self.indptr, self.indices, nodes)
        return NormalizedAdjacency(
            num_nodes=len(nodes),
            indptr=indptr,
            indices=indices,
            values=self.values[keep],
            degrees=self.degrees[nodes],
            self_loops=self.self_loops,
        )


def normalize_adjacency(g: Graph, self_loops: bool) -> NormalizedAdjacency:
    """Symmetrically normalised operator of `g`, optionally with self loops."""
    n = g.num_nodes
    indptr, cols = g.indptr, g.indices
    if self_loops:
        a = g.adjacency() + sp.identity(n, format="csr")
        a.sort_indices()
        indptr, cols = a.indptr, a.indices
    # scipy may hand back int32 index arrays; the operator keeps int64
    indptr = indptr.astype(np.int64)
    cols = cols.astype(np.int64)
    deg = np.diff(indptr).astype(np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    inv_sqrt = np.zeros(n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    values = inv_sqrt[rows] * inv_sqrt[cols]
    return NormalizedAdjacency(n, indptr, cols, values, deg, self_loops)


# ---------------------------------------------------------------------------
# neighbourhoods, homophily, subgraphs
# ---------------------------------------------------------------------------


def bfs_ball(indptr: np.ndarray, indices: np.ndarray, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Sorted ids of every node within `hops` steps of any seed."""
    n = len(indptr) - 1
    reached = np.zeros(n, dtype=bool)
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    reached[seeds] = True
    frontier = np.unique(seeds)
    for _ in range(hops):
        if frontier.size == 0:
            break
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        # one gather of every frontier row, concatenated in frontier order
        offsets = np.cumsum(lens) - lens
        cols = indices[np.arange(lens.sum()) + np.repeat(starts - offsets, lens)]
        fresh = np.unique(cols[~reached[cols]])
        reached[fresh] = True
        frontier = fresh
    return np.flatnonzero(reached)


def homophily_ratio(g: Graph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if len(g.indices) == 0:
        raise ValueError("homophily is undefined on an edgeless graph")
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    return float(np.mean(g.labels[rows] == g.labels[g.indices]))


def induced_subgraph(g: Graph, nodes: np.ndarray) -> Graph:
    """Subgraph on `nodes` (sorted, unique) with locally renumbered ids.

    Features, labels, and split codes are sliced along. Degrees inside the
    result are the subgraph's own — normalising it does not reuse parent
    weights (contrast `NormalizedAdjacency.restrict`).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1 or len(nodes) == 0 or np.any(np.diff(nodes) <= 0):
        raise ValueError("induced_subgraph wants a sorted array of unique node ids")
    if nodes[0] < 0 or nodes[-1] >= g.num_nodes:
        raise ValueError("node id out of range")
    indptr, indices, _ = _slice_csr(g.indptr, g.indices, nodes)
    return Graph(len(nodes), indptr, indices, g.features[nodes], g.labels[nodes], g.split[nodes])


# ---------------------------------------------------------------------------
# stochastic block model
# ---------------------------------------------------------------------------

# Cells whose uniforms an SBM edge worker draws into its buffer at a time
# (512 KiB of float64): bounds the generator's memory whatever the block sizes.
SBM_BAND_CELLS = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _as_int(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _sbm_edges(sizes: list[int], p_in: float, p_out: float, rng: np.random.Generator) -> np.ndarray:
    """Edge array of the planted partition, drawn from ``rng``'s stream.

    The stream is that of a dense draw: for every block pair (i, j), i <= j,
    in order, ``ni * nj`` uniforms in row-major order, and cell (r, c) is an
    edge when its uniform is below the pair's probability (on a diagonal
    pair only cells with r < c count). A PCG64 double takes exactly one
    64-bit output, so the stream is cut into one contiguous run per worker
    thread: each copies ``rng``, advances the copy to its run's start and
    draws the run in bands of at most ``SBM_BAND_CELLS`` cells into one
    reused buffer, with the interpreter lock released while it fills it.
    The edges are those of the dense draw, in the same order.
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pairs, total = [], 0  # (stream position of the pair's first cell, i, j)
    for i in range(len(sizes)):
        for j in range(i, len(sizes)):
            pairs.append((total, i, j))
            total += sizes[i] * sizes[j]

    def draw(start: int, stop: int) -> list[np.ndarray]:
        gen = copy.deepcopy(rng)
        gen.bit_generator.advance(start)
        u = np.empty(min(SBM_BAND_CELLS, stop - start))
        hit = np.empty(len(u), dtype=bool)
        found = []
        for base, i, j in pairs:
            nj, end = sizes[j], base + sizes[i] * sizes[j]
            for first in range(max(base, start), min(end, stop), len(u)):
                band = slice(0, min(first + len(u), end, stop) - first)
                gen.random(out=u[band])
                np.less(u[band], p_in if i == j else p_out, out=hit[band])
                r, c = np.divmod(np.flatnonzero(hit[band]) + (first - base), nj)
                if i == j:
                    upper = r < c
                    r, c = r[upper], c[upper]
                found.append(np.column_stack([r + offsets[i], c + offsets[j]]))
        return found

    workers = min(-(-total // SBM_BAND_CELLS), _cpu_count())
    cuts = [total * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(draw, a, b) for a, b in zip(cuts, cuts[1:])]
        found = [e for f in futures for e in f.result()]
    return np.vstack(found)


def generate_sbm(
    block_sizes,
    p_in: float,
    p_out: float,
    feature_dim: int,
    feature_shift: float,
    seed: int,
) -> Graph:
    """Planted-partition graph whose blocks double as class labels.

    Each node pair is linked independently with probability ``p_in``
    inside a block and ``p_out`` across (see `_sbm_edges` for the stream).
    Features are unit Gaussians around per-class means. The first
    ``feature_dim`` class means sit along scaled one-hot directions, exactly
    ``feature_shift`` apart pairwise; any further classes get seeded random
    unit directions (approximately that far apart). Each class is split
    60/20/20 into train/valid/test, with at least one training node.
    """
    sizes = [_as_int("block_sizes", s) for s in block_sizes]
    if len(sizes) == 0 or any(s < 1 for s in sizes):
        raise ValueError("block_sizes must be a non-empty list of positive ints")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if _as_int("feature_dim", feature_dim) < 1:
        raise ValueError("feature_dim must be >= 1")
    if feature_shift < 0:
        raise ValueError("feature_shift must be >= 0")

    num_classes = len(sizes)
    n = sum(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(num_classes), sizes)
    edges = _sbm_edges(sizes, p_in, p_out, component_rng(seed, "sbm-edges"))

    mean_rng = component_rng(seed, "sbm-means")
    radius = feature_shift / np.sqrt(2.0)
    means = np.zeros((num_classes, feature_dim))
    for k in range(num_classes):
        if k < feature_dim:
            means[k, k] = radius
        else:
            direction = mean_rng.standard_normal(feature_dim)
            means[k] = radius * direction / np.linalg.norm(direction)
    feat_rng = component_rng(seed, "sbm-features")
    features = means[labels] + feat_rng.standard_normal((n, feature_dim))

    split_rng = component_rng(seed, "sbm-split")
    split = np.empty(n, dtype=np.int8)
    for k in range(num_classes):
        members = np.arange(offsets[k], offsets[k + 1])
        perm = split_rng.permutation(members)
        n_tr = max(1, (6 * sizes[k]) // 10)
        n_va = (2 * sizes[k]) // 10
        split[perm[:n_tr]] = TRAIN
        split[perm[n_tr : n_tr + n_va]] = VALID
        split[perm[n_tr + n_va :]] = TEST

    logger.debug("sbm: %d nodes, %d classes, %d edges", n, num_classes, len(edges))
    return build_graph(n, edges, features=features, labels=labels, split=split)


# ---------------------------------------------------------------------------
# text file formats
# ---------------------------------------------------------------------------
# edges:    one "u v" pair per line, 0-based ints, undirected
# features: one whitespace-separated float row per node
# labels:   one integer per line
# split:    one token per line from {train, valid, test}
# '#' starts a comment; blank lines are ignored.


def load_edge_list(path) -> np.ndarray:
    data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if data.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns, got {data.shape[1]}")
    return data


def save_edge_list(g: Graph, path) -> None:
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    upper = rows < g.indices
    np.savetxt(path, np.column_stack([rows[upper], g.indices[upper]]), fmt="%d")


def load_feature_table(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.float64, comments="#", ndmin=2)


def save_feature_table(features: np.ndarray, path) -> None:
    np.savetxt(path, features, fmt="%.17g")


def load_label_table(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, comments="#", ndmin=1)


def save_label_table(labels: np.ndarray, path) -> None:
    np.savetxt(path, labels, fmt="%d")


def load_split_file(path) -> np.ndarray:
    codes = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        if token not in SPLIT_CODES:
            raise ValueError(f"{path}:{lineno}: unknown split token {token!r}")
        codes.append(SPLIT_CODES[token])
    return np.array(codes, dtype=np.int8)


def save_split_file(split: np.ndarray, path) -> None:
    Path(path).write_text("".join(SPLIT_TOKENS[int(c)] + "\n" for c in split))


def load_graph_files(edges_path, features_path, labels_path, split_path) -> Graph:
    """Assemble a graph from the four text files, cross-checking lengths."""
    features = load_feature_table(features_path)
    labels = load_label_table(labels_path)
    split = load_split_file(split_path)
    edges = load_edge_list(edges_path)
    n = features.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"{labels_path}: {labels.shape[0]} labels for {n} feature rows")
    if split.shape[0] != n:
        raise ValueError(f"{split_path}: {split.shape[0]} split rows for {n} feature rows")
    if len(edges) and edges.max() >= n:
        raise ValueError(f"{edges_path}: node id {edges.max()} out of range for {n} nodes")
    return build_graph(n, edges, features=features, labels=labels, split=split)


def save_graph_files(g: Graph, directory) -> dict[str, Path]:
    """Write the four-file representation into `directory`; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": directory / "edges.txt",
        "features": directory / "features.txt",
        "labels": directory / "labels.txt",
        "split": directory / "split.txt",
    }
    save_edge_list(g, paths["edges"])
    save_feature_table(g.features, paths["features"])
    save_label_table(g.labels, paths["labels"])
    save_split_file(g.split, paths["split"])
    return paths
