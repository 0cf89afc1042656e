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
entries, and construction, validation and normalisation work on whole
int64 arrays (sorted ``row * n + col`` keys, masks, bincounts); no step
loops over nodes in Python. scipy is this module's private multiply
kernel: the propagation products of ``spmm``, and the boolean products of
``_reach``, which returns every L-hop ball (receptive field, coverage) as
plain ``(indptr, indices)`` arrays. Each hop multiplies by the graph's
boolean A + I, built on first use and kept on the object; it is also the
self-looped pattern that normalisation starts from. The SBM generator
still draws one uniform per node pair, O(n^2) time, but in bounded bands
spread over threads.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import logging
import operator
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.lib import format as npformat

from .rng import component_rng

logger = logging.getLogger(__name__)

TRAIN, VALID, TEST = 0, 1, 2
SPLIT_TOKENS = {TRAIN: "train", VALID: "valid", TEST: "test"}
SPLIT_CODES = {v: k for k, v in SPLIT_TOKENS.items()}


def _hop_pattern(g: "Graph | NormalizedAdjacency") -> sp.csr_array:
    """Boolean A + I over `g`'s stored structure: one hop of `_reach`.

    ``+`` is ``or``, so a stored diagonal changes nothing. From sorted rows
    (a `Graph`'s) the rows come out sorted with the diagonal in place, which
    is the pattern `normalize_adjacency` uses for self loops.
    """
    stored = sp.csr_array((np.ones(len(g.indices), dtype=bool), g.indices, g.indptr), shape=(g.num_nodes,) * 2)
    return stored + sp.eye_array(g.num_nodes, dtype=bool, format="csr")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with per-node features, labels and split.

    Invariants enforced at construction: ``indptr``, ``indices``, ``labels``
    and ``split`` are integer arrays, CSR structure is valid, column ids are
    strictly increasing inside each row, there are no self loops, and the
    adjacency is symmetric. Builders (`build_graph`, the loaders, the
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
        for name in ("indptr", "indices", "labels", "split"):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) and value.dtype.kind == "i"):
                raise ValueError(f"{name} must be an array of signed integers")
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0:
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != len(self.indices):
            raise ValueError("malformed indptr")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("edge endpoint out of range")
        key = np.repeat(np.arange(n), np.diff(self.indptr))  # each entry's row, for now
        looped = key[self.indices == key]
        mirror = self.indices.astype(np.int64)
        mirror *= n
        mirror += key  # col * n + row
        key *= n
        key += self.indices  # row * n + col: strictly increasing iff rows are sorted and unique
        unsorted = key[1:][key[1:] <= key[:-1]][:1] // n
        if unsorted.size or looped.size:
            # report the first bad row; inside it, ordering before self loops
            u = min(unsorted.tolist() + looped[:1].tolist())
            if unsorted.size and unsorted[0] == u:
                raise ValueError(f"row {u} has unsorted or duplicate neighbours")
            raise ValueError(f"self loop stored at node {u}")
        mirror.sort()
        if not np.array_equal(key, mirror):
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

    _hop = functools.cached_property(_hop_pattern)  # built on first use, then kept


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
    zero, and an all-train split. Edge endpoints, labels and split codes
    must be whole numbers.
    """
    if (num_nodes := _as_int("num_nodes", num_nodes)) < 1:
        raise ValueError("graph needs at least one node")
    indptr, indices = _edge_csr(num_nodes, _whole_numbers("edges", edges).reshape(-1, 2))
    if features is None:
        features = np.zeros((num_nodes, 1))
    features = np.asarray(features, dtype=np.float64)
    if labels is None:
        labels = np.zeros(num_nodes, dtype=np.int64)
    labels = _whole_numbers("labels", labels)
    split = _whole_numbers("split", np.full(num_nodes, TRAIN) if split is None else split)
    # checked before the narrowing cast, which would turn 256 into TRAIN
    if not np.all(np.isin(split, (TRAIN, VALID, TEST))):
        raise ValueError("split codes must be train/valid/test")
    return Graph(num_nodes, indptr, indices, features, labels, split.astype(np.int8))


def _edge_csr(num_nodes: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`build_graph`'s sorted ``(indptr, indices)`` of an int64 ``(m, 2)`` edge array."""
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    u, v = edges[edges[:, 0] != edges[:, 1]].T
    # u*n + v sorts exactly like the pair (u, v), since 0 <= v < n; a sort and
    # a mask dedupe it (np.unique hashes integer keys first, which is slower)
    key = np.concatenate([u, v])
    key *= num_nodes
    key[: len(u)] += v
    key[len(u) :] += u
    del u, v  # the loop-free copy of the edges
    key.sort()
    fresh = np.ones(len(key), dtype=bool)
    np.greater(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    indices = key % num_nodes
    key //= num_nodes  # each entry's row
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=num_nodes), out=indptr[1:])
    return indptr, indices  # `Graph` validates without the keys


def _whole_numbers(name: str, values) -> np.ndarray:
    """`values` as int64, refusing any entry that is not a whole number."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu" and not (
        values.dtype.kind == "f" and np.all(np.mod(values, 1.0) == 0.0)
    ):
        raise ValueError(f"{name} must be whole numbers")
    return values.astype(np.int64, copy=False)


def _node_ids(name: str, values, num_nodes: int) -> np.ndarray:
    """`values` as 1-D int64, refusing any entry that is not a node id."""
    ids = _whole_numbers(name, values)
    if ids.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of node ids")
    if len(ids) and (ids.min() < 0 or ids.max() >= num_nodes):
        raise ValueError(f"{name}: node id out of range for a graph of {num_nodes} nodes")
    return ids


def _node_id(name: str, value, num_nodes: int) -> int:
    """`value` as an int, refusing anything but one node id."""
    return int(_node_ids(name, [_as_int(name, value)], num_nodes)[0])


def _hop_count(hops) -> int:
    hops = _as_int("hops", hops)
    if hops < 0:
        raise ValueError("hops must be >= 0")
    return hops


def _sorted_node_ids(nodes, num_nodes: int, caller: str) -> np.ndarray:
    """`nodes` as int64 if they are sorted, unique, in-range node ids."""
    nodes = _node_ids("nodes", nodes, num_nodes)
    if len(nodes) == 0 or np.any(np.diff(nodes) <= 0):
        raise ValueError(f"{caller} wants a sorted array of unique node ids")
    return nodes


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
    # one entry-length buffer: first each entry's new column, then kept[p],
    # the number of kept entries before entry p
    kept = np.zeros(len(indices) + 1, dtype=np.int64)
    cols = kept[1:]
    np.take(local, indices, out=cols, mode="clip")  # `clip` writes unbuffered
    keep = np.repeat(local >= 0, np.diff(indptr))
    keep &= cols >= 0
    sliced_indices = cols[keep]
    np.cumsum(keep, out=cols)
    sliced = np.concatenate([[0], kept[indptr[nodes + 1]]])
    return sliced, sliced_indices, keep


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

    _hop = functools.cached_property(_hop_pattern)  # built on first use, then kept

    @functools.cached_property
    def _csr(self) -> sp.csr_array:  # `spmm`'s matrix: built once, on this operator's arrays
        return sp.csr_array((self.values, self.indices, self.indptr), shape=(self.num_nodes,) * 2)

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
        out = self._csr @ x
        return out[:, 0] if squeeze else out

    def restrict(self, nodes: np.ndarray) -> "NormalizedAdjacency":
        """Submatrix on `nodes` (sorted, unique), copying values verbatim.

        Deliberately does NOT renormalise: the restriction of the parent
        operator is what a node's receptive field needs to reproduce its
        full-graph embedding exactly.
        """
        nodes = _sorted_node_ids(nodes, self.num_nodes, "restriction")
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
    if self_loops:
        indptr, cols = g._hop.indptr, g._hop.indices  # sorted rows, diagonal in place
    else:
        indptr, cols = g.indptr, g.indices
    indptr, cols = indptr.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
    counts = np.diff(indptr)
    deg = counts.astype(np.float64)
    inv_sqrt = np.zeros(n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    values = np.repeat(inv_sqrt, counts)  # inv_sqrt of each entry's row
    values *= inv_sqrt[cols]
    return NormalizedAdjacency(n, indptr, cols, values, deg, self_loops)


# ---------------------------------------------------------------------------
# neighbourhoods, homophily, subgraphs
# ---------------------------------------------------------------------------


def _reach(g: "Graph | NormalizedAdjacency", seeds, starts, hops: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR index arrays ``(indptr, indices)``: row r lists once each, in no
    set order, every node within `hops` steps of ``seeds[starts[r]:starts[r + 1]]``
    in `g`'s stored structure.

    Each hop is a boolean sparse product with `g._hop`, built once per graph.
    `seeds` and `starts` are copied: the matrix would keep int64 arrays and
    sort them in place.
    """
    seeds, starts = np.array(seeds, dtype=np.int64), np.array(starts, dtype=np.int64)
    reach = sp.csr_array((np.ones(len(seeds), dtype=bool), seeds, starts), shape=(len(starts) - 1, g.num_nodes))
    reach.sum_duplicates()  # repeated seeds merge; boolean sums and products add by `or`
    for _ in range(hops):
        reach = reach @ g._hop
    return reach.indptr, reach.indices


def homophily_ratio(g: Graph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if len(g.indices) == 0:
        raise ValueError("homophily is undefined on an edgeless graph")
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    return float(np.mean(g.labels[rows] == g.labels[g.indices]))


def induced_subgraph(g: Graph, nodes: np.ndarray) -> Graph:
    """Subgraph on `nodes` (sorted, unique) with locally renumbered ids.

    Features, labels, and split codes are sliced along. When `nodes` is one
    contiguous id range they are read-only views of `g`'s arrays, which they
    keep alive; any other selection gets copies. Every node gives `g`
    itself. Degrees inside the result are the subgraph's own — normalising
    it does not reuse parent weights (contrast `NormalizedAdjacency.restrict`).
    """
    nodes = _sorted_node_ids(nodes, g.num_nodes, "induced_subgraph")
    if len(nodes) == g.num_nodes:
        return g
    indptr, indices, _ = _slice_csr(g.indptr, g.indices, nodes)
    if nodes[-1] - nodes[0] == len(nodes) - 1:
        kept = slice(nodes[0], nodes[-1] + 1)
        columns = [g.features[kept], g.labels[kept], g.split[kept]]
        for view in columns:
            view.setflags(write=False)  # a write would reach the parent
    else:
        columns = [g.features[nodes], g.labels[nodes], g.split[nodes]]
    return Graph(len(nodes), indptr, indices, *columns)


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


def _int_fields(obj, *names: str) -> None:
    """Refuse each named field of the frozen dataclass `obj` that is set but
    not an integer, and store the others as `int`."""
    for name in names:
        if (value := getattr(obj, name)) is not None:
            object.__setattr__(obj, name, _as_int(name, value))


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
    if not np.isfinite(feature_shift) or feature_shift < 0:
        raise ValueError(f"feature_shift must be finite and >= 0, got {feature_shift}")

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
    features = component_rng(seed, "sbm-features").standard_normal((n, feature_dim))
    for k in range(num_classes):
        features[offsets[k] : offsets[k + 1]] += means[k]  # block k holds class k's nodes

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
# '#' starts a comment, also after a value; blank lines are ignored.
#
# `load_graph_files` parses each file once: the parsed array is kept in
# `.temcgl-cache/<file name>.npy` beside the file, keyed by the SHA-256 of
# the file's bytes and PARSE_VERSION, and a later load of the same bytes
# reads it back. The first load pays for writing it. Entries hold 8 bytes a
# feature value or label, 16 an edge and 1 a split row: about 0.4 x the size
# of a full-precision features text, plus the edges. One entry per file is
# kept, replaced when the file changes. Deleting the directory clears it.
# Hashing the features file is most of a cached load: a worker thread does it
# while the calling thread loads the other three files, builds the CSR arrays
# and reads the features entry, then compares the key and parses on a miss.

CACHE_DIR = ".temcgl-cache"
# Part of every cache key: change it whenever a parser's output changes.
PARSE_VERSION = b"temcgl-text-1"


def _loadtxt(path, dtype, ndmin: int) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=dtype, comments="#", ndmin=ndmin)
    except ValueError as exc:
        # numpy's hint to pass `usecols` names an option no config key reaches
        message = str(exc).split("; use `usecols`", 1)[0]
        raise ValueError(f"{path}: {message}") from exc


def load_edge_list(path) -> np.ndarray:
    with open(path, "rb") as fh:  # numpy warns on a file without data; stops at the first data line
        if not any(line.split(b"#", 1)[0].strip() for line in fh):
            return np.empty((0, 2), dtype=np.int64)
    data = _loadtxt(path, np.int64, 2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns, got {data.shape[1]}")
    return data


def _load_features(path) -> np.ndarray:
    return _loadtxt(path, np.float64, 2)


def _load_labels(path) -> np.ndarray:
    return _loadtxt(path, np.int64, 1)


def save_edge_list(g: Graph, path) -> None:
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    upper = rows < g.indices
    np.savetxt(path, np.column_stack([rows[upper], g.indices[upper]]), fmt="%d")


def load_split_file(path) -> np.ndarray:
    codes = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        if token not in SPLIT_CODES:
            raise ValueError(f"{path}:{lineno}: unknown split token {token!r}")
        codes.append(SPLIT_CODES[token])
    return np.array(codes, dtype=np.int8)


def save_split_file(split: np.ndarray, path) -> None:
    Path(path).write_text("".join(SPLIT_TOKENS[int(c)] + "\n" for c in split))


def _file_version(path: Path) -> tuple[int, int, int]:
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def _parse_key(path) -> tuple[tuple[int, int, int], np.ndarray]:
    """The file's version, taken first, and its cache key: the SHA-256 of
    PARSE_VERSION and the file's bytes, read through one reused buffer."""
    before = _file_version(path)
    digest = hashlib.sha256(PARSE_VERSION)
    chunk = memoryview(bytearray(1 << 20))
    with open(path, "rb") as fh:
        while size := fh.readinto(chunk):
            digest.update(chunk[:size])
    return before, np.frombuffer(digest.digest(), dtype=np.uint8)


def _cached_parse(path, parse, dtype, ndim: int, keyed: Future | None = None) -> np.ndarray:
    """`parse(path)`, or the array an earlier parse of the same bytes cached.

    The entry is read before the key is asked for, so a `keyed` future of
    `_parse_key(path)` hashes meanwhile. A cached array must have `dtype` and
    `ndim`, which also tells apart the four parsers; anything else, or an
    unreadable entry, is parsed again. A cache entry that cannot be written
    only costs the next load a parse.
    """
    path = Path(path)
    entry = path.parent / CACHE_DIR / (path.name + ".npy")
    try:
        with open(entry, "rb") as fh:
            stored, data = (npformat.read_array(fh, allow_pickle=False) for _ in range(2))
    except (OSError, ValueError):
        stored = data = None
    before, key = keyed.result() if keyed is not None else _parse_key(path)
    if np.array_equal(stored, key) and data.dtype == dtype and data.ndim == ndim:
        return data
    data = parse(path)
    if _file_version(path) != before:  # edited since hashed: the key may not match
        return data
    # a name of its own per writer, so concurrent loads never share a file
    tmp = entry.parent / f"{entry.name}.{os.urandom(8).hex()}.tmp"
    try:
        entry.parent.mkdir(exist_ok=True)
        with open(tmp, "xb") as fh:
            npformat.write_array(fh, key)
            npformat.write_array(fh, data, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())  # so a crash cannot leave a renamed, half-written entry
        os.replace(tmp, entry)
    except OSError as exc:
        logger.debug("%s: parse cache not written: %s", path, exc)
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return data


def load_graph_files(edges_path, features_path, labels_path, split_path) -> Graph:
    """Assemble a graph from the four text files, cross-checking lengths.

    Files go through the cache described above the text parsers: a worker
    thread hashes the features file while this thread does the rest. Errors
    come as from a load in the order features, labels, split, edges.
    """
    csr = failure = None
    with ThreadPoolExecutor(1) as pool:
        features_key = pool.submit(_parse_key, features_path)
        try:
            labels = _cached_parse(labels_path, _load_labels, np.int64, 1)
            split = _cached_parse(split_path, load_split_file, np.int8, 1)
            edges = _cached_parse(edges_path, load_edge_list, np.int64, 2)
        except Exception as exc:  # raised after the features file's own errors
            failure = exc
        else:
            with contextlib.suppress(ValueError):  # an id out of range: reported below
                csr = _edge_csr(len(labels), edges)
        features = _cached_parse(features_path, _load_features, np.float64, 2, features_key)
    if failure is not None:
        raise failure
    n = features.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"{labels_path}: {labels.shape[0]} labels for {n} feature rows")
    if split.shape[0] != n:
        raise ValueError(f"{split_path}: {split.shape[0]} split rows for {n} feature rows")
    if len(edges) and edges.max() >= n:
        raise ValueError(f"{edges_path}: node id {edges.max()} out of range for {n} nodes")
    # the parsers' dtypes and split codes are the ones `build_graph` would make
    return Graph(n, *(csr or _edge_csr(n, edges)), features, labels, split)


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
    np.savetxt(paths["features"], g.features, fmt="%.17g")
    np.savetxt(paths["labels"], g.labels, fmt="%d")
    save_split_file(g.split, paths["split"])
    return paths
