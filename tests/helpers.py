"""Independent oracles and small builders shared by the test suite.

Everything here deliberately avoids the package's own code paths: dense
matrices instead of CSR, python sets instead of frontier arrays, finite
differences instead of backprop. The package must agree with these, not
the other way around. The sequential run oracle at the end is the one
exception: it strings the package's own steps together in a single thread.
"""
from __future__ import annotations

import collections
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from temcgl import graph, harness
from temcgl.buffer import MemoryBuffer
from temcgl.coverage import coverage_ratio
from temcgl.graph import Graph, induced_subgraph, normalize_adjacency
from temcgl.harness import (
    AccuracyMatrix,
    BufferStat,
    RunConfig,
    RunResult,
    build_task_sequence,
    masked_accuracy,
    visible_nodes,
)
from temcgl.model import (
    MlpParams,
    class_balance_weights,
    init_mlp,
    make_optimizer,
)
from temcgl.propagation import compute_tes
from temcgl.rng import component_rng

# ---------------------------------------------------------------------------
# dense graph oracles
# ---------------------------------------------------------------------------


def dense_adjacency(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Symmetric 0/1 adjacency from an (m, 2) undirected edge array."""
    a = np.zeros((num_nodes, num_nodes))
    for u, v in np.asarray(edges).reshape(-1, 2):
        if u != v:
            a[u, v] = 1.0
            a[v, u] = 1.0
    return a


def dense_normalized(a: np.ndarray, self_loops: bool) -> np.ndarray:
    """D^{-1/2} (A [+ I]) D^{-1/2} with zero rows for isolated nodes."""
    a = a.copy()
    if self_loops:
        a = a + np.eye(len(a))
    deg = a.sum(axis=1)
    inv = np.zeros_like(deg)
    nz = deg > 0
    inv[nz] = 1.0 / np.sqrt(deg[nz])
    return inv[:, None] * a * inv[None, :]


def dense_propagation_matrix(a_hat: np.ndarray, variant: str, hops: int,
                             alpha: float | None = None) -> np.ndarray:
    """The full propagation operator, materialised densely.

    power:       a_hat^L
    hop_average: (1/L) * sum_{l=1..L} ((1-alpha) a_hat^l + alpha I)
    lazy_power:  ((1-alpha) a_hat + alpha I)^L
    """
    n = len(a_hat)
    eye = np.eye(n)
    if variant == "power":
        return np.linalg.matrix_power(a_hat, hops)
    if variant == "hop_average":
        acc = np.zeros((n, n))
        for ell in range(1, hops + 1):
            acc += (1.0 - alpha) * np.linalg.matrix_power(a_hat, ell) + alpha * eye
        return acc / hops
    if variant == "lazy_power":
        return np.linalg.matrix_power((1.0 - alpha) * a_hat + alpha * eye, hops)
    raise ValueError(variant)


def ball_oracle(num_nodes: int, edges: np.ndarray, seeds, hops: int) -> set[int]:
    """All nodes within `hops` edges of any seed, via plain set BFS."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(num_nodes)}
    for u, v in np.asarray(edges).reshape(-1, 2):
        if u != v:
            nbrs[int(u)].add(int(v))
            nbrs[int(v)].add(int(u))
    reached = {int(s) for s in np.atleast_1d(seeds)}
    frontier = set(reached)
    for _ in range(hops):
        nxt = set()
        for u in frontier:
            nxt |= nbrs[u]
        frontier = nxt - reached
        reached |= nxt
        if not frontier:
            break
    return reached


# ---------------------------------------------------------------------------
# scipy CSR oracles: the graph layer's earlier scipy round trips
# ---------------------------------------------------------------------------


def oracle_asymmetric_entries(num_nodes: int, indptr, indices) -> int:
    """Stored entries where a 0/1 CSR pattern differs from its transpose."""
    m = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(num_nodes, num_nodes))
    return (m != m.T).nnz


def oracle_with_self_loops(num_nodes: int, indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """The CSR pattern of scipy's ``A + I`` after ``sort_indices()``, as int64."""
    a = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(num_nodes, num_nodes))
    a = a + sp.identity(num_nodes, format="csr")
    a.sort_indices()
    return a.indptr.astype(np.int64), a.indices.astype(np.int64)


def oracle_slice_csr(indptr, indices, nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns `nodes` of a CSR pattern through a full row array:
    the new ``indptr``, ``indices`` and the mask of kept entries."""
    local = np.full(len(indptr) - 1, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    rows = np.repeat(local, np.diff(indptr))
    cols = local[indices]
    keep = (rows >= 0) & (cols >= 0)
    sliced = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=len(nodes)), out=sliced[1:])
    return sliced, cols[keep], keep


def dense_csr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted int64 CSR ``indptr`` and ``indices`` of a dense 0/1 matrix."""
    rows, cols = np.nonzero(a)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(a)))])
    return indptr.astype(np.int64), cols.astype(np.int64)


# ---------------------------------------------------------------------------
# tiny graph builders (edge arrays, not package objects)
# ---------------------------------------------------------------------------


def path_edges(n: int) -> np.ndarray:
    return np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)


def star_edges(leaves: int, center: int = 0) -> np.ndarray:
    others = [v for v in range(leaves + 1) if v != center]
    return np.array([[center, v] for v in others], dtype=np.int64)


def random_edges(num_nodes: int, p: float, rng: np.random.Generator) -> np.ndarray:
    mask = np.triu(rng.random((num_nodes, num_nodes)) < p, 1)
    return np.argwhere(mask).astype(np.int64)


def oracle_sbm_edges(sizes, p_in: float, p_out: float, rng: np.random.Generator) -> np.ndarray:
    """The planted-partition edges of one dense ``ni x nj`` draw per block pair.

    Block pairs (i, j), i <= j, in order; a diagonal pair keeps its strict
    upper triangle. This is the stream `generate_sbm` must reproduce.
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    found = [np.empty((0, 2), dtype=np.int64)]
    for i in range(len(sizes)):
        for j in range(i, len(sizes)):
            hit = rng.random((sizes[i], sizes[j])) < (p_in if i == j else p_out)
            if i == j:
                hit = np.triu(hit, 1)
            found.append(np.argwhere(hit) + np.array([offsets[i], offsets[j]]))
    return np.vstack(found)


# ---------------------------------------------------------------------------
# finite-difference gradient oracle
# ---------------------------------------------------------------------------


def central_difference(loss_fn, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of a scalar function of several arrays.

    Perturbs every entry of every array in place (restoring it afterwards),
    so `loss_fn` must read the arrays fresh on each call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# text parsing
# ---------------------------------------------------------------------------


def count_parses(monkeypatch) -> collections.Counter:
    """Count each call of `load_graph_files`'s four text parsers by file name."""
    counts = collections.Counter()
    for name in ("load_edge_list", "_load_features", "_load_labels", "load_split_file"):
        def counted(path, parse=getattr(graph, name)):
            counts[Path(path).name] += 1
            return parse(path)

        monkeypatch.setattr(graph, name, counted)
    return counts


# ---------------------------------------------------------------------------
# memory ownership
# ---------------------------------------------------------------------------


def arrays_held(obj) -> list[np.ndarray]:
    """Every array an object's attributes hold directly, in lists or tuples,
    or as the `flat` vector of a parameter set."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, MlpParams):
            value = value.flat
        if isinstance(value, np.ndarray):
            value = [value]
        if isinstance(value, (list, tuple)):
            found.extend(a for a in value if isinstance(a, np.ndarray))
    return found


def traced_peak(fn):
    """Call ``fn()``; return its result and its ``tracemalloc`` peak in bytes
    above the allocation traced when the call began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


# ---------------------------------------------------------------------------
# allocating MLP head oracles
# ---------------------------------------------------------------------------
# The head's training arithmetic written the plain way: every intermediate is
# a fresh array. The package computes into reused arrays and must match these
# bit for bit. Parameters are plain lists of weight and bias arrays.


def oracle_activations(weights, biases, x) -> list[np.ndarray]:
    hs = [np.asarray(x, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        hs.append(np.maximum(hs[-1] @ w + b, 0.0))
    return hs


def oracle_forward(weights, biases, x) -> np.ndarray:
    return oracle_activations(weights, biases, x)[-1] @ weights[-1] + biases[-1]


def oracle_loss_and_grad(weights, biases, x, y, sample_weight=None):
    """(loss, weight grads, bias grads) of weighted, normalised cross-entropy."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    wn = w / w.sum()
    hs = oracle_activations(weights, biases, x)
    logits = hs[-1] @ weights[-1] + biases[-1]
    peak = logits.max(axis=1, keepdims=True)
    logp = logits - (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))
    loss = float(-(wn * logp[np.arange(n), y]).sum())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits *= wn[:, None]
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    grad_w[-1] = hs[-1].T @ dlogits
    grad_b[-1] = dlogits.sum(axis=0)
    dh = dlogits @ weights[-1].T
    for layer in range(len(weights) - 2, -1, -1):
        dz = dh * (hs[layer + 1] > 0)
        grad_w[layer] = hs[layer].T @ dz
        grad_b[layer] = dz.sum(axis=0)
        if layer:
            dh = dz @ weights[layer].T
    return loss, grad_w, grad_b


class OracleSgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, tensors, gradients) -> None:
        for p, g in zip(tensors, gradients):
            p -= self.lr * g


class OracleAdam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, tensors, gradients) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in tensors]
            self.v = [np.zeros_like(p) for p in tensors]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(tensors, gradients, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def oracle_masked_accuracy(weights, biases, x, y, allowed) -> float:
    allowed = np.unique(np.asarray(allowed, dtype=np.int64))
    logits = oracle_forward(weights, biases, x)
    pred = allowed[np.argmax(logits[:, allowed], axis=1)]
    return float(np.mean(pred == np.asarray(y, dtype=np.int64)))


def oracle_train_head(weights, biases, optimizer, x, y, w, valid_x, valid_y, allowed,
                      epochs: int, patience: int):
    """Full-batch training with early stopping; returns the best (weights, biases).

    Trains the given lists in place; with no validation rows it runs every
    epoch and returns them.
    """
    tensors = weights + biases
    if len(valid_y) == 0:
        for _ in range(epochs):
            _, gw, gb = oracle_loss_and_grad(weights, biases, x, y, w)
            optimizer.step(tensors, gw + gb)
        return weights, biases
    best = ([a.copy() for a in weights], [a.copy() for a in biases])
    best_acc, best_epoch = -1.0, -1
    for epoch in range(epochs):
        _, gw, gb = oracle_loss_and_grad(weights, biases, x, y, w)
        optimizer.step(tensors, gw + gb)
        acc = oracle_masked_accuracy(weights, biases, valid_x, valid_y, allowed)
        if acc > best_acc:
            best_acc, best_epoch = acc, epoch
            best = ([a.copy() for a in weights], [a.copy() for a in biases])
        elif epoch - best_epoch >= patience:
            break
    return best


# ---------------------------------------------------------------------------
# buffer sampler oracle
# ---------------------------------------------------------------------------


def oracle_nearest_centroid(candidates, tes_values, labels, n: int) -> np.ndarray:
    """The nearest-centroid sampler as an explicit round-robin over classes.

    Each class queues its candidates by (distance to the class mean, node id);
    rounds then take one from every non-empty queue in ascending label order
    until `n` are picked.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    cand_labels = np.asarray(labels)[candidates]
    ranked = []
    for cls in np.unique(cand_labels):
        members = candidates[cand_labels == cls]
        rows = np.asarray(tes_values)[members]
        dist = np.linalg.norm(rows - rows.mean(axis=0), axis=1)
        ranked.append(members[np.lexsort((members, dist))])
    picks = []
    rank = 0
    while len(picks) < n:
        took_any = False
        for queue in ranked:
            if rank < len(queue):
                picks.append(int(queue[rank]))
                took_any = True
                if len(picks) == n:
                    break
        if not took_any:
            break
        rank += 1
    return np.array(picks, dtype=np.int64)


def oracle_reservoir_pass(candidates, n: int, rng: np.random.Generator) -> np.ndarray:
    """The reservoir sampler as one in-order loop with one draw per
    candidate past the first `n`, each write landing as it is drawn."""
    slots = np.empty(min(n, len(candidates)), dtype=np.int64)
    for seen, v in enumerate(candidates):
        j = seen if seen < n else int(rng.integers(0, seen + 1))
        if j < n:
            slots[j] = v
    return slots


# ---------------------------------------------------------------------------
# replay memory oracle
# ---------------------------------------------------------------------------


class ConcatBuffer:
    """The replay memory as four columns that every commit concatenates
    onto, and its file packed record by record with `struct`."""

    def __init__(self) -> None:
        self.te = np.empty((0, 0))
        self.label = np.empty(0, dtype=np.int64)
        self.task_id = np.empty(0, dtype=np.int64)
        self.node_id = np.empty(0, dtype=np.int64)

    def commit(self, te, label, task_id, node_id) -> None:
        if len(label) == 0:  # an empty buffer keeps te (0, 0)
            return
        self.te = np.concatenate([self.te, te]) if len(self.label) else np.array(te, dtype=float)
        self.label = np.concatenate([self.label, label]).astype(np.int64)
        self.task_id = np.concatenate([self.task_id, task_id]).astype(np.int64)
        self.node_id = np.concatenate([self.node_id, node_id]).astype(np.int64)

    def file_bytes(self) -> bytes:
        dim = self.te.shape[1]
        parts = [struct.pack("<4sIIQ", b"TEMB", 1, dim, len(self.label))]
        for task, node, label, row in zip(self.task_id, self.node_id, self.label, self.te):
            parts.append(struct.pack(f"<iqi{dim}d", task, node, label, *row))
        return b"".join(parts)


# ---------------------------------------------------------------------------
# sequential run oracle
# ---------------------------------------------------------------------------
# The continual run as a single thread performs it. What it leaves out is the
# overlap of one task's graph side with the previous task's head.


def oracle_replay_batch(current_x, current_y, replay_x, replay_y, replay_lambda: float,
                        class_balance: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The head's batch as new arrays: the current rows stacked onto the
    replayed ones, their labels, and weights balanced over the whole batch
    with the replayed rows' then multiplied by `replay_lambda`."""
    current_y = np.asarray(current_y, dtype=np.int64)
    y = np.concatenate([current_y, np.asarray(replay_y, dtype=np.int64)])
    w = class_balance_weights(y) if class_balance else np.ones(len(y))
    w[len(current_y) :] *= replay_lambda
    current_x = np.asarray(current_x, dtype=np.float64)
    # An empty buffer's te is (0, 0) and would not stack onto (n, dim) rows.
    x = np.vstack([current_x, replay_x]) if len(replay_y) else current_x.copy()
    return x, y, w


def oracle_run_continual(g: Graph, cfg: RunConfig) -> RunResult:
    """`run_continual` as one sequential loop: each task's graph side, then
    its head, then the next task.

    `_train_head` is looked up on the harness module, so a test's
    monkeypatch reaches this loop as well as the package's.
    """
    tasks = build_task_sequence(g, cfg.classes_per_task)
    num_classes = int(g.labels.max()) + 1
    te_dim = (
        cfg.strategy.hidden_dim
        if cfg.strategy.variant == "reservoir"
        else g.features.shape[1]
    )
    layer_dims = [te_dim, *cfg.hidden_dims, num_classes]
    params = init_mlp(layer_dims, component_rng(cfg.seed, "model-init"))
    buffer = MemoryBuffer(
        cfg.budget, sampler_id=cfg.sampler_id, coverage_hops=cfg.resolved_coverage_hops()
    )
    self_loops = cfg.resolved_self_loops()

    # Embeddings used at evaluation time, aligned with global node ids. Under
    # "keep_seen" each task refreshes every visible row; under "drop_all" a
    # row keeps the value computed when its task was current. The package
    # keeps only the rows it scores; this full matrix is the plain reference.
    eval_te = np.zeros((g.num_nodes, te_dim))

    matrix = AccuracyMatrix.empty(len(tasks))
    stats: list[BufferStat] = []
    params_per_task: list[MlpParams] = []
    aa: list[float] = []
    af: list[float | None] = []

    for task in tasks:
        visible = visible_nodes(g, tasks, task.task_id, cfg.inter_task_edges)
        sub = induced_subgraph(g, visible)
        adj = normalize_adjacency(sub, self_loops)
        tes = compute_tes(adj, sub.features, cfg.strategy)
        eval_te[visible] = tes.values

        local_train = np.searchsorted(visible, task.train_nodes)
        local_valid = np.searchsorted(visible, task.valid_nodes)
        seen = tasks[: task.task_id + 1]
        seen_classes = np.concatenate([t.classes for t in seen])

        if cfg.regime == "joint":
            # Reference upper bound: retrain from scratch on everything seen.
            params = init_mlp(
                layer_dims, component_rng(cfg.seed, f"joint-init-{task.task_id}")
            )
            train_nodes = np.concatenate([t.train_nodes for t in seen])
            valid_nodes = np.concatenate([t.valid_nodes for t in seen])
            x, y = eval_te[train_nodes], g.labels[train_nodes]
            w = class_balance_weights(y) if cfg.class_balance else None
            valid_x, valid_y = eval_te[valid_nodes], g.labels[valid_nodes]
        else:
            x, y, w = oracle_replay_batch(
                tes.values[local_train],
                sub.labels[local_train],
                buffer.te,
                buffer.label,
                cfg.replay_lambda,
                cfg.class_balance,
            )
            valid_x, valid_y = tes.values[local_valid], sub.labels[local_valid]

        # Model selection scores the validation nodes over every class seen
        # so far, regardless of scenario. A within-task mask saturates while
        # the new classes' logits still trail the old ones, which would
        # freeze the head at a snapshot taken before any real learning.
        optimizer = make_optimizer(cfg.optimizer, cfg.lr)
        params = harness._train_head(
            params, optimizer, x, y, w, valid_x, valid_y, seen_classes,
            cfg.epochs, cfg.patience,
        )

        if cfg.regime == "replay":
            selected = buffer.update_tem(
                sub,
                tes,
                task.task_id,
                local_train,
                component_rng(cfg.seed, f"sampler-task-{task.task_id}"),
                node_ids=visible,
            )
            cov = coverage_ratio(
                sub, selected, hops=cfg.resolved_coverage_hops(), universe=local_train
            )
            stats.append(
                BufferStat(task.task_id, len(buffer), buffer.footprint_bytes(), cov)
            )
        else:
            stats.append(BufferStat(task.task_id, 0, buffer.footprint_bytes(), 0.0))

        for prev in tasks[: task.task_id + 1]:
            allowed_eval = (
                np.asarray(prev.classes) if cfg.scenario == "task_il" else seen_classes
            )
            acc = masked_accuracy(
                params, eval_te[prev.test_nodes], g.labels[prev.test_nodes], allowed_eval
            )
            matrix.record(task.task_id, prev.task_id, acc)

        aa.append(matrix.average_accuracy(task.task_id))
        af.append(matrix.average_forgetting(task.task_id))
        params_per_task.append(params.copy())

    return RunResult(matrix, aa, af, stats, params_per_task, buffer, tasks)

