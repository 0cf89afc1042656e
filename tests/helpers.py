"""Independent oracles and small builders shared by the test suite.

Everything here deliberately avoids the package's own code paths: dense
matrices instead of CSR, python sets instead of frontier arrays, finite
differences instead of backprop. The package must agree with these, not
the other way around.
"""
from __future__ import annotations

import numpy as np

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
# memory ownership
# ---------------------------------------------------------------------------


def arrays_held(obj) -> list[np.ndarray]:
    """Every array an object's attributes hold directly, in lists, or as the
    `weights` and `biases` of a parameter set."""
    found = []
    for value in vars(obj).values():
        if hasattr(value, "weights") and hasattr(value, "biases"):
            value = value.weights + value.biases
        if isinstance(value, np.ndarray):
            value = [value]
        if isinstance(value, list):
            found.extend(a for a in value if isinstance(a, np.ndarray))
    return found


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
