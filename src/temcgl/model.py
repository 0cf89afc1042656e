"""The trainable part: an MLP head over fixed embeddings, its exact
gradients, plain SGD/Adam, and the replay-gradient identity check.

Training never touches the graph — the head only ever sees embedding rows
(current task's or replayed from the buffer). The loss is weighted
cross-entropy normalised by total weight, so per-sample weights can encode
both class-size rebalancing and a replay multiplier without changing the
loss scale.

`pseudo_gradient_check` verifies, instance by instance, that for a linear
positive head trained with -log of one raw output, the gradient on a
node's embedding equals a convex combination of the gradients its
receptive-field members would produce as individual training points — the
mechanism that lets one stored embedding stand in for its subgraph.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import NormalizedAdjacency
from .propagation import PropagationStrategy, propagation_row

MODEL_MAGIC = b"TEMM"
MODEL_FORMAT_VERSION = 1


@dataclass
class MlpParams:
    """Weights/biases per layer; weight l maps (dims[l] -> dims[l+1])."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up, one per layer")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("layer shape mismatch")

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "MlpParams":
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_mlp(layer_dims, rng: np.random.Generator) -> MlpParams:
    """Uniform +-1/sqrt(fan_in) init for every weight and bias."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs at least [input, output], all positive")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases)


def _activations(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """[x, h1, ...]: the input and the ReLU output of every hidden layer."""
    hs = [np.asarray(x, dtype=np.float64)]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        hs.append(np.maximum(hs[-1] @ w + b, 0.0))
    return hs


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    return mlp_hidden(params, x) @ params.weights[-1] + params.biases[-1]


def mlp_hidden(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Activations feeding the output layer (the input itself if depth 1)."""
    return _activations(params, x)[-1]


def loss_and_grad(
    params: MlpParams,
    x: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, MlpParams]:
    """Weighted cross-entropy (normalised by total weight) and its exact grads."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    if sample_weight is None:
        sample_weight = np.ones(n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0):
        raise ValueError("sample weights must be non-negative, one per row")
    total = w.sum()
    if total <= 0:
        raise ValueError("total sample weight must be positive")
    wn = w / total

    hs = _activations(params, x)
    logits = hs[-1] @ params.weights[-1] + params.biases[-1]

    peak = logits.max(axis=1, keepdims=True)
    logp = logits - (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)))
    loss = float(-(wn * logp[np.arange(n), y]).sum())

    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits *= wn[:, None]

    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    grad_w[-1] = hs[-1].T @ dlogits
    grad_b[-1] = dlogits.sum(axis=0)
    dh = dlogits @ params.weights[-1].T
    for layer in range(len(params.weights) - 2, -1, -1):
        dz = dh * (hs[layer + 1] > 0)  # relu(z) > 0 exactly where z > 0
        grad_w[layer] = hs[layer].T @ dz
        grad_b[layer] = dz.sum(axis=0)
        if layer:
            dh = dz @ params.weights[layer].T
    return loss, MlpParams(weights=grad_w, biases=grad_b)


def class_balance_weights(labels: np.ndarray) -> np.ndarray:
    """Per-item weights making every present class carry equal total mass.

    With N items over C present classes, an item of a class with N_c
    members weighs N / (C * N_c); the weights sum to N.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts = np.unique(labels, return_counts=True)
    per_class = len(labels) / (len(classes) * counts)
    return per_class[np.searchsorted(classes, labels)]


def replay_batch(
    current_x: np.ndarray,
    current_y: np.ndarray,
    replay_x: np.ndarray,
    replay_y: np.ndarray,
    replay_lambda: float = 1.0,
    class_balance: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack the current task's rows with buffered ones and weight them.

    Class balancing runs over the combined batch (the replay analogue of
    rescaling the loss by class size); `replay_lambda` then multiplies the
    buffered rows only.
    """
    if replay_lambda < 0:
        raise ValueError("replay_lambda must be >= 0")
    current_x = np.asarray(current_x, dtype=np.float64)
    current_y = np.asarray(current_y, dtype=np.int64)
    n_current = current_x.shape[0]
    # An empty buffer's te is (0, 0) and would not stack onto (n, dim) rows.
    x = np.vstack([current_x, replay_x]) if len(replay_y) else current_x.copy()
    y = np.concatenate([current_y, np.asarray(replay_y, dtype=np.int64)])
    w = class_balance_weights(y) if class_balance else np.ones(len(y))
    w[n_current:] *= replay_lambda
    return x, y, w


# ---------------------------------------------------------------------------
# optimisers
# ---------------------------------------------------------------------------


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: MlpParams, grads: MlpParams) -> None:
        for p, g in zip(params.weights + params.biases, grads.weights + grads.biases):
            p -= self.lr * g


class AdamOptimizer:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: MlpParams, grads: MlpParams) -> None:
        tensors = params.weights + params.biases
        gradients = grads.weights + grads.biases
        if self._m is None:
            self._m = [np.zeros_like(p) for p in tensors]
            self._v = [np.zeros_like(p) for p in tensors]
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(tensors, gradients, self._m, self._v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(name: str, lr: float):
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if name == "sgd":
        return SgdOptimizer(lr)
    if name == "adam":
        return AdamOptimizer(lr)
    raise ValueError(f"unknown optimizer {name!r}; pick sgd or adam")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MODEL_HEADER = "<4sII"  # magic, version, layer count


def save_model(params: MlpParams, path) -> None:
    dims = params.layer_dims
    parts = [struct.pack(_MODEL_HEADER, MODEL_MAGIC, MODEL_FORMAT_VERSION, len(params.weights))]
    parts.append(struct.pack(f"<{len(dims)}I", *dims))
    for w, b in zip(params.weights, params.biases):
        parts.append(w.astype("<f8", copy=False).tobytes(order="C"))
        parts.append(b.astype("<f8", copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> MlpParams:
    blob = Path(path).read_bytes()
    head = struct.calcsize(_MODEL_HEADER)
    if len(blob) < head:
        raise ValueError(f"{path}: truncated model file")
    magic, version, num_layers = struct.unpack_from(_MODEL_HEADER, blob)
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    dims_size = (num_layers + 1) * 4
    if len(blob) < head + dims_size:
        raise ValueError(f"{path}: truncated model file")
    dims = struct.unpack_from(f"<{num_layers + 1}I", blob, head)
    expected = head + dims_size + sum(
        (dims[i] * dims[i + 1] + dims[i + 1]) * 8 for i in range(num_layers)
    )
    if len(blob) != expected:
        raise ValueError(f"{path}: payload size mismatch")
    offset = head + dims_size
    weights, biases = [], []
    for i in range(num_layers):
        w_count = dims[i] * dims[i + 1]
        w = np.frombuffer(blob, dtype="<f8", count=w_count, offset=offset)
        offset += w_count * 8
        b = np.frombuffer(blob, dtype="<f8", count=dims[i + 1], offset=offset)
        offset += dims[i + 1] * 8
        weights.append(w.reshape(dims[i], dims[i + 1]).astype(np.float64))
        biases.append(b.astype(np.float64))
    return MlpParams(weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# replay-gradient identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoGradientReport:
    """Both gradient routes plus the per-node reconstruction coefficients."""

    direct_grad: np.ndarray
    reconstructed_grad: np.ndarray
    coefficients: np.ndarray
    max_deviation: float


def pseudo_gradient_check(
    adj: NormalizedAdjacency,
    features: np.ndarray,
    weights: np.ndarray,
    node: int,
    strategy: PropagationStrategy,
    target_class: int = 0,
    corrupt: float = 0.0,
) -> PseudoGradientReport:
    """Check that an embedding's gradient decomposes over its receptive field.

    Setting: a bias-free linear head `weights` (feature_dim x classes) with
    strictly positive entries, strictly positive features, and the loss
    -log of the raw target-class output. The direct route differentiates
    the loss of the node's embedding; the reconstruction route mixes the
    per-member gradients with coefficients

        coef_w = output_w[k] * pi(v, w) / output_v[k],

    which are non-negative and sum to one. Both routes agree to floating-
    point rounding; `corrupt` > 0 inflates the largest coefficient by that
    relative amount as a negative control (the deviation must then show).
    """
    if not strategy.is_linear:
        raise ValueError("the identity is defined for linear strategies only")
    x = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("features must be strictly positive")
    if np.any(w <= 0):
        raise ValueError("head weights must be strictly positive")
    if x.ndim != 2 or x.shape[0] != adj.num_nodes:
        raise ValueError("features must be (num_nodes, dim)")
    if w.ndim != 2 or w.shape[0] != x.shape[1]:
        raise ValueError("weights must be (feature_dim, classes)")
    if not 0 <= node < adj.num_nodes:
        raise ValueError(f"node {node} out of range")
    if not 0 <= target_class < w.shape[1]:
        raise ValueError(f"target_class {target_class} out of range")
    if corrupt < 0:
        raise ValueError("corrupt must be >= 0")

    k = target_class
    pi = propagation_row(adj, strategy, node)
    te = pi @ x
    z_v = te @ w
    if z_v[k] <= 0:
        raise ValueError(
            f"node {node} receives no propagation mass; the loss is undefined there"
        )

    direct = np.zeros_like(w)
    direct[:, k] = -te / z_v[k]

    support = np.flatnonzero(pi > 0)
    coefficients = np.zeros(adj.num_nodes)
    member_terms = {}
    for m in support:
        z_mk = float(x[m] @ w[:, k])
        coefficients[m] = z_mk * pi[m] / z_v[k]
        term = np.zeros_like(w)
        term[:, k] = -x[m] / z_mk
        member_terms[int(m)] = term
    if corrupt and support.size:
        coefficients[support[np.argmax(coefficients[support])]] *= 1.0 + corrupt
    reconstructed = np.zeros_like(w)
    for m in support:
        reconstructed += coefficients[m] * member_terms[int(m)]

    deviation = float(np.max(np.abs(direct - reconstructed)))
    return PseudoGradientReport(
        direct_grad=direct,
        reconstructed_grad=reconstructed,
        coefficients=coefficients,
        max_deviation=deviation,
    )
