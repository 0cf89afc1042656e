"""The trainable part: an MLP head over fixed embeddings, its exact
gradients, masked accuracy, plain SGD/Adam, the early-stopping training
loop, and the replay-gradient identity check.

Training never touches the graph or the buffer: the head only ever sees a
batch of embedding rows with labels and per-row weights, which
`harness._head_batch` builds. The loss is weighted cross-entropy
normalised by total weight, so the weights can encode class-size
rebalancing or a replay multiplier without changing the loss scale.
The training loop keeps one private workspace per batch, so an
epoch allocates no batch-sized array; the public functions build a
throwaway workspace and run the same arithmetic.

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

from .graph import NormalizedAdjacency, _as_int, _node_id, _whole_numbers
from .propagation import PropagationStrategy, propagation_row

MODEL_MAGIC = b"TEMM"
MODEL_FORMAT_VERSION = 1


class MlpParams:
    """Weights/biases per layer; weight l maps (dims[l] -> dims[l+1]).

    The constructor copies them into one float64 vector, `flat`, in
    checkpoint order (W0, b0, W1, b1, ...) and keeps tuples of views of it;
    the attributes cannot be reassigned, so no tensor leaves the vector.
    """

    __slots__ = ("_flat", "_weights", "_biases")
    flat = property(lambda self: self._flat)
    weights = property(lambda self: self._weights)
    biases = property(lambda self: self._biases)

    def __new__(cls, weights, biases) -> "MlpParams":
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must pair up, one per layer")
        dims = [weights[0].shape[0] if weights[0].ndim else -1] + [b.size for b in biases]
        for w, b, fan_in, fan_out in zip(weights, biases, dims, dims[1:]):
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValueError("layer shape mismatch")
        return cls._of(dims, np.concatenate([t.ravel() for wb in zip(weights, biases) for t in wb]))

    @classmethod
    def _of(cls, dims, flat: np.ndarray) -> "MlpParams":
        params, weights, biases, at = object.__new__(cls), [], [], 0  # views `flat`, no copy
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
            biases.append(flat[at + fan_in * fan_out : at + (fan_in + 1) * fan_out])
            at += (fan_in + 1) * fan_out
        params._flat, params._weights, params._biases = flat, tuple(weights), tuple(biases)
        return params

    def __reduce__(self):  # so pickle and deepcopy keep one vector
        return MlpParams._of, (self.layer_dims, self._flat)

    @property
    def layer_dims(self) -> list[int]:
        return [self._weights[0].shape[0]] + [b.size for b in self._biases]

    def copy(self) -> "MlpParams":
        return MlpParams._of(self.layer_dims, self._flat.copy())


def init_mlp(layer_dims, rng: np.random.Generator) -> MlpParams:
    """Uniform +-1/sqrt(fan_in) init for every weight and bias."""
    dims = [_as_int("layer_dims", d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs at least [input, output], all positive")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases)


class _Workspace:
    """Arrays for repeated passes of one MLP shape over one fixed batch.

    A workspace is bound to the batch it is built from: `_logits`,
    `_loss_and_grad` and `_accuracy` take the workspace in place of the
    batch and write every batch-sized intermediate into its arrays, so a
    training loop that keeps one workspace per batch allocates no
    batch-sized array per epoch. Results read from a workspace (activations,
    logits, gradients) are overwritten by its next use; `_loss_and_grad`
    leaves each hidden activation holding its gradient, so a training
    workspace keeps one rows x width array per hidden layer. The inputs are
    checked once, here: training sample weights when `y` is given, scoring
    classes when `classes` is given.
    """

    def __init__(self, params: MlpParams, x, y=None, sample_weight=None, classes=None):
        dims = params.layer_dims
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        self.hs = [x] + [np.empty((n, d)) for d in dims[1:-1]]
        self.logits = np.empty((n, dims[-1]))
        if y is not None:
            self._init_training(params, y, sample_weight)
        if classes is not None:
            self._init_scoring(classes)

    def _init_training(self, params: MlpParams, y, sample_weight) -> None:
        n, num_out = self.logits.shape
        y = _whole_numbers("y", y)
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (n,) or np.any(w < 0):
            raise ValueError("sample weights must be non-negative, one per row")
        total = w.sum()
        if total <= 0:
            raise ValueError("total sample weight must be positive")
        if y.shape != (n,) or np.any((y < 0) | (y >= num_out)):
            raise ValueError("labels must be one output class per row")
        self.wn = w / total
        self.wn_col = self.wn[:, None]
        # flat positions of each row's label logit
        self.label_at = np.arange(n) * num_out + y
        self.picked = np.empty(n)
        self.peak = np.empty((n, 1))
        self.log_sum = np.empty((n, 1))
        self.shifted = np.empty((n, num_out))
        self.active = [np.empty(h.shape, dtype=bool) for h in self.hs[1:]]
        self.grads = MlpParams._of(params.layer_dims, np.empty_like(params.flat))

    def _init_scoring(self, classes) -> None:
        n, num_out = self.logits.shape
        if n == 0:
            raise ValueError("cannot score an empty evaluation set")
        self.classes = np.unique(_whole_numbers("allowed_classes", classes))
        if len(self.classes) == 0:
            raise ValueError("no allowed classes")
        lo, hi = int(self.classes[0]), int(self.classes[-1])
        if lo < 0 or hi >= num_out:
            raise ValueError("allowed class id outside the output layer")
        # a contiguous range of classes is scored through a view, not a copy
        self.columns = slice(lo, hi + 1) if hi - lo + 1 == len(self.classes) else self.classes


def _activations(params: MlpParams, ws: _Workspace) -> list[np.ndarray]:
    """[x, h1, ...]: the input and the ReLU output of every hidden layer."""
    hs = ws.hs
    for layer, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        h = hs[layer + 1]
        np.matmul(hs[layer], w, out=h)
        h += b
        np.maximum(h, 0.0, out=h)
    return hs


def _logits(params: MlpParams, ws: _Workspace) -> np.ndarray:
    np.matmul(_activations(params, ws)[-1], params.weights[-1], out=ws.logits)
    ws.logits += params.biases[-1]
    return ws.logits


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Output logits."""
    return _logits(params, _Workspace(params, x))


def mlp_hidden(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Activations feeding the output layer (the input itself if depth 1)."""
    return _activations(params, _Workspace(params, x))[-1]


def loss_and_grad(
    params: MlpParams,
    x: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, MlpParams]:
    """Weighted cross-entropy (normalised by total weight) and its exact grads."""
    return _loss_and_grad(params, _Workspace(params, x, y, sample_weight))


def _loss_and_grad(params: MlpParams, ws: _Workspace) -> tuple[float, MlpParams]:
    """`loss_and_grad` on a training workspace's batch; the gradients
    returned are the workspace's own arrays, valid until its next use."""
    hs = ws.hs
    logits = _logits(params, ws)

    # logp = logits - (peak + log(sum(exp(logits - peak)))), in `logits`
    np.maximum.reduce(logits, axis=1, keepdims=True, out=ws.peak)
    np.subtract(logits, ws.peak, out=ws.shifted)
    np.exp(ws.shifted, out=ws.shifted)
    np.add.reduce(ws.shifted, axis=1, keepdims=True, out=ws.log_sum)
    np.log(ws.log_sum, out=ws.log_sum)
    ws.log_sum += ws.peak
    logp = np.subtract(logits, ws.log_sum, out=logits)
    flat = logp.reshape(-1)
    np.take(flat, ws.label_at, out=ws.picked)
    ws.picked *= ws.wn
    loss = float(-np.add.reduce(ws.picked))

    dlogits = np.exp(logp, out=logp)
    np.take(flat, ws.label_at, out=ws.picked)
    ws.picked -= 1.0
    flat[ws.label_at] = ws.picked
    dlogits *= ws.wn_col

    dz = dlogits  # the gradient at layer `layer`'s output, before its ReLU
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(hs[layer].T, dz, out=ws.grads.weights[layer])
        np.add.reduce(dz, axis=0, out=ws.grads.biases[layer])
        if layer:
            # relu(z) > 0 exactly where z > 0; the activation, read for the
            # last time, then holds the gradient that flows into it
            active = np.greater(hs[layer], 0.0, out=ws.active[layer - 1])
            dz = np.matmul(dz, params.weights[layer].T, out=hs[layer])
            dz *= active
    return loss, ws.grads


def masked_accuracy(
    params: MlpParams, x: np.ndarray, y: np.ndarray, allowed_classes: np.ndarray
) -> float:
    """Accuracy with the argmax restricted to `allowed_classes`.

    Ties resolve to the lowest allowed class id, which keeps evaluation
    deterministic across runs.
    """
    return _accuracy(params, _Workspace(params, x, classes=allowed_classes), _whole_numbers("y", y))


def _accuracy(params: MlpParams, ws: _Workspace, y: np.ndarray) -> float:
    """`masked_accuracy` of labels `y` on a scoring workspace's batch."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (len(ws.hs[0]),):
        raise ValueError("labels must be one per row")
    logits = _logits(params, ws)
    pred = ws.classes[np.argmax(logits[:, ws.columns], axis=1)]
    return float(np.count_nonzero(pred == y) / len(y))


def class_balance_weights(labels: np.ndarray) -> np.ndarray:
    """Per-item weights making every present class carry equal total mass.

    With N items over C present classes, an item of a class with N_c
    members weighs N / (C * N_c); the weights sum to N.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts = np.unique(labels, return_counts=True)
    per_class = len(labels) / (len(classes) * counts)
    return per_class[np.searchsorted(classes, labels)]


# ---------------------------------------------------------------------------
# optimisers
# ---------------------------------------------------------------------------


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr
        self._scratch: np.ndarray | None = None

    def step(self, params: MlpParams, grads: MlpParams) -> None:
        p = params.flat
        if self._scratch is None:
            self._scratch = np.empty_like(p)
        p -= np.multiply(grads.flat, self.lr, out=self._scratch)


class AdamOptimizer:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self._state: np.ndarray | None = None
        self._t = 0

    def step(self, params: MlpParams, grads: MlpParams) -> None:
        """One in-place update of the whole parameter vector; per element it
        computes, in this order, m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g
        and p -= (lr * m/c1) / (sqrt(v/c2) + eps) with c_i = 1 - b_i**t."""
        p, g = params.flat, grads.flat
        if self._state is None:
            # m, v and two scratch vectors
            self._state = np.zeros((4, p.size))
        m, v, num, den = self._state
        self._t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1 - b1**self._t, 1 - b2**self._t
        m *= b1
        m += np.multiply(g, 1 - b1, out=num)
        v *= b2
        np.multiply(g, 1 - b2, out=num)
        num *= g
        v += num
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.EPS
        np.divide(m, c1, out=num)
        num *= self.lr
        num /= den
        p -= num


def make_optimizer(name: str, lr: float):
    if not np.isfinite(lr):
        raise ValueError(f"lr must be finite, got {lr}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if name == "sgd":
        return SgdOptimizer(lr)
    if name == "adam":
        return AdamOptimizer(lr)
    raise ValueError(f"unknown optimizer {name!r}; pick sgd or adam")


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _train_head(
    params: MlpParams,
    optimizer,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None,
    valid_x: np.ndarray,
    valid_y: np.ndarray,
    allowed: np.ndarray,
    epochs: int,
    patience: int,
) -> MlpParams:
    """Full-batch training with early stopping on held-out masked accuracy.

    Trains `params` in place and returns a copy of the best validation
    epoch's parameters; with no validation rows every epoch counts as the
    best so far, so all epochs run. One training and one scoring workspace
    serve every epoch.
    """
    train = _Workspace(params, x, y, w)
    scoring = _Workspace(params, valid_x, classes=allowed) if len(valid_y) else None
    best = params.copy()
    best_acc, best_epoch = -1.0, -1
    for epoch in range(epochs):
        _, grads = _loss_and_grad(params, train)
        optimizer.step(params, grads)
        acc = _accuracy(params, scoring, valid_y) if scoring else None
        if acc is None or acc > best_acc:
            best_acc, best_epoch = acc, epoch
            np.copyto(best.flat, params.flat)
        elif epoch - best_epoch >= patience:
            break
    return best


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MODEL_HEADER = "<4sII"  # magic, version, layer count


def save_model(params: MlpParams, path) -> None:
    """Write `params` as a little-endian float64 model file (magic `TEMM`)."""
    dims = params.layer_dims
    parts = [struct.pack(_MODEL_HEADER, MODEL_MAGIC, MODEL_FORMAT_VERSION, len(params.weights))]
    parts.append(struct.pack(f"<{len(dims)}I", *dims))
    parts.append(params.flat.astype("<f8", copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> MlpParams:
    """Read a `save_model` file, refusing a bad magic, version or size."""
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
    if len(blob) != head + dims_size + 8 * sum(i * o + o for i, o in zip(dims, dims[1:])):
        raise ValueError(f"{path}: payload size mismatch")
    if num_layers == 0 or 0 in dims:
        raise ValueError(f"{path}: a model needs at least one layer, and widths of at least 1")
    return MlpParams._of(dims, np.frombuffer(blob, "<f8", offset=head + dims_size).astype(np.float64))


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
    node = _node_id("node", node, adj.num_nodes)
    k = _as_int("target_class", target_class)
    if not 0 <= k < w.shape[1]:
        raise ValueError(f"target_class {k} out of range")
    if not np.isfinite(corrupt) or corrupt < 0:
        raise ValueError(f"corrupt must be finite and >= 0, got {corrupt}")

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
    z_m = x[support] @ w[:, k]
    coefficients = np.zeros(adj.num_nodes)
    coefficients[support] = z_m * pi[support] / z_v[k]
    if corrupt and support.size:
        coefficients[support[np.argmax(coefficients[support])]] *= 1.0 + corrupt
    reconstructed = np.zeros_like(w)
    reconstructed[:, k] = -(coefficients[support] / z_m) @ x[support]

    deviation = float(np.max(np.abs(direct - reconstructed)))
    return PseudoGradientReport(
        direct_grad=direct,
        reconstructed_grad=reconstructed,
        coefficients=coefficients,
        max_deviation=deviation,
    )
