"""Replay memory of topology-aware embeddings, one batch of entries per task.

The buffer never stores subgraphs — only embedding rows frozen at the time
their task was current, with label / task / origin-node bookkeeping. It is
held as four aligned columns: an (entries x dim) float64 matrix `te` and
int64 vectors `label`, `task_id` and `node_id`. Its byte footprint therefore
scales with (entries x embedding dim) and is completely independent of node
degrees.

Four selection policies fill it:

* ``uniform``          — simple random sample of the task's candidates
* ``centroid``         — per class, the candidates nearest the class-mean
                         embedding, round-robin over classes
* ``coverage_max``     — the coverage-weighted sequential sampler
* ``reservoir_stream`` — classic reservoir, one in-order pass over the
                         task's candidates
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coverage import coverage_max_sample
from .graph import Graph
from .propagation import TEMatrix

SAMPLER_IDS = ("uniform", "centroid", "coverage_max", "reservoir_stream")

BUFFER_MAGIC = b"TEMB"
BUFFER_FORMAT_VERSION = 1
_BUFFER_HEADER = "<4sIIQ"  # magic, version, dim, entry count


def _record_dtype(dim: int) -> np.dtype:
    """One packed on-disk entry, 16 + 8 * dim bytes."""
    return np.dtype(
        [("task_id", "<i4"), ("node_id", "<i8"), ("label", "<i4"), ("te", "<f8", (dim,))]
    )


@dataclass(frozen=True)
class BudgetPolicy:
    """Per-task entry budget: a fixed count or a fraction of the candidates."""

    count: int | None = None
    fraction: float | None = None

    def __post_init__(self) -> None:
        if (self.count is None) == (self.fraction is None):
            raise ValueError("set exactly one of count / fraction")
        if self.count is not None and self.count < 0:
            raise ValueError("count must be >= 0")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")

    def resolve(self, num_candidates: int) -> int:
        if self.count is not None:
            return self.count
        return max(1, int(round(self.fraction * num_candidates)))


# ---------------------------------------------------------------------------
# samplers that don't need coverage machinery
# ---------------------------------------------------------------------------


def sample_uniform(candidates: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n distinct candidates, all subsets equally likely."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if n > len(candidates):
        raise ValueError(f"cannot draw {n} from {len(candidates)} candidates")
    return rng.choice(candidates, size=n, replace=False)


def sample_nearest_centroid(
    candidates: np.ndarray, tes_values: np.ndarray, labels: np.ndarray, n: int
) -> np.ndarray:
    """Per class, candidates closest to the class-mean embedding.

    Classes are visited round-robin in ascending label order; within a
    class, candidates rank by Euclidean distance to the centroid with node
    id breaking ties. Fully deterministic.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if n > len(candidates):
        raise ValueError(f"cannot draw {n} from {len(candidates)} candidates")
    classes, cls = np.unique(np.asarray(labels)[candidates], return_inverse=True)
    dist = np.empty(len(candidates))
    for k in range(len(classes)):
        rows = np.asarray(tes_values)[candidates[cls == k]]
        dist[cls == k] = np.linalg.norm(rows - rows.mean(axis=0), axis=1)
    # each candidate's rank inside its class, then rank-major over classes
    order = np.lexsort((candidates, dist, cls))
    counts = np.bincount(cls)
    rank = np.empty(len(candidates), dtype=np.int64)
    rank[order] = np.arange(len(candidates)) - (np.cumsum(counts) - counts)[cls[order]]
    return candidates[np.lexsort((cls, rank))[:n]]


def _reservoir_pass(candidates: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """An n-slot reservoir filled by one in-order pass over `candidates`:
    candidate i >= n draws a slot in [0, i] (all draws at once) and takes it
    if it is below n, so the last candidate to draw a slot keeps it."""
    draws = rng.integers(0, np.arange(n, len(candidates)) + 1)
    writes = np.flatnonzero(draws < n)[::-1]  # newest first: np.unique keeps first occurrences
    written, last = np.unique(draws[writes], return_index=True)
    slots = candidates[:n].copy()
    slots[written] = candidates[n + writes[last]]
    return slots


# ---------------------------------------------------------------------------
# the buffer itself
# ---------------------------------------------------------------------------


class MemoryBuffer:
    """Accumulates embedding entries task by task; each task commits once.

    Row i of `te` is entry i's embedding; `label[i]`, `task_id[i]` and
    `node_id[i]` are its bookkeeping. All rows share one width.
    """

    def __init__(
        self,
        budget: BudgetPolicy | None,
        sampler_id: str = "coverage_max",
        coverage_hops: int = 2,
    ):
        if sampler_id not in SAMPLER_IDS:
            raise ValueError(f"unknown sampler {sampler_id!r}; pick one of {SAMPLER_IDS}")
        if coverage_hops < 0:
            raise ValueError("coverage_hops must be >= 0")
        self.budget = budget
        self.sampler_id = sampler_id
        self.coverage_hops = coverage_hops
        self.te = np.empty((0, 0))
        self.label = np.empty(0, dtype=np.int64)
        self.task_id = np.empty(0, dtype=np.int64)
        self.node_id = np.empty(0, dtype=np.int64)
        # A set, not the task_id column: a task may commit zero rows.
        self._tasks_seen: set[int] = set()

    def __len__(self) -> int:
        return len(self.label)

    @property
    def tasks_seen(self) -> set[int]:
        return set(self._tasks_seen)

    def _append(self, te, label, task_id, node_id) -> None:
        """Commit rows to all four columns at once."""
        if len(label) == 0:  # keeps an empty buffer's te (0, 0): it is written with dim 0
            return
        self.te = np.concatenate([self.te, te]) if len(self) else np.array(te, dtype=np.float64)
        self.label = np.concatenate([self.label, label]).astype(np.int64, copy=False)
        self.task_id = np.concatenate([self.task_id, task_id]).astype(np.int64, copy=False)
        self.node_id = np.concatenate([self.node_id, node_id]).astype(np.int64, copy=False)

    def update_tem(
        self,
        g: Graph,
        tes: TEMatrix,
        task_id: int,
        candidates: np.ndarray,
        rng: np.random.Generator,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Select this task's entries from `candidates` and commit them.

        `candidates` (and the returned selection) index into `g` / `tes`;
        `node_ids` optionally maps those local ids to provenance ids kept
        on the entries. Every task may commit exactly once.
        """
        if self.budget is None:
            raise ValueError("buffer has no budget policy")
        if task_id in self._tasks_seen:
            raise ValueError(f"task {task_id} already committed to the buffer")
        candidates = np.asarray(candidates, dtype=np.int64)
        if len(np.unique(candidates)) != len(candidates):
            raise ValueError("candidates must be unique")
        if len(candidates) == 0:
            raise ValueError("no candidates to sample from")
        if candidates.min() < 0 or candidates.max() >= tes.num_nodes:
            raise ValueError("candidate id out of range")
        if len(self) and self.te.shape[1] != tes.dim:
            raise ValueError("buffer entries disagree on embedding dim")
        n = self.budget.resolve(len(candidates))
        if n > len(candidates):
            raise ValueError(f"budget {n} exceeds {len(candidates)} candidates")

        if self.sampler_id == "uniform":
            selected = sample_uniform(candidates, n, rng)
        elif self.sampler_id == "centroid":
            selected = sample_nearest_centroid(candidates, tes.values, g.labels, n)
        elif self.sampler_id == "coverage_max":
            selected = coverage_max_sample(
                g, candidates, hops=self.coverage_hops, budget=n, rng=rng, universe=candidates
            )
        else:  # reservoir_stream
            selected = _reservoir_pass(candidates, n, rng)

        self._append(
            tes.values[selected],
            g.labels[selected],
            np.full(len(selected), task_id),
            selected if node_ids is None else np.asarray(node_ids)[selected],
        )
        self._tasks_seen.add(int(task_id))
        return selected

    def footprint_bytes(self) -> int:
        """Exact size of the serialised buffer, counted without serialising it."""
        entry = _record_dtype(self.te.shape[1]).itemsize
        return struct.calcsize(_BUFFER_HEADER) + len(self) * entry


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def serialize_buffer(buf: MemoryBuffer) -> bytes:
    i32 = np.iinfo(np.int32)
    for name in ("task_id", "label"):
        column = getattr(buf, name)
        if len(column) and (column.min() < i32.min or column.max() > i32.max):
            raise ValueError(f"buffer {name} does not fit the file's int32 field")
    dim = buf.te.shape[1]
    records = np.empty(len(buf), dtype=_record_dtype(dim))
    for name in ("task_id", "node_id", "label", "te"):
        records[name] = getattr(buf, name)
    header = struct.pack(_BUFFER_HEADER, BUFFER_MAGIC, BUFFER_FORMAT_VERSION, dim, len(buf))
    return header + records.tobytes()


def save_buffer(buf: MemoryBuffer, path) -> None:
    """Write `buf`'s entries to `path` in the `serialize_buffer` format."""
    Path(path).write_bytes(serialize_buffer(buf))


def load_buffer(path) -> MemoryBuffer:
    """Rebuild a buffer from disk; bit-exact under re-serialisation.

    The on-disk format carries entries only, so the rebuilt buffer has no
    budget and cannot sample: it holds the stored rows for replay, export
    or another save.
    """
    blob = Path(path).read_bytes()
    head = struct.calcsize(_BUFFER_HEADER)
    if len(blob) < head:
        raise ValueError(f"{path}: truncated buffer file")
    magic, version, dim, count = struct.unpack_from(_BUFFER_HEADER, blob)
    if magic != BUFFER_MAGIC:
        raise ValueError(f"{path}: not a buffer file (bad magic)")
    if version != BUFFER_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    # sized before the dtype is built: numpy refuses a corrupt, huge dim
    if len(blob) != head + count * (_record_dtype(0).itemsize + 8 * dim):
        raise ValueError(f"{path}: payload size mismatch")
    records = np.frombuffer(blob, dtype=_record_dtype(dim), count=count, offset=head)
    buf = MemoryBuffer(None, sampler_id="uniform")
    buf._append(records["te"], records["label"], records["task_id"], records["node_id"])
    buf._tasks_seen.update(buf.task_id.tolist())
    return buf
