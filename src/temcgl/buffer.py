"""Replay memory of topology-aware embeddings, one batch of entries per task.

The buffer never stores subgraphs — only embedding rows frozen at the time
their task was current, with label / task / origin-node bookkeeping. Its
byte footprint therefore scales with (entries x embedding dim) and is
completely independent of node degrees.

Four selection policies fill it:

* ``uniform``          — simple random sample of the task's candidates
* ``centroid``         — per class, the candidates nearest the class-mean
                         embedding, round-robin over classes
* ``coverage_max``     — the coverage-weighted sequential sampler
* ``reservoir_stream`` — classic streaming reservoir, one pass, no totals
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coverage import coverage_max_sample
from .graph import Graph
from .propagation import TEMatrix

SAMPLER_IDS = ("uniform", "centroid", "coverage_max", "reservoir_stream")

BUFFER_MAGIC = b"TEMB"
BUFFER_FORMAT_VERSION = 1
_BUFFER_HEADER = "<4sIIQ"  # magic, version, dim, entry count
_ENTRY_PREFIX = "<iqi"  # task_id, node_id, label


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


@dataclass(eq=False)
class MemoryEntry:
    te: np.ndarray
    label: int
    task_id: int
    node_id: int


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
    cand_labels = np.asarray(labels)[candidates]
    ranked: list[np.ndarray] = []
    for cls in np.unique(cand_labels):
        members = candidates[cand_labels == cls]
        rows = np.asarray(tes_values)[members]
        dist = np.linalg.norm(rows - rows.mean(axis=0), axis=1)
        ranked.append(members[np.lexsort((members, dist))])
    picks: list[int] = []
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


def _reservoir_pass(candidates: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    slots: list[int] = []
    for seen, v in enumerate(candidates):
        if seen < n:
            slots.append(int(v))
        else:
            j = int(rng.integers(0, seen + 1))
            if j < n:
                slots[j] = int(v)
    return np.array(slots, dtype=np.int64)


# ---------------------------------------------------------------------------
# the buffer itself
# ---------------------------------------------------------------------------


@dataclass
class _StreamState:
    task_id: int
    seen: int = 0
    slots: list[MemoryEntry] = field(default_factory=list)


class MemoryBuffer:
    """Accumulates embedding entries task by task; each task commits once."""

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
        self.entries: list[MemoryEntry] = []
        self._tasks_seen: set[int] = set()
        self._stream: _StreamState | None = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def tasks_seen(self) -> set[int]:
        return set(self._tasks_seen)

    def te_matrix(self) -> np.ndarray:
        if not self.entries:
            return np.empty((0, 0))
        return np.stack([e.te for e in self.entries])

    def labels(self) -> np.ndarray:
        return np.array([e.label for e in self.entries], dtype=np.int64)

    def node_ids(self) -> np.ndarray:
        return np.array([e.node_id for e in self.entries], dtype=np.int64)

    def task_ids(self) -> np.ndarray:
        return np.array([e.task_id for e in self.entries], dtype=np.int64)

    def entries_for_task(self, task_id: int) -> list[MemoryEntry]:
        return [e for e in self.entries if e.task_id == task_id]

    # -- batch update -------------------------------------------------------

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
        if self._stream is not None:
            raise ValueError("cannot batch-update while a stream is open")
        if task_id in self._tasks_seen:
            raise ValueError(f"task {task_id} already committed to the buffer")
        candidates = np.asarray(candidates, dtype=np.int64)
        if len(np.unique(candidates)) != len(candidates):
            raise ValueError("candidates must be unique")
        if len(candidates) == 0:
            raise ValueError("no candidates to sample from")
        if candidates.min() < 0 or candidates.max() >= tes.num_nodes:
            raise ValueError("candidate id out of range")
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
        else:  # reservoir_stream, replayed as a single in-order pass
            selected = _reservoir_pass(candidates, n, rng)

        for v in selected:
            origin = int(node_ids[v]) if node_ids is not None else int(v)
            self.entries.append(
                MemoryEntry(
                    te=tes.values[v].copy(),
                    label=int(g.labels[v]),
                    task_id=int(task_id),
                    node_id=origin,
                )
            )
        self._tasks_seen.add(int(task_id))
        return selected

    # -- streaming update ---------------------------------------------------

    def stream_update(
        self,
        te: np.ndarray,
        label: int,
        node_id: int,
        task_id: int,
        rng: np.random.Generator,
    ) -> None:
        """Offer one arriving node to the open reservoir for `task_id`."""
        if self.sampler_id != "reservoir_stream":
            raise ValueError("stream_update needs sampler_id='reservoir_stream'")
        if self.budget is None or self.budget.count is None:
            raise ValueError("streaming needs a count budget (totals are unknown)")
        if self._stream is None:
            if task_id in self._tasks_seen:
                raise ValueError(f"task {task_id} already committed to the buffer")
            self._stream = _StreamState(task_id=int(task_id))
        elif self._stream.task_id != task_id:
            raise ValueError(
                f"stream for task {self._stream.task_id} is open; finalize it first"
            )
        entry = MemoryEntry(
            te=np.asarray(te, dtype=np.float64).copy(),
            label=int(label),
            task_id=int(task_id),
            node_id=int(node_id),
        )
        state = self._stream
        n = self.budget.count
        if state.seen < n:
            state.slots.append(entry)
        else:
            j = int(rng.integers(0, state.seen + 1))
            if j < n:
                state.slots[j] = entry
        state.seen += 1

    def stream_finalize(self) -> np.ndarray:
        """Commit the open stream's survivors; returns their node ids."""
        if self._stream is None:
            raise ValueError("no stream is open")
        state = self._stream
        self.entries.extend(state.slots)
        self._tasks_seen.add(state.task_id)
        self._stream = None
        return np.array([e.node_id for e in state.slots], dtype=np.int64)

    def footprint_bytes(self) -> int:
        """Exact size of the serialised buffer, counted without serialising it."""
        entry = struct.calcsize(_ENTRY_PREFIX) + 8 * _embedding_dim(self.entries)
        return struct.calcsize(_BUFFER_HEADER) + len(self.entries) * entry


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _embedding_dim(entries: list[MemoryEntry]) -> int:
    dims = {e.te.size for e in entries}
    if len(dims) > 1:
        raise ValueError("buffer entries disagree on embedding dim")
    return dims.pop() if dims else 0


def serialize_buffer(buf: MemoryBuffer) -> bytes:
    dim = _embedding_dim(buf.entries)
    parts = [struct.pack(_BUFFER_HEADER, BUFFER_MAGIC, BUFFER_FORMAT_VERSION, dim, len(buf.entries))]
    for e in buf.entries:
        parts.append(struct.pack(_ENTRY_PREFIX, e.task_id, e.node_id, e.label))
        parts.append(e.te.astype("<f8", copy=False).tobytes())
    return b"".join(parts)


def save_buffer(buf: MemoryBuffer, path) -> None:
    Path(path).write_bytes(serialize_buffer(buf))


def load_buffer(
    path,
    budget: BudgetPolicy | None = None,
    sampler_id: str = "uniform",
    coverage_hops: int = 2,
) -> MemoryBuffer:
    """Rebuild a buffer from disk; bit-exact under re-serialisation.

    The on-disk format carries entries only, so the sampling configuration
    of the rebuilt buffer is whatever the caller passes here.
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
    entry_bytes = struct.calcsize(_ENTRY_PREFIX) + dim * 8
    if len(blob) != head + count * entry_bytes:
        raise ValueError(f"{path}: payload size mismatch")
    buf = MemoryBuffer(budget, sampler_id=sampler_id, coverage_hops=coverage_hops)
    offset = head
    for _ in range(count):
        task_id, node_id, label = struct.unpack_from(_ENTRY_PREFIX, blob, offset)
        offset += struct.calcsize(_ENTRY_PREFIX)
        te = np.frombuffer(blob, dtype="<f8", count=dim, offset=offset).astype(np.float64)
        offset += dim * 8
        buf.entries.append(MemoryEntry(te=te, label=label, task_id=task_id, node_id=node_id))
        buf._tasks_seen.add(task_id)
    return buf
