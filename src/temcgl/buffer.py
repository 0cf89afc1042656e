"""Replay memory of topology-aware embeddings, one batch of entries per task.

The buffer never stores subgraphs — only embedding rows frozen at the time
their task was current, with label / task / origin-node bookkeeping. It is
held as four aligned columns: an (entries x dim) float64 matrix `te` and
int64 vectors `label`, `task_id` and `node_id`, each a view of the filled
rows of one row store that commits write into in place. Its byte footprint
therefore scales with (entries x embedding dim) and is completely
independent of node degrees. Buffer files are written and read a chunk of
records at a time.

The buffer only stores what a task commits; `select_entries` picks which of
the task's candidates those are, by one of four policies:

* ``uniform``          — simple random sample of the task's candidates
* ``centroid``         — per class, the candidates nearest the class-mean
                         embedding, round-robin over classes
* ``coverage_max``     — the coverage-weighted sequential sampler
* ``reservoir_stream`` — classic reservoir, one in-order pass over the
                         task's candidates
"""
from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coverage import coverage_max_sample
from .graph import Graph, _as_int, _int_fields, _whole_numbers
from .propagation import TEMatrix

SAMPLER_IDS = ("uniform", "centroid", "coverage_max", "reservoir_stream")

BUFFER_MAGIC = b"TEMB"
BUFFER_FORMAT_VERSION = 1
_BUFFER_HEADER = "<4sIIQ"  # magic, version, dim, entry count
_CHUNK_BYTES = 1 << 20  # buffer files are written and read this much at a time


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
        _int_fields(self, "count")
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
# samplers
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
    if not 0 <= n <= len(candidates):
        raise ValueError(f"cannot draw n={n} from {len(candidates)} candidates")
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


def select_entries(
    sampler_id: str, g: Graph, tes: TEMatrix, candidates: np.ndarray, n: int,
    rng: np.random.Generator, hops: int,
) -> np.ndarray:
    """`n` of `candidates` (node ids of `g`, rows of `tes`), picked by
    `sampler_id`; `hops` is the ball radius of ``coverage_max``."""
    if sampler_id not in SAMPLER_IDS:
        raise ValueError(f"unknown sampler {sampler_id!r}; pick one of {SAMPLER_IDS}")
    if tes.num_nodes != g.num_nodes:
        raise ValueError(f"{tes.num_nodes} embedding rows for a graph of {g.num_nodes} nodes")
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(np.unique(candidates)) != len(candidates):
        raise ValueError("candidates must be unique")
    if len(candidates) == 0:
        raise ValueError("no candidates to sample from")
    if candidates.min() < 0 or candidates.max() >= g.num_nodes:
        raise ValueError("candidate id out of range")
    if not 0 <= n <= len(candidates):
        raise ValueError(f"cannot draw n={n} from {len(candidates)} candidates")
    if sampler_id == "uniform":
        return sample_uniform(candidates, n, rng)
    if sampler_id == "centroid":
        return sample_nearest_centroid(candidates, tes.values, g.labels, n)
    if sampler_id == "coverage_max":
        return coverage_max_sample(g, candidates, hops=hops, budget=n, rng=rng, universe=candidates)
    return _reservoir_pass(candidates, n, rng)


# ---------------------------------------------------------------------------
# the buffer itself
# ---------------------------------------------------------------------------


class MemoryBuffer:
    """Accumulates embedding entries task by task; each task commits once.

    Row i of `te` is entry i's embedding; `label[i]`, `task_id[i]` and
    `node_id[i]` are its bookkeeping. All rows share one width. The four
    columns are views of one row store, so a commit writes its rows in
    place. A run sizes the store once for every row it will commit, behind
    a leading block that holds the current rows of the head's batch (see
    `_batch`); any other buffer grows it to exactly what each commit needs.
    """

    def __init__(self) -> None:
        # `_lead` leading rows, then the committed rows; the rows of `_ids`
        # are label, task_id and node_id.
        self._rows = np.empty((0, 0))
        self._ids = np.empty((3, 0), dtype=np.int64)
        self._lead = 0
        self._expose(0)
        # A set, not the task_id column: a task may commit zero rows.
        self._tasks_seen: set[int] = set()

    def __len__(self) -> int:
        return len(self.label)

    @property
    def tasks_seen(self) -> set[int]:
        return set(self._tasks_seen)

    def _expose(self, n: int) -> None:
        """Point the four columns at the store's first `n` entries."""
        # an empty buffer's te stays (0, 0): it is written with dim 0
        self.te = self._rows[self._lead : self._lead + n] if n else np.empty((0, 0))
        self.label, self.task_id, self.node_id = self._ids[:, :n]

    def _reserve(self, rows: int, lead: int, dim: int) -> None:
        """Give the store room for `rows` entries of width `dim` after a
        `lead`-row leading block, keeping the entries committed so far."""
        n = len(self)
        store = np.empty((lead + rows, dim))
        ids = np.empty((3, rows), dtype=np.int64)
        if n:
            store[lead : lead + n] = self.te
            ids[:, :n] = self._ids[:, :n]
        self._rows, self._ids, self._lead = store, ids, lead
        self._expose(n)

    def _append(self, te, label, task_id, node_id) -> None:
        """Commit rows to all four columns at once, in place."""
        n, k = len(self), len(label)
        if self._ids.shape[1] < n + k or self._rows.shape[1] != te.shape[1]:
            self._reserve(n + k, self._lead, te.shape[1])
        self._rows[self._lead + n : self._lead + n + k] = te
        for column, values in zip(self._ids, (label, task_id, node_id)):
            column[n : n + k] = values
        self._expose(n + k)

    def _batch(self, blocks: Sequence[np.ndarray], replayed: int) -> np.ndarray:
        """The rows of `blocks`, one after another, then the first `replayed`
        entries, as one view of the store.

        `blocks` are copied into the end of the leading block, which grows
        if they do not fit. The next `_batch` rewrites the view's leading
        rows; a commit writes only past the entries already held.
        """
        n = sum(len(b) for b in blocks)
        dim = blocks[0].shape[1]
        if n > self._lead or self._rows.shape[1] != dim:
            self._reserve(self._ids.shape[1], max(n, self._lead), dim)
        start = self._lead - n
        for block in blocks:
            self._rows[start : start + len(block)] = block
            start += len(block)
        return self._rows[self._lead - n : self._lead + replayed]

    def commit(self, task_id: int, te: np.ndarray, label, node_id) -> None:
        """Store one task's entries: row i of `te` with `label[i]` and
        `node_id[i]`. Every task commits exactly once; a refused commit
        leaves the buffer as it was."""
        task_id = _as_int("task_id", task_id)
        label, node_id = _whole_numbers("label", label), _whole_numbers("node_id", node_id)
        if np.ndim(te) != 2 or not len(te) == len(label) == len(node_id):
            raise ValueError("commit needs a 2-D te and one label and node id per row")
        if task_id in self._tasks_seen:
            raise ValueError(f"task {task_id} already committed to the buffer")
        if len(self) and self.te.shape[1] != te.shape[1]:
            raise ValueError("buffer entries disagree on embedding dim")
        self._append(te, label, np.full(len(te), task_id), node_id)
        self._tasks_seen.add(task_id)

    def footprint_bytes(self) -> int:
        """Exact size of the serialised buffer, counted without serialising it."""
        entry = _record_dtype(self.te.shape[1]).itemsize
        return struct.calcsize(_BUFFER_HEADER) + len(self) * entry


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _file_header(buf: MemoryBuffer) -> bytes:
    """The header of `buf`'s file, once its ids are known to fit the file."""
    i32 = np.iinfo(np.int32)
    for name in ("task_id", "label"):
        column = getattr(buf, name)
        if len(column) and (column.min() < i32.min or column.max() > i32.max):
            raise ValueError(f"buffer {name} does not fit the file's int32 field")
    dim = buf.te.shape[1]
    return struct.pack(_BUFFER_HEADER, BUFFER_MAGIC, BUFFER_FORMAT_VERSION, dim, len(buf))


def _record_chunks(dim: int, count: int):
    """`(start, records)` for each chunk of `count` records; every chunk is
    a view of one array, rewritten by the next."""
    dtype = _record_dtype(dim)
    step = max(1, _CHUNK_BYTES // dtype.itemsize)
    records = np.empty(min(step, count), dtype=dtype)
    for start in range(0, count, step):
        yield start, records[: min(step, count - start)]


def _write_buffer(buf: MemoryBuffer, header: bytes, file) -> None:
    """Write `header`, then `buf`'s packed records a chunk at a time."""
    file.write(header)
    for start, chunk in _record_chunks(buf.te.shape[1], len(buf)):
        for name in ("task_id", "node_id", "label", "te"):
            chunk[name] = getattr(buf, name)[start : start + len(chunk)]
        file.write(chunk)


def serialize_buffer(buf: MemoryBuffer) -> bytes:
    """The bytes `save_buffer` writes for `buf`."""
    out = io.BytesIO()
    _write_buffer(buf, _file_header(buf), out)
    return out.getvalue()


def save_buffer(buf: MemoryBuffer, path) -> None:
    """Write `buf`'s entries to `path` in the `serialize_buffer` format."""
    header = _file_header(buf)  # a buffer the format refuses leaves `path` alone
    with open(path, "wb") as file:
        _write_buffer(buf, header, file)


def load_buffer(path) -> MemoryBuffer:
    """Rebuild a buffer from disk; bit-exact under re-serialisation.

    The on-disk format carries entries only: the rebuilt buffer holds the
    stored rows for replay, export or another save.
    """
    head = struct.calcsize(_BUFFER_HEADER)
    buf = MemoryBuffer()
    with open(path, "rb") as file:
        header = file.read(head)
        if len(header) < head:
            raise ValueError(f"{path}: truncated buffer file")
        magic, version, dim, count = struct.unpack(_BUFFER_HEADER, header)
        if magic != BUFFER_MAGIC:
            raise ValueError(f"{path}: not a buffer file (bad magic)")
        if version != BUFFER_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if count == 0 and dim != 0:  # an empty buffer is written with dim 0
            raise ValueError(f"{path}: empty buffer file with embedding dim {dim}")
        # sized before the dtype is built: numpy refuses a corrupt, huge dim
        size = head + count * (_record_dtype(0).itemsize + 8 * dim)
        if os.fstat(file.fileno()).st_size != size:
            raise ValueError(f"{path}: payload size mismatch")
        buf._reserve(count, 0, dim)
        for _, chunk in _record_chunks(dim, count):
            if file.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{path}: truncated buffer file")
            buf._append(chunk["te"], chunk["label"], chunk["task_id"], chunk["node_id"])
    buf._tasks_seen.update(np.unique(buf.task_id).tolist())
    return buf
