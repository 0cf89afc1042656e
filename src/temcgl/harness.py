"""Continual-learning harness: task sequences, metrics, runs, and studies.

A run walks an expanding network task by task. Each task reveals the nodes
of a few new classes, recomputes topology-aware embeddings on the currently
visible subgraph, trains the shared head (optionally rehearsing buffered
embeddings), and then scores every task seen so far. Because embeddings are
produced by a parameter-free operator, rows stored in the buffer stay valid
across tasks and replay needs no stored neighbourhoods. The head's training
loop and masked accuracy live in `model` and are re-exported here.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .buffer import SAMPLER_IDS, BudgetPolicy, MemoryBuffer
from .coverage import coverage_ratio
from .graph import TEST, TRAIN, VALID, Graph, induced_subgraph, normalize_adjacency
from .model import (
    MlpParams,
    _train_head,
    class_balance_weights,
    init_mlp,
    make_optimizer,
    masked_accuracy,
    replay_batch,
)
from .propagation import PropagationStrategy, TEMatrix, compute_tes
from .rng import component_rng

REGIMES = ("replay", "finetune", "joint")
SCENARIOS = ("class_il", "task_il")
EDGE_POLICIES = ("keep_seen", "drop_all")
SELF_LOOP_MODES = ("auto", "on", "off")


# ---------------------------------------------------------------------------
# task sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One task of the sequence: its classes and their split node ids."""

    task_id: int
    classes: tuple[int, ...]
    train_nodes: np.ndarray
    valid_nodes: np.ndarray
    test_nodes: np.ndarray


def build_task_sequence(g: Graph, classes_per_task: int) -> list[TaskSpec]:
    """Chunk the label range into tasks of `classes_per_task` ascending classes.

    The last task keeps the remainder when the class count does not divide
    evenly. Every task must contribute at least one training and one test
    node, otherwise its accuracy is undefined.
    """
    num_classes = g.num_classes
    if classes_per_task < 1:
        raise ValueError("classes_per_task must be >= 1")
    if classes_per_task > num_classes:
        raise ValueError(
            f"classes_per_task={classes_per_task} exceeds the {num_classes} classes present"
        )
    tasks = []
    for task_id, start in enumerate(range(0, num_classes, classes_per_task)):
        classes = tuple(range(start, min(start + classes_per_task, num_classes)))
        member = np.isin(g.labels, classes)
        train = np.flatnonzero(member & (g.split == TRAIN))
        valid = np.flatnonzero(member & (g.split == VALID))
        test = np.flatnonzero(member & (g.split == TEST))
        if len(train) == 0:
            raise ValueError(f"task {task_id} (classes {classes}) has no training nodes")
        if len(test) == 0:
            raise ValueError(f"task {task_id} (classes {classes}) has no test nodes")
        tasks.append(TaskSpec(task_id, classes, train, valid, test))
    return tasks


def visible_nodes(
    g: Graph, tasks: Sequence[TaskSpec], upto_task: int, inter_task_edges: str
) -> np.ndarray:
    """Node ids revealed while learning task `upto_task` (sorted).

    "keep_seen" exposes every class met so far, so edges between old and new
    nodes participate in propagation; "drop_all" restricts the network to the
    current task's classes and earlier embeddings stay frozen.
    """
    if inter_task_edges not in EDGE_POLICIES:
        raise ValueError(f"unknown inter_task_edges policy {inter_task_edges!r}")
    if inter_task_edges == "keep_seen":
        classes = [c for t in tasks[: upto_task + 1] for c in t.classes]
    else:
        classes = list(tasks[upto_task].classes)
    return np.flatnonzero(np.isin(g.labels, classes))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class AccuracyMatrix:
    """Lower-triangular accuracy record: entry (i, j) scores task j after task i."""

    values: np.ndarray

    @classmethod
    def empty(cls, num_tasks: int) -> "AccuracyMatrix":
        if num_tasks < 1:
            raise ValueError("need at least one task")
        return cls(np.full((num_tasks, num_tasks), np.nan))

    @property
    def num_tasks(self) -> int:
        return int(self.values.shape[0])

    def record(self, after_task: int, eval_task: int, accuracy: float) -> None:
        if not 0 <= eval_task <= after_task < self.num_tasks:
            raise ValueError(
                f"entry ({after_task}, {eval_task}) is outside the lower triangle"
            )
        accuracy = float(accuracy)
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.values[after_task, eval_task] = accuracy

    def average_accuracy(self, after_task: int) -> float:
        """Mean accuracy over tasks 0..after_task, scored after `after_task`."""
        if not 0 <= after_task < self.num_tasks:
            raise ValueError(f"no task {after_task}")
        row = self.values[after_task, : after_task + 1]
        if np.isnan(row).any():
            raise ValueError(f"row {after_task} is not fully recorded")
        return float(row.mean())

    def average_forgetting(self, after_task: int) -> float | None:
        """Mean drop from each earlier task's just-trained accuracy (None at task 0)."""
        if not 0 <= after_task < self.num_tasks:
            raise ValueError(f"no task {after_task}")
        if after_task == 0:
            return None
        drops = self.values[after_task, :after_task] - np.diag(self.values)[:after_task]
        if np.isnan(drops).any():
            raise ValueError(f"row {after_task} is not fully recorded")
        return float(drops.mean())


# ---------------------------------------------------------------------------
# run configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    strategy: PropagationStrategy
    regime: str = "replay"
    scenario: str = "class_il"
    classes_per_task: int = 2
    sampler_id: str = "coverage_max"
    budget: BudgetPolicy = BudgetPolicy(fraction=0.1)
    replay_lambda: float = 1.0
    class_balance: bool = True
    coverage_hops: int | None = None
    inter_task_edges: str = "keep_seen"
    self_loops: str = "auto"
    hidden_dims: tuple[int, ...] = (256,)
    optimizer: str = "adam"
    lr: float = 0.01
    epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.inter_task_edges not in EDGE_POLICIES:
            raise ValueError(f"unknown inter_task_edges policy {self.inter_task_edges!r}")
        if self.self_loops not in SELF_LOOP_MODES:
            raise ValueError(f"self_loops must be one of {SELF_LOOP_MODES}")
        if self.sampler_id not in SAMPLER_IDS:
            raise ValueError(f"unknown sampler {self.sampler_id!r}")
        if self.classes_per_task < 1:
            raise ValueError("classes_per_task must be >= 1")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not np.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.epochs < 1 or self.patience < 1:
            raise ValueError("epochs and patience must be >= 1")
        if not np.isfinite(self.replay_lambda):
            raise ValueError(f"replay_lambda must be finite, got {self.replay_lambda}")
        if self.replay_lambda < 0:
            raise ValueError("replay_lambda must be >= 0")
        if self.coverage_hops is not None and self.coverage_hops < 1:
            raise ValueError("coverage_hops must be >= 1")

    def resolved_self_loops(self) -> bool:
        if self.self_loops == "auto":
            return self.strategy.default_self_loops
        return self.self_loops == "on"

    def resolved_coverage_hops(self) -> int:
        return self.coverage_hops if self.coverage_hops is not None else self.strategy.hops


@dataclass(frozen=True)
class BufferStat:
    task_id: int
    entries: int
    bytes: int
    coverage: float


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    aa: list[float]
    af: list[float | None]
    buffer_stats: list[BufferStat]
    params_per_task: list[MlpParams]
    buffer: MemoryBuffer
    tasks: list[TaskSpec]


def _embed_task(
    g: Graph, tasks: Sequence[TaskSpec], task_id: int, cfg: RunConfig
) -> tuple[np.ndarray, Graph, TEMatrix]:
    """The nodes visible at task `task_id`, their subgraph and its embeddings."""
    visible = visible_nodes(g, tasks, task_id, cfg.inter_task_edges)
    sub = induced_subgraph(g, visible)
    adj = normalize_adjacency(sub, cfg.resolved_self_loops())
    return visible, sub, compute_tes(adj, sub.features, cfg.strategy)


def _graph_step(
    g: Graph, tasks: Sequence[TaskSpec], task: TaskSpec, cfg: RunConfig, buffer: MemoryBuffer
) -> tuple[np.ndarray, TEMatrix, tuple | None, BufferStat]:
    """The part of one task that never reads the head.

    Returns the visible node ids, their embeddings, the head's batch
    `(x, y, w, valid_x, valid_y)` (None under "joint", which gathers it from
    the evaluation embeddings) and the task's buffer statistics. Under
    "replay" the task commits its selection to `buffer`.
    """
    visible, sub, tes = _embed_task(g, tasks, task.task_id, cfg)
    local_train = np.searchsorted(visible, task.train_nodes)
    batch = None
    if cfg.regime != "joint":
        # Reads the buffer before this task commits to it.
        x, y, w = replay_batch(
            tes.values[local_train], sub.labels[local_train], buffer.te, buffer.label,
            cfg.replay_lambda, cfg.class_balance,
        )
        local_valid = np.searchsorted(visible, task.valid_nodes)
        batch = (x, y, w, tes.values[local_valid], sub.labels[local_valid])
    if cfg.regime == "replay":
        rng = component_rng(cfg.seed, f"sampler-task-{task.task_id}")
        selected = buffer.update_tem(sub, tes, task.task_id, local_train, rng, node_ids=visible)
        cov = coverage_ratio(sub, selected, hops=cfg.resolved_coverage_hops(), universe=local_train)
        stat = BufferStat(task.task_id, len(buffer), buffer.footprint_bytes(), cov)
    else:
        stat = BufferStat(task.task_id, 0, buffer.footprint_bytes(), 0.0)
    return visible, tes, batch, stat


def _head_step(
    params: MlpParams, layer_dims: Sequence[int], tasks: Sequence[TaskSpec], task: TaskSpec,
    cfg: RunConfig, batch: tuple, eval_te: np.ndarray, labels: np.ndarray,
) -> tuple[MlpParams, MlpParams, list[float]]:
    """Train one task's head on `batch` from `params` (updated in place) and score it.

    Returns the trained parameters, a copy that later training leaves alone,
    and the accuracy on each task seen so far, in task order.
    """
    seen = tasks[: task.task_id + 1]
    seen_classes = np.concatenate([t.classes for t in seen])
    if cfg.regime == "joint":
        # Reference upper bound: retrain from scratch on everything seen.
        params = init_mlp(layer_dims, component_rng(cfg.seed, f"joint-init-{task.task_id}"))
    # Model selection scores the validation nodes over every class seen so
    # far, regardless of scenario. A within-task mask saturates while the new
    # classes' logits still trail the old ones, which would freeze the head
    # at a snapshot taken before any real learning.
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    params = _train_head(params, optimizer, *batch, seen_classes, cfg.epochs, cfg.patience)
    accs = [
        masked_accuracy(
            params, eval_te[prev.test_nodes], labels[prev.test_nodes],
            np.asarray(prev.classes) if cfg.scenario == "task_il" else seen_classes,
        )
        for prev in seen
    ]
    return params, params.copy(), accs


def _record_head(run: RunResult, task_id: int, head: tuple) -> MlpParams:
    """Record what `_head_step` returned for task `task_id`; return its parameters."""
    params, kept, accs = head
    for eval_task, acc in enumerate(accs):
        run.matrix.record(task_id, eval_task, acc)
    run.aa.append(run.matrix.average_accuracy(task_id))
    run.af.append(run.matrix.average_forgetting(task_id))
    run.params_per_task.append(kept)
    return params


def run_continual(g: Graph, cfg: RunConfig) -> RunResult:
    """Run one continual-learning pass over the task sequence of `g`.

    Each task's `_graph_step` never reads the head, so it runs on the calling
    thread while one worker thread runs the previous task's `_head_step`.
    The calling thread alone writes the result: once that head step is done,
    it records the step's outputs and then writes the evaluation embeddings
    the step read. Each side makes the same calls in the same order as a
    sequential loop, so every output is bit-identical to one.
    """
    tasks = build_task_sequence(g, cfg.classes_per_task)
    te_dim = cfg.strategy.hidden_dim if cfg.strategy.variant == "reservoir" else g.feature_dim
    layer_dims = [te_dim, *cfg.hidden_dims, g.num_classes]
    params = init_mlp(layer_dims, component_rng(cfg.seed, "model-init"))
    buffer = MemoryBuffer(
        cfg.budget, sampler_id=cfg.sampler_id, coverage_hops=cfg.resolved_coverage_hops()
    )
    run = RunResult(AccuracyMatrix.empty(len(tasks)), [], [], [], [], buffer, tasks)

    # Embeddings used at evaluation time, aligned with global node ids. Under
    # "keep_seen" each task refreshes every visible row; under "drop_all" a
    # row keeps the value computed when its task was current.
    eval_te = np.zeros((g.num_nodes, te_dim))

    head = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        for task in tasks:
            try:
                visible, tes, batch, stat = _graph_step(g, tasks, task, cfg, buffer)
            finally:
                # The previous task's head reads eval_te, and its error, if
                # any, comes before this task's, as in a sequential loop.
                if head is not None:
                    params = _record_head(run, task.task_id - 1, head.result())
            run.buffer_stats.append(stat)
            eval_te[visible] = tes.values
            if batch is None:
                seen = tasks[: task.task_id + 1]
                train_nodes = np.concatenate([t.train_nodes for t in seen])
                valid_nodes = np.concatenate([t.valid_nodes for t in seen])
                y = g.labels[train_nodes]
                w = class_balance_weights(y) if cfg.class_balance else None
                batch = (eval_te[train_nodes], y, w, eval_te[valid_nodes], g.labels[valid_nodes])
            head = pool.submit(
                _head_step, params, layer_dims, tasks, task, cfg, batch, eval_te, g.labels
            )
        _record_head(run, len(tasks) - 1, head.result())
    return run


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def _write_csv(path, manifest_hash: str, header: str, rows) -> None:
    lines = [f"# manifest={manifest_hash}", header]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_accuracy_matrix(path, matrix: AccuracyMatrix, manifest_hash: str) -> None:
    T = matrix.num_tasks
    header = "after_task," + ",".join(f"task_{j}" for j in range(T))
    rows = []
    for i in range(T):
        cells = [str(i)]
        for j in range(T):
            v = matrix.values[i, j]
            cells.append("NA" if np.isnan(v) else _fmt(v))
        rows.append(cells)
    _write_csv(path, manifest_hash, header, rows)


def write_curves(path, aa, af, manifest_hash: str) -> None:
    header = "task_index,average_accuracy,average_forgetting"
    rows = [
        [str(i), _fmt(a), "NA" if f is None else _fmt(f)]
        for i, (a, f) in enumerate(zip(aa, af))
    ]
    _write_csv(path, manifest_hash, header, rows)


def write_buffer_stats(path, stats: Sequence[BufferStat], manifest_hash: str) -> None:
    header = "task_index,entries,bytes,coverage_ratio"
    rows = [
        [str(s.task_id), str(s.entries), str(s.bytes), _fmt(s.coverage)] for s in stats
    ]
    _write_csv(path, manifest_hash, header, rows)


def write_embeddings(path, node_ids, labels, values, manifest_hash: str) -> None:
    """One row per node: id, label and every column at full precision."""
    header = "node_id,label," + ",".join(f"c{j}" for j in range(values.shape[1]))
    rows = (
        [str(node), str(label)] + ["%.17g" % v for v in row]
        for node, label, row in zip(node_ids, labels, values)
    )
    _write_csv(path, manifest_hash, header, rows)


def write_study_table(path, cells: Sequence["StudyCell"], manifest_hash: str) -> None:
    header = "sampler,budget_fraction,mean_aa,std_aa,mean_coverage,std_coverage,num_seeds"
    rows = [
        [
            c.sampler_id,
            _fmt(c.budget_fraction),
            _fmt(c.mean_aa),
            _fmt(c.std_aa),
            _fmt(c.mean_coverage),
            _fmt(c.std_coverage),
            str(c.num_seeds),
        ]
        for c in cells
    ]
    _write_csv(path, manifest_hash, header, rows)


# ---------------------------------------------------------------------------
# sampler studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyCell:
    """Aggregate over seeds for one (sampler, budget fraction) pair."""

    sampler_id: str
    budget_fraction: float
    mean_aa: float
    std_aa: float
    mean_coverage: float
    std_coverage: float
    num_seeds: int


def _study_unit(args) -> tuple[float, float]:
    # Module-level so process pools can pickle it.
    dataset, base, sampler_id, budget, seed = args
    cfg = dataclasses.replace(
        base, regime="replay", sampler_id=sampler_id, budget=budget, seed=seed
    )
    result = run_continual(dataset(seed), cfg)
    mean_cov = float(np.mean([s.coverage for s in result.buffer_stats]))
    return result.aa[-1], mean_cov


def run_sample_study(
    dataset: Callable[[int], Graph],
    base: RunConfig,
    samplers: Sequence[str],
    budget_fractions: Sequence[float],
    seeds: Sequence[int],
    jobs: int = 1,
) -> list[StudyCell]:
    """Replay runs over a (sampler x budget x seed) grid, aggregated per cell.

    `dataset` maps a seed to the graph for that repetition; with `jobs > 1`
    it must be picklable. The regime is forced to "replay" - samplers are
    inert otherwise - and results come back in grid order regardless of
    worker scheduling.
    """
    samplers = tuple(samplers)
    # built up front, so a bad fraction fails before any unit runs
    budgets = tuple(BudgetPolicy(fraction=float(f)) for f in budget_fractions)
    seeds = tuple(int(s) for s in seeds)
    if not samplers or not budgets or not seeds:
        raise ValueError("samplers, budget_fractions, and seeds must be non-empty")
    for s in samplers:
        if s not in SAMPLER_IDS:
            raise ValueError(f"unknown sampler {s!r}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is repeated; each seed must be one independent run")

    units = [(dataset, base, s, b, seed) for s in samplers for b in budgets for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_study_unit, units))
    else:
        outcomes = [_study_unit(u) for u in units]

    cells = []
    k = 0
    for s in samplers:
        for b in budgets:
            chunk = outcomes[k : k + len(seeds)]
            k += len(seeds)
            aas = np.array([c[0] for c in chunk])
            covs = np.array([c[1] for c in chunk])
            cells.append(
                StudyCell(
                    sampler_id=s,
                    budget_fraction=b.fraction,
                    mean_aa=float(aas.mean()),
                    std_aa=float(aas.std()),
                    mean_coverage=float(covs.mean()),
                    std_coverage=float(covs.std()),
                    num_seeds=len(seeds),
                )
            )
    return cells
