"""Continual-learning harness: task sequences, metrics, runs, and studies.

A run walks an expanding network task by task. Each task reveals the nodes
of a few new classes, recomputes topology-aware embeddings on the currently
visible subgraph, trains the shared head (optionally rehearsing buffered
embeddings), and then scores every task seen so far. Because embeddings are
produced by a parameter-free operator, replay needs no stored
neighbourhoods, but a stored row is frozen at its commit. Under
``keep_seen`` later tasks change its node's ball and degrees, so the row
drifts from the node's current embedding (a mean relative L2 distance of
0.39-0.46 by the last task on an SBM run), while test rows are regathered
every task. Under ``drop_all`` an earlier task's stored rows and test rows
both stay as that task computed them. The head's batch
(rows, labels and weights) is built here; its training loop and masked
accuracy live in `model`, and the latter is re-exported here. A study
runs one base config at every point of a grid of `RunConfig` overrides and
at every seed, and returns one row per run.
"""

from __future__ import annotations

import dataclasses
import itertools
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .buffer import SAMPLER_IDS, BudgetPolicy, MemoryBuffer, select_entries
from .coverage import coverage_ratio
from .graph import (
    TEST, TRAIN, VALID, Graph, _as_int, _int_fields, induced_subgraph, normalize_adjacency,
)
from .model import (
    MlpParams,
    _train_head,
    class_balance_weights,
    init_mlp,
    make_optimizer,
    masked_accuracy,
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
    if (classes_per_task := _as_int("classes_per_task", classes_per_task)) < 1:
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
    """Everything one continual-learning run needs besides its graph.

    `strategy` embeds each visible subgraph. `regime` trains the head on the
    task's rows plus buffered ones ("replay"), on the task's rows alone
    ("finetune"), or afresh on every seen task ("joint", the upper bound).
    `scenario` scores a task over every class seen ("class_il") or over its
    own ("task_il"). Each task takes the next `classes_per_task` labels.
    Under "replay", `sampler_id` stores `budget` rows per task, rehearsed at
    loss weight `replay_lambda`. `class_balance` weights the loss by inverse
    class frequency. `coverage_hops` is the ball radius of `coverage_max`
    and of the coverage ratio (None: the strategy's hops). Earlier tasks'
    nodes stay visible under `inter_task_edges="keep_seen"` and are dropped
    under "drop_all". `self_loops` is "on", "off" or "auto" (the strategy's
    default). The MLP head of `hidden_dims` trains by `optimizer` ("adam" or
    "sgd") at `lr` for at most `epochs` per task, stopping after `patience`
    epochs without a better validation accuracy. `seed` seeds the head's
    initialisation, the samplers and the joint restarts.
    """

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
        _int_fields(self, "classes_per_task", "coverage_hops", "epochs", "patience", "seed")
        dims = tuple(_as_int("hidden_dims", d) for d in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", dims)
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
    """What `run_continual` returns.

    `matrix` holds each seen task's accuracy after each task, and `aa` and
    `af` the average accuracy and forgetting after each task (`af[0]` is
    None). `buffer_stats` has one `BufferStat` per task, `params_per_task` a
    copy of the head after each task, `buffer` the final memory and `tasks`
    the task sequence.
    """

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
) -> tuple[dict[int, np.ndarray], dict[int, tuple[np.ndarray, np.ndarray]], BufferStat]:
    """The part of one task that never reads the head.

    Returns, by task id, the new test rows of every task visible now and the
    (train, valid) rows the head fits: those of every visible task under
    "joint", of this task otherwise. Also returns the task's buffer
    statistics. Under "replay" the task commits its selection to `buffer`.
    """
    visible, sub, tes = _embed_task(g, tasks, task.task_id, cfg)

    def rows(nodes: np.ndarray) -> np.ndarray:
        return tes.values[np.searchsorted(visible, nodes)]

    refreshed = tasks[: task.task_id + 1] if cfg.inter_task_edges == "keep_seen" else [task]
    tests = {t.task_id: rows(t.test_nodes) for t in refreshed}
    fits = {
        t.task_id: (rows(t.train_nodes), rows(t.valid_nodes))
        for t in (refreshed if cfg.regime == "joint" else [task])
    }
    cov = 0.0
    if cfg.regime == "replay":
        local_train = np.searchsorted(visible, task.train_nodes)
        rng = component_rng(cfg.seed, f"sampler-task-{task.task_id}")
        n, hops = cfg.budget.resolve(len(local_train)), cfg.resolved_coverage_hops()
        selected = select_entries(cfg.sampler_id, sub, tes, local_train, n, rng, hops)
        buffer.commit(task.task_id, tes.values[selected], sub.labels[selected], visible[selected])
        cov = coverage_ratio(sub, selected, hops=hops, universe=local_train)
    return tests, fits, BufferStat(task.task_id, len(buffer), buffer.footprint_bytes(), cov)


def _head_batch(
    cfg: RunConfig, tasks: Sequence[TaskSpec], fits: Mapping[int, tuple[np.ndarray, np.ndarray]],
    buffer: MemoryBuffer, replayed: int, labels: np.ndarray,
) -> tuple:
    """The head's batch `(x, y, w, valid_x, valid_y)`: the (train, valid) rows
    of `fits`, by task id, then the first `replayed` rows of `buffer`. `y`
    holds their labels; `w` is `class_balance_weights(y)` (or ones), with the
    replayed rows' weights then multiplied by `cfg.replay_lambda`. `x` is a
    view of the buffer's store that the next batch overwrites."""
    fit = [tasks[task_id] for task_id in fits]
    x = buffer._batch([train for train, _ in fits.values()], replayed)
    y = np.concatenate([labels[t.train_nodes] for t in fit] + [buffer.label[:replayed]])
    w = class_balance_weights(y) if cfg.class_balance else np.ones(len(y))
    w[len(y) - replayed :] *= cfg.replay_lambda
    valid_x = np.concatenate([valid for _, valid in fits.values()])
    return x, y, w, valid_x, labels[np.concatenate([t.valid_nodes for t in fit])]


def _head_step(
    params: MlpParams, cfg: RunConfig, seen: Sequence[TaskSpec], batch: tuple,
    tests: Sequence[np.ndarray], labels: np.ndarray,
) -> tuple[MlpParams, MlpParams, list[float]]:
    """Train the head on `batch` from `params` (updated in place) and score
    each task of `seen` on its rows in `tests`. Returns the trained
    parameters, a copy that later training leaves alone, and the accuracies."""
    seen_classes = np.concatenate([t.classes for t in seen])
    # Model selection scores the validation nodes over every class seen so
    # far, regardless of scenario. A within-task mask saturates while the new
    # classes' logits still trail the old ones, which would freeze the head
    # at a snapshot taken before any real learning.
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    params = _train_head(params, optimizer, *batch, seen_classes, cfg.epochs, cfg.patience)
    accs = [
        masked_accuracy(
            params, test_x, labels[prev.test_nodes],
            np.asarray(prev.classes) if cfg.scenario == "task_il" else seen_classes,
        )
        for prev, test_x in zip(seen, tests)
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
    The graph step also gathers the rows that head steps score. The calling
    thread alone reads and writes the buffer and writes the result. Once
    that head step is done, it records the step's outputs, stores the new
    scored rows and builds this task's batch in the buffer's store, where
    the previous batch was, so one batch is alive at a time. A commit
    writes past every row the running head step replays. Each side makes
    the same calls in the same order as a sequential loop, so every output
    is bit-identical to one.
    """
    tasks = build_task_sequence(g, cfg.classes_per_task)
    te_dim = cfg.strategy.hidden_dim if cfg.strategy.variant == "reservoir" else g.feature_dim
    layer_dims = [te_dim, *cfg.hidden_dims, g.num_classes]
    params = init_mlp(layer_dims, component_rng(cfg.seed, "model-init"))
    buffer = MemoryBuffer()
    # The store holds every row the run commits, behind room for the
    # largest block of train rows a batch stacks: one task's, or under
    # "joint" every task's. A budget some task cannot meet fails before any step.
    joint = cfg.regime == "joint"
    blocks = [len(t.train_nodes) for t in tasks]
    budgets = [cfg.budget.resolve(b) for b in blocks] if cfg.regime == "replay" else []
    for task_id, (n, b) in enumerate(zip(budgets, blocks)):
        if n > b:
            raise ValueError(f"budget {n} exceeds the {b} training nodes of task {task_id}")
    buffer._reserve(sum(budgets), sum(blocks) if joint else max(blocks), te_dim)
    run = RunResult(AccuracyMatrix.empty(len(tasks)), [], [], [], [], buffer, tasks)

    # Task id -> that task's test rows. Under "keep_seen" each task regathers
    # every seen task's rows; under "drop_all" a task keeps the rows of its
    # own graph step. A head step may hold an entry, so it is replaced, never
    # written into. Under "joint" the (train, valid) rows build up the same way.
    scored: dict[int, np.ndarray] = {}
    joint_fits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    head = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        for task in tasks:
            replayed = len(buffer)  # the rows this task's head replays
            try:
                tests, fits, stat = _graph_step(g, tasks, task, cfg, buffer)
            finally:
                # The next batch waits for the previous head step, whose
                # error, if any, comes before this task's, as in a
                # sequential loop.
                if head is not None:
                    params = _record_head(run, task.task_id - 1, head.result())
            run.buffer_stats.append(stat)
            scored.update(tests)
            if joint:
                # Reference upper bound: retrain from scratch on everything seen.
                params = init_mlp(layer_dims, component_rng(cfg.seed, f"joint-init-{task.task_id}"))
                joint_fits.update(fits)
            batch = _head_batch(cfg, tasks, joint_fits if joint else fits, buffer, replayed, g.labels)
            head = pool.submit(
                _head_step, params, cfg, tasks[: task.task_id + 1], batch,
                tuple(scored.values()), g.labels,
            )
            del tests, fits, batch  # the next graph step runs without them
        _record_head(run, len(tasks) - 1, head.result())
    return run


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "NA" if value is None or np.isnan(value) else f"{float(value):.6g}"


def _write_csv(path, manifest_hash: str, header: str, rows) -> None:
    lines = [f"# manifest={manifest_hash}", header]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_accuracy_matrix(path, matrix: AccuracyMatrix, manifest_hash: str) -> None:
    header = "after_task," + ",".join(f"task_{j}" for j in range(matrix.num_tasks))
    rows = [[str(i), *map(_fmt, row)] for i, row in enumerate(matrix.values)]
    _write_csv(path, manifest_hash, header, rows)


def write_curves(path, aa, af, manifest_hash: str) -> None:
    header = "task_index,average_accuracy,average_forgetting"
    rows = [[str(i), _fmt(a), _fmt(f)] for i, (a, f) in enumerate(zip(aa, af))]
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


def _sample_point(point) -> list[str]:
    return [point["sampler_id"], _fmt(point["budget"].fraction)]


def study_summary(rows: Sequence["StudyRow"]) -> list[tuple]:
    """`(point, mean_aa, std_aa, mean_coverage, std_coverage, num_seeds)` per
    grid point of `rows`, in order: mean and population standard deviation
    over the point's seeds of final AA and of mean coverage."""
    out = []
    for point, group in itertools.groupby(rows, key=lambda r: r.point):
        aa, cov = np.array([(r.final_aa, r.mean_coverage) for r in group]).T
        out.append((point, aa.mean(), aa.std(), cov.mean(), cov.std(), len(aa)))
    return out


def write_study_table(path, rows: Sequence["StudyRow"], manifest_hash: str) -> None:
    """study.csv: per (sampler, budget) point, aggregated over its seeds."""
    header = "sampler,budget_fraction,mean_aa,std_aa,mean_coverage,std_coverage,num_seeds"
    lines = [[*_sample_point(p), *map(_fmt, stats), str(n)] for p, *stats, n in study_summary(rows)]
    _write_csv(path, manifest_hash, header, lines)


def write_study_runs(path, rows: Sequence["StudyRow"], manifest_hash: str) -> None:
    """study_runs.csv: one line per run of a (sampler, budget) study."""
    header = "sampler,budget_fraction,seed,final_aa,final_af,mean_coverage,buffer_bytes"
    lines = [
        [*_sample_point(r.point), str(r.seed), _fmt(r.final_aa), _fmt(r.final_af),
         _fmt(r.mean_coverage), str(r.buffer_bytes)]
        for r in rows
    ]
    _write_csv(path, manifest_hash, header, lines)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    """One run of a study: its grid `point` (`RunConfig` field -> value) and
    `seed`, its final average accuracy and forgetting (`final_af` is None
    with one task), the buffer's coverage ratio averaged over tasks and its
    footprint in bytes after the last task."""

    point: dict
    seed: int
    final_aa: float
    final_af: float | None
    mean_coverage: float
    buffer_bytes: int


def _study_unit(unit: tuple) -> StudyRow:
    # Module-level so process pools can pickle it.
    dataset, point, cfg = unit
    run = run_continual(dataset(cfg.seed), cfg)
    coverage = float(np.mean([s.coverage for s in run.buffer_stats]))
    return StudyRow(point, cfg.seed, run.aa[-1], run.af[-1], coverage, run.buffer_stats[-1].bytes)


def study_configs(
    base: RunConfig, grid: Mapping[str, Sequence], seeds: Sequence[int]
) -> list[tuple[dict, RunConfig]]:
    """Each run's grid point and config, in grid order with seeds innermost.

    `grid` maps `RunConfig` field names to their values; its points are the
    product in order, and a run's config is `dataclasses.replace(base,
    **point, seed=seed)`. Every config is built, and so checked, here. A
    repeated axis value would count a run twice, so it is refused.
    """
    for name in grid:
        if name == "seed" or name not in RunConfig.__dataclass_fields__:
            raise ValueError(f"{name!r} is not a grid axis; use RunConfig fields other than seed")
    axes = {**{name: tuple(v) for name, v in grid.items()}, "seed": tuple(seeds)}
    for name, values in axes.items():
        if not values:
            raise ValueError(f"the {name} axis is empty")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{name} {value!r} is repeated; each run must be distinct")
    # zipping a combination with `grid` leaves out the last axis, the seed
    return [
        (dict(zip(grid, combo)), dataclasses.replace(base, **dict(zip(axes, combo))))
        for combo in itertools.product(*axes.values())
    ]


def run_study(
    dataset: Callable[[int], Graph], base: RunConfig, grid: Mapping[str, Sequence],
    seeds: Sequence[int], jobs: int = 1,
) -> list[StudyRow]:
    """One row per run of `study_configs(base, grid, seeds)`, in its order.

    A run uses `dataset(seed)`, so runs at one seed share a graph. Rows come
    back in the same order whatever `jobs` (worker processes; `dataset` must
    then pickle) is. Every config is checked before any run.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    units = [(dataset, point, cfg) for point, cfg in study_configs(base, grid, seeds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_study_unit, units))
    return [_study_unit(u) for u in units]
