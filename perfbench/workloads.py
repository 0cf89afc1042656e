"""The three workloads: inputs made from the seed, one timed run, output checks.

Every workload is a closed loop of whole continual runs, one at a time. The
run seed and the dataset seed both come from the workload seed, so one seed
always gives the same inputs and, at a fixed commit, the same outputs.

* ``grow-coverage`` - ``run_continual`` on a growing SBM (``keep_seen``) with
  the ``coverage_max`` sampler: graph and coverage layers do the work.
* ``replay-train`` - ``run_continual`` on a small SBM with a long, fixed
  training schedule: the head (``model``) and evaluation (``harness``) do
  the work.
* ``cli-stream-io`` - the whole ``temcgl run`` command on a dataset parsed
  from text files, with the reservoir encoder, a half-size streaming buffer
  and ``drop_all``: ``config``, ``cli`` and the writers do real work.

``grow-coverage`` and ``cli-stream-io`` score task-IL: under class-IL their
final accuracy and forgetting swing by a quarter or more between seeds, too
much for a regression bound, while the work done is the same.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import temcgl
import temcgl.cli
import temcgl.config
import temcgl.harness
from temcgl import BudgetPolicy, PropagationStrategy, RunConfig

CSVS = ("accuracy_matrix.csv", "curves.csv", "buffer_stats.csv", "manifest.json")


@dataclass(frozen=True)
class SbmSpec:
    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    feature_dim: int
    feature_shift: float

    def generate(self, seed: int):
        return temcgl.generate_sbm(
            self.block_sizes,
            p_in=self.p_in,
            p_out=self.p_out,
            feature_dim=self.feature_dim,
            feature_shift=self.feature_shift,
            seed=seed,
        )


# Sizes per scale. "tiny" only exists so the smoke test finishes in seconds.
GROW = {
    "full": SbmSpec((1000,) * 20, p_in=0.008, p_out=0.0002, feature_dim=16, feature_shift=3.0),
    "tiny": SbmSpec((40,) * 4, p_in=0.1, p_out=0.01, feature_dim=8, feature_shift=3.0),
}
REPLAY = {
    # The graph of test_05_coverage_sampler_study.
    "full": SbmSpec(
        (50, 83, 116, 149, 182, 218, 251, 284, 317, 350),
        p_in=0.025, p_out=0.0005, feature_dim=16, feature_shift=1.0,
    ),
    "tiny": SbmSpec((30,) * 3, p_in=0.1, p_out=0.01, feature_dim=8, feature_shift=1.0),
}
STREAM = {
    "full": SbmSpec((312,) * 32, p_in=0.02, p_out=0.0003, feature_dim=32, feature_shift=3.0),
    "tiny": SbmSpec((30,) * 4, p_in=0.1, p_out=0.01, feature_dim=8, feature_shift=3.0),
}

STREAM_INI = """\
[dataset]
kind = files
edges = {dir}/edges.txt
features = {dir}/features.txt
labels = {dir}/labels.txt
split = {dir}/split.txt

[propagation]
variant = reservoir
hops = 2
hidden_dim = {hidden}
seed = 11

[model]
hidden_dims = 64
optimizer = adam
lr = 0.01

[buffer]
sampler = reservoir_stream
budget_fraction = 0.5

[run]
seed = {seed}
scenario = task_il
classes_per_task = 2
inter_task_edges = drop_all
epochs = {epochs}
patience = {epochs}
"""


# ---------------------------------------------------------------------------
# output checks shared by the workloads
# ---------------------------------------------------------------------------


def buffer_bytes_formula(entries: int, dim: int) -> int:
    """Size of the buffer format: 20-byte header, 16 bytes + dim doubles per entry."""
    return 20 + entries * (16 + 8 * dim)


def check_matrix(values: np.ndarray) -> list[str]:
    lower = np.tril(np.ones(values.shape, dtype=bool))
    if not np.all(np.isfinite(values[lower])):
        return ["accuracy matrix has unrecorded entries below the diagonal"]
    if np.any(values[lower] < 0.0) or np.any(values[lower] > 1.0):
        return ["an accuracy value lies outside [0, 1]"]
    return []


def check_buffer_file(path: Path, expected_bytes: int, fault: str) -> list[str]:
    """Size formula, then load_buffer and re-serialisation byte for byte."""
    if fault == "truncate-buffer":
        copy = path.with_name("truncated-" + path.name)
        copy.write_bytes(path.read_bytes()[:-8])
        path = copy
    blob = path.read_bytes()
    problems = []
    if len(blob) != expected_bytes:
        problems.append(f"{path.name} has {len(blob)} bytes, the format says {expected_bytes}")
    again = path.with_name("reserialized-" + path.name)
    temcgl.save_buffer(temcgl.load_buffer(path), again)
    if again.read_bytes() != blob:
        problems.append(f"load_buffer + save_buffer does not reproduce {path.name}")
    return problems


def check_checkpoint(path: Path, params) -> list[str]:
    loaded = temcgl.load_model(path)
    same = len(loaded.weights) == len(params.weights) and all(
        np.array_equal(a, b)
        for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases)
    )
    return [] if same else [f"{path.name} does not equal the parameters it was saved from"]


def _same_result(a, b) -> bool:
    return (
        np.array_equal(a.matrix.values, b.matrix.values, equal_nan=True)
        and a.aa == b.aa
        and a.af == b.af
    )


def quality(result) -> dict[str, float]:
    # AF is a small difference of accuracies that can sit near or cross 0;
    # 1 + AF is positive, and a share of it is an absolute tolerance on AF.
    return {
        "final_aa": float(result.aa[-1]),
        "final_af": float(result.af[-1]),
        "final_af_plus_1": 1.0 + float(result.af[-1]),
        "mean_coverage": float(np.mean([s.coverage for s in result.buffer_stats])),
        "buffer_bytes": float(result.buffer_stats[-1].bytes),
    }


def visible_node_tasks(g, tasks, inter_task_edges: str) -> int:
    """Sum over tasks of the nodes visible while learning that task."""
    return sum(
        len(temcgl.harness.visible_nodes(g, tasks, task.task_id, inter_task_edges))
        for task in tasks
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class LibraryWorkload:
    """``run_continual`` on a generated SBM; set-up is ``generate_sbm``."""

    def __init__(self, spec: SbmSpec, cfg: RunConfig, seed: int, work: Path, fault: str):
        self.spec = spec
        self.cfg = replace(cfg, seed=seed)
        self.seed = seed
        self.work = work
        self.fault = fault
        self.graph = None
        self.dim = spec.feature_dim

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.graph = self.spec.generate(self.seed)

    def run(self):
        return temcgl.run_continual(self.graph, self.cfg)

    def reference(self, result):
        return result

    def check(self, result, ref) -> list[str]:
        problems = check_matrix(result.matrix.values)
        if ref is not None and not _same_result(result, ref):
            problems.append("accuracy matrix or AA/AF differ from the warm-up run at this seed")
        expected = buffer_bytes_formula(len(result.buffer), self.dim)
        if result.buffer_stats[-1].bytes != expected:
            problems.append(
                f"buffer_bytes {result.buffer_stats[-1].bytes} != formula {expected}"
            )
        path = self.work / "buffer.bin"
        temcgl.save_buffer(result.buffer, path)
        problems += check_buffer_file(path, expected, self.fault)
        for i, params in enumerate(result.params_per_task):
            ckpt = self.work / f"task_{i:03d}.bin"
            temcgl.save_model(params, ckpt)
            problems += check_checkpoint(ckpt, params)
        return problems

    def discard(self, result) -> None:
        pass

    def bytes_written(self, result) -> int:
        return 0

    def metrics(self, ref) -> dict[str, float]:
        out = quality(ref)
        out["node_tasks"] = visible_node_tasks(self.graph, ref.tasks, self.cfg.inter_task_edges)
        return out


class CliWorkload:
    """The whole ``temcgl run`` command on a ``files`` dataset.

    The text files and the config are written in the untimed ``prepare``;
    set-up is ``config.load_dataset`` on those files. A library run with the
    same config is the reference the command's files are checked against.
    """

    def __init__(self, spec: SbmSpec, seed: int, work: Path, fault: str, hidden: int, epochs: int):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.fault = fault
        self.dim = hidden
        self.config_path = work / "stream.ini"
        self.config_text = STREAM_INI.format(
            dir=work / "data", seed=seed, hidden=hidden, epochs=epochs
        )
        self.runs = 0
        self.cfg = None
        self.graph = None
        self.library = None

    def prepare(self) -> None:
        temcgl.save_graph_files(self.spec.generate(self.seed), self.work / "data")
        self.config_path.write_text(self.config_text, encoding="utf-8")
        self.cfg = temcgl.config.load_config(self.config_path)

    def setup(self) -> None:
        self.graph = temcgl.config.load_dataset(self.cfg.dataset, self.cfg.run.seed)

    def run(self) -> Path:
        out = self.work / f"out-{self.runs}"
        self.runs += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = temcgl.cli.main(["run", "--config", str(self.config_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"temcgl run exited with {code}")
        return out

    def reference(self, out: Path):
        self.library = temcgl.run_continual(self.graph, self.cfg.run)
        return {name: (out / name).read_bytes() for name in CSVS}

    def check(self, out: Path, ref) -> list[str]:
        lib = self.library
        problems = []
        files = {name: (out / name).read_bytes() for name in CSVS}
        if ref is not None and files != ref:
            problems.append("CSV outputs differ from the warm-up run at this seed")
        problems += check_matrix(lib.matrix.values)
        written = _csv_rows(files["accuracy_matrix.csv"])
        expected = [
            [str(i)] + [
                "NA" if np.isnan(v) else f"{v:.6g}" for v in lib.matrix.values[i]
            ]
            for i in range(lib.matrix.num_tasks)
        ]
        if written != expected:
            problems.append("accuracy_matrix.csv disagrees with run_continual on the same config")
        entries = len(lib.buffer)
        expected_bytes = buffer_bytes_formula(entries, self.dim)
        last_stats = _csv_rows(files["buffer_stats.csv"])[-1]
        if last_stats[1:3] != [str(entries), str(expected_bytes)]:
            problems.append(f"buffer_stats.csv ends with {last_stats}, expected "
                            f"{entries} entries and {expected_bytes} bytes")
        problems += check_buffer_file(out / "buffer.bin", expected_bytes, self.fault)
        ckpts = sorted((out / "checkpoints").glob("task_*.bin"))
        if len(ckpts) != len(lib.params_per_task):
            problems.append(f"{len(ckpts)} checkpoints for {len(lib.params_per_task)} tasks")
        for path, params in zip(ckpts, lib.params_per_task):
            problems += check_checkpoint(path, params)
        return problems

    def discard(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)

    def bytes_written(self, out: Path) -> int:
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())

    def metrics(self, ref) -> dict[str, float]:
        out = quality(self.library)
        out["node_tasks"] = visible_node_tasks(
            self.graph, self.library.tasks, self.cfg.run.inter_task_edges
        )
        return out


def _csv_rows(blob: bytes) -> list[list[str]]:
    lines = blob.decode("utf-8").splitlines()
    return [line.split(",") for line in lines[2:]]  # skip the manifest and header lines


def make(name: str, seed: int, scale: str, work: Path, fault: str):
    full = scale == "full"
    if name == "grow-coverage":
        cfg = RunConfig(
            strategy=PropagationStrategy("power", 2),
            classes_per_task=2,
            scenario="task_il",
            sampler_id="coverage_max",
            budget=BudgetPolicy(fraction=0.03),
            inter_task_edges="keep_seen",
            hidden_dims=(64,),
            lr=0.1,
            epochs=20 if full else 5,
            patience=20 if full else 5,
        )
        return LibraryWorkload(GROW[scale], cfg, seed, work, fault)
    if name == "replay-train":
        cfg = RunConfig(
            strategy=PropagationStrategy("power", 2),
            classes_per_task=1,
            sampler_id="uniform",
            budget=BudgetPolicy(fraction=0.2),
            hidden_dims=(256,),
            optimizer="adam",
            lr=0.02,
            epochs=200 if full else 10,
            patience=200 if full else 10,
        )
        return LibraryWorkload(REPLAY[scale], cfg, seed, work, fault)
    if name == "cli-stream-io":
        return CliWorkload(
            STREAM[scale], seed, work, fault, hidden=256 if full else 16, epochs=10 if full else 3
        )
    raise ValueError(f"unknown workload {name!r}")
