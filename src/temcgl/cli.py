"""Command-line front end.

Subcommands:

  run                one continual-learning run; CSVs, checkpoints, buffer
  sample-study       sampler x budget x seed grid: study_runs.csv, study.csv
  check-theorem      randomized audit of the gradient-decomposition identity
  export-embeddings  dump embeddings or hidden activations for one task
  gen-sbm            materialise a synthetic dataset as text files

Diagnostics go to stderr (level set by TEMCGL_LOG: error, warning, info, or
debug); results and summaries go to stdout. Every command returns a process
exit code, 0 on success.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    dataset_loader,
    load_config,
    load_dataset,
    write_manifest,
)
from .buffer import BudgetPolicy, save_buffer
from .graph import build_graph, normalize_adjacency, save_graph_files
from .harness import (
    _embed_task,
    build_task_sequence,
    run_continual,
    run_study,
    study_configs,
    study_summary,
    write_accuracy_matrix,
    write_buffer_stats,
    write_curves,
    write_embeddings,
    write_study_runs,
    write_study_table,
)
from .model import load_model, mlp_hidden, pseudo_gradient_check, save_model
from .propagation import LINEAR_VARIANTS, PropagationStrategy
from .rng import component_rng

log = logging.getLogger("temcgl.cli")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=args.seed))
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    out = args.out or cfg.out
    if out is None:
        raise ConfigError("no output directory: pass --out or set out in [run]")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    g = load_dataset(cfg.dataset, cfg.run.seed)
    log.info("dataset ready: %d nodes, %d edges", g.num_nodes, g.num_edges)

    result = run_continual(g, cfg.run)
    manifest_hash = write_manifest(out, cfg)
    write_accuracy_matrix(out / "accuracy_matrix.csv", result.matrix, manifest_hash)
    write_curves(out / "curves.csv", result.aa, result.af, manifest_hash)
    write_buffer_stats(out / "buffer_stats.csv", result.buffer_stats, manifest_hash)

    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for i, params in enumerate(result.params_per_task):
        save_model(params, ckpt_dir / f"task_{i:03d}.bin")
    save_buffer(result.buffer, out / "buffer.bin")

    for i, aa in enumerate(result.aa):
        log.info("after task %d: average accuracy %.4f", i, aa)
    print(
        f"{len(result.tasks)} tasks done: final average accuracy "
        f"{result.aa[-1]:.6g}, results in {out}"
    )
    return 0


def cmd_sample_study(args) -> int:
    cfg = _load(args)
    if cfg.study is None:
        raise ConfigError("sample-study needs a [study] section in the config")
    budgets = [BudgetPolicy(fraction=f) for f in cfg.study.budget_fractions]
    grid = {"sampler_id": cfg.study.samplers, "budget": budgets}
    base = dataclasses.replace(cfg.run, regime="replay")  # samplers are inert otherwise
    study_configs(base, grid, cfg.study.seeds)  # a refused grid leaves no directory behind
    out = _out_dir(args, cfg)
    rows = run_study(dataset_loader(cfg.dataset), base, grid, cfg.study.seeds, jobs=args.jobs)
    manifest_hash = write_manifest(out, cfg)
    write_study_table(out / "study.csv", rows, manifest_hash)
    write_study_runs(out / "study_runs.csv", rows, manifest_hash)
    for point, mean_aa, std_aa, mean_coverage, _, _ in study_summary(rows):
        print(
            f"sampler={point['sampler_id']} fraction={point['budget'].fraction:g}: "
            f"mean_aa={mean_aa:.6g} (std {std_aa:.3g}), mean_coverage={mean_coverage:.6g}"
        )
    print(f"study table in {out / 'study.csv'}")
    return 0


def cmd_check_theorem(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.max_nodes < 3:
        raise ConfigError("--max-nodes must be >= 3")
    if not np.isfinite(args.tolerance) or args.tolerance < 0:
        raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    rng = component_rng(args.seed, "theorem-check")
    classes, dim = 4, 3
    worst = 0.0
    for trial in range(args.trials):
        n = int(rng.integers(3, args.max_nodes + 1))
        # random tree plus a few extra edges: connected, no isolated nodes
        edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
        for u, v in rng.integers(0, n, size=(n // 2, 2)).tolist():
            if u != v:
                edges.append((u, v))
        g = build_graph(
            n,
            np.array(edges),
            features=rng.uniform(0.1, 1.0, size=(n, dim)),
        )
        variant = LINEAR_VARIANTS[trial % len(LINEAR_VARIANTS)]
        hops = int(rng.integers(1, 4))
        if variant == "power":
            strategy = PropagationStrategy(variant, hops)
        else:
            strategy = PropagationStrategy(variant, hops, alpha=float(rng.uniform(0.1, 0.9)))
        adj = normalize_adjacency(g, strategy.default_self_loops)
        report = pseudo_gradient_check(
            adj,
            g.features,
            rng.uniform(0.1, 1.0, size=(dim, classes)),
            node=int(rng.integers(0, n)),
            strategy=strategy,
            target_class=int(rng.integers(0, classes)),
            corrupt=args.corrupt,
        )
        worst = float(np.maximum(worst, report.max_deviation))  # keeps a NaN
        log.debug("trial %d: %s, %d nodes, deviation %.3g", trial, variant, n, report.max_deviation)

    status = "ok" if worst <= args.tolerance else "FAILED"
    print(
        f"checked {args.trials} instances: max deviation {worst:.3g} "
        f"(tolerance {args.tolerance:g}) {status}"
    )
    return 0 if worst <= args.tolerance else 1


def cmd_export_embeddings(args) -> int:
    cfg = _load(args)
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"no manifest.json in {run_dir}; is it a run directory?")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("config_hash") != config_hash(cfg):
        raise ConfigError("config does not match the run directory manifest")

    g = load_dataset(cfg.dataset, cfg.run.seed)
    tasks = build_task_sequence(g, cfg.run.classes_per_task)
    if not 0 <= args.task < len(tasks):
        raise ConfigError(f"--task must be in 0..{len(tasks) - 1}, got {args.task}")

    visible, _, tes = _embed_task(g, tasks, args.task, cfg.run)
    if args.layer == "embedding":
        mat = tes.values
    else:
        ckpt = run_dir / "checkpoints" / f"task_{args.task:03d}.bin"
        if not ckpt.is_file():
            raise ConfigError(f"missing checkpoint {ckpt}")
        mat = mlp_hidden(load_model(ckpt), tes.values)

    write_embeddings(args.out, visible, g.labels[visible], mat, manifest["manifest_hash"])
    print(f"wrote {len(visible)} x {mat.shape[1]} {args.layer} matrix to {args.out}")
    return 0


def cmd_gen_sbm(args) -> int:
    cfg = _load(args)
    if cfg.dataset.kind != "sbm":
        raise ConfigError("gen-sbm needs a [dataset] section with kind = sbm")
    out = _out_dir(args, cfg)
    g = load_dataset(cfg.dataset, cfg.run.seed)
    paths = save_graph_files(g, out)
    write_manifest(out, cfg)
    print(
        f"wrote {len(paths)} files to {out} "
        f"({g.num_nodes} nodes, {g.num_edges} edges)"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temcgl",
        description="Continual node classification with topology-aware embedding memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one continual-learning experiment")
    run_p.add_argument("--config", required=True, help="experiment INI file")
    run_p.add_argument("--seed", type=int, default=None, help="override the run seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=cmd_run)

    study_p = sub.add_parser("sample-study", help="compare replay samplers over a grid")
    study_p.add_argument("--config", required=True, help="experiment INI file with [study]")
    study_p.add_argument("--out", default=None, help="output directory")
    study_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    study_p.set_defaults(func=cmd_sample_study)

    check_p = sub.add_parser(
        "check-theorem",
        help="verify that replayed-embedding gradients decompose over receptive fields",
    )
    check_p.add_argument("--trials", type=int, default=100)
    check_p.add_argument("--max-nodes", type=int, default=10)
    check_p.add_argument("--tolerance", type=float, default=1e-8)
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        help="perturb reconstruction coefficients by this relative amount (negative control)",
    )
    check_p.set_defaults(func=cmd_check_theorem)

    export_p = sub.add_parser("export-embeddings", help="dump per-node vectors as CSV")
    export_p.add_argument("--config", required=True, help="config of the finished run")
    export_p.add_argument("--run-dir", required=True, help="directory written by `run`")
    export_p.add_argument("--task", type=int, required=True, help="task index to export")
    export_p.add_argument("--layer", choices=("embedding", "hidden"), default="embedding")
    export_p.add_argument("--out", required=True, help="output CSV path")
    export_p.add_argument("--seed", type=int, default=None, help="override the run seed")
    export_p.set_defaults(func=cmd_export_embeddings)

    gen_p = sub.add_parser("gen-sbm", help="write a synthetic dataset as text files")
    gen_p.add_argument("--config", required=True, help="config with an sbm [dataset]")
    gen_p.add_argument("--out", default=None, help="output directory")
    gen_p.add_argument("--seed", type=int, default=None, help="override the run seed")
    gen_p.set_defaults(func=cmd_gen_sbm)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("TEMCGL_LOG", "error").strip().lower()
    if level not in _LOG_LEVELS:
        print(
            f"error: TEMCGL_LOG must be one of {', '.join(_LOG_LEVELS)} (got {level!r})",
            file=sys.stderr,
        )
        return 2
    logging.basicConfig(
        level=_LOG_LEVELS[level],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        log.debug("unhandled exception", exc_info=True)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
