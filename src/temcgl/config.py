"""INI experiment configs: strict parsing, canonical serialization, hashing.

A config file names a dataset, a propagation strategy, and everything the
harness needs for one run (plus an optional study grid). Parsing checks each
section strictly against its key table, and `serialize_config` walks the same
tables to emit a canonical form whose SHA-256 identifies the experiment in
manifests and output files.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .buffer import BudgetPolicy
from .graph import Graph, generate_sbm, load_graph_files
from .harness import RunConfig
from .propagation import PropagationStrategy
from .rng import component_seed_words

DATASET_KINDS = ("sbm", "files")


class ConfigError(ValueError):
    """Raised for malformed, incomplete, or contradictory config files."""


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    # sbm
    block_sizes: tuple[int, ...] = ()
    p_in: float = 0.0
    p_out: float = 0.0
    feature_dim: int = 0
    feature_shift: float = 0.0
    seed: int | None = None
    # files
    edges: str = ""
    features: str = ""
    labels: str = ""
    split: str = ""


@dataclass(frozen=True)
class StudyConfig:
    samplers: tuple[str, ...]
    budget_fractions: tuple[float, ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    run: RunConfig
    out: str | None = None
    study: StudyConfig | None = None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Every key of every section in canonical order, as (key, kind, required).
# The parser converts each value present by its kind and passes it to the
# dataclass the section feeds; an absent optional key is not passed, so that
# dataclass supplies the default. `serialize_config` walks the same rows.
_DATASET_TABLES = {
    "sbm": (
        ("kind", "str", True),
        ("block_sizes", "int list", True),
        ("p_in", "float", True),
        ("p_out", "float", True),
        ("feature_dim", "int", True),
        ("feature_shift", "float", True),
        ("seed", "int", False),
    ),
    "files": tuple((key, "str", True) for key in ("kind", "edges", "features", "labels", "split")),
}
_TABLES = {
    "propagation": (  # PropagationStrategy, and RunConfig.self_loops
        ("variant", "str", True),
        ("hops", "int", True),
        ("alpha", "float", False),
        ("hidden_dim", "int", False),
        ("weight_scale", "float", False),  # or auto, the default
        ("seed", "int", False),
        ("self_loops", "str", False),
    ),
    "model": (  # RunConfig
        ("hidden_dims", "int list", False),
        ("optimizer", "str", False),
        ("lr", "float", False),
        ("replay_lambda", "float", False),
        ("class_balance", "bool", False),
    ),
    "buffer": (  # RunConfig: sampler_id, budget (count or fraction), coverage_hops
        ("sampler", "str", False),
        ("budget_count", "int", False),
        ("budget_fraction", "float", False),
        ("coverage_hops", "int", False),
    ),
    "run": (  # RunConfig, and ExperimentConfig.out
        ("seed", "int", False),
        ("scenario", "str", False),
        ("regime", "str", False),
        ("classes_per_task", "int", False),
        ("epochs", "int", False),
        ("patience", "int", False),
        ("inter_task_edges", "str", False),
        ("out", "str", False),
    ),
    "study": (  # StudyConfig, from exactly one of seeds / num_seeds
        ("samplers", "str list", True),
        ("budget_fractions", "float list", True),
        ("seeds", "int list", False),
        ("num_seeds", "int", False),
    ),
}
# The [propagation] keys each variant takes besides variant, hops, self_loops.
_VARIANT_KEYS = {"power": (), "hop_average": ("alpha",), "lazy_power": ("alpha",),
                 "reservoir": ("hidden_dim", "weight_scale", "seed")}
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}
_TRUE, _FALSE = ("true", "yes", "on", "1"), ("false", "no", "off", "0")


def _sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    unknown = sorted(set(parser.sections()) - {"dataset", *_TABLES})
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(unknown)}")
    return {name: dict(parser[name]) for name in parser.sections()}


def _require(section: str, options: dict[str, str], key: str) -> str:
    if key not in options:
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return options[key]


def _convert(section: str, key: str, raw: str, kind: str):
    """One key's value, converted from its text by the key's kind."""
    if kind.endswith(" list"):
        items = [t.strip() for t in raw.split(",") if t.strip()]
        if not items:
            raise ConfigError(f"[{section}] {key} must list at least one value")
        return tuple(_convert(section, key, t, kind.removesuffix(" list")) for t in items)
    if kind == "str":
        return raw
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered not in _TRUE + _FALSE:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")
        return lowered in _TRUE
    convert, noun = _NUMBERS[kind]
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {noun}") from None


def _read(section: str, options: dict[str, str], table) -> dict:
    """Check a section's keys against its table and convert the values present."""
    unknown = sorted(set(options) - {key for key, _, _ in table})
    if unknown:
        raise ConfigError(f"[{section}] has unknown keys: {', '.join(unknown)}")
    return {
        key: _convert(section, key, _require(section, options, key), kind)
        for key, kind, required in table
        if required or key in options
    }


def _build(cls, prefix: str, **kwargs):
    """`cls(**kwargs)`, its ValueError raised again as a ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    sections = _sections(text)
    for required in ("dataset", "propagation"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    kind = _require("dataset", sections["dataset"], "kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"[dataset] kind must be one of {DATASET_KINDS}, got {kind!r}")
    dataset = DatasetConfig(**_read("dataset", sections["dataset"], _DATASET_TABLES[kind]))

    options = sections["propagation"]
    # weight_scale = auto is the field's default, None
    explicit = {k: v for k, v in options.items() if (k, v) != ("weight_scale", "auto")}
    strategy_args = _read("propagation", explicit, _TABLES["propagation"])
    run_args = {}
    if "self_loops" in strategy_args:  # a RunConfig field
        run_args["self_loops"] = strategy_args.pop("self_loops")
    strategy = _build(PropagationStrategy, "[propagation] ", **strategy_args)
    # The strategy refuses a key its variant does not take only when the key
    # holds a value other than the default, so check the keys as written.
    taken = ("variant", "hops", "self_loops", *_VARIANT_KEYS[strategy.variant])
    for key in options:
        if key not in taken:
            raise ConfigError(f"[propagation] {strategy.variant} takes no {key}")

    for name in ("model", "buffer", "run"):
        run_args.update(_read(name, sections.get(name, {}), _TABLES[name]))
    out = run_args.pop("out", None)
    if "sampler" in run_args:
        run_args["sampler_id"] = run_args.pop("sampler")
    count = run_args.pop("budget_count", None)
    fraction = run_args.pop("budget_fraction", None)
    if count is not None and fraction is not None:
        raise ConfigError("[buffer] budget_count and budget_fraction are mutually exclusive")
    if count is not None or fraction is not None:
        run_args["budget"] = _build(BudgetPolicy, "[buffer] ", count=count, fraction=fraction)
    run = _build(RunConfig, "", strategy=strategy, **run_args)

    study = None
    if "study" in sections:
        study_args = _read("study", sections["study"], _TABLES["study"])
        if ("seeds" in study_args) == ("num_seeds" in study_args):
            raise ConfigError("[study] needs exactly one of seeds or num_seeds")
        if study_args.get("num_seeds", 1) < 1:
            raise ConfigError("[study] num_seeds must be >= 1")
        if "num_seeds" in study_args:
            study_args["seeds"] = tuple(range(study_args.pop("num_seeds")))
        for i, seed in enumerate(study_args["seeds"]):
            if seed in study_args["seeds"][:i]:
                raise ConfigError(f"[study] seed {seed} is repeated; seeds must be distinct")
        study = StudyConfig(**study_args)
    return ExperimentConfig(dataset=dataset, run=run, out=out, study=study)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# canonical serialization and hashing
# ---------------------------------------------------------------------------


def _format(kind: str, value) -> str:
    if kind.endswith(" list"):
        return ", ".join(_format(kind.removesuffix(" list"), v) for v in value)
    if kind == "float" and value != "auto":  # weight_scale may read auto
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text: fixed section and key order, all defaults explicit."""
    run, strategy = cfg.run, cfg.run.strategy
    keys = ("variant", "hops", *_VARIANT_KEYS[strategy.variant])
    propagation = {key: getattr(strategy, key) for key in keys}
    if "weight_scale" in propagation and strategy.weight_scale is None:
        propagation["weight_scale"] = "auto"
    propagation["self_loops"] = run.self_loops
    budget = {"budget_count": run.budget.count, "budget_fraction": run.budget.fraction}
    run_values = {**vars(run), **budget, "sampler": run.sampler_id, "out": cfg.out}
    values = dict.fromkeys(("model", "buffer", "run"), run_values)
    values.update(dataset=vars(cfg.dataset), propagation=propagation)
    if cfg.study is not None:
        values["study"] = vars(cfg.study)

    blocks = []
    for name, table in {"dataset": _DATASET_TABLES[cfg.dataset.kind], **_TABLES}.items():
        if name in values:  # every section but an absent [study]
            lines = [f"[{name}]"]
            for key, kind, _ in table:
                if values[name].get(key) is not None:
                    lines.append(f"{key} = {_format(kind, values[name][key])}")
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def write_manifest(directory, cfg: ExperimentConfig) -> str:
    """Write manifest.json and return its hash (embedded in output CSVs).

    The manifest pins the canonical config hash, the effective seed, and the
    package version - nothing time-dependent, so identical runs produce
    identical manifests.
    """
    from . import __version__

    payload = {
        "config_hash": config_hash(cfg),
        "seed": cfg.run.seed,
        "version": __version__,
    }
    manifest_hash = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    payload["manifest_hash"] = manifest_hash
    path = Path(directory) / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_hash


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def load_dataset(dataset: DatasetConfig, run_seed: int) -> Graph:
    """Materialise the configured dataset.

    A synthetic dataset without a pinned seed derives one from the run seed,
    so repetitions with different run seeds see freshly drawn networks while
    a pinned seed keeps the network fixed across them.
    """
    if dataset.kind == "sbm":
        seed = (
            dataset.seed
            if dataset.seed is not None
            else component_seed_words(run_seed, "dataset")[0]
        )
        return generate_sbm(
            dataset.block_sizes,
            p_in=dataset.p_in,
            p_out=dataset.p_out,
            feature_dim=dataset.feature_dim,
            feature_shift=dataset.feature_shift,
            seed=seed,
        )
    return load_graph_files(dataset.edges, dataset.features, dataset.labels, dataset.split)


def dataset_loader(dataset: DatasetConfig) -> Callable[[int], Graph]:
    """Picklable seed -> graph callable for study fan-out."""
    return functools.partial(load_dataset, dataset)
