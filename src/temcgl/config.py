"""INI experiment configs: strict parsing, canonical serialization, hashing.

A config file names a dataset, a propagation strategy, and everything the
harness needs for one run (plus an optional study grid). Parsing is strict -
unknown sections or keys fail loudly - and `serialize_config` emits a
canonical form whose SHA-256 identifies the experiment in manifests and
output files.
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

_SECTION_KEYS = {
    "dataset": None,  # depends on kind, resolved below
    "propagation": {"variant", "hops", "alpha", "hidden_dim", "weight_scale", "seed", "self_loops"},
    "model": {"hidden_dims", "optimizer", "lr", "replay_lambda", "class_balance"},
    "buffer": {"sampler", "budget_count", "budget_fraction", "coverage_hops"},
    "run": {
        "seed", "scenario", "regime", "classes_per_task", "epochs", "patience",
        "inter_task_edges", "out",
    },
    "study": {"samplers", "budget_fractions", "seeds", "num_seeds"},
}
_DATASET_KEYS = {
    "sbm": {"kind", "block_sizes", "p_in", "p_out", "feature_dim", "feature_shift", "seed"},
    "files": {"kind", "edges", "features", "labels", "split"},
}


class _Section:
    """A config section with typed getters that name the section on error."""

    def __init__(self, name: str, options: dict[str, str]):
        self.name = name
        self.options = options

    def check_keys(self, allowed: set[str]) -> None:
        unknown = sorted(set(self.options) - allowed)
        if unknown:
            raise ConfigError(f"[{self.name}] has unknown keys: {', '.join(unknown)}")

    def need(self, key: str) -> str:
        if key not in self.options:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return self.options[key]

    def get(self, key: str, default=None):
        return self.options.get(key, default)

    def _convert(self, key: str, raw: str, conv, kind: str):
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not {kind}") from None

    def geti(self, key: str, default: int | None = None) -> int | None:
        raw = self.options.get(key)
        return default if raw is None else self._convert(key, raw, int, "an integer")

    def getf(self, key: str, default: float | None = None) -> float | None:
        raw = self.options.get(key)
        return default if raw is None else self._convert(key, raw, float, "a number")

    def needi(self, key: str) -> int:
        return self._convert(key, self.need(key), int, "an integer")

    def needf(self, key: str) -> float:
        return self._convert(key, self.need(key), float, "a number")

    def getb(self, key: str, default: bool) -> bool:
        raw = self.options.get(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a boolean")

    def get_list(self, key: str) -> list[str]:
        parts = [t.strip() for t in self.need(key).split(",")]
        parts = [t for t in parts if t]
        if not parts:
            raise ConfigError(f"[{self.name}] {key} must list at least one value")
        return parts

    def get_ints(self, key: str) -> tuple[int, ...]:
        return tuple(
            self._convert(key, t, int, "an integer") for t in self.get_list(key)
        )

    def get_floats(self, key: str) -> tuple[float, ...]:
        return tuple(
            self._convert(key, t, float, "a number") for t in self.get_list(key)
        )


def _sections(text: str) -> dict[str, _Section]:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    unknown = sorted(set(parser.sections()) - set(_SECTION_KEYS))
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(unknown)}")
    return {name: _Section(name, dict(parser[name])) for name in parser.sections()}


def _parse_dataset(sec: _Section) -> DatasetConfig:
    kind = sec.need("kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"[dataset] kind must be one of {DATASET_KINDS}, got {kind!r}")
    sec.check_keys(_DATASET_KEYS[kind])
    if kind == "sbm":
        return DatasetConfig(
            kind="sbm",
            block_sizes=sec.get_ints("block_sizes"),
            p_in=sec.needf("p_in"),
            p_out=sec.needf("p_out"),
            feature_dim=sec.needi("feature_dim"),
            feature_shift=sec.needf("feature_shift"),
            seed=sec.geti("seed"),
        )
    return DatasetConfig(
        kind="files",
        edges=sec.need("edges"),
        features=sec.need("features"),
        labels=sec.need("labels"),
        split=sec.need("split"),
    )


def _parse_strategy(sec: _Section) -> tuple[PropagationStrategy, str]:
    sec.check_keys(_SECTION_KEYS["propagation"])
    variant = sec.need("variant")
    hops = sec.needi("hops")
    kwargs: dict = {}
    if "alpha" in sec.options:
        kwargs["alpha"] = sec.getf("alpha")
    if "hidden_dim" in sec.options:
        kwargs["hidden_dim"] = sec.geti("hidden_dim")
    if "weight_scale" in sec.options:
        raw = sec.need("weight_scale")
        kwargs["weight_scale"] = None if raw == "auto" else sec.getf("weight_scale")
    if "seed" in sec.options:
        kwargs["seed"] = sec.geti("seed")
    self_loops = sec.get("self_loops", "auto")
    try:
        strategy = PropagationStrategy(variant, hops, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[propagation] {exc}") from None
    return strategy, self_loops


def _parse_budget(sec: _Section) -> BudgetPolicy:
    count = sec.geti("budget_count")
    fraction = sec.getf("budget_fraction")
    if count is not None and fraction is not None:
        raise ConfigError("[buffer] budget_count and budget_fraction are mutually exclusive")
    try:
        if count is not None:
            return BudgetPolicy(count=count)
        if fraction is not None:
            return BudgetPolicy(fraction=fraction)
        return BudgetPolicy(fraction=0.1)
    except ValueError as exc:
        raise ConfigError(f"[buffer] {exc}") from None


def _parse_study(sec: _Section) -> StudyConfig:
    sec.check_keys(_SECTION_KEYS["study"])
    samplers = tuple(sec.get_list("samplers"))
    fractions = sec.get_floats("budget_fractions")
    has_seeds = "seeds" in sec.options
    has_num = "num_seeds" in sec.options
    if has_seeds == has_num:
        raise ConfigError("[study] needs exactly one of seeds or num_seeds")
    if has_seeds:
        seeds = sec.get_ints("seeds")
    else:
        num = sec.geti("num_seeds")
        if num < 1:
            raise ConfigError("[study] num_seeds must be >= 1")
        seeds = tuple(range(num))
    return StudyConfig(samplers=samplers, budget_fractions=fractions, seeds=seeds)


def parse_config(text: str) -> ExperimentConfig:
    sections = _sections(text)
    for required in ("dataset", "propagation"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    dataset = _parse_dataset(sections["dataset"])
    strategy, self_loops = _parse_strategy(sections["propagation"])

    model = sections.get("model", _Section("model", {}))
    model.check_keys(_SECTION_KEYS["model"])
    buffer = sections.get("buffer", _Section("buffer", {}))
    buffer.check_keys(_SECTION_KEYS["buffer"])
    run = sections.get("run", _Section("run", {}))
    run.check_keys(_SECTION_KEYS["run"])

    try:
        run_cfg = RunConfig(
            strategy=strategy,
            regime=run.get("regime", "replay"),
            scenario=run.get("scenario", "class_il"),
            classes_per_task=run.geti("classes_per_task", 2),
            sampler_id=buffer.get("sampler", "coverage_max"),
            budget=_parse_budget(buffer),
            replay_lambda=model.getf("replay_lambda", 1.0),
            class_balance=model.getb("class_balance", True),
            coverage_hops=buffer.geti("coverage_hops"),
            inter_task_edges=run.get("inter_task_edges", "keep_seen"),
            self_loops=self_loops,
            hidden_dims=model.get_ints("hidden_dims") if "hidden_dims" in model.options else (256,),
            optimizer=model.get("optimizer", "adam"),
            lr=model.getf("lr", 0.01),
            epochs=run.geti("epochs", 200),
            patience=run.geti("patience", 20),
            seed=run.geti("seed", 0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    study = _parse_study(sections["study"]) if "study" in sections else None
    return ExperimentConfig(
        dataset=dataset, run=run_cfg, out=run.get("out"), study=study
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# canonical serialization and hashing
# ---------------------------------------------------------------------------


def _f(value: float) -> str:
    return repr(float(value))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text: fixed section and key order, all defaults explicit."""
    d, r = cfg.dataset, cfg.run
    s = r.strategy
    lines = ["[dataset]", f"kind = {d.kind}"]
    if d.kind == "sbm":
        lines.append(f"block_sizes = {', '.join(str(b) for b in d.block_sizes)}")
        lines.append(f"p_in = {_f(d.p_in)}")
        lines.append(f"p_out = {_f(d.p_out)}")
        lines.append(f"feature_dim = {d.feature_dim}")
        lines.append(f"feature_shift = {_f(d.feature_shift)}")
        if d.seed is not None:
            lines.append(f"seed = {d.seed}")
    else:
        lines.append(f"edges = {d.edges}")
        lines.append(f"features = {d.features}")
        lines.append(f"labels = {d.labels}")
        lines.append(f"split = {d.split}")

    lines += ["", "[propagation]", f"variant = {s.variant}", f"hops = {s.hops}"]
    if s.alpha is not None:
        lines.append(f"alpha = {_f(s.alpha)}")
    if s.variant == "reservoir":
        lines.append(f"hidden_dim = {s.hidden_dim}")
        scale = "auto" if s.weight_scale is None else _f(s.weight_scale)
        lines.append(f"weight_scale = {scale}")
        lines.append(f"seed = {s.seed}")
    lines.append(f"self_loops = {r.self_loops}")

    lines += [
        "",
        "[model]",
        f"hidden_dims = {', '.join(str(h) for h in r.hidden_dims)}",
        f"optimizer = {r.optimizer}",
        f"lr = {_f(r.lr)}",
        f"replay_lambda = {_f(r.replay_lambda)}",
        f"class_balance = {'true' if r.class_balance else 'false'}",
    ]

    lines += ["", "[buffer]", f"sampler = {r.sampler_id}"]
    if r.budget.count is not None:
        lines.append(f"budget_count = {r.budget.count}")
    else:
        lines.append(f"budget_fraction = {_f(r.budget.fraction)}")
    if r.coverage_hops is not None:
        lines.append(f"coverage_hops = {r.coverage_hops}")

    lines += [
        "",
        "[run]",
        f"seed = {r.seed}",
        f"scenario = {r.scenario}",
        f"regime = {r.regime}",
        f"classes_per_task = {r.classes_per_task}",
        f"epochs = {r.epochs}",
        f"patience = {r.patience}",
        f"inter_task_edges = {r.inter_task_edges}",
    ]
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")

    if cfg.study is not None:
        st = cfg.study
        lines += [
            "",
            "[study]",
            f"samplers = {', '.join(st.samplers)}",
            f"budget_fractions = {', '.join(_f(x) for x in st.budget_fractions)}",
            f"seeds = {', '.join(str(x) for x in st.seeds)}",
        ]
    return "\n".join(lines) + "\n"


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
