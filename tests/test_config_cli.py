from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import temcgl
from temcgl.buffer import BudgetPolicy
from temcgl.cli import main
from temcgl.config import (
    _DATASET_TABLES,
    _TABLES,
    ConfigError,
    config_hash,
    dataset_loader,
    load_config,
    load_dataset,
    parse_config,
    serialize_config,
    write_manifest,
)
from temcgl.graph import generate_sbm, load_graph_files, normalize_adjacency, save_graph_files
from temcgl.harness import RunConfig
from temcgl.model import pseudo_gradient_check
from temcgl.propagation import compute_tes

from helpers import count_parses

RUN_INI = """
[dataset]
kind = sbm
block_sizes = 20, 20, 20, 20
p_in = 0.3
p_out = 0.02
feature_dim = 6
feature_shift = 3.0

[propagation]
variant = power
hops = 2

[model]
hidden_dims = 16
lr = 0.05

[buffer]
sampler = coverage_max
budget_fraction = 0.2

[run]
seed = 0
classes_per_task = 2
epochs = 25
patience = 8
"""

STUDY_INI = (
    RUN_INI
    + """
[study]
samplers = uniform, coverage_max
budget_fractions = 0.1, 0.3
seeds = 0, 1
"""
)

MINIMAL_INI = """
[dataset]
kind = sbm
block_sizes = 10, 10
p_in = 0.4
p_out = 0.05
feature_dim = 4
feature_shift = 2.0

[propagation]
variant = hop_average
hops = 3
alpha = 0.1
"""


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config_applies_defaults():
    cfg = parse_config(MINIMAL_INI)
    assert cfg.dataset.kind == "sbm"
    assert cfg.dataset.block_sizes == (10, 10)
    assert cfg.dataset.seed is None
    assert cfg.run.strategy.variant == "hop_average"
    assert cfg.run.strategy.alpha == pytest.approx(0.1)
    assert cfg.run.regime == "replay"
    assert cfg.run.budget == BudgetPolicy(fraction=0.1)
    assert cfg.run.hidden_dims == (256,)
    assert cfg.run.self_loops == "auto"
    assert cfg.out is None
    assert cfg.study is None
    # every default comes from the dataclasses, none from the parser
    assert cfg.run == RunConfig(strategy=cfg.run.strategy)


def test_parse_serialize_round_trip():
    for text in (RUN_INI, STUDY_INI, MINIMAL_INI):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


def test_reservoir_strategy_round_trip():
    text = MINIMAL_INI.replace(
        "variant = hop_average\nhops = 3\nalpha = 0.1",
        "variant = reservoir\nhops = 2\nhidden_dim = 12\nweight_scale = auto\nseed = 5",
    )
    cfg = parse_config(text)
    assert cfg.run.strategy.hidden_dim == 12
    assert cfg.run.strategy.weight_scale is None
    assert cfg.run.strategy.seed == 5
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_hash_tracks_content():
    base = parse_config(RUN_INI)
    changed = parse_config(RUN_INI.replace("seed = 0", "seed = 1"))
    assert config_hash(base) != config_hash(changed)


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match="extras"):
        parse_config(MINIMAL_INI + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="p_inn"):
        parse_config(MINIMAL_INI.replace("p_in =", "p_inn ="))
    with pytest.raises(ConfigError, match="momentum"):
        parse_config(RUN_INI.replace("lr = 0.05", "lr = 0.05\nmomentum = 0.9"))


def test_required_sections_and_values():
    with pytest.raises(ConfigError, match="dataset"):
        parse_config("[propagation]\nvariant = power\nhops = 2\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(MINIMAL_INI.replace("kind = sbm", "kind = parquet"))
    with pytest.raises(ConfigError, match="block_sizes"):
        parse_config(MINIMAL_INI.replace("block_sizes = 10, 10\n", ""))
    with pytest.raises(ConfigError, match="^lr must be finite"):
        parse_config(RUN_INI.replace("lr = 0.05", "lr = nan"))
    # a key the variant does not take is refused even at its default value,
    # which would otherwise vanish from the canonical text and its hash
    power = "variant = power\nhops = 2\n"
    for key, value in (("weight_scale", "auto"), ("seed", "0")):
        with pytest.raises(ConfigError, match=rf"^\[propagation\] power takes no {key}$"):
            parse_config(RUN_INI.replace(power, f"{power}{key} = {value}\n"))


def test_readme_config_reference_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    reference = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in reference.splitlines():
        if line.startswith("| `["):
            section, key, kind, default, _ = (c.strip() for c in line.strip("|").split("|"))
            rows[(section.strip("`"), key.strip("`"))] = (kind, default == "required")
    tables = [("dataset", t) for t in _DATASET_TABLES.values()] + list(_TABLES.items())
    parsed = {
        (f"[{name}]", key): (kind, required)
        for name, table in tables
        for key, kind, required in table
    }
    assert rows == parsed


def test_budget_keys_are_exclusive():
    with pytest.raises(ConfigError, match="budget"):
        parse_config(RUN_INI.replace("budget_fraction = 0.2", "budget_fraction = 0.2\nbudget_count = 5"))


def test_study_seed_keys_are_exclusive():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(STUDY_INI.replace("seeds = 0, 1", "seeds = 0, 1\nnum_seeds = 2"))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(STUDY_INI.replace("seeds = 0, 1\n", ""))
    resolved = parse_config(STUDY_INI.replace("seeds = 0, 1", "num_seeds = 3"))
    assert resolved.study.seeds == (0, 1, 2)


def test_study_seeds_must_be_distinct():
    with pytest.raises(ConfigError, match=r"^\[study\] seed 1 is repeated"):
        parse_config(STUDY_INI.replace("seeds = 0, 1", "seeds = 1, 1, 1"))


def test_files_dataset_round_trips_through_disk(tmp_path):
    g = generate_sbm((15, 15), p_in=0.3, p_out=0.05, feature_dim=3, feature_shift=1.0, seed=7)
    paths = save_graph_files(g, tmp_path)
    text = f"""
[dataset]
kind = files
edges = {paths['edges']}
features = {paths['features']}
labels = {paths['labels']}
split = {paths['split']}

[propagation]
variant = power
hops = 2
"""
    cfg = parse_config(text)
    loaded = load_dataset(cfg.dataset, run_seed=0)
    np.testing.assert_array_equal(loaded.indptr, g.indptr)
    np.testing.assert_array_equal(loaded.indices, g.indices)
    np.testing.assert_array_equal(loaded.labels, g.labels)
    np.testing.assert_array_equal(loaded.split, g.split)
    np.testing.assert_allclose(loaded.features, g.features)
    assert parse_config(serialize_config(cfg)) == cfg


def test_sbm_dataset_seed_defaults_to_run_seed_derivation():
    cfg = parse_config(MINIMAL_INI)
    a = load_dataset(cfg.dataset, run_seed=0)
    b = load_dataset(cfg.dataset, run_seed=0)
    c = load_dataset(cfg.dataset, run_seed=1)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)

    pinned = parse_config(MINIMAL_INI.replace("kind = sbm", "kind = sbm\nseed = 99"))
    d = load_dataset(pinned.dataset, run_seed=0)
    e = load_dataset(pinned.dataset, run_seed=1)
    np.testing.assert_array_equal(d.features, e.features)


def test_dataset_loader_is_picklable():
    cfg = parse_config(MINIMAL_INI)
    loader = dataset_loader(cfg.dataset)
    clone = pickle.loads(pickle.dumps(loader))
    np.testing.assert_array_equal(loader(3).features, clone(3).features)


def test_write_manifest_contents(tmp_path):
    cfg = parse_config(RUN_INI)
    returned = write_manifest(tmp_path, cfg)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert set(payload) == {"config_hash", "seed", "version", "manifest_hash"}
    assert payload["config_hash"] == config_hash(cfg)
    assert payload["seed"] == 0
    body = {k: payload[k] for k in ("config_hash", "seed", "version")}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert payload["manifest_hash"] == digest == returned


# ---------------------------------------------------------------------------
# CLI: run
# ---------------------------------------------------------------------------


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg_path = _write(tmp_path, RUN_INI)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("accuracy_matrix.csv", "curves.csv", "buffer_stats.csv", "manifest.json", "buffer.bin"):
        assert (out / name).exists(), name
    assert (out / "checkpoints" / "task_000.bin").exists()
    assert (out / "checkpoints" / "task_001.bin").exists()
    stdout = capsys.readouterr().out
    assert "average accuracy" in stdout

    manifest = json.loads((out / "manifest.json").read_text())
    first_line = (out / "curves.csv").read_text().splitlines()[0]
    assert first_line == f"# manifest={manifest['manifest_hash']}"


def test_cli_run_is_deterministic(tmp_path):
    cfg_path = _write(tmp_path, RUN_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("accuracy_matrix.csv", "curves.csv", "buffer_stats.csv", "buffer.bin", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_run_seed_override_changes_results(tmp_path):
    cfg_path = _write(tmp_path, RUN_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--seed", "7", "--out", str(out2)]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 7
    differs = (out1 / "accuracy_matrix.csv").read_bytes() != (out2 / "accuracy_matrix.csv").read_bytes()
    differs = differs or (out1 / "buffer.bin").read_bytes() != (out2 / "buffer.bin").read_bytes()
    assert differs


def test_cli_run_requires_an_output_directory(tmp_path, capsys):
    cfg_path = _write(tmp_path, RUN_INI)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "--out" in capsys.readouterr().err


def test_cli_missing_config_reports_path(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert "nope.ini" in capsys.readouterr().err


def test_cli_bad_config_key_reported(tmp_path, capsys):
    cfg_path = _write(tmp_path, RUN_INI.replace("p_in =", "p_inn ="))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "p_inn" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: other commands
# ---------------------------------------------------------------------------


def test_cli_check_theorem_passes_and_corrupt_fails(capsys):
    assert main(["check-theorem", "--trials", "30", "--max-nodes", "8"]) == 0
    assert "max deviation" in capsys.readouterr().out
    assert main(["check-theorem", "--trials", "10", "--max-nodes", "8", "--corrupt", "0.05"]) == 1


@pytest.mark.parametrize("corrupt", ["nan", "inf"])
def test_cli_check_theorem_refuses_a_non_finite_corrupt(corrupt, capsys):
    assert main(["check-theorem", "--trials", "5", "--corrupt", corrupt]) == 1
    captured = capsys.readouterr()
    assert "corrupt must be finite" in captured.err
    assert "ok" not in captured.out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
def test_cli_check_theorem_refuses_a_bad_tolerance(tolerance, capsys):
    assert main(["check-theorem", "--trials", "5", f"--tolerance={tolerance}"]) == 1
    assert "--tolerance must be finite and >= 0" in capsys.readouterr().err


def test_cli_check_theorem_fails_on_a_nan_deviation(monkeypatch, capsys):
    calls = []

    def nan_on_third_trial(*args, **kwargs):
        report = pseudo_gradient_check(*args, **kwargs)
        calls.append(report)
        if len(calls) == 3:
            report = dataclasses.replace(report, max_deviation=float("nan"))
        return report

    monkeypatch.setattr(temcgl.cli, "pseudo_gradient_check", nan_on_third_trial)
    assert main(["check-theorem", "--trials", "5", "--max-nodes", "6"]) == 1
    assert len(calls) == 5
    assert "max deviation nan (tolerance 1e-08) FAILED" in capsys.readouterr().out


def test_cli_sample_study(tmp_path):
    cfg_path = _write(tmp_path, STUDY_INI.replace("epochs = 25", "epochs = 12"))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sample-study", "--config", str(cfg_path), "--out", str(out1)]) == 0
    table = (out1 / "study.csv").read_text().splitlines()
    assert table[1].startswith("sampler,")
    assert len(table) == 2 + 4  # manifest + header + 2 samplers x 2 fractions

    runs = (out1 / "study_runs.csv").read_text().splitlines()
    assert runs[1] == "sampler,budget_fraction,seed,final_aa,final_af,mean_coverage,buffer_bytes"
    # one row per sampler x fraction x seed, seeds innermost
    assert [tuple(line.split(",")[:3]) for line in runs[2:]] == [
        (s, f, seed) for s in ("uniform", "coverage_max") for f in ("0.1", "0.3") for seed in "01"
    ]

    assert main(["sample-study", "--config", str(cfg_path), "--out", str(out2), "--jobs", "2"]) == 0
    for name in ("study.csv", "study_runs.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_sample_study_parses_each_file_once(tmp_path, monkeypatch):
    g = generate_sbm((12,) * 4, p_in=0.3, p_out=0.02, feature_dim=4, feature_shift=3.0, seed=1)
    paths = save_graph_files(g, tmp_path / "data")
    dataset = "".join(f"{kind} = {path}\n" for kind, path in paths.items())
    _, sections = RUN_INI.split("[propagation]")
    cfg_path = _write(tmp_path, f"""
[dataset]
kind = files
{dataset}
[propagation]{sections}
[study]
samplers = uniform
budget_fractions = 0.2
seeds = 0, 1, 2
""")
    parses = count_parses(monkeypatch)
    assert main(["sample-study", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
    assert len((tmp_path / "s" / "study_runs.csv").read_text().splitlines()) == 2 + 3
    assert parses == {"edges.txt": 1, "features.txt": 1, "labels.txt": 1, "split.txt": 1}


def test_cli_sample_study_refuses_a_repeated_sampler(tmp_path, monkeypatch, capsys):
    def never_called(dataset, seed):
        raise AssertionError("a graph was built before the grid was checked")

    monkeypatch.setattr(temcgl.config, "load_dataset", never_called)
    text = STUDY_INI.replace("samplers = uniform, coverage_max", "samplers = uniform, uniform")
    cfg_path = _write(tmp_path, text)
    assert main(["sample-study", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 1
    assert "sampler_id 'uniform' is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("old,bad,extra,message", [
    ("samplers = uniform, coverage_max", "samplers = uniform, uniform", [], "is repeated"),
    ("budget_fractions = 0.1, 0.3", "budget_fractions = 0.1, 1.5", [], "fraction"),
    (None, None, ["--jobs", "0"], "jobs must be >= 1"),
], ids=["repeated-sampler", "fraction-above-one", "jobs-zero"])
def test_cli_sample_study_refused_grid_leaves_no_output_dir(
    tmp_path, capsys, old, bad, extra, message
):
    cfg_path = _write(tmp_path, STUDY_INI.replace(old, bad) if old else STUDY_INI)
    out = ["--out", str(tmp_path / "rep")]
    assert main(["sample-study", "--config", str(cfg_path), *out, *extra]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_export_embeddings(tmp_path):
    cfg_path = _write(tmp_path, RUN_INI)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0

    te_csv = tmp_path / "te.csv"
    assert main([
        "export-embeddings", "--config", str(cfg_path), "--run-dir", str(run_dir),
        "--task", "1", "--layer", "embedding", "--out", str(te_csv),
    ]) == 0
    lines = te_csv.read_text().splitlines()
    assert lines[0].startswith("# manifest=")
    assert lines[1] == "node_id,label," + ",".join(f"c{j}" for j in range(6))
    assert len(lines) == 2 + 80  # all four classes visible at task 1
    assert len(lines[2].split(",")) == 6 + 2
    # the values round-trip at full precision
    cfg = load_config(cfg_path)
    g = load_dataset(cfg.dataset, cfg.run.seed)
    adj = normalize_adjacency(g, cfg.run.resolved_self_loops())
    parsed = np.loadtxt(te_csv, delimiter=",", skiprows=2, ndmin=2)
    np.testing.assert_array_equal(parsed[:, 0], np.arange(80))
    np.testing.assert_array_equal(parsed[:, 1], g.labels)
    np.testing.assert_array_equal(parsed[:, 2:], compute_tes(adj, g.features, cfg.run.strategy).values)

    hid_csv = tmp_path / "hidden.csv"
    assert main([
        "export-embeddings", "--config", str(cfg_path), "--run-dir", str(run_dir),
        "--task", "0", "--layer", "hidden", "--out", str(hid_csv),
    ]) == 0
    assert len(hid_csv.read_text().splitlines()[2].split(",")) == 16 + 2


def test_cli_export_rejects_bad_task_and_mismatched_config(tmp_path, capsys):
    cfg_path = _write(tmp_path, RUN_INI)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    assert main([
        "export-embeddings", "--config", str(cfg_path), "--run-dir", str(run_dir),
        "--task", "9", "--layer", "embedding", "--out", str(tmp_path / "x.csv"),
    ]) == 1
    other_cfg = _write(tmp_path, RUN_INI.replace("seed = 0", "seed = 3"), name="other.ini")
    assert main([
        "export-embeddings", "--config", str(other_cfg), "--run-dir", str(run_dir),
        "--task", "0", "--layer", "embedding", "--out", str(tmp_path / "y.csv"),
    ]) == 1
    assert "match" in capsys.readouterr().err


def test_cli_gen_sbm(tmp_path):
    cfg_path = _write(tmp_path, MINIMAL_INI.replace("kind = sbm", "kind = sbm\nseed = 42"))
    out = tmp_path / "data"
    assert main(["gen-sbm", "--config", str(cfg_path), "--out", str(out)]) == 0
    g = load_graph_files(
        out / "edges.txt", out / "features.txt", out / "labels.txt", out / "split.txt"
    )
    direct = generate_sbm((10, 10), p_in=0.4, p_out=0.05, feature_dim=4, feature_shift=2.0, seed=42)
    np.testing.assert_array_equal(g.indices, direct.indices)
    np.testing.assert_array_equal(g.labels, direct.labels)
    assert (out / "manifest.json").exists()


def test_cli_gen_sbm_rejects_file_datasets(tmp_path, capsys):
    text = """
[dataset]
kind = files
edges = e.txt
features = f.txt
labels = l.txt
split = s.txt

[propagation]
variant = power
hops = 2
"""
    cfg_path = _write(tmp_path, text)
    assert main(["gen-sbm", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 1
    assert "sbm" in capsys.readouterr().err


def test_log_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TEMCGL_LOG", "debug")
    assert main(["check-theorem", "--trials", "2", "--max-nodes", "5"]) == 0
    monkeypatch.setenv("TEMCGL_LOG", "warning")
    assert main(["check-theorem", "--trials", "2", "--max-nodes", "5"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("TEMCGL_LOG", "verbose")
    assert main(["check-theorem", "--trials", "2", "--max-nodes", "5"]) == 2
    err = capsys.readouterr().err
    assert "TEMCGL_LOG" in err
    assert "warning" in err


CHECK_THEOREM_ARGS = ["check-theorem", "--trials", "5", "--max-nodes", "6"]

# What an installer's console-script wrapper does: load the declared
# `module:attr` and exit with its return value.
_ENTRY_POINT_LAUNCHER = """
import sys
from importlib.metadata import EntryPoint

name, value, *args = sys.argv[1:]
func = EntryPoint(name=name, value=value, group="console_scripts").load()
sys.argv = [name, *args]
sys.exit(func())
"""


def _pyproject_project() -> dict:
    """The `[project]` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]


def _declared_console_script(name):
    return _pyproject_project()["scripts"][name]


def test_package_version_matches_pyproject():
    # every manifest embeds `temcgl.__version__`; the two copies are kept by hand
    assert temcgl.__version__ == _pyproject_project()["version"]


def _cli_env():
    """The test's environment, minus TEMCGL_LOG, importing the source under test."""
    env = dict(os.environ)
    env.pop("TEMCGL_LOG", None)
    src = str(Path(temcgl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_entry_point():
    value = _declared_console_script("temcgl")
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINT_LAUNCHER, "temcgl", value, *CHECK_THEOREM_ARGS],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "max deviation" in proc.stdout


@pytest.mark.skipif(shutil.which("temcgl") is None, reason="temcgl console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["temcgl", *CHECK_THEOREM_ARGS],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "max deviation" in proc.stdout
