from __future__ import annotations

import time

import numpy as np
import pytest

from temcgl.buffer import BudgetPolicy
from temcgl.graph import TRAIN, build_graph, generate_sbm
from temcgl import model as model_module
from temcgl.harness import (
    AccuracyMatrix,
    RunConfig,
    StudyCell,
    build_task_sequence,
    masked_accuracy,
    run_continual,
    run_sample_study,
    visible_nodes,
    write_accuracy_matrix,
    write_buffer_stats,
    write_curves,
    write_study_table,
)
from temcgl.model import MlpParams, _Workspace
from temcgl.propagation import PropagationStrategy

from helpers import arrays_held


def _sbm(seed: int = 0, classes: int = 6, per_class: int = 30):
    return generate_sbm(
        (per_class,) * classes,
        p_in=0.25,
        p_out=0.01,
        feature_dim=8,
        feature_shift=4.0,
        seed=seed,
    )


def _cfg(**overrides) -> RunConfig:
    base = dict(
        strategy=PropagationStrategy("power", 2),
        regime="replay",
        scenario="class_il",
        classes_per_task=2,
        sampler_id="coverage_max",
        budget=BudgetPolicy(fraction=0.2),
        hidden_dims=(32,),
        optimizer="adam",
        lr=0.05,
        epochs=60,
        patience=15,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# task sequences
# ---------------------------------------------------------------------------


def test_build_task_sequence_groups_classes_ascending():
    g = _sbm(classes=6)
    tasks = build_task_sequence(g, classes_per_task=2)
    assert [t.classes for t in tasks] == [(0, 1), (2, 3), (4, 5)]
    assert [t.task_id for t in tasks] == [0, 1, 2]
    for t in tasks:
        for nodes in (t.train_nodes, t.valid_nodes, t.test_nodes):
            assert np.all(np.isin(g.labels[nodes], t.classes))
        got_train = set(t.train_nodes.tolist())
        want_train = {
            int(v)
            for v in np.flatnonzero(np.isin(g.labels, t.classes))
            if g.split[v] == TRAIN
        }
        assert got_train == want_train


def test_build_task_sequence_remainder_and_errors():
    g = _sbm(classes=5)
    tasks = build_task_sequence(g, classes_per_task=3)
    assert [t.classes for t in tasks] == [(0, 1, 2), (3, 4)]
    single = build_task_sequence(g, classes_per_task=5)
    assert len(single) == 1 and single[0].classes == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        build_task_sequence(g, classes_per_task=0)
    with pytest.raises(ValueError):
        build_task_sequence(g, classes_per_task=6)


def test_build_task_sequence_needs_train_and_test_nodes():
    g = build_graph(
        4,
        np.array([[0, 1], [2, 3]]),
        labels=np.array([0, 0, 1, 1]),
        split=np.array([0, 2, 2, 2]),  # class 1 has no train node
    )
    with pytest.raises(ValueError):
        build_task_sequence(g, classes_per_task=1)


def test_visible_nodes_modes():
    g = _sbm(classes=4)
    tasks = build_task_sequence(g, classes_per_task=2)
    keep = visible_nodes(g, tasks, upto_task=1, inter_task_edges="keep_seen")
    drop = visible_nodes(g, tasks, upto_task=1, inter_task_edges="drop_all")
    assert set(g.labels[keep].tolist()) == {0, 1, 2, 3}
    assert set(g.labels[drop].tolist()) == {2, 3}
    assert np.all(np.diff(keep) > 0) and np.all(np.diff(drop) > 0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_accuracy_matrix_formulas_match_fixed_examples():
    m = AccuracyMatrix.empty(3)
    m.record(0, 0, 0.9)
    m.record(1, 0, 0.7)
    m.record(1, 1, 0.8)
    m.record(2, 0, 0.5)
    m.record(2, 1, 0.6)
    m.record(2, 2, 0.9)
    assert m.average_forgetting(2) == pytest.approx(-0.3)
    assert m.average_forgetting(1) == pytest.approx(-0.2)
    assert m.average_forgetting(0) is None
    assert m.average_accuracy(0) == pytest.approx(0.9)

    row = AccuracyMatrix.empty(3)
    row.record(0, 0, 1.0)
    row.record(1, 0, 1.0)
    row.record(1, 1, 1.0)
    row.record(2, 0, 0.9)
    row.record(2, 1, 0.8)
    row.record(2, 2, 0.7)
    assert row.average_accuracy(2) == pytest.approx(0.8)


def test_accuracy_matrix_guards():
    m = AccuracyMatrix.empty(2)
    with pytest.raises(ValueError):
        m.record(0, 1, 0.5)  # above the diagonal
    with pytest.raises(ValueError):
        m.record(0, 0, 1.5)
    m.record(0, 0, 1.0)
    with pytest.raises(ValueError):
        m.average_accuracy(1)  # row not filled yet
    assert np.isnan(m.values[0, 1])


def test_masked_accuracy_restricts_the_argmax():
    params = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([[5.0, 9.0, 1.0]])
    assert masked_accuracy(params, x, np.array([1]), np.array([0, 1, 2])) == 1.0
    assert masked_accuracy(params, x, np.array([0]), np.array([0, 2])) == 1.0
    assert masked_accuracy(params, x, np.array([2]), np.array([0, 2])) == 0.0


@pytest.mark.parametrize("labels", [[1], [[0], [1], [2], [1], [0]]], ids=["short", "column"])
def test_masked_accuracy_rejects_labels_not_one_per_row(labels):
    params = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(ValueError, match="labels must be one per row"):
        masked_accuracy(params, x, np.array(labels), np.arange(3))


def test_masked_accuracy_random_logits_hit_chance_level():
    rng = np.random.default_rng(0)
    params = MlpParams(weights=[np.eye(4)], biases=[np.zeros(4)])
    x = rng.standard_normal((4000, 4))
    y = rng.integers(0, 2, size=4000)
    acc = masked_accuracy(params, x, y, np.array([0, 1]))
    assert acc == pytest.approx(0.5, abs=0.05)


def test_wider_mask_never_helps():
    rng = np.random.default_rng(1)
    params = MlpParams(weights=[np.eye(6)], biases=[np.zeros(6)])
    x = rng.standard_normal((500, 6))
    y = rng.integers(2, 4, size=500)
    narrow = masked_accuracy(params, x, y, np.array([2, 3]))
    wide = masked_accuracy(params, x, y, np.arange(6))
    assert narrow >= wide


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_continual_shapes_and_determinism():
    g = _sbm(seed=3)
    cfg = _cfg(seed=11)
    res = run_continual(g, cfg)
    again = run_continual(g, cfg)

    T = 3
    assert res.matrix.values.shape == (T, T)
    for i in range(T):
        for j in range(T):
            if j <= i:
                assert not np.isnan(res.matrix.values[i, j])
            else:
                assert np.isnan(res.matrix.values[i, j])
    assert len(res.aa) == T and len(res.af) == T
    assert res.af[0] is None and all(v is not None for v in res.af[1:])
    assert all(0.0 <= v <= 1.0 for v in res.aa)
    assert len(res.params_per_task) == T
    assert len(res.tasks) == T

    np.testing.assert_array_equal(res.matrix.values, again.matrix.values)
    for a, b in zip(res.params_per_task[-1].weights, again.params_per_task[-1].weights):
        np.testing.assert_array_equal(a, b)

    stats = res.buffer_stats
    assert [s.task_id for s in stats] == [0, 1, 2]
    assert stats[0].entries < stats[1].entries < stats[2].entries
    assert all(0.0 < s.coverage <= 1.0 for s in stats)
    assert stats[-1].bytes == res.buffer.footprint_bytes()


def test_kept_params_share_no_memory_with_training_arrays(monkeypatch):
    built = []

    class Recorded(_Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(model_module, "_Workspace", Recorded)
    res = run_continual(_sbm(seed=3), _cfg(seed=11, epochs=20))
    # a training and a scoring workspace per task, plus one per evaluation
    assert len(built) == 3 * 2 + 6

    reused = [a for ws in built for a in arrays_held(ws)]
    kept = [a for p in res.params_per_task for a in p.weights + p.biases]
    for i, a in enumerate(kept):
        assert not any(np.shares_memory(a, b) for b in reused)
        assert not any(np.shares_memory(a, b) for b in kept[i + 1:])


def test_replay_retains_earlier_tasks_better_than_finetune():
    g = _sbm(seed=5)
    replay = run_continual(g, _cfg(seed=2))
    finetune = run_continual(g, _cfg(seed=2, regime="finetune"))
    assert replay.aa[-1] - finetune.aa[-1] > 0.1
    # the finetuned head collapses on the first task by the end
    assert finetune.matrix.values[2, 0] < 0.5
    assert finetune.buffer_stats[0].entries == 0


def test_joint_regime_is_a_strong_reference():
    g = _sbm(seed=7)
    joint = run_continual(g, _cfg(seed=3, regime="joint"))
    finetune = run_continual(g, _cfg(seed=3, regime="finetune"))
    assert joint.aa[-1] >= finetune.aa[-1]


def test_task_il_dominates_class_il_entrywise():
    g = _sbm(seed=9)
    class_il = run_continual(g, _cfg(seed=4, scenario="class_il"))
    task_il = run_continual(g, _cfg(seed=4, scenario="task_il"))
    lower = ~np.isnan(class_il.matrix.values)
    assert np.all(task_il.matrix.values[lower] >= class_il.matrix.values[lower])


def test_drop_all_inter_task_edges_runs_deterministically():
    g = _sbm(seed=13, classes=4)
    cfg = _cfg(seed=6, classes_per_task=2, inter_task_edges="drop_all")
    res = run_continual(g, cfg)
    again = run_continual(g, cfg)
    np.testing.assert_array_equal(res.matrix.values, again.matrix.values)
    assert not np.isnan(res.matrix.values[1, 0])


def test_early_stopping_cuts_training_short():
    g = _sbm(seed=15, classes=4, per_class=20)
    cfg = _cfg(seed=0, classes_per_task=2, epochs=5000, patience=1, hidden_dims=(16,))
    start = time.perf_counter()
    run_continual(g, cfg)
    assert time.perf_counter() - start < 20.0


def test_run_config_validation():
    with pytest.raises(ValueError):
        _cfg(regime="rehearse")
    with pytest.raises(ValueError):
        _cfg(scenario="domain_il")
    with pytest.raises(ValueError):
        _cfg(inter_task_edges="keep_all")
    with pytest.raises(ValueError):
        _cfg(self_loops="maybe")
    with pytest.raises(ValueError):
        _cfg(sampler_id="nope")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["lr", "replay_lambda"])
def test_run_config_rejects_non_finite_numbers(field, value):
    # a non-finite rate or replay weight would train to NaN parameters
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        _cfg(**{field: value})


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def test_write_accuracy_matrix_format(tmp_path):
    m = AccuracyMatrix.empty(2)
    m.record(0, 0, 0.123456789)
    m.record(1, 0, 0.5)
    m.record(1, 1, 0.25)
    path = tmp_path / "accuracy_matrix.csv"
    write_accuracy_matrix(path, m, "deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest=deadbeef"
    assert lines[1] == "after_task,task_0,task_1"
    assert lines[2] == "0,0.123457,NA"  # six significant digits
    assert lines[3] == "1,0.5,0.25"


def test_write_curves_format(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves(path, [0.9, 0.85], [None, -0.05], "cafe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest=cafe"
    assert lines[1] == "task_index,average_accuracy,average_forgetting"
    assert lines[2] == "0,0.9,NA"
    assert lines[3] == "1,0.85,-0.05"


def test_write_buffer_stats_format(tmp_path):
    g = _sbm(seed=3, classes=4)
    res = run_continual(g, _cfg(seed=1, classes_per_task=2, epochs=20))
    path = tmp_path / "buffer_stats.csv"
    write_buffer_stats(path, res.buffer_stats, "feed")
    lines = path.read_text().splitlines()
    assert lines[1] == "task_index,entries,bytes,coverage_ratio"
    first = lines[2].split(",")
    assert int(first[1]) == res.buffer_stats[0].entries
    assert int(first[2]) == res.buffer_stats[0].bytes


# ---------------------------------------------------------------------------
# sampler studies
# ---------------------------------------------------------------------------


def _study_dataset(seed: int):
    return generate_sbm(
        (25, 25, 25, 25), p_in=0.3, p_out=0.02, feature_dim=6, feature_shift=3.0, seed=seed
    )


def test_run_sample_study_grid(tmp_path):
    base = _cfg(classes_per_task=2, epochs=25, hidden_dims=(16,))
    cells = run_sample_study(
        _study_dataset,
        base,
        samplers=("uniform", "coverage_max"),
        budget_fractions=(0.1, 0.5),
        seeds=(0, 1),
    )
    assert len(cells) == 4
    assert all(isinstance(c, StudyCell) for c in cells)
    assert [(c.sampler_id, c.budget_fraction) for c in cells] == [
        ("uniform", 0.1),
        ("uniform", 0.5),
        ("coverage_max", 0.1),
        ("coverage_max", 0.5),
    ]
    assert all(c.num_seeds == 2 for c in cells)
    assert all(0.0 <= c.mean_aa <= 1.0 for c in cells)
    assert all(0.0 < c.mean_coverage <= 1.0 for c in cells)

    path = tmp_path / "study.csv"
    write_study_table(path, cells, "beef")
    lines = path.read_text().splitlines()
    assert lines[1] == "sampler,budget_fraction,mean_aa,std_aa,mean_coverage,std_coverage,num_seeds"
    assert len(lines) == 6


def test_run_sample_study_parallel_matches_serial():
    base = _cfg(classes_per_task=2, epochs=15, hidden_dims=(16,))
    serial = run_sample_study(
        _study_dataset, base, samplers=("uniform",), budget_fractions=(0.2,), seeds=(0, 1), jobs=1
    )
    parallel = run_sample_study(
        _study_dataset, base, samplers=("uniform",), budget_fractions=(0.2,), seeds=(0, 1), jobs=2
    )
    assert serial == parallel


def test_run_sample_study_rejects_bad_fraction_before_any_run():
    calls = []

    def dataset(seed: int):
        calls.append(seed)
        return _study_dataset(seed)

    with pytest.raises(ValueError, match="fraction"):
        run_sample_study(
            dataset, _cfg(), samplers=("uniform",), budget_fractions=(0.1, 1.5), seeds=(0, 1, 2)
        )
    assert calls == []


def test_run_sample_study_rejects_repeated_seeds_before_any_run():
    calls = []

    def dataset(seed: int):
        calls.append(seed)
        return _study_dataset(seed)

    # a repeat would count as one more independent run and shrink the spread
    with pytest.raises(ValueError, match="seed 1 is repeated"):
        run_sample_study(
            dataset, _cfg(), samplers=("uniform",), budget_fractions=(0.2,), seeds=(1, 2, 1)
        )
    assert calls == []
