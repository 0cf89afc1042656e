from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from temcgl.buffer import BudgetPolicy, MemoryBuffer, serialize_buffer
from temcgl.graph import TRAIN, build_graph, generate_sbm
from temcgl import harness as harness_module
from temcgl import model as model_module
from temcgl.harness import (
    EDGE_POLICIES,
    REGIMES,
    AccuracyMatrix,
    RunConfig,
    StudyRow,
    TaskSpec,
    build_task_sequence,
    masked_accuracy,
    run_continual,
    run_study,
    visible_nodes,
    write_accuracy_matrix,
    write_buffer_stats,
    write_curves,
    write_study_runs,
    write_study_table,
)
from temcgl.model import MlpParams, _Workspace
from temcgl.propagation import PropagationStrategy

from helpers import arrays_held, oracle_replay_batch, traced_peak


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


def test_visible_nodes_refuses_a_task_outside_the_sequence():
    # 9 used to reveal every node, -1 none, and 1.5 failed inside a slice
    g = _sbm(classes=6)
    tasks = build_task_sequence(g, classes_per_task=2)
    for policy in ("keep_seen", "drop_all"):
        for bad in (3, 9, -1):
            with pytest.raises(ValueError, match=rf"^upto_task must lie in \[0, 3\), got {bad}$"):
                visible_nodes(g, tasks, bad, policy)
        with pytest.raises(ValueError, match="^upto_task must be an integer, got 1.5$"):
            visible_nodes(g, tasks, 1.5, policy)
    np.testing.assert_array_equal(visible_nodes(g, tasks, np.int64(2), "keep_seen"), np.arange(g.num_nodes))


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


def _buffer_of(te: np.ndarray, labels: np.ndarray) -> MemoryBuffer:
    buffer = MemoryBuffer()
    if len(labels):
        buffer._append(te, labels, np.zeros(len(labels), dtype=np.int64), np.arange(len(labels)))
    return buffer


@pytest.mark.parametrize("replay_lambda", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("class_balance", [True, False])
@pytest.mark.parametrize("regime", REGIMES)
def test_head_batch_matches_the_oracle(regime, class_balance, replay_lambda):
    cfg = _cfg(regime=regime, class_balance=class_balance, replay_lambda=replay_lambda)

    def check(tasks, fits, buffer, replayed, labels):
        x, y, w, valid_x, valid_y = harness_module._head_batch(
            cfg, tasks, fits, buffer, replayed, labels
        )
        fit = [tasks[task_id] for task_id in fits]
        want_x, want_y, want_w = oracle_replay_batch(
            np.concatenate([train for train, _ in fits.values()]),
            labels[np.concatenate([t.train_nodes for t in fit])],
            buffer.te[:replayed], buffer.label[:replayed], replay_lambda, class_balance,
        )
        np.testing.assert_array_equal(x, want_x)
        assert y.dtype == want_y.dtype and y.tolist() == want_y.tolist()
        assert w.view(np.int64).tolist() == want_w.view(np.int64).tolist()
        np.testing.assert_array_equal(valid_x, np.concatenate([v for _, v in fits.values()]))
        assert valid_y.tolist() == labels[np.concatenate([t.valid_nodes for t in fit])].tolist()
        return x, y, w

    # Hand case: two current rows of class 0, then two buffered rows of
    # class 1. Balance gives every row 1.0, and lambda then scales the
    # buffered ones.
    hand = [TaskSpec(0, (0,), np.array([0, 1]), np.array([0]), np.array([1]))]
    fits = {0: (np.zeros((2, 3)), np.zeros((1, 3)))}
    buffer = _buffer_of(np.stack([np.ones(3), 2 * np.ones(3)]), np.array([1, 1]))
    x, y, w = check(hand, fits, buffer, 2, np.array([0, 0]))
    assert x.tolist() == [[0.0] * 3, [0.0] * 3, [1.0] * 3, [2.0] * 3]
    assert y.tolist() == [0, 0, 1, 1] and w.tolist() == [1.0, 1.0, replay_lambda, replay_lambda]
    x, y, w = check(hand, fits, _buffer_of(np.empty((0, 0)), np.array([])), 0, np.array([0, 0]))
    assert x.shape == (2, 3) and w.tolist() == [1.0, 1.0]

    # The last task of an SBM run: its own rows, or every task's under
    # "joint", then none, some or all of a buffer that holds more rows than
    # the batch replays, as a commit leaves it.
    g = _sbm(seed=1)
    tasks = build_task_sequence(g, 2)
    rng = np.random.default_rng(0)
    fits = {
        t.task_id: (rng.normal(size=(len(t.train_nodes), 4)), rng.normal(size=(len(t.valid_nodes), 4)))
        for t in (tasks if regime == "joint" else tasks[-1:])
    }
    buffer = _buffer_of(rng.normal(size=(9, 4)), rng.integers(0, 4, size=9))
    for replayed in (0, 5, 9):
        check(tasks, fits, buffer, replayed, g.labels)


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


def test_kept_heads_share_no_memory_with_the_live_head(monkeypatch):
    live = []

    def recorded(params, *args):
        best = model_module._train_head(params, *args)
        live.extend([params, best])
        return best

    monkeypatch.setattr(harness_module, "_train_head", recorded)
    res = run_continual(_sbm(seed=3), _cfg(seed=11, epochs=20))
    assert len(live) == 2 * len(res.params_per_task)
    for kept in res.params_per_task:
        assert not any(np.shares_memory(kept.flat, head.flat) for head in live)
    for i, kept in enumerate(res.params_per_task):
        for other in res.params_per_task[i + 1 :]:
            assert not np.shares_memory(kept.flat, other.flat)


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


def test_count_budget_above_a_task_fails_before_any_step(monkeypatch):
    g = generate_sbm((30, 30, 30, 30, 6, 6, 30, 30), p_in=0.25, p_out=0.01, feature_dim=8,
                     feature_shift=4.0, seed=0)
    assert [len(t.train_nodes) for t in build_task_sequence(g, 2)] == [36, 36, 6, 36]
    steps = []
    for name in ("_graph_step", "_head_step"):
        monkeypatch.setattr(harness_module, name, lambda *args, name=name: steps.append(name))
    with pytest.raises(ValueError, match="budget 10 exceeds the 6 training nodes of task 2"):
        run_continual(g, _cfg(budget=BudgetPolicy(count=10)))
    assert steps == []


def test_run_working_set_stays_below_one_n_by_dim_matrix():
    # A run holds each task's scored rows, one head batch and the buffer,
    # never an array over every node. Under drop_all a task sees 300 of the
    # 4,800 nodes, so the whole run fits in less than one n x dim matrix.
    g = generate_sbm((150,) * 32, p_in=0.05, p_out=0.001, feature_dim=8, feature_shift=4.0,
                     seed=0)
    cfg = _cfg(
        strategy=PropagationStrategy("reservoir", 2, hidden_dim=128, seed=1),
        sampler_id="uniform", budget=BudgetPolicy(count=2), inter_task_edges="drop_all",
        epochs=5, patience=5,
    )
    _, peak = traced_peak(lambda: run_continual(g, cfg))
    assert peak < g.num_nodes * 128 * 8


def test_keep_seen_run_working_set_holds_no_copy_of_the_features():
    # Under keep_seen the later tasks see most of the graph. A contiguous
    # subgraph views the graph's features, so at the peak the run holds two
    # propagation products and its smaller arrays (2.56 n x dim in all),
    # not a third n x dim copy (3.75 when subgraphs copied the features).
    g = generate_sbm((150,) * 32, p_in=0.05, p_out=0.001, feature_dim=128, feature_shift=4.0,
                     seed=0)
    cfg = _cfg(sampler_id="uniform", budget=BudgetPolicy(count=2), epochs=5, patience=5)
    _, peak = traced_peak(lambda: run_continual(g, cfg))
    assert peak < 3.25 * g.features.nbytes


_VARIANT_STRATEGIES = {
    "power": PropagationStrategy("power", 2),
    "hop_average": PropagationStrategy("hop_average", 2, alpha=0.3),
    "lazy_power": PropagationStrategy("lazy_power", 2, alpha=0.3),
    "reservoir": PropagationStrategy("reservoir", 2, hidden_dim=6, seed=1),
}


@pytest.mark.parametrize("edges", EDGE_POLICIES)
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("variant", sorted(_VARIANT_STRATEGIES))
def test_run_on_a_read_only_graph_matches_the_writable_run(variant, regime, edges):
    # A subgraph of a contiguous id range views its parent's columns, so a
    # write into them anywhere in a run would reach the caller's graph.
    g = _sbm(seed=3)
    frozen = {name: getattr(g, name).copy() for name in ("indptr", "indices", "features", "labels", "split")}
    for array in frozen.values():
        array.setflags(write=False)
    cfg = _cfg(strategy=_VARIANT_STRATEGIES[variant], regime=regime, inter_task_edges=edges,
               epochs=8, patience=3)
    got, want = run_continual(dataclasses.replace(g, **frozen), cfg), run_continual(g, cfg)
    np.testing.assert_array_equal(got.matrix.values, want.matrix.values)
    assert got.buffer_stats == want.buffer_stats
    for p, q in zip(got.params_per_task, want.params_per_task, strict=True):
        assert p.flat.tobytes() == q.flat.tobytes()
    assert serialize_buffer(got.buffer) == serialize_buffer(want.buffer)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("classes_per_task", 1.5),
        ("coverage_hops", 1.5),
        ("epochs", 2.5),
        ("patience", 1.5),
        ("seed", 1.5),
        ("hidden_dims", (2.5,)),
    ],
)
def test_run_config_refuses_non_integers(field, value):
    # each was accepted, then truncated or failed inside the run
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        _cfg(**{field: value})


def test_run_config_takes_numpy_integers_as_ints():
    ints = dict(classes_per_task=2, coverage_hops=1, epochs=5, patience=3, seed=7)
    cfg = _cfg(**{k: np.int64(v) for k, v in ints.items()}, hidden_dims=(np.int32(4),))
    assert cfg == _cfg(**ints, hidden_dims=(4,))
    assert {type(getattr(cfg, k)) for k in ints} | {type(cfg.hidden_dims[0])} == {int}


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


def _sample_grid(samplers, fractions) -> dict:
    return {"sampler_id": samplers, "budget": [BudgetPolicy(fraction=f) for f in fractions]}


def test_run_study_grid(tmp_path):
    base = _cfg(classes_per_task=2, epochs=25, hidden_dims=(16,))
    rows = run_study(
        _study_dataset, base, _sample_grid(("uniform", "coverage_max"), (0.1, 0.5)), seeds=(0, 1)
    )
    assert len(rows) == 8
    assert all(isinstance(r, StudyRow) for r in rows)
    # grid order, seeds innermost
    assert [(r.point["sampler_id"], r.point["budget"].fraction, r.seed) for r in rows] == [
        (s, f, seed) for s in ("uniform", "coverage_max") for f in (0.1, 0.5) for seed in (0, 1)
    ]
    assert all(set(r.point) == {"sampler_id", "budget"} for r in rows)
    assert all(0.0 <= r.final_aa <= 1.0 for r in rows)
    assert all(-1.0 <= r.final_af <= 1.0 for r in rows)  # two tasks, so never None
    assert all(0.0 < r.mean_coverage <= 1.0 for r in rows)
    assert all(r.buffer_bytes > 0 for r in rows)

    path = tmp_path / "study.csv"
    write_study_table(path, rows, "beef")
    lines = path.read_text().splitlines()
    assert lines[1] == "sampler,budget_fraction,mean_aa,std_aa,mean_coverage,std_coverage,num_seeds"
    assert len(lines) == 6
    first = lines[2].split(",")
    assert first[:2] == ["uniform", "0.1"] and first[-1] == "2"
    assert float(first[2]) == pytest.approx((rows[0].final_aa + rows[1].final_aa) / 2, abs=1e-6)

    path = tmp_path / "study_runs.csv"
    write_study_runs(path, rows, "beef")
    lines = path.read_text().splitlines()
    assert lines[1] == "sampler,budget_fraction,seed,final_aa,final_af,mean_coverage,buffer_bytes"
    assert len(lines) == 2 + 8
    assert lines[3].split(",")[:3] == ["uniform", "0.1", "1"]
    assert int(lines[3].split(",")[-1]) == rows[1].buffer_bytes


def test_run_study_parallel_matches_serial():
    base = _cfg(classes_per_task=2, epochs=15, hidden_dims=(16,))
    grid = _sample_grid(("uniform",), (0.2,))
    serial = run_study(_study_dataset, base, grid, seeds=(0, 1), jobs=1)
    parallel = run_study(_study_dataset, base, grid, seeds=(0, 1), jobs=2)
    assert serial == parallel


def _never_called(seed: int):
    raise AssertionError("the dataset was built before the grid was checked")


def test_run_study_rejects_bad_value_before_any_run():
    # the first point is valid, so a check made run by run would build a graph
    with pytest.raises(ValueError, match="unknown sampler 'nope'"):
        run_study(_never_called, _cfg(), {"sampler_id": ("uniform", "nope")}, seeds=(0, 1, 2))
    with pytest.raises(ValueError, match="fraction"):
        run_study(_never_called, _cfg(), _sample_grid(("uniform",), (0.1, 1.5)), seeds=(0, 1, 2))


def test_run_study_rejects_repeated_seeds_before_any_run():
    # a repeat would count as one more independent run and shrink the spread
    with pytest.raises(ValueError, match="seed 1 is repeated"):
        run_study(_never_called, _cfg(), _sample_grid(("uniform",), (0.2,)), seeds=(1, 2, 1))


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"sampler_id": ("uniform", "uniform")}, "sampler_id 'uniform' is repeated"),
        (
            {"budget": (BudgetPolicy(fraction=0.2), BudgetPolicy(fraction=0.2))},
            r"budget BudgetPolicy\(count=None, fraction=0.2\) is repeated",
        ),
        ({"epochs": (5, 10, 5)}, "epochs 5 is repeated"),
        ({"sampler_id": ()}, "the sampler_id axis is empty"),
        ({"sampler_ids": ("uniform",)}, "'sampler_ids' is not a grid axis"),
        ({"seed": (0, 1)}, "'seed' is not a grid axis"),
    ],
    ids=["repeated-sampler", "repeated-budget", "repeated-int", "empty", "not-a-field", "seed"],
)
def test_run_study_refuses_a_bad_grid_before_any_run(grid, message):
    with pytest.raises(ValueError, match=message):
        run_study(_never_called, _cfg(), grid, seeds=(0, 1))


def test_run_study_refuses_a_non_integer_seed_before_any_run():
    # a seed of 1.5 used to run as seed 1
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5"):
        run_study(_never_called, _cfg(), {"sampler_id": ("uniform",)}, seeds=(0, 1.5))


def test_run_study_refuses_no_seeds_and_no_jobs():
    with pytest.raises(ValueError, match="the seed axis is empty"):
        run_study(_never_called, _cfg(), {"sampler_id": ("uniform",)}, seeds=())
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_study(_never_called, _cfg(), {"sampler_id": ("uniform",)}, seeds=(0,), jobs=0)


def test_run_study_varies_any_field():
    # axes other than sampler and budget; with one task final_af is None
    base = _cfg(classes_per_task=4, epochs=10, hidden_dims=(8,))
    grid = {"regime": ("finetune", "joint"), "hidden_dims": ((8,), (4, 4))}
    rows = run_study(_study_dataset, base, grid, seeds=(3,))
    assert [tuple(r.point.values()) for r in rows] == [
        ("finetune", (8,)), ("finetune", (4, 4)), ("joint", (8,)), ("joint", (4, 4)),
    ]
    assert all(r.final_af is None and r.mean_coverage == 0.0 for r in rows)
    joint = _cfg(classes_per_task=4, epochs=10, regime="joint", hidden_dims=(4, 4), seed=3)
    assert rows[-1].final_aa == run_continual(_study_dataset(3), joint).aa[-1]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    # three rows of the 3x3 accuracy matrix, then final AA and AF
    assert len(printed) == 4
    aa, af = (float(v) for v in printed[-1].split())
    assert 0.0 <= aa <= 1.0 and -1.0 <= af <= 1.0
