"""`run_continual` against the sequential oracle in `helpers`.

The run overlaps each task's graph side with the previous task's head on a
worker thread. These tests pin that it changes nothing observable: every
output is bit-identical to the single-threaded loop, whichever side is
slower, errors surface as the sequential loop raises them, and no thread
outlives the call.
"""
from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from temcgl import harness
from temcgl.buffer import SAMPLER_IDS, BudgetPolicy, serialize_buffer
from temcgl.graph import generate_sbm
from temcgl.harness import (
    EDGE_POLICIES,
    SCENARIOS,
    RunConfig,
    build_task_sequence,
    run_continual,
)
from temcgl.propagation import PropagationStrategy

from helpers import oracle_run_continual

_STRATEGIES = {
    "power": PropagationStrategy("power", 2),
    "reservoir": PropagationStrategy("reservoir", 2, hidden_dim=6, seed=1),
}
_ARMS = [("replay", s) for s in SAMPLER_IDS] + [("finetune", None), ("joint", None)]


def _graph(block_sizes=(24,) * 6):
    return generate_sbm(
        block_sizes, p_in=0.2, p_out=0.02, feature_dim=4, feature_shift=2.0, seed=2
    )


def _cfg(**overrides) -> RunConfig:
    base = dict(
        strategy=_STRATEGIES["power"],
        classes_per_task=2,
        budget=BudgetPolicy(fraction=0.2),
        hidden_dims=(8,),
        epochs=8,
        patience=3,
        seed=4,
    )
    base.update(overrides)
    return RunConfig(**base)


def _assert_same_run(got, want) -> None:
    np.testing.assert_array_equal(got.matrix.values, want.matrix.values)
    assert got.aa == want.aa
    assert got.af == want.af
    assert got.buffer_stats == want.buffer_stats
    assert len(got.params_per_task) == len(want.params_per_task)
    for p, q in zip(got.params_per_task, want.params_per_task):
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert serialize_buffer(got.buffer) == serialize_buffer(want.buffer)


@pytest.mark.parametrize("variant", sorted(_STRATEGIES))
@pytest.mark.parametrize("edges", EDGE_POLICIES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("regime,sampler", _ARMS, ids=[s or r for r, s in _ARMS])
def test_run_matches_the_sequential_oracle(regime, sampler, scenario, edges, variant):
    g = _graph()
    cfg = _cfg(
        strategy=_STRATEGIES[variant],
        regime=regime,
        sampler_id=sampler or "coverage_max",
        scenario=scenario,
        inter_task_edges=edges,
    )
    want = oracle_run_continual(g, cfg)
    before = threading.enumerate()
    got = run_continual(g, cfg)
    assert threading.enumerate() == before
    _assert_same_run(got, want)


@pytest.mark.parametrize("regime", ["replay", "joint"])
@pytest.mark.parametrize("slow", ["compute_tes", "_train_head"])
def test_forced_interleavings_match_the_oracle(monkeypatch, slow, regime):
    # A slow compute_tes lets each head finish before the next graph side;
    # a slow _train_head makes every graph side wait for the head.
    g = _graph()
    cfg = _cfg(regime=regime, epochs=20)
    want = oracle_run_continual(g, cfg)

    baseline = threading.active_count()
    seen_threads = []
    original = getattr(harness, slow)

    def delayed(*args, **kwargs):
        seen_threads.append(threading.active_count())
        time.sleep(0.03)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, slow, delayed)
    got = run_continual(g, cfg)
    _assert_same_run(got, want)
    assert len(seen_threads) == len(got.tasks)
    assert max(seen_threads) <= baseline + 1


def test_concurrent_runs_stay_exact_under_fast_thread_switching():
    # more runs at once than cores, each with its own worker, switching
    # threads every microsecond: a state shared between runs, or a read of
    # one side's data while the other writes it, would show as a mismatch
    g = _graph()
    cfgs = [_cfg(seed=s, regime=r) for s in (4, 5) for r in ("replay", "joint")]
    want = [oracle_run_continual(g, cfg) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
            runs = [pool.submit(run_continual, g, cfg) for cfg in cfgs]
            got = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, want):
        _assert_same_run(a, b)


def _assert_raises_like_the_oracle(g, cfg, install=lambda: None) -> None:
    install()
    with pytest.raises(Exception) as want:
        oracle_run_continual(g, cfg)
    install()
    before = threading.enumerate()
    with pytest.raises(want.type) as got:
        run_continual(g, cfg)
    assert str(got.value) == str(want.value)
    assert threading.enumerate() == before


def _fail_head_at_task_1(monkeypatch):
    original = harness._train_head
    baseline = threading.active_count()

    def install():
        calls = []

        def failing(*args, **kwargs):
            assert threading.active_count() <= baseline + 1
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("head diverged at task 1")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "_train_head", failing)

    return install


def test_graph_side_error_matches_the_oracle():
    # the last task has too few candidates for a fixed per-task budget
    g = _graph((30, 30, 30, 30, 8, 8))
    tasks = build_task_sequence(g, 2)
    count = min(len(t.train_nodes) for t in tasks[:2])
    assert len(tasks[2].train_nodes) < count
    _assert_raises_like_the_oracle(g, _cfg(budget=BudgetPolicy(count=count)))


def test_head_side_error_matches_the_oracle(monkeypatch):
    _assert_raises_like_the_oracle(_graph(), _cfg(), _fail_head_at_task_1(monkeypatch))


def test_head_error_comes_before_a_later_graph_side_error(monkeypatch):
    # the head fails at task 1 and the buffer at task 2: sequentially the
    # head's error is raised first
    g = _graph((30, 30, 30, 30, 8, 8))
    count = min(len(t.train_nodes) for t in build_task_sequence(g, 2)[:2])
    _assert_raises_like_the_oracle(
        g, _cfg(budget=BudgetPolicy(count=count)), _fail_head_at_task_1(monkeypatch)
    )


@pytest.mark.parametrize("regime", ["replay", "joint"])
def test_only_the_calling_thread_records_accuracies(monkeypatch, regime):
    # the worker returns each head's scores; the calling thread records them
    original = harness.AccuracyMatrix.record
    recorded_on = []

    def record(self, *args, **kwargs):
        recorded_on.append(threading.get_ident())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(harness.AccuracyMatrix, "record", record)
    got = run_continual(_graph(), _cfg(regime=regime))
    num_tasks = len(got.tasks)
    assert len(recorded_on) == num_tasks * (num_tasks + 1) // 2
    assert set(recorded_on) == {threading.get_ident()}
