"""End-to-end acceptance checks, one per headline guarantee.

Every test pins its instance sizes, seeds, and tolerances, computes a
verdict, and emits a single ``ACCEPTANCE <name>: PASS/FAIL (...)`` line
before asserting — run with ``pytest -s`` to see the whole scorecard at
once. Nothing here may be loosened to make a red line green; if one of
these fails, the behaviour it guards has regressed.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from temcgl.buffer import BudgetPolicy, MemoryBuffer
from temcgl.cli import main
from temcgl.coverage import coverage_max_sample
from temcgl.graph import (
    TRAIN,
    _reach,
    build_graph,
    generate_sbm,
    homophily_ratio,
    normalize_adjacency,
)
from temcgl.harness import AccuracyMatrix, RunConfig, run_continual
from temcgl.model import (
    init_mlp,
    loss_and_grad,
    make_optimizer,
    mlp_forward,
    pseudo_gradient_check,
)
from temcgl.propagation import PropagationStrategy, compute_tes, subnetwork_te
from temcgl.rng import component_rng

from helpers import (
    central_difference,
    dense_adjacency,
    dense_normalized,
    dense_propagation_matrix,
    random_edges,
)

LINEAR = ("power", "hop_average", "lazy_power")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _params_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


def _random_positive_instance(rng: np.random.Generator, max_nodes: int):
    """Connected graph with positive features, like the CLI theorem check."""
    n = int(rng.integers(3, max_nodes + 1))
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    for u, v in rng.integers(0, n, size=(n // 2, 2)).tolist():
        if u != v:
            edges.append((u, v))
    return build_graph(n, np.array(edges), features=rng.uniform(0.1, 1.0, size=(n, 3)))


# ---------------------------------------------------------------------------
# 1. the replay-gradient identity on exhaustively small instances
# ---------------------------------------------------------------------------


def test_01_embedding_gradient_identity():
    started = time.monotonic()
    rng = component_rng(0, "acceptance-identity")
    worst = 0.0
    for trial in range(100):
        g = _random_positive_instance(rng, max_nodes=10)
        variant = LINEAR[trial % 3]
        hops = int(rng.integers(1, 4))
        alpha = None if variant == "power" else float(rng.uniform(0.1, 0.9))
        strategy = PropagationStrategy(variant, hops, alpha=alpha)
        report = pseudo_gradient_check(
            adj=normalize_adjacency(g, strategy.default_self_loops),
            features=g.features,
            weights=rng.uniform(0.1, 1.0, size=(3, 4)),
            node=int(rng.integers(0, g.num_nodes)),
            strategy=strategy,
            target_class=int(rng.integers(0, 4)),
        )
        worst = max(worst, report.max_deviation)
    elapsed = time.monotonic() - started
    _report(
        "gradient-identity",
        worst < 1e-8 and elapsed < 10.0,
        f"max deviation {worst:.3e} over 100 instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. training on stored embeddings == training on recomputed subnetworks
# ---------------------------------------------------------------------------


def test_02_precomputed_and_recomputed_training_agree_bitwise():
    strategies = (
        PropagationStrategy("power", 2),
        PropagationStrategy("hop_average", 2, alpha=0.2),
        PropagationStrategy("lazy_power", 3, alpha=0.3),
        PropagationStrategy("power", 1),
        PropagationStrategy("hop_average", 3, alpha=0.5),
    )
    steps_checked = 0
    identical = True
    for seed, strategy in enumerate(strategies):
        g = generate_sbm(
            (12, 12, 12), p_in=0.3, p_out=0.05, feature_dim=6, feature_shift=2.0, seed=seed
        )
        adj = normalize_adjacency(g, strategy.default_self_loops)
        nodes = g.split_nodes(TRAIN)
        y = g.labels[nodes]
        x_stored = compute_tes(adj, g.features, strategy).values[nodes]

        params_a = init_mlp([6, 16, 3], component_rng(seed, "acceptance-decoupled"))
        params_b = init_mlp([6, 16, 3], component_rng(seed, "acceptance-decoupled"))
        opt_a = make_optimizer("adam", 0.05)
        opt_b = make_optimizer("adam", 0.05)
        for _ in range(50):
            x_fresh = np.stack(
                [subnetwork_te(adj, g.features, strategy, v) for v in nodes]
            )
            _, grads_a = loss_and_grad(params_a, x_stored, y)
            opt_a.step(params_a, grads_a)
            _, grads_b = loss_and_grad(params_b, x_fresh, y)
            opt_b.step(params_b, grads_b)
            identical = identical and _params_equal(params_a, params_b)
            steps_checked += 1
    _report(
        "decoupled-training",
        identical and steps_checked == 250,
        f"parameters bit-identical over {steps_checked} optimizer steps, 5 seeds",
    )


# ---------------------------------------------------------------------------
# 3. sparse propagation against the dense operator, materialised
# ---------------------------------------------------------------------------


def test_03_linear_propagation_matches_dense_operator():
    started = time.monotonic()
    rng = component_rng(0, "acceptance-dense")
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 201))
        edges = random_edges(n, min(1.0, 3.0 / n), rng)
        dim = int(rng.integers(1, 6))
        g = build_graph(n, edges, features=rng.standard_normal((n, dim)))
        variant = LINEAR[trial % 3]
        hops = 1 + trial % 3
        alpha = None if variant == "power" else 0.25
        self_loops = trial % 2 == 0
        strategy = PropagationStrategy(variant, hops, alpha=alpha)

        pi = dense_propagation_matrix(
            dense_normalized(dense_adjacency(n, edges), self_loops), variant, hops, alpha
        )
        actual = compute_tes(normalize_adjacency(g, self_loops), g.features, strategy)
        worst = max(worst, float(np.max(np.abs(actual.values - pi @ g.features))))
    elapsed = time.monotonic() - started
    _report(
        "dense-oracle",
        worst < 1e-10 and elapsed < 30.0,
        f"max |sparse - dense| {worst:.3e} over 20 graphs, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. backpropagation against central finite differences
# ---------------------------------------------------------------------------


def test_04_analytic_gradients_match_finite_differences():
    rng = component_rng(0, "acceptance-fd")
    worst = 0.0
    for trial in range(50):
        dims = [int(rng.integers(2, 6)), int(rng.integers(3, 7)), int(rng.integers(2, 5))]
        batch = int(rng.integers(3, 7))
        params = init_mlp(dims, rng)
        x = rng.standard_normal((batch, dims[0]))
        y = rng.integers(0, dims[-1], size=batch)
        w = rng.uniform(0.5, 2.0, size=batch) if trial % 2 else None

        _, grads = loss_and_grad(params, x, y, w)
        arrays = params.weights + params.biases
        numeric = central_difference(lambda: loss_and_grad(params, x, y, w)[0], arrays)
        analytic = grads.weights + grads.biases
        for got, ref in zip(analytic, numeric):
            err = np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-12)
            worst = max(worst, float(err))
    _report(
        "mlp-gradients",
        worst < 1e-5,
        f"max relative error {worst:.3e} over 50 instances",
    )


# ---------------------------------------------------------------------------
# 5. coverage sampling beats uniform where it should, and costs nothing in
#    accuracy, on a degree-skewed ten-class network
# ---------------------------------------------------------------------------


def test_05_coverage_sampler_study():
    started = time.monotonic()
    g = generate_sbm(
        (50, 83, 116, 149, 182, 218, 251, 284, 317, 350),
        p_in=0.025,
        p_out=0.0005,
        feature_dim=16,
        feature_shift=1.0,
        seed=7,
    )
    degrees = np.diff(g.indptr)
    skewed = np.percentile(degrees, 90) >= 2 * np.percentile(degrees, 10)

    results = {}
    for sampler in ("uniform", "coverage_max"):
        aa, cov = [], []
        for seed in range(30):
            run = run_continual(
                g,
                RunConfig(
                    strategy=PropagationStrategy("power", 2),
                    sampler_id=sampler,
                    budget=BudgetPolicy(count=2),
                    classes_per_task=1,
                    hidden_dims=(64,),
                    lr=0.02,
                    epochs=200,
                    patience=200,
                    seed=seed,
                ),
            )
            aa.append(run.aa[-1])
            cov.append(np.mean([s.coverage for s in run.buffer_stats]))
        results[sampler] = (np.array(aa), np.array(cov))
    elapsed = time.monotonic() - started

    aa_uni, cov_uni = results["uniform"]
    aa_cov, cov_cov = results["coverage_max"]
    ordering = float(np.mean(cov_cov > cov_uni))
    ok = (
        skewed
        and cov_cov.mean() > cov_uni.mean()
        and ordering >= 0.9
        and aa_cov.mean() >= aa_uni.mean()
        and elapsed < 300.0
    )
    _report(
        "sampler-study",
        ok,
        f"coverage {cov_uni.mean():.3f}->{cov_cov.mean():.3f}, "
        f"per-seed ordering {ordering:.0%}, "
        f"aa {aa_uni.mean():.3f}->{aa_cov.mean():.3f}, 30 seeds, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. replay with a 10% budget rescues what plain fine-tuning forgets
# ---------------------------------------------------------------------------


def test_06_replay_halts_catastrophic_forgetting():
    started = time.monotonic()
    gaps, forget_ft, forget_replay, homophily = [], [], [], []
    for seed in range(10):
        g = generate_sbm(
            (60,) * 6, p_in=0.2, p_out=0.01, feature_dim=8, feature_shift=4.0,
            seed=1000 + seed,
        )
        homophily.append(homophily_ratio(g))
        base = dict(
            strategy=PropagationStrategy("power", 2),
            classes_per_task=2,
            budget=BudgetPolicy(fraction=0.10),
            hidden_dims=(64,),
            lr=0.05,
            epochs=100,
            patience=100,
            seed=seed,
        )
        replay = run_continual(g, RunConfig(regime="replay", **base))
        finetune = run_continual(g, RunConfig(regime="finetune", **base))
        gaps.append(replay.aa[-1] - finetune.aa[-1])
        forget_ft.append(finetune.af[-1])
        forget_replay.append(replay.af[-1])
    elapsed = time.monotonic() - started

    ok = (
        min(homophily) >= 0.75
        and np.mean(gaps) >= 0.20
        and np.mean(forget_ft) <= -0.4
        and np.mean(forget_replay) >= -0.1
        and elapsed < 300.0
    )
    _report(
        "forgetting-separation",
        ok,
        f"aa gap {np.mean(gaps):+.3f}, af finetune {np.mean(forget_ft):+.3f}, "
        f"af replay {np.mean(forget_replay):+.3f}, 10 seeds, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. the two sequence metrics on hand-checked matrices
# ---------------------------------------------------------------------------


def test_07_metric_formulas_on_fixed_matrices():
    m = AccuracyMatrix.empty(3)
    for (i, j), value in {
        (0, 0): 0.9, (1, 0): 0.8, (1, 1): 0.6,
        (2, 0): 0.7, (2, 1): 0.5, (2, 2): 0.4,
    }.items():
        m.record(i, j, value)
    checks = (
        (m.average_accuracy(0), 0.9),
        (m.average_accuracy(1), 0.7),
        (m.average_accuracy(2), 1.6 / 3.0),
        (m.average_forgetting(1), -0.1),
        (m.average_forgetting(2), -0.15),
    )
    exact = all(got == pytest.approx(want, abs=1e-12) for got, want in checks)

    perfect = AccuracyMatrix.empty(2)
    for i in range(2):
        for j in range(i + 1):
            perfect.record(i, j, 1.0)
    exact = exact and perfect.average_accuracy(1) == 1.0 and perfect.average_forgetting(1) == 0.0
    _report(
        "metric-formulas",
        exact and m.average_forgetting(0) is None,
        "hand-computed averages reproduced on fixed 3x3 and perfect 2x2 matrices",
    )


# ---------------------------------------------------------------------------
# 8. buffer bytes track the budget, never the degree
# ---------------------------------------------------------------------------


def test_08_buffer_bytes_ignore_degree():
    footprints, mean_degrees = [], []
    for factor in (1, 4, 16):
        g = generate_sbm(
            (60,) * 5,
            p_in=0.015 * factor,
            p_out=0.0015 * factor,
            feature_dim=12,
            feature_shift=2.0,
            seed=77,
        )
        mean_degrees.append(float(np.diff(g.indptr).mean()))
        adj = normalize_adjacency(g, True)
        tes = compute_tes(adj, g.features, PropagationStrategy("power", 2))
        buffer = MemoryBuffer(BudgetPolicy(count=12), "coverage_max", coverage_hops=2)
        buffer.update_tem(
            g, tes, 0, g.split_nodes(TRAIN), component_rng(factor, "acceptance-memory")
        )
        footprints.append(buffer.footprint_bytes())

    sweep_grew = mean_degrees[0] * 2 < mean_degrees[1] and mean_degrees[1] * 2 < mean_degrees[2]
    spread = (max(footprints) - min(footprints)) / min(footprints)
    _report(
        "memory-footprint",
        sweep_grew and spread < 0.01,
        f"degrees {mean_degrees[0]:.1f}/{mean_degrees[1]:.1f}/{mean_degrees[2]:.1f}, "
        f"footprint spread {spread:.2%}",
    )


# ---------------------------------------------------------------------------
# 9. training on a few stored embeddings lifts the nodes they cover
# ---------------------------------------------------------------------------


def test_09_rehearsal_lifts_covered_class_probability():
    wins, homophily = 0, []
    for seed in range(20):
        g = generate_sbm(
            (40,) * 4, p_in=0.3, p_out=0.01, feature_dim=8, feature_shift=3.0,
            seed=2000 + seed,
        )
        homophily.append(homophily_ratio(g))
        adj = normalize_adjacency(g, True)
        tes = compute_tes(adj, g.features, PropagationStrategy("power", 2))
        k = seed % 4
        candidates = np.flatnonzero((g.labels == k) & (g.split == TRAIN))
        selected = coverage_max_sample(
            g, candidates, hops=2, budget=3,
            rng=component_rng(seed, "acceptance-rehearsal"), universe=candidates,
        )
        reach = _reach(g, selected, [0, len(selected)], 2)
        ball = np.sort(reach.indices)
        covered = np.setdiff1d(ball[g.labels[ball] == k], selected)
        assert covered.size > 0

        params = init_mlp([8, 32, 4], component_rng(seed, "acceptance-rehearsal-init"))

        def class_probability(p):
            logits = mlp_forward(p, tes.values[covered])
            z = np.exp(logits - logits.max(axis=1, keepdims=True))
            return float((z[:, k] / z.sum(axis=1)).mean())

        before = class_probability(params)
        optimizer = make_optimizer("adam", 0.05)
        x, y = tes.values[selected], np.full(len(selected), k)
        for _ in range(40):
            _, grads = loss_and_grad(params, x, y)
            optimizer.step(params, grads)
        wins += class_probability(params) > before

    _report(
        "pseudo-training",
        wins >= 18 and min(homophily) >= 0.8,
        f"probability rose in {wins}/20 seeds, homophily >= {min(homophily):.2f}",
    )


# ---------------------------------------------------------------------------
# 10. the run command is byte-deterministic
# ---------------------------------------------------------------------------

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
seed = 3
classes_per_task = 2
epochs = 25
patience = 8
"""


def test_10_cli_run_is_byte_deterministic(tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text(RUN_INI)
    for name in ("first", "second"):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()

    csvs = ("accuracy_matrix.csv", "curves.csv", "buffer_stats.csv")
    same = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in csvs
    )
    _report(
        "run-determinism",
        same,
        "two identically seeded runs wrote byte-identical CSV outputs",
    )
