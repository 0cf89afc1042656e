from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temcgl.buffer import (
    SAMPLER_IDS,
    BudgetPolicy,
    MemoryBuffer,
    _reservoir_pass,
    load_buffer,
    sample_nearest_centroid,
    sample_uniform,
    save_buffer,
    select_entries,
    serialize_buffer,
)
from temcgl.graph import build_graph, normalize_adjacency
from temcgl.propagation import PropagationStrategy, TEMatrix, compute_tes

from helpers import (
    ConcatBuffer,
    oracle_nearest_centroid,
    oracle_reservoir_pass,
    random_edges,
    select_and_commit,
    star_edges,
    traced_peak,
)


def _toy_task(num_nodes: int = 12, seed: int = 0):
    rng = np.random.default_rng(seed)
    g = build_graph(
        num_nodes,
        random_edges(num_nodes, 0.3, rng),
        features=rng.standard_normal((num_nodes, 3)),
        labels=rng.integers(0, 3, size=num_nodes),
    )
    adj = normalize_adjacency(g, self_loops=True)
    tes = compute_tes(adj, g.features, PropagationStrategy("power", 2))
    return g, tes


# ---------------------------------------------------------------------------
# budget policy
# ---------------------------------------------------------------------------


def test_budget_policy_validation():
    with pytest.raises(ValueError):
        BudgetPolicy()
    with pytest.raises(ValueError):
        BudgetPolicy(count=5, fraction=0.1)
    with pytest.raises(ValueError):
        BudgetPolicy(count=-1)
    with pytest.raises(ValueError):
        BudgetPolicy(fraction=0.0)
    with pytest.raises(ValueError):
        BudgetPolicy(fraction=1.5)


@pytest.mark.parametrize("count", [2.5, 2.0, "2"])
def test_budget_policy_refuses_a_non_integer_count(count):
    with pytest.raises(ValueError, match="^count must be an integer"):
        BudgetPolicy(count=count)


def test_budget_policy_resolution():
    assert BudgetPolicy(count=5).resolve(100) == 5
    assert type(BudgetPolicy(count=np.int64(5)).resolve(100)) is int
    assert BudgetPolicy(fraction=0.01).resolve(240) == 2
    assert BudgetPolicy(fraction=0.004).resolve(100) == 1  # floors at one entry
    assert BudgetPolicy(fraction=1.0).resolve(7) == 7


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sample_uniform_contract():
    candidates = np.arange(10, 30)
    picks = sample_uniform(candidates, 5, np.random.default_rng(3))
    assert len(picks) == 5 and len(set(picks.tolist())) == 5
    assert set(picks.tolist()) <= set(candidates.tolist())
    again = sample_uniform(candidates, 5, np.random.default_rng(3))
    np.testing.assert_array_equal(picks, again)
    everyone = sample_uniform(candidates, 20, np.random.default_rng(0))
    assert sorted(everyone.tolist()) == candidates.tolist()
    with pytest.raises(ValueError):
        sample_uniform(candidates, 21, np.random.default_rng(0))


def test_nearest_centroid_single_class_ranking():
    tes = np.zeros((14, 1))
    tes[10], tes[11], tes[12], tes[13] = 0.0, 10.0, 1.0, 5.0
    labels = np.zeros(14, dtype=np.int64)
    candidates = np.array([10, 11, 12, 13])
    # centroid is 4.0; distance ranking: 13 (1), 12 (3), 10 (4), 11 (6)
    picks = sample_nearest_centroid(candidates, tes, labels, 2)
    assert picks.tolist() == [13, 12]


def test_nearest_centroid_tie_breaks_by_node_id():
    tes = np.ones((10, 2))
    labels = np.zeros(10, dtype=np.int64)
    picks = sample_nearest_centroid(np.array([5, 3, 9]), tes, labels, 2)
    assert picks.tolist() == [3, 5]


def test_nearest_centroid_round_robin_over_classes():
    tes = np.array([[0.0], [2.0], [10.0], [11.0], [99.0]])
    labels = np.array([0, 0, 1, 1, 2])
    candidates = np.array([0, 1, 2, 3])
    # class 0 centroid 1.0 -> ranks [0 (d=1), 1 (d=1, higher id)] ties by id;
    # class 1 centroid 10.5 -> ranks [2, 3] ties by id.
    picks = sample_nearest_centroid(candidates, tes, labels, 3)
    assert picks.tolist() == [0, 2, 1]


def test_nearest_centroid_handles_exhausted_classes():
    tes = np.arange(6, dtype=float).reshape(6, 1)
    labels = np.array([0, 1, 1, 1, 1, 1])
    picks = sample_nearest_centroid(np.arange(6), tes, labels, 4)
    assert picks[0] == 0  # class 0's only member leads round one
    assert len(picks) == 4 and len(set(picks.tolist())) == 4
    with pytest.raises(ValueError):
        sample_nearest_centroid(np.arange(6), tes, labels, 7)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 3), coarse=st.booleans())
def test_nearest_centroid_matches_the_round_robin_oracle(seed, dim, coarse):
    # Coarse embeddings sit on a 3-point grid, so many distances tie and the
    # node-id tie break decides; labels skip ids so classes are not 0..k.
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(1, 40))
    if coarse:
        tes = rng.integers(0, 3, size=(num_nodes, dim)).astype(float)
    else:
        tes = rng.standard_normal((num_nodes, dim))
    labels = 3 * rng.integers(0, int(rng.integers(1, 6)), size=num_nodes)
    candidates = rng.permutation(num_nodes)[: int(rng.integers(0, num_nodes + 1))]
    for n in range(len(candidates) + 1):
        got = sample_nearest_centroid(candidates, tes, labels, n)
        want = oracle_nearest_centroid(candidates, tes, labels, n)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# reservoir
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), num=st.integers(0, 60), extra=st.integers(-60, 3))
def test_reservoir_pass_matches_the_loop_oracle(seed, num, extra):
    # Small budgets make many candidates land on the same slot, so the last
    # write to a slot must win; the generator must end where the loop's does.
    n = max(0, num + extra)
    candidates = np.random.default_rng(seed).permutation(3 * num)[:num].astype(np.int64)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _reservoir_pass(candidates, n, rng)
    want = oracle_reservoir_pass(candidates, n, oracle_rng)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.integers(0, 2**40) == oracle_rng.integers(0, 2**40)


def test_reservoir_stream_is_uniform():
    g, tes = _toy_task(num_nodes=10)
    counts = np.zeros(10)
    for trial in range(2000):
        rng = np.random.default_rng(trial)
        for node in select_and_commit(MemoryBuffer(), "reservoir_stream", 2, g, tes, 0,
                                      np.arange(10), rng):
            counts[node] += 1
    freqs = counts / 2000
    np.testing.assert_allclose(freqs, 0.2, atol=0.04)


# ---------------------------------------------------------------------------
# select_entries and commit
# ---------------------------------------------------------------------------


def test_commit_uniform_records_entries():
    g, tes = _toy_task()
    buf = MemoryBuffer()
    candidates = np.arange(8)
    node_ids = np.arange(100, 112)  # pretend local ids map to these
    selected = select_and_commit(buf, "uniform", 4, g, tes, 0, candidates,
                                 np.random.default_rng(5), node_ids=node_ids)
    assert len(buf) == 4
    for i, local in enumerate(selected):
        np.testing.assert_array_equal(buf.te[i], tes.values[local])
        assert buf.label[i] == g.labels[local]
        assert buf.task_id[i] == 0
        assert buf.node_id[i] == node_ids[local]
    # stored rows are copies, not views
    tes.values[selected[0]] += 100.0
    assert buf.te[0, 0] != tes.values[selected[0]][0]


def test_commit_rejects_repeat_task():
    g, tes = _toy_task()
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", 2, g, tes, 3, np.arange(6), np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_and_commit(buf, "uniform", 2, g, tes, 3, np.arange(6), np.random.default_rng(1))
    assert buf.tasks_seen == {3}


def test_select_entries_all_samplers_run():
    for sampler in ("uniform", "centroid", "coverage_max", "reservoir_stream"):
        g, tes = _toy_task(seed=7)
        buf = MemoryBuffer()
        selected = select_and_commit(
            buf, sampler, 3, g, tes, 0, np.arange(g.num_nodes), np.random.default_rng(11), hops=1
        )
        assert len(selected) == 3 and len(buf) == 3
        assert buf.te.shape == (3, tes.dim)
        np.testing.assert_array_equal(buf.label, g.labels[selected])


def test_select_entries_budget_exceeds_candidates():
    g, tes = _toy_task()
    with pytest.raises(ValueError):
        select_entries("uniform", g, tes, np.arange(5), 50, np.random.default_rng(0), 2)


@pytest.mark.parametrize("sampler", SAMPLER_IDS)
def test_select_entries_refuses_a_negative_budget(sampler):
    g, tes = _toy_task()
    with pytest.raises(ValueError, match="^cannot draw n=-2 from 12 candidates$"):
        select_entries(sampler, g, tes, np.arange(12), -2, np.random.default_rng(0), 1)


def test_nearest_centroid_refuses_a_negative_budget():
    g, tes = _toy_task()
    with pytest.raises(ValueError, match="^cannot draw n=-2 from 12 candidates$"):
        sample_nearest_centroid(np.arange(12), tes.values, g.labels, -2)


@pytest.mark.parametrize("sampler", SAMPLER_IDS)
def test_select_entries_refuses_rows_that_do_not_match_the_graph(sampler):
    g, _ = _toy_task(num_nodes=5)
    tes = TEMatrix(np.zeros((10, 3)))
    with pytest.raises(ValueError, match="10 embedding rows for a graph of 5 nodes"):
        select_entries(sampler, g, tes, np.arange(10), 2, np.random.default_rng(0), 1)


def test_select_entries_refuses_an_unknown_sampler():
    g, tes = _toy_task()
    with pytest.raises(ValueError, match="unknown sampler 'nope'"):
        select_entries("nope", g, tes, np.arange(6), 2, np.random.default_rng(0), 2)


@pytest.mark.parametrize(
    "task_id, te, label, node_id, match",
    [
        (1, np.zeros(3), [0, 1, 2], [0, 1, 2], "2-D te"),
        (1, np.zeros((2, 3, 1)), [0, 1], [0, 1], "2-D te"),
        (1, np.zeros((2, 3)), [0, 1, 2], [0, 1], "one label and node id per row"),
        (1, np.zeros((2, 3)), [0, 1], [0], "one label and node id per row"),
        (0, np.zeros((2, 3)), [0, 1], [0, 1], "already committed"),
        (1, np.zeros((2, 4)), [0, 1], [0, 1], "disagree on embedding dim"),
    ],
)
def test_commit_refusals_leave_the_buffer_unchanged(task_id, te, label, node_id, match):
    buf = MemoryBuffer()
    buf.commit(0, np.arange(6.0).reshape(2, 3), [4, 5], [7, 8])
    columns = {name: getattr(buf, name).copy() for name in ("te", "label", "task_id", "node_id")}
    with pytest.raises(ValueError, match=match):
        buf.commit(task_id, te, label, node_id)
    assert buf.tasks_seen == {0}
    for name, want in columns.items():
        got = getattr(buf, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_buffer_accumulates_across_tasks():
    g, tes = _toy_task()
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", 2, g, tes, 0, np.arange(0, 6), np.random.default_rng(0))
    select_and_commit(buf, "uniform", 2, g, tes, 1, np.arange(6, 12), np.random.default_rng(1))
    assert len(buf) == 4
    assert buf.task_id.tolist() == [0, 0, 1, 1]
    assert set(buf.node_id[buf.task_id == 1].tolist()) <= set(range(6, 12))


# ---------------------------------------------------------------------------
# persistence and footprint
# ---------------------------------------------------------------------------


def test_buffer_checkpoint_round_trip(tmp_path):
    g, tes = _toy_task(seed=2)
    buf = MemoryBuffer()
    select_and_commit(buf, "coverage_max", 3, g, tes, 0, np.arange(g.num_nodes),
                      np.random.default_rng(1), hops=2)
    path = tmp_path / "buffer.bin"
    save_buffer(buf, path)
    back = load_buffer(path)
    assert len(back) == len(buf)
    assert back.tasks_seen == buf.tasks_seen
    for name in ("te", "label", "task_id", "node_id"):
        np.testing.assert_array_equal(getattr(back, name), getattr(buf, name))
        assert getattr(back, name).dtype == getattr(buf, name).dtype
    # serialize(load(save(x))) is byte-identical to serialize(x)
    resaved = tmp_path / "again.bin"
    save_buffer(back, resaved)
    assert path.read_bytes() == resaved.read_bytes()


def test_empty_buffer_round_trip(tmp_path):
    buf = MemoryBuffer()
    path = tmp_path / "empty.bin"
    save_buffer(buf, path)
    back = load_buffer(path)
    assert len(back) == 0 and back.tasks_seen == set()


def test_buffer_checkpoint_rejects_corruption(tmp_path):
    g, tes = _toy_task(seed=3)
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", 2, g, tes, 0, np.arange(6), np.random.default_rng(0))
    path = tmp_path / "buffer.bin"
    save_buffer(buf, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_buffer(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        load_buffer(trunc)
    huge_dim = bytearray(path.read_bytes())
    huge_dim[8:12] = (2**32 - 1).to_bytes(4, "little")
    bad.write_bytes(bytes(huge_dim))
    with pytest.raises(ValueError, match="size mismatch"):
        load_buffer(bad)
    # serialize_buffer writes an empty buffer with dim 0 and no other
    for dim in (5, 2**32 - 1):
        bad.write_bytes(struct.pack("<4sIIQ", b"TEMB", 1, dim, 0))
        with pytest.raises(ValueError, match=f"bad.bin: empty buffer file with embedding dim {dim}"):
            load_buffer(bad)


def test_footprint_is_exact_and_degree_free(tmp_path):
    g, tes = _toy_task(seed=4)
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", 4, g, tes, 0, np.arange(12), np.random.default_rng(0))
    path = tmp_path / "buffer.bin"
    save_buffer(buf, path)
    assert buf.footprint_bytes() == path.stat().st_size
    dim = tes.dim
    assert buf.footprint_bytes() == 20 + 4 * (16 + 8 * dim)
    assert len(serialize_buffer(buf)) == buf.footprint_bytes()


def test_footprint_counts_empty_and_rejects_mixed_dims():
    buf = MemoryBuffer()
    assert buf.footprint_bytes() == len(serialize_buffer(buf)) == 20
    g, tes = _toy_task(seed=5)
    select_and_commit(buf, "reservoir_stream", 2, g, tes, 0, np.arange(4),
                      np.random.default_rng(0))
    before = serialize_buffer(buf)
    wide = TEMatrix(np.zeros((g.num_nodes, tes.dim + 1)))
    # a row of another width is refused at commit time and leaves the buffer as it was
    with pytest.raises(ValueError, match="disagree on embedding dim"):
        select_and_commit(buf, "reservoir_stream", 2, g, wide, 1, np.arange(4, 8),
                          np.random.default_rng(0))
    assert serialize_buffer(buf) == before and buf.tasks_seen == {0}
    assert buf.footprint_bytes() == len(before)


def test_zero_count_commit_still_refuses_the_task():
    g, tes = _toy_task(seed=5)
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", 0, g, tes, 0, np.arange(4), np.random.default_rng(0))
    assert len(buf) == 0 and buf.tasks_seen == {0}
    with pytest.raises(ValueError, match="already committed"):
        select_and_commit(buf, "uniform", 0, g, tes, 0, np.arange(4), np.random.default_rng(0))
    # an empty buffer is written with embedding dim 0
    assert serialize_buffer(buf)[8:12] == (0).to_bytes(4, "little")


def test_serialize_rejects_ids_outside_int32(tmp_path):
    g, tes = _toy_task(seed=5)
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", 2, g, tes, 2**31, np.arange(4), np.random.default_rng(0))
    with pytest.raises(ValueError, match="task_id"):
        serialize_buffer(buf)
    with pytest.raises(ValueError, match="task_id"):
        save_buffer(buf, tmp_path / "buffer.bin")
    assert not (tmp_path / "buffer.bin").exists()  # refused before the file is opened
    buf.task_id[:] = -(2**31)  # the int32 minimum itself is fine
    assert len(serialize_buffer(buf)) == buf.footprint_bytes()
    buf.label[0] = -(2**31) - 1
    with pytest.raises(ValueError, match="label"):
        serialize_buffer(buf)


def _same_columns(buf: MemoryBuffer, oracle: ConcatBuffer) -> None:
    for name in ("te", "label", "task_id", "node_id"):
        got, want = getattr(buf, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    blob = oracle.file_bytes()
    assert serialize_buffer(buf) == blob and buf.footprint_bytes() == len(blob)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=6),
    lead=st.integers(0, 5),
)
def test_commits_match_a_concatenating_oracle(seed, counts, lead):
    # The same commits go to a buffer sized for all of them behind a `lead`
    # row leading block, as a run sizes it, and to one that grows per commit.
    # Between commits a batch is built in the leading block; it must match
    # the stacked rows and leave the entries alone.
    g, tes = _toy_task(seed=seed % 50)
    node_ids = np.arange(100, 100 + g.num_nodes)
    sized = MemoryBuffer()
    sized._reserve(sum(counts), lead, tes.dim)
    buffers = (sized, MemoryBuffer())
    oracle = ConcatBuffer()
    rng = np.random.default_rng(seed)
    for task_id, count in enumerate(counts):
        tes = TEMatrix(rng.standard_normal((g.num_nodes, tes.dim)))
        picks = []
        for buf in buffers:
            picks.append(select_and_commit(buf, "uniform", count, g, tes, task_id,
                                           np.arange(g.num_nodes),
                                           np.random.default_rng([seed, task_id]), node_ids))
        assert picks[0].tolist() == picks[1].tolist()
        oracle.commit(tes.values[picks[0]], g.labels[picks[0]], np.full(count, task_id),
                      node_ids[picks[0]])
        blocks = [rng.standard_normal((int(n), tes.dim)) for n in rng.integers(1, 8, size=2)]
        replayed = int(rng.integers(0, len(oracle.label) + 1))
        stacked = np.vstack(blocks + ([oracle.te[:replayed]] if replayed else []))
        for buf in buffers:
            np.testing.assert_array_equal(buf._batch(blocks, replayed), stacked)
            _same_columns(buf, oracle)
            if len(buf):
                wide = TEMatrix(np.zeros((g.num_nodes, tes.dim + 1)))
                with pytest.raises(ValueError, match="disagree on embedding dim"):
                    select_and_commit(buf, "uniform", count, g, wide, task_id + 100,
                                      np.arange(g.num_nodes), np.random.default_rng(0))
                assert buf.tasks_seen == set(range(task_id + 1))
                _same_columns(buf, oracle)


def test_buffer_files_are_written_and_read_in_chunks(tmp_path):
    # 3,000 rows of 256 doubles make a 6.19 MB file. Saving holds one chunk
    # of records, never the file; loading holds the buffer and one chunk.
    rng = np.random.default_rng(0)
    n = 3000
    g = build_graph(n, np.empty((0, 2)), labels=rng.integers(0, 9, size=n))
    buf = MemoryBuffer()
    select_and_commit(buf, "uniform", n, g, TEMatrix(rng.standard_normal((n, 256))), 0,
                      np.arange(n), rng)
    path = tmp_path / "buffer.bin"
    _, save_peak = traced_peak(lambda: save_buffer(buf, path))
    back, load_peak = traced_peak(lambda: load_buffer(path))
    size = path.stat().st_size
    assert size == buf.footprint_bytes() == 20 + n * (16 + 8 * 256)
    assert save_peak < 0.5 * size
    assert load_peak < 1.5 * size
    for name in ("te", "label", "task_id", "node_id"):
        np.testing.assert_array_equal(getattr(back, name), getattr(buf, name))
