"""Pinned outputs of the graph and coverage layers.

Each case hashes arrays produced by the package (dtype, shape and raw
bytes) and compares against a digest recorded from a known-good build. A
refactor of `build_graph`, `Graph` validation, `induced_subgraph`,
`normalize_adjacency`, `singleton_coverage_table` or the coverage sampler
must leave every digest unchanged; a change that alters a random stream or
the generated graphs on purpose re-records them and says why.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from temcgl.buffer import BudgetPolicy
from temcgl.coverage import singleton_coverage_table
from temcgl.graph import generate_sbm, induced_subgraph, normalize_adjacency
from temcgl.harness import RunConfig, run_continual
from temcgl.propagation import PropagationStrategy


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


_SBMS = {
    "four-equal": dict(block_sizes=(30, 30, 30, 30), p_in=0.2, p_out=0.02, seed=0),
    "uneven": dict(block_sizes=(50, 17, 64), p_in=0.1, p_out=0.01, seed=3),
    # sparse enough to leave isolated nodes
    "sparse": dict(block_sizes=(40, 40), p_in=0.02, p_out=0.001, seed=5),
}


def _sbm(name: str):
    return generate_sbm(feature_dim=4, feature_shift=2.0, **_SBMS[name])


def _golden_arrays() -> dict[str, tuple[np.ndarray, ...]]:
    out: dict[str, tuple[np.ndarray, ...]] = {}
    for name in _SBMS:
        g = _sbm(name)
        out[f"sbm/{name}"] = (g.indptr, g.indices)
        for loops in (True, False):
            adj = normalize_adjacency(g, loops)
            out[f"normalize/{name}/{loops}"] = (adj.indptr, adj.indices, adj.values, adj.degrees)

    g = _sbm("uneven")
    nodes = np.flatnonzero(np.arange(g.num_nodes) % 3 != 1)
    sub = induced_subgraph(g, nodes)
    out["induced/uneven"] = (sub.indptr, sub.indices, sub.features, sub.labels, sub.split)
    part = normalize_adjacency(g, True).restrict(nodes)
    out["restrict/uneven"] = (part.indptr, part.indices, part.values, part.degrees)

    universe = np.flatnonzero(g.labels != 1)
    candidates = np.arange(0, g.num_nodes, 2)
    for hops in (1, 2, 3):
        out[f"coverage/uneven/{hops}"] = (
            singleton_coverage_table(g, candidates, hops, universe=universe),
        )

    cfg = RunConfig(
        strategy=PropagationStrategy("power", 2),
        classes_per_task=2,
        sampler_id="coverage_max",
        budget=BudgetPolicy(fraction=0.2),
        hidden_dims=(8,),
        epochs=5,
        patience=5,
        seed=0,
    )
    result = run_continual(_sbm("four-equal"), cfg)
    out["coverage_max/run"] = (
        result.buffer.node_ids(),
        np.array([s.coverage for s in result.buffer_stats]),
    )
    return out


GOLDEN = {
    "sbm/four-equal": "531124158cf6953ce7750c10b54de9f4ef7afae7bde2f6f521957694142f3ae7",
    "normalize/four-equal/True": "bfe2fc879cac80ebe1741e0b06b60dd710984188de780d3d7a2c2368b78bc5cb",
    "normalize/four-equal/False": "94c9c84f6aedd072776edd77cb9778ed44d11976ecfbe96a7778902a765eaa05",
    "sbm/uneven": "f9fab897c279f0e6868834c756724ce6c68d4862db44932c7e12f9fea44f8904",
    "normalize/uneven/True": "349c95442b68cee26fad67ca54c56558803cfc391b30112647b63ae80789d3b0",
    "normalize/uneven/False": "efb6591b5c02641bb77bd56f5f3af51fc2b068a3097a70dd6f9a71709a24ac7c",
    "sbm/sparse": "75b3472fecce1f2aedc0a02c7a336842ed41265208d0439866408f87a8bfb054",
    "normalize/sparse/True": "6d67f6ea8849f307d95eeecf86c86adeeaf957ac6cd9c73bf60a68683e1a356e",
    "normalize/sparse/False": "9dddf6cd4d6a78ac5f0713eecb14d0e80efcceedad08b0593dfab1ca354325a1",
    "induced/uneven": "046bb3aa9a381f7659fb86d95bfd619f12089479dda6042de9e1d9829ca58238",
    "restrict/uneven": "284ea487b7942e3990033be27d69b63dd1366a0286018a32db29155d6082b1fa",
    "coverage/uneven/1": "f6634694acd3105ee8064038529eb78f816c71125b5a3a9182ec31d93c32f064",
    "coverage/uneven/2": "081dcdf90b487e10cab7ac35bc70cf51f829f3bd867731852fd41c64add63b05",
    "coverage/uneven/3": "0f6d6dadab924202c19a990deab7f5088a2d9f8a015f626dbca5dc9f5e695422",
    "coverage_max/run": "a7343d17e6ba6d6a3f22f9b6a53443ba219cc4d874a1e217516d363b1ac95d72",
}


@pytest.fixture(scope="module")
def produced() -> dict[str, str]:
    return {k: _digest(*v) for k, v in _golden_arrays().items()}


def test_golden_cases_are_all_pinned(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(produced, case):
    assert produced[case] == GOLDEN[case]
