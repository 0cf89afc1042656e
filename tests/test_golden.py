"""Pinned outputs of the graph and coverage layers and of whole runs.

Each case hashes arrays produced by the package (dtype, shape and raw
bytes) and compares against a digest recorded from a known-good build. A
refactor of `build_graph`, `Graph` validation, `induced_subgraph`,
`normalize_adjacency`, `singleton_coverage_table`, the samplers, the buffer
or the head must leave every digest unchanged; a change that alters a
random stream or the generated graphs on purpose re-records them and says
why.

The `run/...` cases cover every propagation variant under every sampler
(replay), finetune and joint, each with both inter-task edge policies. One
digest spans the accuracy matrix, the `serialize_buffer` bytes, every
checkpointed weight and bias, and the buffer statistics.

The `config/...` cases pin `config_hash`, the SHA-256 of the canonical text
`serialize_config` writes for a parsed config: every propagation variant,
both dataset kinds, each optional section absent and fully set, both budget
forms and both study seed forms, the README's quick-start config, and one
digest over the canonical texts of the whole grid of those sections.

The `study/...` cases pin the bytes of the files `temcgl sample-study`
writes for a two-sampler, two-fraction, three-seed study on a 100-node SBM.

The `buffer/...` cases pin `serialize_buffer` for a buffer several write
chunks long, built from four commits (one of zero rows), and the bytes
`save_buffer` writes for the `load_buffer` copy of its file.
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from temcgl.buffer import (
    SAMPLER_IDS,
    BudgetPolicy,
    MemoryBuffer,
    load_buffer,
    save_buffer,
    serialize_buffer,
)
from temcgl.cli import main
from temcgl.config import config_hash, parse_config, serialize_config
from temcgl.coverage import singleton_coverage_table
from temcgl.graph import build_graph, generate_sbm, induced_subgraph, normalize_adjacency
from temcgl.harness import EDGE_POLICIES, RunConfig, RunResult, run_continual
from temcgl.propagation import VARIANTS, PropagationStrategy, TEMatrix


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
    # block pairs of up to 90 000 cells, several times 2**16, so the edge
    # draw of one pair spans more than one band of a banded generator
    "banded": dict(block_sizes=(300, 257, 31), p_in=0.02, p_out=0.003, seed=11),
}


def _sbm(name: str):
    return generate_sbm(feature_dim=4, feature_shift=2.0, **_SBMS[name])


_RUN_STRATEGIES = {
    "power": PropagationStrategy("power", 2),
    "hop_average": PropagationStrategy("hop_average", 2, alpha=0.3),
    "lazy_power": PropagationStrategy("lazy_power", 2, alpha=0.3),
    "reservoir": PropagationStrategy("reservoir", 2, hidden_dim=6, seed=1),
}


def _run_arrays(result: RunResult) -> tuple[np.ndarray, ...]:
    stats = result.buffer_stats
    return (
        result.matrix.values,
        np.frombuffer(serialize_buffer(result.buffer), dtype=np.uint8),
        *(a for p in result.params_per_task for a in (*p.weights, *p.biases)),
        np.array([(s.task_id, s.entries, s.bytes) for s in stats], dtype=np.int64),
        np.array([s.coverage for s in stats]),
    )


def _whole_runs() -> dict[str, tuple[np.ndarray, ...]]:
    g = generate_sbm(
        block_sizes=(30,) * 6, p_in=0.15, p_out=0.02, feature_dim=4, feature_shift=2.0, seed=1
    )
    out: dict[str, tuple[np.ndarray, ...]] = {}
    for variant, strategy in _RUN_STRATEGIES.items():
        arms = [("replay", s) for s in SAMPLER_IDS] + [("finetune", None), ("joint", None)]
        for regime, sampler in arms:
            for edges in EDGE_POLICIES:
                cfg = RunConfig(
                    strategy=strategy,
                    regime=regime,
                    classes_per_task=2,
                    sampler_id=sampler or "coverage_max",
                    budget=BudgetPolicy(fraction=0.2),
                    inter_task_edges=edges,
                    hidden_dims=(8,),
                    epochs=6,
                    patience=3,
                    seed=1,
                )
                out[f"run/{variant}/{sampler or regime}/{edges}"] = _run_arrays(
                    run_continual(g, cfg)
                )
    return out


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
        result.buffer.node_id,
        np.array([s.coverage for s in result.buffer_stats]),
    )
    out.update(_whole_runs())
    return out


_DATASET_INI = {
    "sbm": """[dataset]
kind = sbm
block_sizes = 20, 20, 20
p_in = 0.3
p_out = 0.02
feature_dim = 6
feature_shift = 3.0
""",
    "sbm-seed": """[dataset]
kind = sbm
block_sizes = 12, 30
p_in = 0.25
p_out = 5e-2
feature_dim = 4
feature_shift = 1.5
seed = 9
""",
    "files": """[dataset]
kind = files
edges = data/edges.txt
features = data/features.txt
labels = data/labels.txt
split = data/split.txt
""",
}
_PROPAGATION_INI = {
    "power": "[propagation]\nvariant = power\nhops = 2\n",
    "hop_average": "[propagation]\nvariant = hop_average\nhops = 2\nalpha = 0.25\nself_loops = on\n",
    "lazy_power": "[propagation]\nvariant = lazy_power\nhops = 3\nalpha = 0.1\nself_loops = off\n",
    "reservoir-auto": (
        "[propagation]\nvariant = reservoir\nhops = 2\nhidden_dim = 12\nweight_scale = auto\nseed = 5\n"
    ),
    "reservoir-scale": "[propagation]\nvariant = reservoir\nhops = 1\nhidden_dim = 7\nweight_scale = 0.35\n",
}
_MODEL_INI = """[model]
hidden_dims = 32 , 16,
optimizer = sgd
lr = 1e-3
replay_lambda = .5
class_balance = No
"""
_BUFFER_INI = {
    "count": "[buffer]\nsampler = uniform\nbudget_count = 7\ncoverage_hops = 3\n",
    "fraction": "[buffer]\nsampler = centroid\nbudget_fraction = 0.25\n",
}
_RUN_INI = """[run]
seed = 4
scenario = task_il
regime = finetune
classes_per_task = 3
epochs = 40
patience = 6
inter_task_edges = drop_all
out = runs/golden
"""
_STUDY_INI = {
    "seeds": "[study]\nsamplers = uniform, coverage_max\nbudget_fractions = 0.05, 0.1\nseeds = 3, 1\n",
    "num_seeds": "[study]\nsamplers = centroid\nbudget_fractions = 0.2\nnum_seeds = 4\n",
}
# the quick-start config of README.md
_README_QUICK_START = """[dataset]
kind = sbm
block_sizes = 60, 60, 60, 60, 60, 60
p_in = 0.2
p_out = 0.01
feature_dim = 8
feature_shift = 4.0

[propagation]
variant = power
hops = 2

[model]
hidden_dims = 64
lr = 0.05

[buffer]
sampler = coverage_max
budget_fraction = 0.1

[run]
seed = 0
classes_per_task = 2
epochs = 100
patience = 100
"""
_CONFIG_CASES = {
    "power": ("sbm", "power"),
    "hop_average": ("sbm-seed", "hop_average", _MODEL_INI, "count", _RUN_INI),
    "lazy_power": ("sbm", "lazy_power", "fraction"),
    "reservoir-auto": ("sbm-seed", "reservoir-auto", _MODEL_INI),
    "reservoir-scale": ("files", "reservoir-scale", _RUN_INI),
    "files": ("files", "power"),
    "study-seeds": ("sbm", "power", "seeds"),
    "study-num_seeds": ("sbm-seed", "hop_average", "fraction", "num_seeds"),
}


def _config_text(*parts: str) -> str:
    """Join INI sections, each given as text or by its name in the tables above."""
    named = {**_DATASET_INI, **_PROPAGATION_INI, **_BUFFER_INI, **_STUDY_INI}
    return "\n".join(named.get(part, part) for part in parts)


def _config_digests() -> dict[str, str]:
    out = {
        f"config/{name}": config_hash(parse_config(_config_text(*parts)))
        for name, parts in _CONFIG_CASES.items()
    }
    out["config/readme-quick-start"] = config_hash(parse_config(_README_QUICK_START))
    grid = itertools.product(
        _DATASET_INI,
        _PROPAGATION_INI,
        ("", _MODEL_INI),
        ("", *_BUFFER_INI),
        ("", _RUN_INI),
        ("", *_STUDY_INI),
    )
    texts = [serialize_config(parse_config(_config_text(*parts))) for parts in grid]
    out["config/grid"] = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    return out


_STUDY_RUN_INI = """[dataset]
kind = sbm
block_sizes = 25, 25, 25, 25
p_in = 0.3
p_out = 0.02
feature_dim = 6
feature_shift = 3.0

[propagation]
variant = power
hops = 2

[model]
hidden_dims = 8

[run]
classes_per_task = 2
epochs = 15
patience = 5

[study]
samplers = uniform, coverage_max
budget_fractions = 0.05, 0.2
seeds = 0, 1, 2
"""


def _study_arrays(tmp) -> dict[str, tuple[np.ndarray, ...]]:
    config = tmp / "study.ini"
    config.write_text(_STUDY_RUN_INI, encoding="utf-8")
    assert main(["sample-study", "--config", str(config), "--out", str(tmp / "out")]) == 0
    return {
        f"study/{name}": (np.frombuffer((tmp / "out" / name).read_bytes(), dtype=np.uint8),)
        for name in ("study.csv", "study_runs.csv")
    }


def _chunked_buffer_arrays(tmp) -> dict[str, tuple[np.ndarray, ...]]:
    # 2,800 rows of 256 doubles: a 5.8 MB file, several write chunks long
    rng = np.random.default_rng(21)
    n = 1200
    g = build_graph(n, np.empty((0, 2)), labels=rng.integers(0, 7, size=n))
    buf = MemoryBuffer(None, sampler_id="uniform")
    for task_id, count in enumerate((1000, 0, 1100, 700)):
        buf.budget = BudgetPolicy(count=count)
        tes = TEMatrix(rng.standard_normal((n, 256)))
        buf.update_tem(g, tes, task_id, np.arange(n), rng, node_ids=np.arange(n) + 5000 * task_id)
    save_buffer(buf, tmp / "buffer.bin")
    save_buffer(load_buffer(tmp / "buffer.bin"), tmp / "again.bin")
    return {
        "buffer/chunked": (np.frombuffer(serialize_buffer(buf), dtype=np.uint8),),
        "buffer/chunked/resaved": (np.frombuffer((tmp / "again.bin").read_bytes(), np.uint8),),
    }


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
    "sbm/banded": "3e05cc927effadc0a113222c0b05b5c20451d57f44c5e37ff1b7d3d80a8908e8",
    "normalize/banded/True": "451b90ff75f88e3b8b656818adb52d57f15f0376e0a747339cb626d51d5d4bfb",
    "normalize/banded/False": "5e19353c6b452487ea98bf8dd957516a45c7730d0261177207f98842616d8d62",
    "induced/uneven": "046bb3aa9a381f7659fb86d95bfd619f12089479dda6042de9e1d9829ca58238",
    "restrict/uneven": "284ea487b7942e3990033be27d69b63dd1366a0286018a32db29155d6082b1fa",
    "coverage/uneven/1": "f6634694acd3105ee8064038529eb78f816c71125b5a3a9182ec31d93c32f064",
    "coverage/uneven/2": "081dcdf90b487e10cab7ac35bc70cf51f829f3bd867731852fd41c64add63b05",
    "coverage/uneven/3": "0f6d6dadab924202c19a990deab7f5088a2d9f8a015f626dbca5dc9f5e695422",
    "coverage_max/run": "a7343d17e6ba6d6a3f22f9b6a53443ba219cc4d874a1e217516d363b1ac95d72",
    "run/power/uniform/keep_seen": "1f528c9a6ef35f99b8c12c6dfbd8c71abcddd49fcb2660de80c5e5c5479dfb6f",
    "run/power/uniform/drop_all": "82749cb151106489f1af18323078ba3934fb7df89461d7cac7965e7ba1cafc9c",
    "run/power/centroid/keep_seen": "5a24f8de658956842e4ed708841625a4d8ecfc110ecce2d4715c7dedba442725",
    "run/power/centroid/drop_all": "63bda01e6c1990bce0f75e7f06b9a3f88350b626abbb70e53c0066b78a86df29",
    "run/power/coverage_max/keep_seen": "93f0b11c894f82aae8a8f43ca03a4f6a1022987acc50b99584c7daed55aebdcb",
    "run/power/coverage_max/drop_all": "5e11c84e62dac99dbbe5bd70939e57eb40548c56b034f5207a725af6142819fd",
    "run/power/reservoir_stream/keep_seen": "92dedd0d8366102ffcb27a6ed489738507375900a2f760ff3f26d88949b614b2",
    "run/power/reservoir_stream/drop_all": "7ca052f3a9767bc79c673e001a2ca501cf4d9baae49b93d8a4a51e7d27d77d60",
    "run/power/finetune/keep_seen": "916af8017dda16528ccb49f5a48b7ac5a419286c89651a6c7c684a5f1cc32d5e",
    "run/power/finetune/drop_all": "e15254ee39d13dd32b3a9ebb3de692334c9e727e4849eb3790601ccb930c4c75",
    "run/power/joint/keep_seen": "792614ec746fa31112ec8bc6a2c59afa32c2a2e9b12fea94f1aaa07482f6b765",
    "run/power/joint/drop_all": "ddb63e70e197de7a7d6794f429814a01c563a854d4b9e3c2e75457df3d7a2df0",
    "run/hop_average/uniform/keep_seen": "c5e363659e099f8bb13eb4daac45db37553ab0206b0d959527cf1c688fc6e1b1",
    "run/hop_average/uniform/drop_all": "ec13ad45ef648657ca0ba196fd94eeae0d7aedc004a8bb5a6193130fa7652baa",
    "run/hop_average/centroid/keep_seen": "473c867dcfc386c1e6bebf60586c00d2e8c70804e8784ef939efbf4b2f657efd",
    "run/hop_average/centroid/drop_all": "8bd7953c9af8e6fc2173fa296f6c1822d0af282e7443ba582e66abd8de31366a",
    "run/hop_average/coverage_max/keep_seen": "c2a0efb8181c00e8b2c13ff389f51cb8a4b987ac1a614a8c790021c67b6f6533",
    "run/hop_average/coverage_max/drop_all": "67b120f515fe4adb9d04a5dc9cae3a9d5238184435ce3b478f53bc2258d4bb21",
    "run/hop_average/reservoir_stream/keep_seen": "ea8690d2836d9685ee6b1a52278024443147aacb5a076361dde67b5b23d235da",
    "run/hop_average/reservoir_stream/drop_all": "9a0f22e37f765fa45a86609eea193f7b3ebf17371c18e5ffb310c50d260249ff",
    "run/hop_average/finetune/keep_seen": "1ef22ac788ebc34c309facdf27d60d3851511cbd397a2639b87e82ba53f39250",
    "run/hop_average/finetune/drop_all": "010a93d7a640ac5747ccecd2b7f22a66668cbfe611064a047193ae68f9e93975",
    "run/hop_average/joint/keep_seen": "a57460a959b0d0f561b7e8af18bbe2cb3c583576d78ce52059391cc8c60f79bd",
    "run/hop_average/joint/drop_all": "a336c1356d69fcf7978116a3fe2f9fdaffd30058b0e1a2ad52a92c542314bf62",
    "run/lazy_power/uniform/keep_seen": "ae18d603109e2fcad7207eb4e2bada832edf72937179148e431c3e645b621780",
    "run/lazy_power/uniform/drop_all": "b10b63057862b1ccfccc11c463956dca47956c86ac68630c6577f90b96b4551d",
    "run/lazy_power/centroid/keep_seen": "733812a1cabe27f42e0bc9db3c2735c3f0fbbdd75429fa0ca9680f0897acf95b",
    "run/lazy_power/centroid/drop_all": "fed104b354e1b347c0da4c9d63a92e128a21412d1fa77c2c53483f03ccc89006",
    "run/lazy_power/coverage_max/keep_seen": "d4c75a00a283942b781efcad92edf56ecdcd1be2f242fcac4bc32e311dbf0467",
    "run/lazy_power/coverage_max/drop_all": "bcb7aeef597d2e56e54e6b9d5fec298d2ab1b15d352eb81d4a79e9875f812bc0",
    "run/lazy_power/reservoir_stream/keep_seen": "663c20fc0a872a390dd244a63daf2093951cb710a65109330addf9b85312703b",
    "run/lazy_power/reservoir_stream/drop_all": "948c4e775db2708744f2fe0f8c5e4a8f2e286e456d98872a8e8e7408cd0b2529",
    "run/lazy_power/finetune/keep_seen": "0108c5f00c5adf25a8058a0141177dd85ae2da238be3a97e934f5740177689cf",
    "run/lazy_power/finetune/drop_all": "64cd9355d61dde9543883df6e47eac011e59a790b28f3170c7411dd0233dcf4a",
    "run/lazy_power/joint/keep_seen": "efd1edbef2dd51431d063a0b2294a547bfa3964f254f0b2e39e028794eb7418f",
    "run/lazy_power/joint/drop_all": "04cc54475d2acbe2f0a478ef70c89706a4306390b683616cd7b4e6db1456257e",
    "run/reservoir/uniform/keep_seen": "0f44ebda625f7dde75fc65a453b70336a6ba319ac85c60c935c192cefd0817cd",
    "run/reservoir/uniform/drop_all": "bb2806a4a64eb94d617882e6cde1597efa9141d9433d0969a79505c580e94bb0",
    "run/reservoir/centroid/keep_seen": "a15bf55f9db4b82cdd1917b63c026acb3378e439d4a1551a5ac9090d5ac89751",
    "run/reservoir/centroid/drop_all": "8ba6438de93de8efb57ad1134f271f09c349009fb0ea050034f45966a5d31fad",
    "run/reservoir/coverage_max/keep_seen": "3b51c8b5989e082a24817d90776e154bb6b5f2710b3a87cb672b2d8cb72bfe8b",
    "run/reservoir/coverage_max/drop_all": "d33c451e93ed3b7bd200f5280915493d24338784db00c9934a3c75520037a837",
    "run/reservoir/reservoir_stream/keep_seen": "415889a026d26cec9e072911dd6f8537a78aa44aacc9ec390b6e1be97d0a0a75",
    "run/reservoir/reservoir_stream/drop_all": "54c5b47b689166164a8055a927f38de96433784a680dc2f2e61b065129119a4a",
    "run/reservoir/finetune/keep_seen": "ab6fc9f60adf6ab39f8c62a2415eeb3a2996ee153e4f1f806e9e88c4177e9b42",
    "run/reservoir/finetune/drop_all": "11aadce32a736856a027286af09b087c32b60121fbd83bc1d5cf0e2423b4806a",
    "run/reservoir/joint/keep_seen": "87ae221d3270117b56d6508cb8ad1d21b3750ac626c1193456fc69a4ff9319dd",
    "run/reservoir/joint/drop_all": "dfd02394569e195f429e63407acd2377b38ba8c99696176936a39ad98bbcf5e0",
    "config/power": "bbfd6d4df58964e12cd83b0b66497e2c98973b56804aa11966591b8c1d454417",
    "config/hop_average": "21d5784e8aeed5ec2cbf1acf124b00649742ddbd26a6f271ba6583f2f01569b2",
    "config/lazy_power": "59c214e86c17ac81d923115b0e0965a2d61ea9fe54e5866d4de476c169ae62da",
    "config/reservoir-auto": "2b0d0d070d5b4243f736b12e69a16cb84ca35e946f5c6ee15f0d82dc1f7fed81",
    "config/reservoir-scale": "320e0d664e0df9a601313a6409484bc5a2e2e0d27150d95347b7fbb5b1363f14",
    "config/files": "30690bef4928f0463b3745e01ff172729548e8d025d2984edda6ee92446daa40",
    "config/study-seeds": "329b68afff6d8662ce35634dd9d1560b92a4c5c2b5fbf39ab5ea7aad8e4769b5",
    "config/study-num_seeds": "6a1a660f4203a6759abf2f4d0d63103b988bedee48e277d158e439d578c3b10d",
    "config/readme-quick-start": "81dee34dddabb25ce98c8c37f3dae680ef2e3041fe304e16e583a30fcf69444c",
    "config/grid": "3d386d0f906d4e9f56bcb515c80b43b25e2255826b569b3aa8eaf87e2ef66a3b",
    "study/study.csv": "6795f5314d5f1006b11523134ce6c0ec4c44fb748af1789607a6845e06025c89",
    "study/study_runs.csv": "292ed5f5007e20eb78f984db4f7a9a35328ba0dcf6cd72b996e63167d990a6a9",
    "buffer/chunked": "89144b2b69a01f87530aa8126033b8ee11aeed058a883af14e17aa4d46299a23",
    "buffer/chunked/resaved": "89144b2b69a01f87530aa8126033b8ee11aeed058a883af14e17aa4d46299a23",
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> dict[str, str]:
    arrays = {
        **_golden_arrays(),
        **_study_arrays(tmp_path_factory.mktemp("study")),
        **_chunked_buffer_arrays(tmp_path_factory.mktemp("buffer")),
    }
    return {**{k: _digest(*v) for k, v in arrays.items()}, **_config_digests()}


def test_golden_cases_are_all_pinned(produced):
    assert sorted(produced) == sorted(GOLDEN)
    assert sorted(_RUN_STRATEGIES) == sorted(VARIANTS)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(produced, case):
    assert produced[case] == GOLDEN[case]
