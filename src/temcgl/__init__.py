"""Continual node classification with decoupled propagation and embedding replay.

The pipeline separates a parameter-free propagation pass - which turns each
node's receptive field into a single topology-aware embedding - from a small
trainable head that only ever sees those embeddings. Replaying a buffered
embedding is then provably equivalent to rehearsing its whole neighbourhood,
so the memory cost per node is one vector regardless of degree.

Modules: :mod:`temcgl.graph` (immutable CSR graphs, synthetic networks, text
IO), :mod:`temcgl.propagation` (embedding strategies), :mod:`temcgl.coverage`
(receptive-field coverage and the coverage-maximising sampler),
:mod:`temcgl.buffer` (the embedding memory), :mod:`temcgl.model` (MLP head,
its training loop, masked accuracy, optimisers, gradient-identity checks),
:mod:`temcgl.harness` (task sequences, metrics, runs, studies),
:mod:`temcgl.config` / :mod:`temcgl.cli` (experiment files and the ``temcgl``
command).
"""

from .buffer import BudgetPolicy, MemoryBuffer, load_buffer, save_buffer
from .coverage import coverage_max_sample, coverage_ratio, singleton_coverage_table
from .graph import (
    Graph,
    NormalizedAdjacency,
    build_graph,
    generate_sbm,
    homophily_ratio,
    induced_subgraph,
    load_graph_files,
    normalize_adjacency,
    save_graph_files,
)
from .harness import (
    AccuracyMatrix,
    RunConfig,
    RunResult,
    TaskSpec,
    build_task_sequence,
    run_continual,
    run_sample_study,
)
from .model import (
    MlpParams,
    init_mlp,
    load_model,
    loss_and_grad,
    masked_accuracy,
    mlp_forward,
    pseudo_gradient_check,
    save_model,
)
from .propagation import (
    PropagationStrategy,
    TEMatrix,
    compute_tes,
    propagation_row,
    receptive_field,
    subnetwork_te,
)
from .rng import component_rng

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix",
    "BudgetPolicy",
    "Graph",
    "MemoryBuffer",
    "MlpParams",
    "NormalizedAdjacency",
    "PropagationStrategy",
    "RunConfig",
    "RunResult",
    "TEMatrix",
    "TaskSpec",
    "__version__",
    "build_graph",
    "build_task_sequence",
    "component_rng",
    "compute_tes",
    "coverage_max_sample",
    "coverage_ratio",
    "generate_sbm",
    "homophily_ratio",
    "induced_subgraph",
    "init_mlp",
    "load_buffer",
    "load_graph_files",
    "load_model",
    "loss_and_grad",
    "masked_accuracy",
    "mlp_forward",
    "normalize_adjacency",
    "propagation_row",
    "pseudo_gradient_check",
    "receptive_field",
    "run_continual",
    "run_sample_study",
    "save_buffer",
    "save_graph_files",
    "save_model",
    "singleton_coverage_table",
    "subnetwork_te",
]
