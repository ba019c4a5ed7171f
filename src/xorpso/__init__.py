"""Wrapper feature selection with XOR-based binary particle swarms.

The package splits into small layers: :mod:`xorpso.data` builds, loads,
splits, and standardizes datasets; :mod:`xorpso.classify` scores a feature
mask with a deterministic k-NN; :mod:`xorpso.rank` ranks features by mutual
information and seeds initial populations; :mod:`xorpso.swarm` holds the
XOR optimizer, the sigmoid baseline, the exhaustive oracle, and trace
serialization; :mod:`xorpso.cli` wires them into reproducible command-line
runs.
"""

from .classify import KnnConfig, knn_accuracy
from .data import (
    DatasetError,
    FeatureDataset,
    SplitDataset,
    SynthProvenance,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    provenance_path,
    save_dataset,
    standardize_split,
    stratified_split,
)
from .rank import (
    MiScores,
    discretize,
    mutual_information,
    score_features,
    seed_masks,
)
from .swarm import (
    ASYNCHRONOUS,
    SYNCHRONOUS,
    BaselineConfig,
    IterationRecord,
    PsoConfig,
    SwarmState,
    TraceWriter,
    brute_force_best,
    evaluate_particle,
    fitness,
    inertia_at,
    position_update,
    read_trace,
    run_baseline_bpso,
    run_seeded,
    run_xor_pso,
    selected_count,
    selected_indices,
    sigmoid,
    xor_velocity_update,
)

__version__ = "0.1.0"

__all__ = [
    "ASYNCHRONOUS",
    "SYNCHRONOUS",
    "BaselineConfig",
    "DatasetError",
    "FeatureDataset",
    "IterationRecord",
    "KnnConfig",
    "MiScores",
    "PsoConfig",
    "SplitDataset",
    "SwarmState",
    "SynthProvenance",
    "SynthSpec",
    "TraceWriter",
    "brute_force_best",
    "discretize",
    "evaluate_particle",
    "fitness",
    "generate_synthetic",
    "inertia_at",
    "knn_accuracy",
    "load_dataset",
    "mutual_information",
    "position_update",
    "provenance_path",
    "read_trace",
    "run_baseline_bpso",
    "run_seeded",
    "run_xor_pso",
    "save_dataset",
    "score_features",
    "seed_masks",
    "selected_count",
    "selected_indices",
    "sigmoid",
    "standardize_split",
    "stratified_split",
    "xor_velocity_update",
]
