"""fedmesh: deterministic simulator for hierarchical multi-edge federated
learning with score-based client selection, secure aggregation, and
sample-weighted global model updates."""

__version__ = "0.1.0"

from .aggregation import CrossEdgeConfig, EdgeUpdate, central_aggregate, cross_edge_exchange
from .data import DataConfig, Dataset, generate_synthetic, ingest_csv, partition_noniid, split
from .metrics import BinaryMetrics, RoundRecord, binary_metrics, jain_fairness
from .orchestrator import MODES, SimulationConfig, SimulationResult, run
from .params import ParamVector
from .secagg import (
    CipherVector,
    FixedPointCodec,
    SecAggConfig,
    aggregate_encrypted,
    encrypt_update,
    finalize_edge_update,
    keygen,
)
from .selection import (
    ClientEvaluation,
    ScoreWeights,
    SelectionConfig,
    consistency_check,
    estimate_metrics,
    grid_search_init,
    score,
    select_clients,
    update_weights,
)
from .trainer import AdversaryAssignment, ClientReports, TrainerConfig, build_report, train_clients, train_local

__all__ = [
    "AdversaryAssignment",
    "BinaryMetrics",
    "CipherVector",
    "ClientEvaluation",
    "ClientReports",
    "CrossEdgeConfig",
    "DataConfig",
    "Dataset",
    "EdgeUpdate",
    "FixedPointCodec",
    "MODES",
    "ParamVector",
    "RoundRecord",
    "ScoreWeights",
    "SecAggConfig",
    "SelectionConfig",
    "SimulationConfig",
    "SimulationResult",
    "TrainerConfig",
    "aggregate_encrypted",
    "binary_metrics",
    "build_report",
    "central_aggregate",
    "consistency_check",
    "cross_edge_exchange",
    "encrypt_update",
    "estimate_metrics",
    "finalize_edge_update",
    "generate_synthetic",
    "grid_search_init",
    "ingest_csv",
    "jain_fairness",
    "keygen",
    "partition_noniid",
    "run",
    "score",
    "select_clients",
    "split",
    "train_clients",
    "train_local",
    "update_weights",
]
