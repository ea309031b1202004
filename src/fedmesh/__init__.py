"""fedmesh: deterministic simulator for hierarchical multi-edge federated
learning with score-based client selection, secure aggregation, and
sample-weighted global model updates.

The package exports what builds and runs a simulation; each layer's
functions are reached at their module (`fedmesh.selection.select_clients`,
`fedmesh.secagg.encrypt_update`, ...)."""

__version__ = "0.1.0"

from .aggregation import CrossEdgeConfig
from .data import DataConfig, Dataset, generate_synthetic, ingest_csv
from .metrics import BinaryMetrics, RoundRecord
from .orchestrator import SimulationConfig, SimulationResult, run
from .secagg import SecAggConfig
from .selection import SelectionConfig
from .trainer import AdversaryAssignment, TrainerConfig

__all__ = [
    "AdversaryAssignment",
    "BinaryMetrics",
    "CrossEdgeConfig",
    "DataConfig",
    "Dataset",
    "RoundRecord",
    "SecAggConfig",
    "SelectionConfig",
    "SimulationConfig",
    "SimulationResult",
    "TrainerConfig",
    "generate_synthetic",
    "ingest_csv",
    "run",
]
