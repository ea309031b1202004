import importlib
import re
from pathlib import Path

import fedmesh

PUBLIC_API = [
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


def test_public_api_is_pinned():
    # growing or shrinking the public surface must be a deliberate edit here
    assert sorted(fedmesh.__all__) == PUBLIC_API
    assert len(set(fedmesh.__all__)) == len(fedmesh.__all__)
    for name in PUBLIC_API:
        assert getattr(fedmesh, name) is not None


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fedmesh import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fedmesh.__all__)


def test_readme_module_paths_resolve():
    # each backticked `fedmesh.<module>.<name>` in README names something that exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paths = set(re.findall(r"`fedmesh\.(\w+)((?:\.\w+)*)", readme))
    assert ("secagg", ".encrypt_update") in paths and ("selection", ".select_clients") in paths
    for module, names in sorted(paths):
        target = importlib.import_module(f"fedmesh.{module}")
        for name in names.split(".")[1:]:
            target = getattr(target, name)
