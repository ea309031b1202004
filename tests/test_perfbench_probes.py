"""The fedmesh functions that perfbench/child.py wraps or calls still exist, and each
wrapped function still has the parameters its hook reads.

perfbench wraps functions from outside and records a renamed target as absent
rather than failing, so without this check a rename would only show up as a
missing span in a benchmark run. child.py is read as source, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

CHILD = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text(encoding="utf-8"))

# span name -> the parameters its hook in child.py reads by name
HOOK_PARAMETERS = {
    "trainer.train_local": {"spec", "indices"},
    "secagg.encrypt_update": {"v", "codec", "public_key"},
    "secagg.aggregate_encrypted": {"updates", "weights"},
    "secagg.finalize_edge_update": {"agg", "private_key", "codec"},
    "orchestrator.evaluate": {"labels"},
    "aggregation.cross_edge_exchange": {"updates"},
}


def _targets():
    for node in CHILD.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no TARGETS")


TARGETS = _targets()


@pytest.mark.parametrize("module,attr,name", TARGETS, ids=[name for _, _, name in TARGETS])
def test_probe_target_exists(module, attr, name):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} is gone"
    missing = HOOK_PARAMETERS.get(name, set()) - set(inspect.signature(target).parameters)
    assert not missing, f"{module}.{attr} lost the parameters {sorted(missing)} that the {name} hook reads"


def test_every_hook_has_a_target():
    assert set(HOOK_PARAMETERS) <= {name for _, _, name in TARGETS}


def test_functions_child_calls_exist():
    # child.py imports `fedmesh` and `from fedmesh import cli, secagg`, then calls e.g. cli.make_dataset
    modules = {"fedmesh": "fedmesh", "cli": "fedmesh.cli", "secagg": "fedmesh.secagg"}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(CHILD)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("fedmesh", "run") in used and ("cli", "make_dataset") in used
    for alias, attr in sorted(used):
        assert callable(getattr(importlib.import_module(modules[alias]), attr, None)), f"{alias}.{attr} is gone"
