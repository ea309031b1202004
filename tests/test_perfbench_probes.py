"""The fedmesh functions that perfbench/child.py wraps or calls still exist, each
wrapped function still has the parameters its hook reads, and a run still
calls each one where its hook expects.

perfbench wraps functions from outside and records a renamed target as absent
rather than failing, so without this check a rename would only show up as a
missing span in a benchmark run, and a call that bypasses a wrapped module
attribute only as a zero or a failed check in a traced one. child.py is read
as source, not imported.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import fedmesh
from fedmesh import cli, secagg

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


@pytest.mark.parametrize(
    "secure,cores,mode",
    [(True, 2, "fedselect_me"), (True, 1, "fedselect_me"), (False, 2, "fedselect_me"), (True, 2, "fedavg_single")],
    ids=["secure", "secure_one_core", "plaintext", "secure_fedavg_single"],
)
def test_every_probe_counts_the_runs_own_work(secure, cores, mode, monkeypatch):
    monkeypatch.setattr(secagg, "_usable_cores", lambda: cores)
    calls = Counter()
    for module, attr, name in TARGETS:
        owner = importlib.import_module(module)

        def counted(*args, _target=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _target(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    config = cli.build_config(
        {
            "n_edges": 2,
            "clients_per_edge": 3,
            "rounds_max": 2,
            "patience": 2,
            "seed": 3,
            "baseline_mode": mode,
            "data": {"n_samples": 400},
            "selection": {"capacity_k": 4},
            "secagg": {"enabled": secure, "key_bits": 256},
        }
    )
    result = fedmesh.run(config, cli.make_dataset(config))
    selections = [event for event in result.events if event.type == "selection"]
    assert len(result.rounds) == 2 and len(selections) == 2 * len(config.edge_clients)  # no early stop or failed edge
    selected = sum(len(event.selected) for event in selections)
    if mode == "fedavg_single":  # only the round's sample trains, 4 of the 6 clients
        assert calls["trainer.train_local"] == selected == 4 * len(result.rounds)
        assert calls["selection.select_clients"] == 0
    else:
        assert calls["trainer.train_local"] == config.n_clients * len(result.rounds)
        assert calls["selection.select_clients"] == len(selections)
    if secure:
        assert calls["secagg.encrypt_update"] == selected
        edge_rounds_with_updates = sum(1 for event in selections if event.selected)
        assert calls["secagg.aggregate_encrypted"] == edge_rounds_with_updates
        assert calls["secagg.finalize_edge_update"] == edge_rounds_with_updates
    # every probe fires, and none of the secure path's on a plaintext run; with two cores
    # each key is made in its own worker process, so keygen counts there, not here
    expected = {name for _, _, name in TARGETS if secure or not name.startswith("secagg.")}
    if mode == "fedavg_single":  # which scores no client
        expected -= {"selection.select_clients", "selection.grid_search_init"}
    if cores > 1:
        expected.discard("secagg.keygen")
    assert {name for name, count in calls.items() if count} == expected
