"""Tests of the benchmark itself: span arithmetic, wrapper restore, and the
output checks on shrunken copies of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import workloads
from tracer import Tracer, self_times, subtree

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ("root", 0.0, 10.0, None, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 3.0, 6.0, 0, "r"),  # overlaps a: together they cover 1..6
        ("a.inner", 2.0, 3.0, 1, "r"),
        ("late", 9.0, 12.0, 0, "r"),  # runs past its parent: only 9..10 counts
        ("other_root", 20.0, 21.5, None, "r"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.5])
    assert subtree(spans, 0) == [0, 1, 2, 3, 4]
    assert subtree(spans, 1) == [1, 3]


def test_self_times_of_a_nested_tree_sum_to_the_root_duration():
    tracer = Tracer("t")
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
    spans = tracer.spans()
    assert sum(self_times(spans)) == pytest.approx(spans[0][2] - spans[0][1], abs=1e-12)
    assert {s[4] for s in spans} == {"t"}


def test_absent_targets_are_reported_and_every_wrap_is_restored():
    modules = {m: importlib.import_module(m) for m, _, _ in child.TARGETS}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in child.TARGETS}
    tracer = Tracer("t")
    tracer.wrap("fedmesh.secagg", "renamed_away", "secagg.renamed_away")
    tracer.wrap("fedmesh.no_such_module", "f", "gone.f")
    child.install_probes(tracer, child.Counter(), child.HomomorphismCheck())
    assert tracer.absent == ["secagg.renamed_away", "gone.f"]
    assert all(getattr(modules[m], a) is not f for (m, a), f in originals.items())
    tracer.restore()
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())


def test_a_traced_run_restores_every_wrap_even_when_it_fails(tmp_path, monkeypatch):
    modules = {m: importlib.import_module(m) for m, _, _ in child.TARGETS}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in child.TARGETS}
    broken = copy.deepcopy(workloads.WORKLOADS["secure_edges"].config)
    broken["n_edges"] = 0  # rejected by config validation, after the wraps are installed
    monkeypatch.setitem(workloads.WORKLOADS, "secure_edges", workloads.Workload(broken, 0.0))
    with pytest.raises(Exception):
        child.main(["--workload", "secure_edges", "--seed", "1", "--out", str(tmp_path), "--spawned-at", "0", "--trace"])
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())


SHRUNK = {
    # full data, so that both liars' lies are large enough to be caught at seeds 1 and 2
    "secure_edges": {"secagg": {"key_bits": 256}},
    "secure_fedavg": {
        "clients_per_edge": 10,
        "rounds_max": 3,
        "patience": 3,
        "data": {"n_samples": 2000},
        "selection": {"capacity_k": 5},
        "secagg": {"key_bits": 256},
    },
    "plain_large": {"n_edges": 3, "clients_per_edge": 5, "rounds_max": 3, "patience": 3, "data": {"n_samples": 3000}},
}


def _shrunk(name: str) -> workloads.Workload:
    original = workloads.WORKLOADS[name]
    config = copy.deepcopy(original.config)
    for key, value in SHRUNK[name].items():
        config[key] = {**config.get(key, {}), **value} if isinstance(value, dict) else value
    return workloads.Workload(config, original.accuracy_floor)


def _child_run(name: str, seed: int, out: Path, trace: bool) -> run.Sample:
    argv = ["--workload", name, "--seed", str(seed), "--out", str(out), "--spawned-at", "0"]
    assert child.main(argv + (["--trace"] if trace else [])) == 0
    sample = run.Sample(result=json.loads((out / "result.json").read_text()))
    sample.problems, sample.summary = workloads.check_artifacts(workloads.WORKLOADS[name], out)
    return sample


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shrunken_workload_passes_every_output_check(name, seed, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, _shrunk(name))
    untraced = _child_run(name, seed, tmp_path / "untraced", trace=False)
    traced = _child_run(name, seed, tmp_path / "traced", trace=True)
    assert untraced.problems == [] and traced.problems == []
    run.check_digests([untraced, traced])
    assert untraced.ok and traced.ok

    metrics, problems = run.layer_metrics(traced, untraced)
    assert problems == []
    assert run.homomorphism_problems(workloads.WORKLOADS[name], traced) == []
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == declared
    assert all(v is not None for v in metrics.values())
    secure = workloads.WORKLOADS[name].secure
    assert (metrics["secagg.ciphertexts"] > 0) == secure
    assert traced.result["trace"]["homomorphism"]["checked"] > 0 if secure else True


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "secure_edges", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_needs_more_than_ten_samples():
    assert run.spread([3.0, 1.0, 2.0])["tail"] is None
    sp = run.spread([float(i) for i in range(1, 21)])
    assert sp["median"] == 10.5 and sp["n"] == 20
    assert sp["tail"] == (50, 10.0)  # ten samples (11..20) lie above it
