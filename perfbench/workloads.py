"""The benchmark's workloads (fedmesh configs of fixed shape) and the checks
every run's artifacts must pass.

Why each workload was chosen is stated in BENCHMARK.json; which layer metric
each one is expected to move is in README.md beside this file. `patience`
equals `rounds_max` everywhere, so no run stops early and every client trains
in every round.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    config: dict
    accuracy_floor: float

    @property
    def rounds(self) -> int:
        return self.config["rounds_max"]

    @property
    def secure(self) -> bool:
        return self.config.get("secagg", {}).get("enabled", True)

    @property
    def liars(self) -> dict[int, tuple[str, float]]:
        """Clients that misreport a metric: client id -> (kind, factor)."""
        return {
            a["client_id"]: (a["kind"], a["factor"])
            for a in self.config.get("adversaries", ())
            if a["kind"] in ("inflate_utility", "deflate_energy")
        }

    def edge_ids(self) -> list[int]:
        single = self.config.get("baseline_mode") == "fedavg_single"
        return [0] if single else list(range(self.config["n_edges"]))


WORKLOADS = {
    "secure_edges": Workload(
        config={
            "n_edges": 5,
            "clients_per_edge": 4,
            "rounds_max": 2,
            "patience": 2,
            "data": {"n_samples": 4000},
            "selection": {"consistency_threshold": 0.15},
            "adversaries": [
                {"client_id": 1, "kind": "inflate_utility", "factor": 3.0},
                {"client_id": 6, "kind": "deflate_energy", "factor": 3.0},
            ],
        },
        accuracy_floor=0.8,
    ),
    "secure_fedavg": Workload(
        config={
            "n_edges": 1,
            "clients_per_edge": 40,
            "rounds_max": 10,
            "patience": 10,
            "baseline_mode": "fedavg_single",
            "data": {"n_samples": 8000},
            "selection": {"capacity_k": 20},
            "secagg": {"key_bits": 512},
        },
        accuracy_floor=0.8,
    ),
    "plain_large": Workload(
        config={
            "n_edges": 10,
            "clients_per_edge": 20,
            "rounds_max": 20,
            "patience": 20,
            "data": {"n_samples": 100_000},
            "secagg": {"enabled": False},
            "adversaries": [{"client_id": 3, "kind": "noise_weights", "factor": 0.5}],
        },
        accuracy_floor=0.8,
    ),
}


def config_dict(workload: Workload, seed: int) -> dict:
    """The raw config for `fedmesh.cli.build_config`, with the benchmark seed."""
    raw = copy.deepcopy(workload.config)
    raw["seed"] = seed
    return raw


def check_artifacts(workload: Workload, out_dir: Path) -> tuple[list[str], dict]:
    """Check rounds.csv and events.jsonl of one run.

    Returns the problems found (empty when the run is correct) and a summary
    with the artifacts' sha256 digests, the final test loss and accuracy, the
    number of client updates selected for aggregation, the size of
    events.jsonl and how many metric-liar evaluations had to be flagged.
    """
    problems: list[str] = []
    rounds_path, events_path = out_dir / "rounds.csv", out_dir / "events.jsonl"
    summary = {
        "digest": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (rounds_path, events_path)}
    }

    with open(rounds_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if len(rows) != workload.rounds:
        problems.append(f"rounds.csv has {len(rows)} rows, expected {workload.rounds}")
    for row in rows:
        for column, cell in zip(header, row, strict=True):
            # per-edge cells are empty, by the documented format, when an edge has no result
            if cell == "" and column.startswith("edge"):
                continue
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"rounds.csv round {row[0]} {column}={cell!r} is not a finite number")
    if rows:
        last = dict(zip(header, rows[-1]))
        summary["final_test_loss"] = float(last["test_loss"])
        summary["final_test_accuracy"] = float(last["test_accuracy"])
        if not summary["final_test_accuracy"] > workload.accuracy_floor:
            problems.append(
                f"final test accuracy {summary['final_test_accuracy']} is not above {workload.accuracy_floor}"
            )

    selections = []
    with open(events_path, encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event["type"] == "selection":
                selections.append(event)
    summary["selected"] = sum(len(e["selected"]) for e in selections)
    summary["events_bytes"] = events_path.stat().st_size
    missed, summary["liar_rounds"] = _liar_rounds(workload, selections)
    problems += [f"client {c} lied detectably in round {r} but was not flagged inconsistent" for c, r in missed]
    return problems, summary


def _bounded(x: float) -> float:
    return x / (1.0 + x)


def _liar_rounds(workload: Workload, selections: list[dict]) -> tuple[list[tuple[int, int]], dict]:
    """Metric liars that the edge's bounded consistency check must have caught.

    The check flags a client when |r/(1+r) - h/(1+h)| exceeds the threshold,
    r being the reported and h the edge-estimated value. The benchmark knows
    each liar's factor, so from h in the event it recomputes the lie and
    requires a flag whenever that discrepancy exceeds the threshold. A lie
    that small values squeeze under the threshold (few samples, say) is not
    expected to be caught.
    """
    liars = workload.liars
    threshold = workload.config["selection"]["consistency_threshold"] if liars else 0.0
    missed, detectable, total = [], 0, 0
    for event in selections:
        for ev in event["evaluations"]:
            lie = liars.get(ev["client"])
            if lie is None:
                continue
            kind, factor = lie
            honest = ev["estimated_utility"] if kind == "inflate_utility" else ev["estimated_energy"]
            reported = honest * factor if kind == "inflate_utility" else honest / factor
            total += 1
            if abs(_bounded(reported) - _bounded(honest)) > threshold + 1e-9:
                detectable += 1
                if ev["client"] not in event["flagged_inconsistent"]:
                    missed.append((ev["client"], event["round"]))
    return missed, {"total": total, "detectable": detectable, "missed": len(missed)}
