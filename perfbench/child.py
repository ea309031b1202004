"""One fedmesh simulation in a process of its own.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --spawned-at T [--trace] [--setup-only]

It builds the config, makes the dataset, runs `fedmesh.run`, writes
rounds.csv and events.jsonl with the CLI's writers into DIR, and writes
DIR/result.json with its timings. T is the parent's `time.monotonic()` just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux), so
`setup_s` covers interpreter start, `import fedmesh`, config validation and
dataset generation. With --setup-only it stops where `fedmesh.run` would be
entered. With --trace every fedmesh function of interest is wrapped in a span
and the homomorphic sums are checked against the plaintext quantized sums.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, config_dict  # noqa: E402

# (module, attribute, span name). The orchestrator looks some functions up
# in its own namespace, so those are wrapped there rather than at their source.
TARGETS = (
    ("fedmesh.secagg", "keygen", "secagg.keygen"),
    ("fedmesh.secagg", "encrypt_update", "secagg.encrypt_update"),
    ("fedmesh.secagg", "aggregate_encrypted", "secagg.aggregate_encrypted"),
    ("fedmesh.secagg", "finalize_edge_update", "secagg.finalize_edge_update"),
    ("fedmesh.trainer", "train_local", "trainer.train_local"),
    ("fedmesh.trainer", "build_report", "trainer.build_report"),
    ("fedmesh.orchestrator", "prepare_data", "orchestrator.prepare_data"),
    ("fedmesh.orchestrator", "split", "data.split"),
    ("fedmesh.orchestrator", "partition_noniid", "data.partition_noniid"),
    ("fedmesh.orchestrator", "evaluate", "orchestrator.evaluate"),
    ("fedmesh.orchestrator", "binary_metrics", "metrics.binary_metrics"),
    ("fedmesh.orchestrator", "cross_edge_exchange", "aggregation.cross_edge_exchange"),
    ("fedmesh.orchestrator", "central_aggregate", "aggregation.central_aggregate"),
    ("fedmesh.selection", "select_clients", "selection.select_clients"),
    ("fedmesh.selection", "grid_search_init", "selection.grid_search_init"),
    ("fedmesh.cli", "generate_synthetic", "data.generate_synthetic"),
)

# counters each span's hook feeds; they are reported absent with their span
COUNTERS = {
    "secagg.keygen": ("secagg.keygen_calls",),
    "secagg.encrypt_update": ("secagg.ciphertexts", "secagg.upload_bytes"),
    "secagg.finalize_edge_update": ("secagg.decrypted_ciphertexts",),
    "trainer.train_local": ("trainer.train_local_calls", "trainer.sample_epochs"),
    "orchestrator.evaluate": ("orchestrator.evaluate_rows",),
    "selection.select_clients": ("selection.flagged_clients",),
    "aggregation.cross_edge_exchange": ("aggregation.edge_upload_bytes",),
}


class HomomorphismCheck:
    """Follows each update from encryption to release, by object identity.

    Records the quantized plaintext of every encrypted vector, the exact
    (weighted) integer sum each ciphertext aggregate should decrypt to, and
    every aggregate handed to the release step. References to the cipher
    vectors are held so that their ids stay unique.
    """

    def __init__(self) -> None:
        self._quantized: dict[int, tuple[object, list[int]]] = {}
        self._expected: dict[int, tuple[object, list[int] | None]] = {}
        self._released: list[tuple[object, object, object, list[int] | None]] = []

    def encrypted(self, vector, codec, result) -> None:
        self._quantized[id(result)] = (result, [round(float(x) * codec.scale) for x in vector.values])

    def aggregated(self, updates, weights, result) -> None:
        sources = [self._quantized.get(id(u)) for u in updates]
        expected = None
        if all(sources):
            coeffs = [1] * len(updates) if weights is None else [int(w) for w in weights]
            columns = zip(*(q for _, q in sources))
            expected = [sum(c * v for c, v in zip(coeffs, column)) for column in columns]
        self._expected[id(result)] = (result, expected)

    def released(self, agg, private_key, codec) -> None:
        self._released.append((agg, private_key, codec, self._expected.get(id(agg), (None, None))[1]))

    def verify(self, decrypt_vector) -> dict:
        mismatches = 0
        for agg, private_key, codec, expected in self._released:
            decrypted = decrypt_vector(agg, private_key, codec)
            if expected is None or len(decrypted) != len(expected) or any(
                float(d) * codec.scale != e for d, e in zip(decrypted, expected)
            ):
                mismatches += 1
        return {"checked": len(self._released), "mismatches": mismatches}


def install_probes(tracer: Tracer, counters: Counter, homomorphism: HomomorphismCheck) -> None:
    def encrypt(a, result):
        counters["secagg.ciphertexts"] += result.dim
        counters["secagg.upload_bytes"] += result.dim * ((a["public_key"].n_sq.bit_length() + 7) // 8)
        homomorphism.encrypted(a["v"], a["codec"], result)

    def finalize(a, result):
        counters["secagg.decrypted_ciphertexts"] += a["agg"].dim
        homomorphism.released(a["agg"], a["private_key"], a["codec"])

    def train(a, result):
        counters["trainer.train_local_calls"] += 1
        counters["trainer.sample_epochs"] += len(a["indices"]) * a["spec"].local_epochs

    def select(a, result):
        _, evaluations = result
        counters["selection.flagged_clients"] += sum(1 for ev in evaluations if ev.flags)

    hooks = {
        "secagg.keygen": lambda a, r: counters.update(["secagg.keygen_calls"]),
        "secagg.encrypt_update": encrypt,
        "secagg.aggregate_encrypted": lambda a, r: homomorphism.aggregated(a["updates"], a["weights"], r),
        "secagg.finalize_edge_update": finalize,
        "trainer.train_local": train,
        "orchestrator.evaluate": lambda a, r: counters.update({"orchestrator.evaluate_rows": len(a["labels"])}),
        "selection.select_clients": select,
        "aggregation.cross_edge_exchange": lambda a, r: counters.update(
            {"aggregation.edge_upload_bytes": sum(u.local_model.values.nbytes for u in a["updates"])}
        ),
    }
    for module, attr, name in TARGETS:
        tracer.wrap(module, attr, name, hooks.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import numpy
    import fedmesh
    from fedmesh import cli, secagg

    tracer = Tracer(f"{args.workload}-{args.seed}") if args.trace else None
    counters: Counter = Counter()
    homomorphism = HomomorphismCheck()
    if tracer is not None:
        install_probes(tracer, counters, homomorphism)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        with span("setup"):
            config = cli.build_config(config_dict(workload, args.seed))
            dataset = cli.make_dataset(config)
        entered = time.monotonic()
        report = {
            "setup_s": entered - args.spawned_at,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "config_hash": cli.config_hash(config),
        }
        if not args.setup_only:
            args.out.mkdir(parents=True, exist_ok=True)
            with span("sim"):
                with span("orchestrator.run"):
                    result = fedmesh.run(config, dataset)
                with span("cli.write_artifacts"):
                    cli.write_rounds_csv(args.out / "rounds.csv", result.rounds, workload.edge_ids())
                    cli.write_events_jsonl(args.out / "events.jsonl", result.events)
            report["sim_s"] = time.monotonic() - entered
            report["client_updates"] = len(result.rounds) * config.n_clients
    finally:
        if tracer is not None:
            tracer.restore()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        absent = set(tracer.absent)
        report["trace"] = {
            "run_id": tracer.run_id,
            "spans": tracer.spans(),
            "absent": sorted(absent),
            "counters": {
                name: None if target in absent else counters[name]
                for target, names in COUNTERS.items()
                for name in names
            },
            "overflow_refusals": tracer.errors[("secagg.encrypt_update", "OverflowError")],
            "homomorphism": (
                {"status": "absent"}
                if absent & {"secagg.encrypt_update", "secagg.aggregate_encrypted", "secagg.finalize_edge_update"}
                else homomorphism.verify(secagg.decrypt_vector)
            ),
        }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
