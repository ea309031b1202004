"""fedmesh benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every simulation runs in a fresh process (child.py), one at a time, with the
BLAS thread pools held to the number of usable cores. With --trace 0 the
benchmark repeats untraced runs for about S seconds and prints the median of
every end-to-end metric. With --trace 1 it makes one untraced and one traced
run and prints the per-module split from the traced run's spans. Every run's
artifacts are checked; the last line of output is one JSON object with the
keys correct, attempted, failed and metrics. Metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from child import TARGETS
from tracer import self_times, subtree
from workloads import WORKLOADS, Workload, check_artifacts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_PROBES = 6  # extra set-up-only processes per timed run, for a steadier setup_s median
MIN_SAMPLES = 3
DEADLINE_S = 160  # every child is stopped by then, so one invocation ends within 180 s
SELF_SUM_TOLERANCE = 0.05
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    """One child process: its report, the output checks' problems and summary."""

    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(nproc()) for var in BLAS_THREAD_VARS})
    return env


def spawn(name: str, seed: int, out: Path, deadline: float, *flags: str) -> Sample:
    """Run child.py once and wait for it, killing it at `deadline` (monotonic).

    A non-zero exit or a timeout is recorded as a problem of the sample.
    """
    out.mkdir(parents=True)
    started = time.monotonic()
    timeout = max(deadline - started, 1.0)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed), "--out", str(out)]
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(started), *flags],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Sample(problems=[f"{out.name}: timed out after {timeout:.0f} s"])
    sample = Sample(wall_s=time.monotonic() - started)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        sample.problems.append(f"{out.name}: exit {proc.returncode}: {tail[0]}")
        return sample
    sample.result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    return sample


def run_sample(name: str, workload: Workload, seed: int, out: Path, deadline: float, trace: bool = False) -> Sample:
    sample = spawn(name, seed, out, deadline, *(["--trace"] if trace else []))
    if sample.ok:
        problems, sample.summary = check_artifacts(workload, out)
        sample.problems += [f"{out.name}: {p}" for p in problems]
    return sample


def check_digests(samples: list[Sample]) -> None:
    """Every run of one workload and seed must write byte-identical artifacts."""
    reference = next((s.summary["digest"] for s in samples if s.summary), None)
    for s in samples:
        if s.summary and s.summary["digest"] != reference:
            s.problems.append(f"artifact digest {s.summary['digest']} differs from {reference}")


def spread(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    if len(values) > 10:
        # nearest rank: the value at rank n - 10 has exactly ten samples above it
        out["tail"] = (math.floor(100 * (len(values) - 10) / len(values)), sorted(values)[len(values) - 11])
    return out


def timed_metrics(
    name: str, workload: Workload, seed: int, seconds: float, work: Path, deadline: float
) -> tuple[list[Sample], dict]:
    start = time.monotonic()
    probes = [spawn(name, seed, work / f"setup-{i}", deadline, "--setup-only") for i in range(SETUP_PROBES)]
    samples: list[Sample] = []
    while True:
        now = time.monotonic()
        if samples:
            typical = statistics.median(s.wall_s for s in samples)
            if now + typical > deadline or (len(samples) >= MIN_SAMPLES and now - start + typical > seconds):
                break
        samples.append(run_sample(name, workload, seed, work / f"run-{len(samples)}", deadline))
    check_digests(samples)

    # a run whose outputs fail a check still measured its time; it counts as failed
    measured = [s for s in samples if s.summary]
    if not measured:
        return probes + samples, {}
    values = {
        "setup_s": [s.result["setup_s"] for s in probes + measured if s.result],
        "sim_s": [s.result["sim_s"] for s in measured],
        "client_updates_per_s": [s.result["client_updates"] / s.result["sim_s"] for s in measured],
        "peak_rss_mb": [s.result["peak_rss_mb"] for s in measured],
        "final_test_loss": [s.summary["final_test_loss"] for s in measured],
        "final_test_accuracy": [s.summary["final_test_accuracy"] for s in measured],
    }
    return probes + samples, {k: spread(v) for k, v in values.items()}


def layer_metrics(traced: Sample, untraced: Sample) -> tuple[dict[str, float | None], list[str]]:
    """Per-module metrics from the traced run; None marks a metric whose target is absent."""
    trace = traced.result["trace"]
    spans, absent, counters = trace["spans"], set(trace["absent"]), trace["counters"]
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own

    def self_s(span_name: str) -> float | None:
        return None if span_name in absent else by_name[span_name]

    def ratio(num: float | None, den: float | None, scale: float = 1.0) -> float | None:
        if num is None or den is None:
            return None
        return num * scale / den if den else 0.0

    m: dict[str, float | None] = {f"{span_name}_s": self_s(span_name) for _, _, span_name in TARGETS}
    m["cli.write_artifacts_s"] = by_name["cli.write_artifacts"]
    m["orchestrator.self_s"] = by_name["orchestrator.run"]
    m.update((k, v) for k, v in counters.items() if k != "trainer.sample_epochs")
    encrypt_absent = "secagg.encrypt_update" in absent
    m["secagg.overflow_refusals"] = None if encrypt_absent else trace["overflow_refusals"]
    m["secagg.encrypt_ms_per_ct"] = ratio(m["secagg.encrypt_update_s"], m["secagg.ciphertexts"], 1000.0)
    m["trainer.sample_epochs_per_s"] = ratio(counters["trainer.sample_epochs"], m["trainer.train_local_s"])
    m["selection.selected_ratio"] = ratio(traced.summary["selected"], m["trainer.train_local_calls"])
    m["cli.events_bytes"] = traced.summary["events_bytes"]
    m["trace.sim_s"] = traced.result["sim_s"]
    m["trace.overhead_s"] = traced.result["sim_s"] - untraced.result["sim_s"]

    problems = []
    root = next(i for i, s in enumerate(spans) if s[0] == "sim" and s[3] is None)
    covered = sum(selfs[i] for i in subtree(spans, root))
    if abs(covered - traced.result["sim_s"]) > SELF_SUM_TOLERANCE * traced.result["sim_s"]:
        problems.append(f"self times sum to {covered:.4f} s, traced sim_s is {traced.result['sim_s']:.4f} s")
    return m, problems


def homomorphism_problems(workload: Workload, traced: Sample) -> list[str]:
    verdict = traced.result["trace"]["homomorphism"]
    if verdict.get("status") == "absent":
        return []
    if verdict["mismatches"]:
        return [f"{verdict['mismatches']} of {verdict['checked']} decrypted aggregates differ from the quantized sum"]
    if workload.secure and not verdict["checked"]:
        return ["secure workload released no aggregate to check"]
    return []


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedmesh" / "__init__.py").is_file():
        print(f"fedmesh sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    problems: list[str] = []
    if args.trace:
        samples = [
            run_sample(args.workload, workload, args.seed, work / "untraced", deadline),
            run_sample(args.workload, workload, args.seed, work / "traced", deadline, trace=True),
        ]
        check_digests(samples)
        untraced, traced = samples
        values: dict = {}
        if untraced.summary and traced.summary:
            values, found = layer_metrics(traced, untraced)
            problems += found + homomorphism_problems(workload, traced)
    else:
        samples, spreads = timed_metrics(args.workload, workload, args.seed, args.seconds, work, deadline)
        values = {k: v["median"] for k, v in spreads.items()}

    for s in samples:
        problems += s.problems
    failed = sum(1 for s in samples if not s.ok)
    if not values:
        print("no run completed; problems:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    if set(values) != set(declared):
        print(f"computed metrics {sorted(values)} do not match BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 2

    first = next(s for s in samples if s.summary)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "config_hash": first.result["config_hash"],
        "python": first.result["python"],
        "numpy": first.result["numpy"],
        "nproc": nproc(),
        "cpu": cpu_model(),
        "blas_threads": {var: child_env()[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }
    print("env", json.dumps(env, sort_keys=True))
    print("digest", " ".join(f"{k}={v}" for k, v in first.summary["digest"].items()))
    if args.trace:
        for name in declared:
            value = values[name]
            print(f"  {name:34} {'absent' if value is None else f'{value:.6g}'} {declared[name]}")
        timed = {k: v for k, v in values.items() if declared[k] == "s" and not k.startswith("trace.") and v}
        print("largest self time:", max(timed, key=timed.get) if timed else "none")
        print("homomorphism:", json.dumps(traced.result["trace"]["homomorphism"]))
    else:
        for name in declared:
            sp = spreads[name]
            tail = f"p{sp['tail'][0]}={sp['tail'][1]:.6g}" if sp["tail"] else "no tail percentile (n<=10)"
            print(f"  {name:22} median={sp['median']:.6g} {declared[name]}  {tail}  n={sp['n']}")
    for p in problems:
        print("problem:", p)

    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
