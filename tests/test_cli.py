import collections.abc
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh import (
    AdversaryAssignment,
    CrossEdgeConfig,
    DataConfig,
    SecAggConfig,
    SelectionConfig,
    SimulationConfig,
    TrainerConfig,
)
from fedmesh.cli import (
    ConfigError,
    apply_overrides,
    build_config,
    cmd_compare,
    cmd_plot,
    cmd_run,
    config_hash,
    load_config_dict,
    main,
    write_rounds_csv,
)
from fedmesh.orchestrator import MODES, EdgeFailureEvent, SelectionEvent
from fedmesh.selection import ClientEvaluation

BEYOND_FLOAT = "1" + "0" * 400  # an integer that no float can hold

GOLDEN_HEADER = (
    "round,val_loss,val_accuracy,test_loss,test_accuracy,test_f1_macro,"
    "test_f1_weighted,test_auroc,jfi,edge0_accuracy,edge0_loss,edge1_accuracy,edge1_loss"
)
COMPARE_HEADER = (
    "mode,rounds,val_loss,val_accuracy,test_loss,test_accuracy,test_f1_macro,"
    "test_f1_weighted,test_auroc,jfi,delta_test_accuracy_vs_first"
)


@pytest.fixture
def config_file(tmp_path):
    config = {
        "n_edges": 2,
        "clients_per_edge": 2,
        "rounds_max": 2,
        "patience": 10,
        "seed": 5,
        "data": {"n_samples": 400},
        "secagg": {"enabled": False, "noise_multiplier": 0.0, "clip_val": None},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestConfigLoading:
    def test_minimal_config_builds(self, config_file):
        raw = json.loads(Path(config_file).read_text())
        config = build_config(raw)
        assert config.n_edges == 2
        assert config.patience == 10

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="patiance"):
            build_config({"patiance": 3})
        with pytest.raises(ConfigError, match="selection.capacity"):
            build_config({"selection": {"capacity": 5}})

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="patience"):
            build_config({"patience": -1})

    def test_dotted_overrides(self):
        raw = apply_overrides({"selection": {"capacity_k": 50}}, ["selection.capacity_k=10", "rounds_max=7"])
        assert raw["selection"]["capacity_k"] == 10
        assert raw["rounds_max"] == 7
        config = build_config(raw)
        assert config.selection.capacity_k == 10

    def test_override_string_values(self):
        raw = apply_overrides({}, ["baseline_mode=no_selection"])
        assert raw["baseline_mode"] == "no_selection"

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["justakey"])

    def test_adversary_and_failure_parsing(self):
        config = build_config(
            {
                "n_edges": 2,
                "clients_per_edge": 5,
                "adversaries": [{"client_id": 1, "kind": "inflate_utility", "factor": 5.0}],
                "edge_failures": [[1, 2]],
                "security_overrides": {"3": 0.9},
            }
        )
        assert config.adversaries[0].client_id == 1
        assert config.edge_failures == ((1, 2),)
        assert config.security_overrides[3] == 0.9

    def test_config_hash_stability(self, config_file):
        raw = json.loads(Path(config_file).read_text())
        assert config_hash(build_config(raw)) == config_hash(build_config(dict(raw)))
        bumped = apply_overrides(raw, ["seed=6"])
        assert config_hash(build_config(raw)) != config_hash(build_config(bumped))


class TestCmdRun:
    def test_smoke_artifacts(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(config_file, str(out)) == 0
        assert (out / "rounds.csv").exists()
        assert (out / "events.jsonl").exists()
        assert (out / "manifest.json").exists()

    def test_golden_csv_header(self, config_file, tmp_path):
        out = tmp_path / "out"
        cmd_run(config_file, str(out))
        header = (out / "rounds.csv").read_text().splitlines()[0]
        assert header == GOLDEN_HEADER

    def test_batch_size_beyond_int64_runs(self, config_file, tmp_path):
        # every batch above the largest shard is that shard whole: 2**63 writes the rounds of 2**63 - 1
        for batch_size in (2**63 - 1, 2**63):
            argv = ["run", "--config", config_file, "--out", str(tmp_path / str(batch_size))]
            assert main([*argv, "--set", f"trainer.batch_size={batch_size}"]) == 0
        assert (tmp_path / str(2**63) / "rounds.csv").read_bytes() == (tmp_path / str(2**63 - 1) / "rounds.csv").read_bytes()

    def test_invalid_config_exits_2(self, config_file, tmp_path, capsys):
        code = cmd_run(config_file, str(tmp_path / "o"), overrides=["patience=-1"])
        assert code == 2
        assert "patience" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert cmd_run(str(tmp_path / "nope.json"), str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("content, message", [(None, "cannot read"), (b'{"seed": "\xff"}', "not UTF-8 text")])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert cmd_run(str(path), str(tmp_path / "o")) == 2
        assert cmd_compare(str(path), ["fedselect_me", "no_selection"], str(tmp_path / "c")) == 2
        assert capsys.readouterr().err.count(f"config error: {path}: {message}") == 2

    @pytest.mark.parametrize(
        "env_seed, overrides, field",
        [
            ("abc", [], "FEDMESH_SEED"),
            (None, ['edge_failures=[["a", 1]]'], "edge_failures[0]"),
            (None, ['secagg.mechanism="uniform"'], "secagg.mechanism"),
            (None, ["edge_failures=[[1.7, 2.9]]"], "edge_failures[0]"),
            (None, ["edge_failures=[[true, 1]]"], "edge_failures[0]"),
            (None, ['security_overrides={"3": true}'], "security_overrides[3]"),
            (None, ['security_overrides={"1.5": 0.9}'], "security_overrides['1.5']"),
            (None, ["security_overrides=[0.9]"], "security_overrides"),
            (None, ["edge_failures=5"], "edge_failures"),
            (None, ["adversaries=5"], "adversaries"),
            (None, ["n_edges=2.5"], "n_edges"),
            (None, ['seed="7"'], "seed"),
            (None, ["rounds_max=true"], "rounds_max"),
            (None, ["min_delta=false"], "min_delta"),
            (None, ["baseline_mode=1"], "baseline_mode"),
            (None, ["data.n_samples=2.5"], "data.n_samples"),
            (None, ["trainer.batch_size=true"], "trainer.batch_size"),
            (None, ["selection.capacity_k=2.5"], "selection.capacity_k"),
            (None, ["min_delta=NaN"], "min_delta"),
            (None, ["decision_threshold=NaN"], "decision_threshold"),
            (None, ["trainer.learning_rate=NaN"], "trainer.learning_rate"),
            (None, ["trainer.learning_rate=Infinity"], "trainer.learning_rate"),
            (None, ["trainer.batch_size=0"], "trainer: "),
            (None, ["data.train_fraction=0.95", "data.val_fraction=-0.1"], "fractions"),
            (None, ['security_overrides={"3": 0.9, "03": 0.1}'], "security_overrides['03']"),
            (None, ["selection.energy_alpha=0.01"], "selection.energy_alpha: unknown field"),
            (None, ["data.n_samples=50"], "data: n_samples"),
            (None, ["data.n_features=0"], "data: n_features"),
            (None, ["data.class_imbalance=1.5"], "data: class_imbalance"),
            (None, ["data.dirichlet_alpha=0"], "data: dirichlet_alpha"),
            (None, ["data.label_noise=-1"], "data: label_noise"),
            (None, ["trainer.energy_alpha=-1"], "trainer: energy_alpha"),
            (None, ["trainer.energy_beta=-1"], "trainer: energy_beta"),
            (None, ["data.csv_path=rows.csv"], "data: label_column"),
            (None, ["data.edge_test_fraction=2"], "data: edge_test_fraction"),
            (None, ["data.edge_test_fraction=-1"], "data: edge_test_fraction"),
            (None, ["data.csv_path=TMP/missing.csv", "data.label_column=y"], "data.csv_path: [Errno 2]"),
            (None, ["data.csv_path=TMP/rows.csv", "data.label_column=y"], "data.csv_path: label column 'y' not found"),
            (None, ["data.csv_path=TMP/twice.csv", "data.label_column=y"], "data.csv_path: column 'a' is given twice"),
            (
                None,
                [
                    'adversaries=[{"client_id": 1, "kind": "inflate_utility", "factor": 3.0},'
                    ' {"client_id": 1, "kind": "deflate_energy", "factor": 3.0}]'
                ],
                "config error: adversaries: client_id 1 is given twice",
            ),
            (None, ["aggregation.literal_total_normalization=true"], "aggregation.literal_total_normalization"),
            (None, ["aggregation.delta_mode=true"], "aggregation.delta_mode"),
            ("1_0", [], "FEDMESH_SEED: expected an integer, got '1_0'"),
            ("\u0663", [], "FEDMESH_SEED: expected an integer, got '\u0663'"),
            ("+4", [], "FEDMESH_SEED: expected an integer, got '+4'"),
            ("1e3", [], "FEDMESH_SEED: expected an integer, got '1e3'"),
            ("true", [], "FEDMESH_SEED: expected an integer, got 'true'"),
            # an integer beyond the float range is not a float
            (None, [f"data.label_noise={BEYOND_FLOAT}"], "data.label_noise: expected finite float"),
            (None, [f"decision_threshold={BEYOND_FLOAT}"], "decision_threshold: expected finite float"),
            (None, [f"min_delta={BEYOND_FLOAT}"], "min_delta: expected finite float"),
            (None, [f"secagg.clip_val={BEYOND_FLOAT}"], "secagg.clip_val: expected finite float | None, got"),
            (None, [f"aggregation.clip_val={BEYOND_FLOAT}"], "aggregation.clip_val: expected finite float"),
            (None, [f"data.dirichlet_alpha={BEYOND_FLOAT}"], "data.dirichlet_alpha: expected finite float"),
            (None, [f"trainer.energy_alpha={BEYOND_FLOAT}"], "trainer.energy_alpha: expected finite float"),
            (None, [f"data.unknown_shift=-{BEYOND_FLOAT}"], "data.unknown_shift: expected finite float"),
            # a zero fraction can never give its split a row
            (None, ["data.train_fraction=0.85", "data.val_fraction=0"], "fractions must be positive"),
            (None, ["data.val_fraction=0.3", "data.test_fraction=0"], "fractions must be positive"),
            (None, ["data.train_fraction=0", "data.val_fraction=0.85"], "fractions must be positive"),
            # 1 / 1e12 is within the divisibility tolerance of 0 lattice steps
            (None, ["selection.grid_step=1e12"], "selection: grid_step must evenly divide 1"),
            # 0 would stop at the first round without improvement, as 1 does
            (None, ["patience=0"], "config error: patience: must be >= 1\n"),
            (None, ["edge_failures=[[1]]"], "config error: edge_failures[0]: expected 2 entries, got 1\n"),
            # a float in a union must be finite too, and a section's range message names the bare field
            (None, ["secagg.clip_val=Infinity"], "config error: secagg.clip_val: expected finite float | None, got inf\n"),
            (None, ["secagg.key_bits=8"], "config error: secagg: key_bits too small\n"),
            (None, ["secagg.noise_multiplier=-1.0"], "config error: secagg: noise_multiplier must be nonnegative\n"),
        ],
    )
    def test_bad_input_is_a_config_error(self, config_file, tmp_path, monkeypatch, capsys, env_seed, overrides, field):
        if env_seed is not None:
            monkeypatch.setenv("FEDMESH_SEED", env_seed)
        (tmp_path / "rows.csv").write_text("a,b\n1.0,0\n")  # a readable table without column y
        (tmp_path / "twice.csv").write_text("a,a,y\n1.0,2.0,0\n")
        overrides = [item.replace("TMP", str(tmp_path)) for item in overrides]
        assert cmd_run(config_file, str(tmp_path / "o"), overrides=overrides) == 2
        assert cmd_compare(config_file, ["fedselect_me", "no_selection"], str(tmp_path / "c"), overrides) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2
        assert field in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()  # nothing ran

    def test_rounds_override_limits_rows(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(config_file, str(out), overrides=["rounds_max=1"]) == 0
        lines = (out / "rounds.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one data row

    def test_env_seed_override(self, config_file, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("FEDMESH_SEED", "123")
        cmd_run(config_file, str(out_a))
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 123
        monkeypatch.delenv("FEDMESH_SEED")
        cmd_run(config_file, str(out_b))
        assert json.loads((out_b / "manifest.json").read_text())["seed"] == 5

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cmd_run(config_file, str(out_a)) == 0
        assert cmd_run(config_file, str(out_b)) == 0
        assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
        assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()

    def test_manifest_reconstructs_run(self, config_file, tmp_path):
        out = tmp_path / "out"
        cmd_run(config_file, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        rebuilt_config = tmp_path / "rebuilt.json"
        cfg = manifest["config"]
        # manifest stores the fully resolved config; replaying it must reproduce the run
        rebuilt_config.write_text(json.dumps(cfg))
        out2 = tmp_path / "out2"
        assert cmd_run(str(rebuilt_config), str(out2)) == 0
        assert (out / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()

    def test_overflowing_selection_metric_names_round_and_client(self, config_file, tmp_path, capsys):
        # each client's utility is finite, near 1.8e308, but client 1's takes the edge's total past the float range
        message = (
            "run failed: round 1, client 1: estimated utility 1.7891596921132418e+308 makes the edge's total"
            " estimated utility overflow (trainer.learning_rate=1e+308)"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert cmd_run(config_file, str(tmp_path / "o"), ["trainer.learning_rate=1e308"]) == 1
        assert capsys.readouterr().err.strip() == message
        # the same without assertions: no check in the path may be an assert
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-W", "ignore", "-m", "fedmesh.cli", "run", "--config", config_file,
             "--out", str(tmp_path / "o2"), "--set", "trainer.learning_rate=1e308"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert (proc.returncode, proc.stderr.strip()) == (1, message)

    def test_refused_update_names_round_edge_and_client(self, config_file, tmp_path, capsys):
        errors = []
        for secure in ("false", "true"):
            overrides = ["trainer.learning_rate=1e300", f"secagg.enabled={secure}", "secagg.key_bits=256"]
            with np.errstate(over="ignore", invalid="ignore"):
                assert cmd_run(config_file, str(tmp_path / secure), overrides) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("run failed: round 1, edge 0, client 0: element 0 (")
        assert "-bit slot headroom for" in errors[0]
        assert errors[1] == errors[0]  # encrypted and plaintext sums refuse the same element

    @pytest.mark.parametrize(
        "command,learning_rate,failure",
        [("run", "1e300", "run failed: round 1, edge 0"), ("compare", "1e308", "compare failed: round 1, client 1")],
    )
    def test_failure_line_precedes_numpy_warnings(self, config_file, tmp_path, command, learning_rate, failure):
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = [sys.executable, "-m", "fedmesh.cli", command, "--config", config_file, "--out", str(tmp_path / "o")]
        if command == "compare":
            argv += ["--modes", "fedselect_me,no_selection"]
        proc = subprocess.run(
            argv + ["--set", f"trainer.learning_rate={learning_rate}"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        first, *rest = proc.stderr.splitlines()
        assert proc.returncode == 1
        assert first.startswith(failure)
        assert any("RuntimeWarning: overflow" in line for line in rest)  # held back, not dropped

    def test_successful_run_stderr_unchanged(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = ["a,b,c,y"] + [f"{x[0]},{x[1]},{x[2]},{int(x[0] > 0)}" for x in rng.normal(size=(300, 3))]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows[:5] + ["1.0,,2.0,1"] + rows[5:]) + "\n")
        config = {
            "n_edges": 2, "clients_per_edge": 2, "rounds_max": 1, "patience": 1, "seed": 5,
            "data": {"csv_path": str(data), "label_column": "y"}, "secagg": {"enabled": False},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cmd_run(str(path), str(tmp_path / "o")) == 0
        captured = capsys.readouterr()
        assert captured.err == f"dropped 1 incomplete rows from {data}\n"
        assert captured.out.startswith("completed 1 rounds")

    def test_main_entrypoint(self, config_file, tmp_path):
        assert main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--set", "rounds_max=1"]) == 0


class TestCmdCompare:
    def test_two_modes(self, config_file, tmp_path):
        out = tmp_path / "cmp"
        code = cmd_compare(config_file, ["fedselect_me", "no_selection"], str(out))
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == COMPARE_HEADER
        header = lines[0].split(",")
        for line, mode in zip(lines[1:], ["fedselect_me", "no_selection"]):
            row = dict(zip(header, line.split(",")))
            rounds_header, *round_rows = [r.split(",") for r in (out / mode / "rounds.csv").read_text().splitlines()]
            last = dict(zip(rounds_header, round_rows[-1]))
            assert row["mode"] == mode and row["rounds"] == str(len(round_rows))
            # the global cells of the mode's last round, cell by cell
            for column in header[2:-1]:
                assert row[column] == last[column], column

    def test_rerun_gives_identical_rows(self, config_file, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cmd_compare(config_file, ["no_selection", "fedselect_me"], str(out)) == 0
        text = (outs[0] / "compare.csv").read_text()
        assert (outs[1] / "compare.csv").read_text() == text
        header, *rows = [line.split(",") for line in text.splitlines()]
        acc = header.index("test_accuracy")
        assert float(rows[0][-1]) == 0.0  # delta vs first mode
        assert float(rows[1][-1]) == float(rows[1][acc]) - float(rows[0][acc])
        # every mode shares one dataset, and runs exactly as `fedmesh run` runs it
        for mode in ("no_selection", "fedselect_me"):
            assert cmd_run(config_file, str(tmp_path / mode), [f"baseline_mode={mode}"]) == 0
            for artifact in ("rounds.csv", "events.jsonl"):
                assert (tmp_path / mode / artifact).read_bytes() == (outs[0] / mode / artifact).read_bytes()

    def test_repeated_mode_rejected(self, config_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        argv = ["compare", "--config", config_file, "--modes", "fedselect_me,no_selection,fedselect_me", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: compare: mode 'fedselect_me' is given twice\n"
        assert not out.exists()

    def test_adversarial_compare_favors_selection(self, tmp_path):
        # 20% of clients noise their weights while reporting clean metrics:
        # the verifying mode should end at least as accurate as no_selection
        config = {
            "n_edges": 2,
            "clients_per_edge": 5,
            "rounds_max": 5,
            "patience": 99,
            "seed": 11,
            "data": {"n_samples": 1200},
            "secagg": {"enabled": False, "noise_multiplier": 0.0, "clip_val": None},
            "adversaries": [
                {"client_id": 0, "kind": "noise_weights", "factor": 3.0},
                {"client_id": 7, "kind": "noise_weights", "factor": 3.0},
            ],
        }
        config_path = tmp_path / "adv.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "cmp"
        assert cmd_compare(str(config_path), ["fedselect_me", "no_selection"], str(out)) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        header = lines[0].split(",")
        acc_idx = header.index("test_accuracy")
        accs = {row.split(",")[0]: float(row.split(",")[acc_idx]) for row in lines[1:]}
        assert accs["fedselect_me"] >= accs["no_selection"]

    def test_single_mode_rejected(self, config_file, tmp_path):
        assert cmd_compare(config_file, ["fedselect_me"], str(tmp_path / "x")) == 2

    def test_unknown_mode_rejected(self, config_file, tmp_path):
        assert cmd_compare(config_file, ["fedselect_me", "fedprox"], str(tmp_path / "x")) == 2

    def test_every_mode_is_checked_before_any_runs(self, config_file, tmp_path, capsys):
        # edge failures suit fedselect_me but not fedavg_single's single virtual edge
        out = tmp_path / "cmp"
        assert cmd_compare(config_file, ["fedselect_me", "fedavg_single"], str(out), ["edge_failures=[[0,1]]"]) == 2
        assert "config error: edge_failures" in capsys.readouterr().err
        assert not out.exists()


def test_readme_states_the_csv_headers(config_file, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    fixed, per_edge = re.search(r"`(round,[^`]*)`\s+followed by\s+`(edge\{i\}_[^`]*)`", readme).groups()
    write_rounds_csv(tmp_path / "rounds.csv", [], [0, 3])
    header = (tmp_path / "rounds.csv").read_text().splitlines()[0]
    assert header == ",".join([fixed, per_edge.replace("{i}", "0"), per_edge.replace("{i}", "3")])
    out = tmp_path / "cmp"
    assert cmd_compare(config_file, ["fedselect_me", "no_selection"], str(out), ["rounds_max=1"]) == 0
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == re.search(r"`(mode,rounds,[^`]*)`", readme).group(1)


def test_readme_states_the_event_keys(config_file, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Output artifacts")[1].split("\n## ")[0]
    table = re.findall(r"^\| `(\w+)` \| ([^|]*) \| ([^|]*) \|$", section, re.M)
    rows = {name: (tag, keys) for name, tag, keys in table}
    kinds = {kind.__name__: kind for kind in (SelectionEvent, EdgeFailureEvent, ClientEvaluation)}
    assert set(rows) == set(kinds)
    keys = {}
    for name, kind in kinds.items():
        tag, listed = rows[name]
        fields = dataclasses.fields(kind)
        keys[name] = re.findall(r"`(\w+)`", listed)
        assert keys[name] == [f.name for f in fields]
        assert re.findall(r"`(\w+)`", tag) == [f.default for f in fields if f.name == "type"]
    # and a run writes exactly those keys
    out = tmp_path / "run"
    assert cmd_run(config_file, str(out), ["edge_failures=[[1,2]]"]) == 0
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    by_type = {"selection": "SelectionEvent", "edge_failure": "EdgeFailureEvent"}
    assert {event["type"] for event in events} == set(by_type)
    for event in events:
        assert sorted(event) == sorted(keys[by_type[event["type"]]])
        for entry in event.get("evaluations", []):
            assert sorted(entry) == sorted(keys["ClientEvaluation"])


def test_readme_library_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S).group(1)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "BinaryMetrics(" in proc.stdout  # it printed the last round's test metrics


def test_readme_quick_start_config_builds(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = re.search(r"## Quick start\s+```bash\ncat > config.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(text)
    config = build_config(load_config_dict(str(path)))
    assert (config.n_edges, config.clients_per_edge, config.rounds_max, config.secagg.key_bits) == (5, 10, 30, 512)


class TestCmdPlot:
    def run_and_plot(self, config_file, tmp_path, overrides=()):
        out = tmp_path / "run"
        assert cmd_run(config_file, str(out), overrides=list(overrides)) == 0
        plots = tmp_path / "plots"
        assert cmd_plot(str(out / "rounds.csv"), str(plots)) == 0
        return plots

    def expected_files(self):
        return ["edge_metrics.svg", "jfi.svg", "global_metrics.svg", "test_quality.svg"]

    def test_four_wellformed_svgs(self, config_file, tmp_path):
        plots = self.run_and_plot(config_file, tmp_path, overrides=["rounds_max=10", "patience=99"])
        for name in self.expected_files():
            path = plots / name
            assert path.exists()
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")

    def test_single_round_plots(self, config_file, tmp_path):
        plots = self.run_and_plot(config_file, tmp_path, overrides=["rounds_max=1"])
        for name in self.expected_files():
            ET.parse(plots / name)  # parses => well-formed

    def test_constant_series_no_division_error(self, tmp_path):
        csv_path = tmp_path / "flat.csv"
        header = GOLDEN_HEADER
        row = "1," + ",".join(["0.5"] * (len(header.split(",")) - 1))
        row2 = "2," + ",".join(["0.5"] * (len(header.split(",")) - 1))
        csv_path.write_text(header + "\n" + row + "\n" + row2 + "\n")
        assert cmd_plot(str(csv_path), str(tmp_path / "p")) == 0
        for name in self.expected_files():
            ET.parse(tmp_path / "p" / name)

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,rounds,file\n1,2,3,4\n")
        assert cmd_plot(str(bad), str(tmp_path / "p")) == 2

    def test_missing_csv_exits_2(self, tmp_path):
        assert cmd_plot(str(tmp_path / "none.csv"), str(tmp_path / "p")) == 2


# a valid config small enough to run in a blink: 2 edges x 2 clients, 1 round, secagg off
_SMALL = {
    "n_edges": 2,
    "clients_per_edge": 2,
    "rounds_max": 1,
    "patience": 1,
    "seed": 5,
    "adversaries": [{"client_id": 1, "kind": "inflate_utility", "factor": 3.0}],
    "edge_failures": [[1, 1]],
    "security_overrides": {"2": 0.9},
    "data": {"n_samples": 400},
    "secagg": {"enabled": False, "key_bits": 256, "noise_multiplier": 0.0, "clip_val": None},
}
_FULL = json.loads(json.dumps(dataclasses.asdict(build_config(_SMALL))))  # every field spelled out


def _paths(node, path=()):
    """Every path into a JSON tree, the containers' own included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutants(old):
    """The one-field mutations of `old`: type swaps (never to a string where a string may
    belong), non-finite floats, bools, a negative, the wrong container and, for an
    object, an unknown key."""
    swaps = [7, 2.5, None, [1], {"k": 1}] + ([] if old is None or isinstance(old, str) else ["text"])
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    if isinstance(old, dict):
        wrong = list(old.values())
    elif isinstance(old, list):
        wrong = {str(i): v for i, v in enumerate(old)}
    else:
        wrong = [old]
    mutants = [c for c in swaps if type(c) is not type(old)]
    mutants += [math.nan, math.inf, -math.inf, (-abs(old) or -1) if number else -1, wrong]
    mutants += [b for b in (True, False) if b is not old]
    if isinstance(old, dict):
        mutants.append({**old, "zz_unknown": 1})
    return mutants


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _mutated(path, mutant):
    if not path:
        return mutant
    config = json.loads(json.dumps(_FULL))
    _at(config, path[:-1])[path[-1]] = mutant
    return config


_MUTATIONS = [(path, mutant) for path in _paths(_FULL) for mutant in _mutants(_at(_FULL, path))]


class TestConfigProperties:
    @given(st.sampled_from(_MUTATIONS))
    @settings(max_examples=400, deadline=None)
    def test_any_mutation_exits_0_or_2(self, mutation):
        path, mutant = mutation
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(_mutated(path, mutant)))
            assert cmd_run(str(config_path), str(Path(tmp) / "run")) in (0, 2)
            assert cmd_compare(str(config_path), ["fedselect_me", "no_selection"], str(Path(tmp) / "cmp")) in (0, 2)

    @given(
        seed=st.integers(0, 2**31),
        liar=st.tuples(st.integers(0, 3), st.sampled_from(["inflate_utility", "deflate_energy", "noise_weights"])),
        failure=st.tuples(st.integers(0, 1), st.integers(1, 2)),
        security=st.dictionaries(st.integers(0, 3).map(str), st.floats(0.0, 1.0), max_size=2),
    )
    @settings(max_examples=10, deadline=None)
    def test_manifest_replays_collections(self, seed, liar, failure, security):
        config = {
            **_SMALL,
            "rounds_max": 2,
            "patience": 2,
            "seed": seed,
            "adversaries": [{"client_id": liar[0], "kind": liar[1], "factor": 2.5}],
            "edge_failures": [list(failure)],
            "security_overrides": security,
        }
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for name in ("first", "replay"):
                config_path = Path(tmp) / f"{name}.json"
                config_path.write_text(json.dumps(config))
                assert cmd_run(str(config_path), str(Path(tmp) / name)) == 0
                manifest = json.loads((Path(tmp) / name / "manifest.json").read_text())
                runs.append((manifest["config_hash"], (Path(tmp) / name / "rounds.csv").read_bytes()))
                config = manifest["config"]  # the replay runs from the embedded config alone
            assert runs[1] == runs[0]
            assert config_hash(build_config(config)) == runs[0][0]


# each config section and the path of its fields in a config file
_SECTIONS = [
    ("", SimulationConfig),
    ("data.", DataConfig),
    ("trainer.", TrainerConfig),
    ("adversaries[0].", AdversaryAssignment),
    ("selection.", SelectionConfig),
    ("secagg.", SecAggConfig),
    ("aggregation.", CrossEdgeConfig),
]
_FIELDS = [(prefix, section, f.name) for prefix, section in _SECTIONS for f in dataclasses.fields(section)]
_FLOAT_FIELDS = [
    (prefix, section, f.name) for prefix, section in _SECTIONS for f in dataclasses.fields(section) if "float" in f.type
]
# the float fields whose ranges admit no integer
_NO_INTEGER = {"data.class_imbalance", "data.train_fraction", "data.val_fraction", "data.test_fraction",
               "selection.consistency_threshold"}


def _small_with(prefix, name, value):
    """The small config file with the field `name` of the section at `prefix` set to `value`."""
    raw = json.loads(json.dumps(_SMALL))
    if prefix == "adversaries[0].":
        raw["adversaries"][0][name] = value
    elif prefix:
        raw.setdefault(prefix[:-1], {})[name] = value
    else:
        raw[name] = value
    return raw


@st.composite
def _valid_configs(draw):
    n_edges, per_edge = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    clients = st.integers(0, n_edges * per_edge - 1)
    mode = draw(st.sampled_from(MODES))
    unit = st.floats(0.0, 1.0)
    positive = st.floats(1e-3, 1e3)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    fractions = draw(st.sampled_from([(0.7, 0.15, 0.15), (0.5, 0.25, 0.25), (0.8, 0.1, 0.1)]))
    csv_path, label_column = draw(st.sampled_from([(None, None), (None, "y"), ("rows.csv", "y")]))
    clip_val = draw(st.none() | positive)
    return SimulationConfig(
        n_edges=n_edges,
        clients_per_edge=per_edge,
        rounds_max=draw(st.integers(1, 50)),
        patience=draw(st.integers(1, 10)),
        min_delta=draw(st.integers(0, 5) | unit),  # an int is a float
        seed=draw(st.integers(0, 2**70)),
        baseline_mode=mode,
        decision_threshold=draw(finite),
        adversaries=tuple(
            AdversaryAssignment(
                cid,
                draw(st.sampled_from(["inflate_utility", "deflate_energy", "noise_weights"])),
                draw(positive),
            )
            for cid in draw(st.lists(clients, unique=True, max_size=3))
        ),
        edge_failures=()
        if mode == "fedavg_single"
        else tuple(draw(st.lists(st.tuples(st.integers(0, n_edges - 1), st.integers(1, 20)), max_size=3))),
        security_overrides=draw(st.dictionaries(clients, unit, max_size=3)),
        data=DataConfig(
            n_samples=draw(st.integers(100, 10**6)),
            n_features=draw(st.integers(1, 50)),
            class_imbalance=draw(st.floats(0.01, 0.99)),
            label_noise=draw(st.floats(0.0, 10.0)),
            dirichlet_alpha=draw(positive),
            train_fraction=fractions[0],
            val_fraction=fractions[1],
            test_fraction=fractions[2],
            edge_test_fraction=draw(unit),
            unknown_edge=draw(st.none() | st.integers(0, n_edges - 1)),
            unknown_shift=draw(finite),
            csv_path=csv_path,
            label_column=label_column,
        ),
        trainer=TrainerConfig(
            local_epochs=draw(st.integers(0, 10)),
            learning_rate=draw(st.floats(0.0, 10.0).map(np.float64)),  # np.float64 is a float
            batch_size=draw(st.integers(1, 512)),
            energy_alpha=draw(unit),
            energy_beta=draw(unit),
        ),
        selection=SelectionConfig(
            capacity_k=draw(st.integers(1, 100)),
            consistency_threshold=draw(st.floats(0.01, 0.99)),
            outlier_z_threshold=draw(positive),
            eta=draw(unit),
            grid_step=draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0])),
            default_security_index=draw(unit),
        ),
        secagg=SecAggConfig(
            enabled=draw(st.booleans()),
            key_bits=draw(st.integers(16, 4096)),
            scale=draw(st.integers(1, 2**40)),
            clip_val=clip_val,
            noise_multiplier=0.0 if clip_val is None else draw(st.floats(0.0, 10.0)),
        ),
        aggregation=CrossEdgeConfig(alpha=draw(unit), clip_val=draw(positive)),
    )


def _wrong_values(annotation: str):
    """The values a field so annotated refuses: a string, a bool, a float in an int
    field, a numpy integer, NaN, +-inf, 10**400, and a list where a tuple belongs."""
    members = annotation.split(" | ")
    wrong = [st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(-(2**63), 2**63 - 1).map(np.int64)]
    if "str" not in members:
        wrong.append(st.text(max_size=5))
    if "bool" not in members:
        wrong.append(st.booleans())
    if "int" in members:
        wrong.append(st.floats(allow_nan=False, allow_infinity=False))
    else:
        wrong.append(st.just(10**400))
    if annotation.startswith("tuple["):
        wrong.append(st.lists(st.integers(0, 3), max_size=2))
    return st.one_of(wrong)


def _refusal(call) -> str:
    with pytest.raises(ValueError) as refused:
        call()
    return str(refused.value)


class TestLibraryAndConfigFilesAgree:
    @given(_valid_configs())
    @settings(max_examples=150, deadline=None)
    def test_a_library_config_survives_its_config_file(self, config):
        rebuilt = build_config(json.loads(json.dumps(dataclasses.asdict(config))))
        assert rebuilt == config
        assert config_hash(rebuilt) == config_hash(config)

    @pytest.mark.parametrize("prefix, section, name", _FIELDS, ids=[f"{p}{n}" for p, _, n in _FIELDS])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_wrongly_typed_field_is_refused_three_ways(self, prefix, section, name, data):
        kind = typing.get_type_hints(section)[name]
        value = data.draw(_wrong_values(next(f.type for f in dataclasses.fields(section) if f.name == name)))
        required = {"client_id": 0, "kind": "inflate_utility"} if section is AdversaryAssignment else {}
        message = _refusal(lambda: section(**{**required, name: value}))
        assert message.startswith(f"{name}: ")
        assert _refusal(lambda: dataclasses.replace(section(**required), **{name: value})) == message
        if isinstance(value, (np.integer, list)):
            return  # JSON holds neither
        raw = _small_with(prefix, name, value)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(raw))
            assert cmd_run(str(config_path), str(Path(tmp) / "run")) == 2
        if dataclasses.is_dataclass(kind) or typing.get_origin(kind) in (tuple, collections.abc.Mapping):
            # the config file's own shape check names the field first
            assert err.getvalue().startswith(f"config error: {prefix}{name}: ")
        else:
            assert err.getvalue() == f"config error: {prefix}{message}\n"

    @pytest.mark.parametrize("prefix, section, name", _FLOAT_FIELDS, ids=[f"{p}{n}" for p, _, n in _FLOAT_FIELDS])
    def test_an_integer_in_a_float_field_configures_its_float_twin(self, prefix, section, name):
        admitted = []
        for number in (0, 1, 2):
            as_int, as_float = number, float(number)
            if name == "security_overrides":
                as_int, as_float = {"2": as_int}, {"2": as_float}
            try:
                config = build_config(_small_with(prefix, name, as_int))
            except ConfigError:
                continue
            twin = build_config(_small_with(prefix, name, as_float))
            assert config == twin
            assert config_hash(config) == config_hash(twin)
            admitted.append(number)
        assert bool(admitted) == (f"{prefix}{name}" not in _NO_INTEGER)

    def test_integer_and_float_twins_write_identical_artifacts(self, tmp_path):
        # energy_alpha 1 and energy_beta 0 once made an int64 energy array, which a deflate_energy liar truncated
        twins = {
            "int": {"min_delta": 0, "security_overrides": {"2": 1}, "trainer": {"energy_alpha": 1, "energy_beta": 0},
                    "adversaries": [{"client_id": 1, "kind": "deflate_energy", "factor": 3}]},
            "float": {"min_delta": 0.0, "security_overrides": {"2": 1.0},
                      "trainer": {"energy_alpha": 1.0, "energy_beta": 0.0},
                      "adversaries": [{"client_id": 1, "kind": "deflate_energy", "factor": 3.0}]},
        }
        written = {}
        for name, fields in twins.items():
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps({**_SMALL, "rounds_max": 2, "patience": 2, **fields}))
            assert cmd_run(str(config_path), str(tmp_path / name)) == 0
            written[name] = [(tmp_path / name / f).read_bytes() for f in ("rounds.csv", "events.jsonl")]
        assert written["int"] == written["float"]
        events = [json.loads(line) for line in written["int"][1].splitlines()]
        energies = [ev["estimated_energy"] for event in events for ev in event.get("evaluations", [])]
        assert energies and all(type(energy) is float for energy in energies)


class TestErrorPathsThroughMain:
    """Each refusal as `fedmesh` reports it: the exit code and the first line of stderr."""

    def first_line(self, argv, capsys, code):
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == code
        return capsys.readouterr().err.splitlines()[0]

    @pytest.mark.parametrize(
        "text,overrides,message",
        [
            ('{"seed": 1, "seed": 2}', [], "key 'seed' is given twice"),
            ('{"data": {"n_samples": 400, "n_samples": 500}}', [], "key 'n_samples' is given twice"),
            ('{"adversaries": [{"client_id": 1, "client_id": 2}]}', [], "key 'client_id' is given twice"),
            ("{}", ['data={"n_samples": 400, "n_samples": 500}'], "override 'data': key 'n_samples' is given twice"),
        ],
        ids=["top_level", "section", "list_entry", "override"],
    )
    def test_key_given_twice_exits_2(self, tmp_path, capsys, text, overrides, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        sets = [arg for item in overrides for arg in ("--set", item)]
        for command in (["run"], ["compare", "--modes", "fedselect_me,no_selection"]):
            argv = [*command, "--config", str(path), "--out", str(tmp_path / "o"), *sets]
            assert self.first_line(argv, capsys, 2).startswith("config error: ")
            assert message in self.first_line(argv, capsys, 2)
        assert not (tmp_path / "o").exists()

    def test_json_syntax_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,,}')
        line = self.first_line(["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys, 2)
        assert line == f"config error: {path}: line 1: Expecting property name enclosed in double quotes"

    def test_override_through_a_non_section_exits_2(self, config_file, tmp_path, capsys):
        argv = ["run", "--config", config_file, "--out", str(tmp_path / "o"), "--set", "seed.x=1"]
        assert self.first_line(argv, capsys, 2) == "config error: override 'seed.x': 'seed' is not a section"

    def test_compare_with_a_failing_mode_exits_1(self, config_file, tmp_path, capsys):
        argv = ["compare", "--config", config_file, "--modes", "fedselect_me,no_selection", "--out", str(tmp_path / "c")]
        line = self.first_line([*argv, "--set", "trainer.learning_rate=1e308"], capsys, 1)
        assert line.startswith("compare failed: round 1, client 1: estimated utility ")
        assert not (tmp_path / "c" / "compare.csv").exists()

    def test_plot_dispatch(self, config_file, tmp_path, capsys):
        assert main(["run", "--config", config_file, "--out", str(tmp_path / "o")]) == 0
        assert main(["plot", "--csv", str(tmp_path / "o" / "rounds.csv"), "--out", str(tmp_path / "p")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote 4 charts to {tmp_path / 'p'}"
        assert sorted(os.listdir(tmp_path / "p")) == ["edge_metrics.svg", "global_metrics.svg", "jfi.svg", "test_quality.svg"]

    def test_header_only_rounds_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rounds.csv"
        path.write_text(GOLDEN_HEADER + "\n")
        line = self.first_line(["plot", "--csv", str(path), "--out", str(tmp_path / "p")], capsys, 2)
        assert line == f"plot error: {path}: no data rows"

    def test_long_row_in_rounds_csv_exits_2(self, tmp_path, capsys):
        # csv.DictReader files a long row's extra cells under the key None; plot refuses the row
        path = tmp_path / "long.csv"
        path.write_text("round,val_loss\n1,0.5,9\n")
        line = self.first_line(["plot", "--csv", str(path), "--out", str(tmp_path / "p")], capsys, 2)
        assert line == f"plot error: {path}: line 2 has more cells than the header"
        assert not (tmp_path / "p").exists()

    def test_label_only_csv_exits_2(self, config_file, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("y\n0\n1\n")
        sets = ["--set", f"data.csv_path={data}", "--set", "data.label_column=y"]
        line = self.first_line(["run", "--config", config_file, "--out", str(tmp_path / "o"), *sets], capsys, 2)
        assert line == "config error: data.csv_path: CSV has no feature columns"

    @pytest.mark.parametrize(
        "override,message",
        [
            ("clients_per_edge=0", "clients_per_edge: must be >= 1"),
            ("rounds_max=0", "rounds_max: must be >= 1"),
            ('security_overrides={"4": 0.5}', "security_overrides: client_id 4 out of range"),
            ("selection.capacity_k=0", "selection: capacity_k must be >= 1, got 0"),
            ("secagg.scale=0", "secagg: scale must be a positive integer"),
        ],
    )
    def test_out_of_range_field_exits_2(self, config_file, tmp_path, capsys, override, message):
        argv = ["run", "--config", config_file, "--out", str(tmp_path / "o"), "--set", override]
        assert self.first_line(argv, capsys, 2) == f"config error: {message}"
        assert not (tmp_path / "o").exists()
