import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.cli import (
    ConfigError,
    apply_overrides,
    build_config,
    canonical_config,
    cmd_compare,
    cmd_plot,
    cmd_run,
    config_hash,
    main,
)

GOLDEN_HEADER = (
    "round,val_loss,val_accuracy,test_loss,test_accuracy,test_f1_macro,"
    "test_f1_weighted,test_auroc,jfi,edge0_accuracy,edge0_loss,edge1_accuracy,edge1_loss"
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
        raw = json.loads(open(config_file).read())
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
        raw = json.loads(open(config_file).read())
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

    def test_invalid_config_exits_2(self, config_file, tmp_path, capsys):
        code = cmd_run(config_file, str(tmp_path / "o"), overrides=["patience=-1"])
        assert code == 2
        assert "patience" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert cmd_run(str(tmp_path / "nope.json"), str(tmp_path / "o")) == 2

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
        ],
    )
    def test_bad_input_is_a_config_error(self, config_file, tmp_path, monkeypatch, capsys, env_seed, overrides, field):
        if env_seed is not None:
            monkeypatch.setenv("FEDMESH_SEED", env_seed)
        (tmp_path / "rows.csv").write_text("a,b\n1.0,0\n")  # a readable table without column y
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
        assert lines[0].startswith("mode,rounds,val_loss")
        assert lines[1].split(",")[0] == "fedselect_me"
        assert lines[2].split(",")[0] == "no_selection"

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
_FULL = json.loads(json.dumps(canonical_config(build_config(_SMALL))))  # every field spelled out


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
