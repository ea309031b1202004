"""Command-line front end: run experiments, compare modes, plot round logs.

Commands:
    fedmesh run --config cfg.json --out results/ [--set key=value ...]
    fedmesh compare --config cfg.json --modes fedselect_me,no_selection --out results/
    fedmesh plot --csv results/rounds.csv --out results/

The config file is JSON whose nested sections mirror SimulationConfig;
overrides address fields by dotted path (selection.capacity_k=10). The
FEDMESH_SEED environment variable, when set, overrides the config seed.
Exit codes: 0 success, 1 runtime failure, 2 invalid config or arguments.
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from . import __version__
from .data import Dataset, generate_synthetic, ingest_csv
from .metrics import RoundRecord
from .orchestrator import EdgeFailureEvent, SelectionEvent, SimulationConfig, SimulationResult, derive_seed, run
from .params import FieldTypeError


_T = TypeVar("_T")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _unique_keys(where: str, pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ConfigError."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{where}: key {key!r} is given twice")
        out[key] = value
    return out


def load_config_dict(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=lambda pairs: _unique_keys(path, pairs))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, say
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return raw


def apply_overrides(raw: dict, assignments: Sequence[str]) -> dict:
    """Apply key=value pairs; keys are dotted paths into the config tree."""
    out = json.loads(json.dumps(raw))  # deep copy
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, value = item.partition("=")
        try:
            parsed: Any = json.loads(value, object_pairs_hook=lambda pairs: _unique_keys(f"override {key!r}", pairs))
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {part!r} is not a section")
        node[parts[-1]] = parsed
    return out


def _build(kind: Any, raw: Any, path: str) -> Any:
    """Convert parsed JSON at `path` into the shape of the annotated `kind`; raises ConfigError.

    An object becomes a dataclass, which checks its fields' types and ranges;
    a list becomes a tuple, and an object keyed by client id ("3") a mapping
    keyed by int. Any other value is passed as it is, for its section to check.
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if dataclasses.is_dataclass(kind):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        kinds = typing.get_type_hints(kind)
        prefix = f"{path}." if path else ""
        unknown = sorted(set(raw) - set(kinds))
        if unknown:
            raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
        fields = {name: _build(kinds[name], value, prefix + name) for name, value in raw.items()}
        try:
            return kind(**fields)
        except FieldTypeError as exc:  # its message starts with the field's path in the section
            raise ConfigError(prefix + str(exc))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}" if path else str(exc))
    if origin is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        # entries beyond a fixed length pass as they are; the section refuses the length
        kinds = [args[0]] * len(raw) if args[-1] is Ellipsis else [*args, *[Any] * len(raw)]
        return tuple(_build(k, value, f"{path}[{i}]") for i, (k, value) in enumerate(zip(kinds, raw)))
    if origin is collections.abc.Mapping:
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected an object")
        built: dict[Any, Any] = {}
        for key, value in raw.items():
            # JSON object keys are strings, so a client id arrives as "3"
            cid = int(key) if isinstance(key, str) and key.isascii() and key.isdigit() else key
            if cid in built:
                raise ConfigError(f"{path}[{key!r}]: client id {cid} is given twice")
            built[cid] = _build(args[1], value, f"{path}[{cid!r}]")
        return built
    return raw


def build_config(raw: dict) -> SimulationConfig:
    """Assemble a SimulationConfig from a raw dict, checking every field; raises ConfigError."""
    return _build(SimulationConfig, raw, "")


def _apply_env_seed(config: SimulationConfig) -> SimulationConfig:
    """Override the config seed with FEDMESH_SEED when it is set; raises ConfigError.

    The value must be a JSON integer, as the config file's `seed` must."""
    value = os.environ.get("FEDMESH_SEED")
    if value is None:
        return config
    try:
        return dataclasses.replace(config, seed=json.loads(value))
    except ValueError:  # not JSON, an integer too long to parse, or not an int
        raise ConfigError(f"FEDMESH_SEED: expected an integer, got {value!r}") from None


def config_hash(config: SimulationConfig) -> str:
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_dataset(config: SimulationConfig) -> Dataset:
    """The config's dataset; a CSV that cannot be read as one raises ConfigError."""
    d = config.data
    if d.csv_path is not None:
        try:
            dataset, dropped = ingest_csv(d.csv_path, d.label_column)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data.csv_path: {exc}")
        if dropped:
            print(f"dropped {dropped} incomplete rows from {d.csv_path}", file=sys.stderr)
        return dataset
    return generate_synthetic(d, derive_seed(config.seed, "data"))


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


# The global columns of rounds.csv and compare.csv, in order: a RoundRecord
# split and the BinaryMetrics field written as the column `{split}_{field}`,
# then `jfi`.
_GLOBAL_METRICS = [
    ("val", "loss"),
    ("val", "accuracy"),
    ("test", "loss"),
    ("test", "accuracy"),
    ("test", "f1_macro"),
    ("test", "f1_weighted"),
    ("test", "auroc"),
]
_GLOBAL_COLUMNS = [f"{split}_{name}" for split, name in _GLOBAL_METRICS] + ["jfi"]


def _global_cells(rec: RoundRecord) -> list[str]:
    return [_fmt(getattr(getattr(rec, split), name)) for split, name in _GLOBAL_METRICS] + [_fmt(rec.jfi)]


def write_rounds_csv(path: Path, records: Sequence[RoundRecord], edge_ids: Sequence[int]) -> None:
    """One row per round; an edge's cells are blank in a round without its metrics."""
    header = ["round", *_GLOBAL_COLUMNS] + [f"edge{e}_{name}" for e in edge_ids for name in ("accuracy", "loss")]
    lines = [",".join(header)]
    for rec in records:
        cells = [str(rec.round), *_global_cells(rec)]
        for e in edge_ids:
            m = rec.per_edge.get(e)
            cells += ["", ""] if m is None else [_fmt(m.accuracy), _fmt(m.loss)]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_events_jsonl(path: Path, events: Sequence[SelectionEvent | EdgeFailureEvent]) -> None:
    """One JSON line per event, keyed by field name; vars() skips dataclasses.asdict's deep copy."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, default=vars, sort_keys=True) + "\n")


def _run_to_dir(config: SimulationConfig, dataset: Dataset, out: Path) -> SimulationResult:
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    result = run(config, dataset)
    write_rounds_csv(out / "rounds.csv", result.rounds, range(len(config.edge_clients)))
    write_events_jsonl(out / "events.jsonl", result.events)
    manifest = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "artifacts": {"rounds": "rounds.csv", "events": "events.jsonl"},
        "code_version": __version__,
        "config": dataclasses.asdict(config),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return result


def _failure_line_first(action: Callable[[], _T], failure: str) -> _T | None:
    """Run action with stderr held back. If it raises, print `failure: message`
    first and the held text (numpy RuntimeWarnings, say) after it, and return
    None; otherwise write the held text out unchanged."""
    held = io.StringIO()
    try:
        with contextlib.redirect_stderr(held):
            return action()
    except Exception as exc:  # noqa: BLE001 - simulation failures map to exit 1
        print(f"{failure}: {exc}", file=sys.stderr)
        return None
    finally:
        sys.stderr.write(held.getvalue())


def cmd_run(config_path: str, output_dir: str, overrides: Sequence[str] = ()) -> int:
    try:
        raw = apply_overrides(load_config_dict(config_path), overrides)
        config = _apply_env_seed(build_config(raw))
        dataset = make_dataset(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = _failure_line_first(lambda: _run_to_dir(config, dataset, Path(output_dir)), "run failed")
    if result is None:
        return 1
    last = result.rounds[-1]
    print(
        f"completed {len(result.rounds)} rounds"
        f"{' (early stop)' if result.stopped_early else ''}; "
        f"final test accuracy {last.test.accuracy:.4f}, jfi {last.jfi:.6f}"
    )
    return 0


def cmd_compare(config_path: str, modes: Sequence[str], output_dir: str, overrides: Sequence[str] = ()) -> int:
    try:
        if len(modes) < 2:
            raise ConfigError("compare: need at least 2 modes")
        for i, mode in enumerate(modes):
            if mode in modes[:i]:
                raise ConfigError(f"compare: mode {mode!r} is given twice")
        raw = apply_overrides(load_config_dict(config_path), overrides)
        base = _apply_env_seed(build_config(raw))
        # every mode's config validates itself here, before any mode runs
        configs = [dataclasses.replace(base, baseline_mode=mode) for mode in modes]
        dataset = make_dataset(base)  # the data do not depend on the mode
    except ValueError as exc:  # a ConfigError, or a mode the base config does not admit
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(output_dir)
    if _failure_line_first(lambda: _compare_to_dir(configs, dataset, out), "compare failed") is None:
        return 1
    print(f"wrote {out / 'compare.csv'} for modes: {', '.join(modes)}")
    return 0


def _compare_to_dir(configs: Sequence[SimulationConfig], dataset: Dataset, out: Path) -> Path:
    lines = [",".join(["mode", "rounds", *_GLOBAL_COLUMNS, "delta_test_accuracy_vs_first"])]
    first_acc: float | None = None
    for config in configs:
        mode = config.baseline_mode
        result = _run_to_dir(config, dataset, out / mode)
        last = result.rounds[-1]
        if first_acc is None:
            first_acc = last.test.accuracy
        cells = [mode, str(len(result.rounds)), *_global_cells(last), _fmt(last.test.accuracy - first_acc)]
        lines.append(",".join(cells))
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out / "compare.csv"


# ---------------------------------------------------------------------------
# plotting (self-contained SVG, no plotting dependency)
# ---------------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_PANEL_W = 760
_PANEL_H = 300
_MARGIN_L = 62
_MARGIN_R = 150
_MARGIN_T = 42
_MARGIN_B = 40


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _panel(title: str, series: dict[str, list[tuple[float, float | None]]], y_offset: int) -> str:
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts if y is not None]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_min, y_max = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_max == y_min:
        pad = max(abs(y_min) * 0.1, 0.5)
        y_min, y_max = y_min - pad, y_max + pad

    plot_w = _PANEL_W - _MARGIN_L - _MARGIN_R
    plot_h = _PANEL_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return y_offset + _MARGIN_T + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h

    parts = [f'<text x="{_MARGIN_L}" y="{y_offset + 22}" font-size="15" font-weight="bold">{_esc(title)}</text>']
    axis_y0, axis_y1 = y_offset + _MARGIN_T, y_offset + _MARGIN_T + plot_h
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{axis_y0}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for i in range(5):
        y_val = y_min + (y_max - y_min) * i / 4
        yy = py(y_val)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{yy:.1f}" x2="{_MARGIN_L + plot_w}" y2="{yy:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{yy + 4:.1f}" font-size="11" text-anchor="end">{y_val:.3g}</text>')
    tick_step = max(1, math.ceil((x_max - x_min) / 8))  # at most ~9 integer ticks
    for xv in range(math.ceil(x_min), math.floor(x_max) + 1, tick_step):
        parts.append(
            f'<text x="{px(xv):.1f}" y="{axis_y1 + 16}" font-size="11" text-anchor="middle">{xv}</text>'
        )
    for idx, (name, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        visible = [(px(x), py(y)) for x, y in pts if y is not None]
        if len(visible) > 1:
            coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in visible)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        for x, y in visible:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.4" fill="{color}"/>')
        ly = axis_y0 + 14 * (idx + 1)
        parts.append(f'<rect x="{_MARGIN_L + plot_w + 8}" y="{ly - 8}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w + 22}" y="{ly}" font-size="11">{_esc(name)}</text>')
    return "\n".join(parts)


def _write_svg(path: Path, panels: list[tuple[str, dict[str, list[tuple[float, float | None]]]]]) -> None:
    height = _PANEL_H * len(panels)
    body = "\n".join(_panel(title, series, _PANEL_H * i) for i, (title, series) in enumerate(panels))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_PANEL_W} {height}" '
        f'width="{_PANEL_W}" height="{height}" font-family="sans-serif">\n'
        f'<rect width="{_PANEL_W}" height="{height}" fill="white"/>\n{body}\n</svg>\n'
    )
    path.write_text(svg, encoding="utf-8")


def _read_rounds_csv(path: str) -> tuple[list[dict[str, float | None]], list[int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "round" not in reader.fieldnames:
            raise ValueError(f"{path}: not a rounds.csv (missing 'round' column)")
        edge_ids = sorted(
            int(c[len("edge") : -len("_accuracy")])
            for c in reader.fieldnames
            if c.startswith("edge") and c.endswith("_accuracy")
        )
        rows: list[dict[str, float | None]] = []
        for record in reader:
            if None in record:  # csv.DictReader keeps a long row's extra cells under the key None
                raise ValueError(f"{path}: line {reader.line_num} has more cells than the header")
            parsed: dict[str, float | None] = {}
            for key, value in record.items():
                parsed[key] = float(value) if value not in (None, "") else None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows, edge_ids


def cmd_plot(rounds_csv: str, output_dir: str) -> int:
    try:
        rows, edge_ids = _read_rounds_csv(rounds_csv)
    except (OSError, ValueError) as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return 2
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def series_of(column: str) -> list[tuple[float, float | None]]:
        return [(row["round"] or 0.0, row.get(column)) for row in rows]

    _write_svg(
        out / "edge_metrics.svg",
        [
            ("Edge test accuracy per round", {f"edge {e}": series_of(f"edge{e}_accuracy") for e in edge_ids}),
            ("Edge test loss per round", {f"edge {e}": series_of(f"edge{e}_loss") for e in edge_ids}),
        ],
    )
    _write_svg(out / "jfi.svg", [("Fairness (JFI) per round", {"jfi": series_of("jfi")})])
    _write_svg(
        out / "global_metrics.svg",
        [
            ("Global loss per round", {"val loss": series_of("val_loss"), "test loss": series_of("test_loss")}),
            (
                "Global accuracy per round",
                {"val accuracy": series_of("val_accuracy"), "test accuracy": series_of("test_accuracy")},
            ),
        ],
    )
    _write_svg(
        out / "test_quality.svg",
        [
            (
                "Global test F1 and AUROC per round",
                {
                    "f1 macro": series_of("test_f1_macro"),
                    "f1 weighted": series_of("test_f1_weighted"),
                    "auroc": series_of("test_auroc"),
                },
            )
        ],
    )
    print(f"wrote 4 charts to {out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fedmesh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")

    p_cmp = sub.add_parser("compare", help="run several modes on the same data and seed")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--modes", required=True, help="comma-separated list of modes")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")

    p_plot = sub.add_parser("plot", help="render SVG charts from rounds.csv")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.overrides)
    if args.command == "compare":
        return cmd_compare(args.config, [m.strip() for m in args.modes.split(",") if m.strip()], args.out, args.overrides)
    return cmd_plot(args.csv, args.out)


if __name__ == "__main__":
    sys.exit(main())
