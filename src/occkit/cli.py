"""Experiment orchestration: end-to-end pipelines, configs and reports.

Subcommands:
    occ-eval   train each configured detector on the normal rows of every
               split, calibrate the three-sigma threshold, classify the test
               fold and evaluate all consensus levels
    omission   the attack-omission grid: the forest, the forest with uniform
               noise and the one-class pipeline as three arms on identical
               folds
    demo       the two-feature synthetic walkthrough, emitting point-level
               predictions for external plotting
    report     recompute aggregates from the persisted per-run CSV and check
               them against the stored report

All outputs are deterministic given (config, seed); report.json carries the
only timestamp. Exit codes: 0 ok, 2 config error, 3 data error, 4 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import operator
import sys
import typing
from dataclasses import MISSING, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import calibrate_threshold, classify
from .cells import map_cells
from .dataset import (
    DEMO_N_ATTACK,
    DEMO_N_NORMAL,
    DEMO_SIGMA,
    Dataset,
    SplitPlan,
    apply_preprocessor,
    extract_labels,
    filter_normal,
    fit_preprocessor,
    generate_gaussian_demo,
    load_csv,
    load_schema,
    omit_attack_types,
    split_indices,
    stratified_split,
)
from .detectors import VARIANTS, DetectorConfig, fit as fit_detector, score as score_detector
from .ensemble import PredictionMatrix, consensus
from .metrics import aggregate, confusion, metric_row
from .seeding import derive_seed
from .supervised import (
    OMISSION_METRICS,
    ForestConfig,
    OmissionPlan,
    augment_with_noise,
    rf_fit,
    rf_predict,
    run_omission_experiment,
)

__all__ = [
    "ConfigError",
    "ConsistencyError",
    "ExperimentConfig",
    "Report",
    "load_config",
    "cmd_occ_eval",
    "cmd_omission",
    "cmd_demo",
    "cmd_report",
    "main",
]

OCC_CSV_COLUMNS = (
    "run",
    "model",
    "kind",
    "n_models",
    "accuracy",
    "attack_precision",
    "attack_recall",
    "attack_f1",
    "normal_f1",
    "macro_f1",
)
OCC_METRIC_COLUMNS = OCC_CSV_COLUMNS[4:]

OMISSION_CSV_COLUMNS = (
    "k",
    "combination_id",
    "combination_tags",
    "run",
    "arm",
) + OMISSION_METRICS

DEFAULT_DETECTORS = {variant: {"variant": variant} for variant in VARIANTS}

_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


class ConsistencyError(Exception):
    """Stored aggregates disagree with the persisted per-run rows."""


@dataclass(frozen=True)
class Report:
    """Aggregated result blocks plus provenance."""

    experiment: str
    seed: int
    config_hash: str
    artifact_version: str
    created_utc: str
    n_runs: int
    blocks: dict


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment settings; `resolved` is the canonical dict."""

    experiment: str
    seed: int
    dataset: dict
    split: SplitPlan
    preprocessor_fit: str
    detectors: dict[str, DetectorConfig]
    ensemble_members: tuple[str, ...]
    ensemble_levels: tuple[int, ...]
    omission: dict
    resolved: dict

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _fits(value: object, kind: object) -> bool:
    """Whether a JSON value has `kind`: a type, or [t] for a list of t. A bool is no number."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(item, kind[0]) for item in value)
    number = (int, float) if kind is float else kind
    return isinstance(value, number) and isinstance(value, bool) == (kind is bool)


def _block(raw: object, where: str, spec: dict[str, tuple[object, object]]) -> dict:
    """Read one config object: `spec` maps each key to (type, default); returns every key.

    A type is bool, int, float, str, dict or [t], a JSON list of t. A bool is
    no int, a float key stores an int as a float, null is accepted only where
    the default is None, and a key whose default is MISSING is required.
    """
    _require(isinstance(raw, dict), f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(spec))
    note = " (seeds are derived from the global seed)" if "seed" in unknown else ""
    _require(not unknown, f"{where} has unknown keys {unknown}{note}")
    block = {}
    for key, (kind, default) in spec.items():
        _require(key in raw or default is not MISSING, f"{where} needs a {key!r}")
        value = raw.get(key, default)
        if key in raw and not (value is None and default is None):
            name = f"list of {_JSON_TYPES[kind[0]]}s" if isinstance(kind, list) else _JSON_TYPES[kind]
            name += " or null" if default is None else ""
            _require(_fits(value, kind), f"{where}.{key} must be a JSON {name}, got {json.dumps(value)}")
            value = float(value) if kind is float else value
        block[key] = value
    return block


def _settings(cls: type, raw: object, where: str, **defaults: object) -> tuple[typing.Any, dict]:
    """Read a block whose keys are `cls`'s fields but the derived seed, and build `cls` from it."""
    hints = typing.get_type_hints(cls)
    spec = {}
    for field in dataclasses.fields(cls):
        if field.name != "seed":  # `int | None` reads as int: its None default already allows null
            kind = (typing.get_args(hints[field.name]) or (hints[field.name],))[0]
            spec[field.name] = (kind, defaults.get(field.name, field.default))
    block = _block(raw, where, spec)
    try:
        return cls(**block), block
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | Path | None, *, experiment: str, seed_override: int | None) -> ExperimentConfig:
    """Load, validate and resolve a config file for the given experiment kind."""
    raw: object = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    top = _block(raw, "config", {
        "seed": (int, None), "dataset": (dict, {"demo": {}}), "split": (dict, {}),
        "preprocessor_fit": (str, "full"), "detectors": (dict, DEFAULT_DETECTORS),
        "ensemble": (dict, {}), "omission": (dict, {}),
    })
    seed = seed_override if seed_override is not None else top["seed"]
    _require(seed is not None, "a seed is required (config 'seed' or --seed); no wall-clock default")
    _require(seed >= 0, f"{'--seed' if seed_override is not None else 'config.seed'} must be >= 0, got {seed}")

    if "demo" in top["dataset"]:
        dataset = _block(top["dataset"], "dataset", {"demo": (dict, {})})
        dataset["demo"] = _block(dataset["demo"], "dataset.demo", {
            "seed": (int, seed), "n_normal": (int, DEMO_N_NORMAL),
            "n_attack": (int, DEMO_N_ATTACK), "sigma": (float, DEMO_SIGMA),
        })
        demo = dataset["demo"]
        # A stratified split needs two rows of each class; the attack class holds two types.
        for key, low in (("seed", 0), ("n_normal", 2), ("n_attack", 1)):
            _require(demo[key] >= low, f"dataset.demo.{key} must be >= {low}, got {demo[key]}")
        sigma = demo["sigma"]
        _require(math.isfinite(sigma) and sigma >= 0, f"dataset.demo.sigma must be finite and >= 0, got {sigma}")
    else:
        dataset = _block(top["dataset"], "dataset", {"csv": (str, MISSING), "schema": (str, MISSING)})

    split, split_block = _settings(SplitPlan, top["split"], "split", base_seed=seed)

    preprocessor_fit = top["preprocessor_fit"]
    _require(
        preprocessor_fit in ("full", "train"),
        f"preprocessor_fit must be 'full' or 'train', got {preprocessor_fit!r}",
    )
    if preprocessor_fit == "train":
        _require(experiment == "occ-eval", "leak-free preprocessor_fit='train' is only supported for occ-eval")
        _require("csv" in dataset, "preprocessor_fit='train' needs a CSV dataset; the demo dataset has no preprocessor")

    _require(top["detectors"], "'detectors' must be a non-empty object")
    detectors, resolved_detectors = {}, {}
    for name, entry in top["detectors"].items():
        detectors[name], resolved_detectors[name] = _settings(DetectorConfig, entry, f"detector {name!r}")

    ensemble_spec = {"members": ([str], list(detectors)), "levels": ([int], None)}
    ensemble = _block(top["ensemble"], "ensemble", ensemble_spec)
    members = ensemble["members"]
    _require(members != [], "ensemble.members is empty; leave it out to use every configured detector")
    for member in members:
        _require(member in detectors, f"ensemble member {member!r} is not a configured detector")
    _require(len(set(members)) == len(members), f"ensemble.members repeats a detector: {members}")
    if ensemble["levels"] is None:
        ensemble["levels"] = list(range(1, len(members) + 1))
    levels = ensemble["levels"]
    for k in levels:
        _require(1 <= k <= len(members), f"ensemble level {k} out of range 1..{len(members)}")
    _require(len(set(levels)) == len(levels), f"ensemble.levels repeats a level: {levels}")

    omission = _block(top["omission"], "omission", {
        "k_values": ([int], [1]), "with_noise": (bool, True), "combination_cap": (int, 20),
        "occ_detector": (str, None), "attack_types": ([str], None), "rf": (dict, {}),
    })
    # A k above the number of attack types is a data error: that count comes from the data.
    k_values = omission["k_values"]
    _require(all(k >= 1 for k in k_values), "omission.k_values must all be >= 1")
    _require(len(set(k_values)) == len(k_values), f"omission.k_values repeats a value: {k_values}")
    _require(omission["combination_cap"] >= 1, "omission.combination_cap must be >= 1")
    tags = omission["attack_types"]
    _require(tags != [], "omission.attack_types is empty; leave it out to use every tag in the data")
    _require(tags is None or len(set(tags)) == len(tags), f"omission.attack_types repeats a type: {tags}")
    rf = _settings(ForestConfig, omission["rf"], "omission.rf")[1]
    omission["rf"] = {key: rf[key] for key in omission["rf"]}  # only the keys the config sets
    occ = omission["occ_detector"]
    _require(occ in (None, *detectors), f"omission.occ_detector {occ!r} is not a configured detector")

    blocks = {
        "dataset": dataset,
        "split": split_block,
        "preprocessor_fit": preprocessor_fit,
        "detectors": resolved_detectors,
        "ensemble": ensemble,
    }
    if experiment == "omission":
        blocks["omission"] = omission

    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        dataset=dataset,
        split=split,
        preprocessor_fit=preprocessor_fit,
        detectors=detectors,
        ensemble_members=tuple(members),
        ensemble_levels=tuple(levels),
        omission=omission,
        resolved={"experiment": experiment, "seed": seed, **blocks},
    )


# ---------------------------------------------------------------------------
# data loading


class _DataSource:
    """Produces each run's (normal training rows, test) datasets, honoring the leak-free flag."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.dataset: Dataset | None = None  # None only under preprocessor_fit='train': occ-eval on a CSV
        self._last: tuple[int, tuple[Dataset, Dataset]] | None = None
        entry = config.dataset
        if "demo" in entry:
            self.dataset = generate_gaussian_demo(**entry["demo"])
            return
        schema = load_schema(entry["schema"])
        table = load_csv(entry["csv"], schema)
        if config.preprocessor_fit == "train":
            self._table = table
            self._schema = schema
            self._y, _ = extract_labels(table, schema)
        else:
            self.dataset = apply_preprocessor(fit_preprocessor(table, schema), table, schema)

    def split_for_run(self, plan: SplitPlan, run: int) -> tuple[Dataset, Dataset]:
        """(normal rows of the training fold, test fold) of `run`.

        The training fold is dropped here; the last run's pair is kept, so
        consecutive cells of one run split (and refit the preprocessor) once.
        """
        if self._last is None or self._last[0] != run:
            self._last = None  # free the previous run's folds before making the next
            self._last = run, self._split(plan, run)
        return self._last[1]

    def _split(self, plan: SplitPlan, run: int) -> tuple[Dataset, Dataset]:
        if self.dataset is not None:
            train, test = stratified_split(self.dataset, plan, run)
            return filter_normal(train), test
        train_idx, test_idx = split_indices(self._y, plan, run)
        train_table = self._table.subset(train_idx)
        state = fit_preprocessor(train_table, self._schema)
        train = apply_preprocessor(state, train_table, self._schema)
        test = apply_preprocessor(state, self._table.subset(test_idx), self._schema)
        return filter_normal(train), test


# ---------------------------------------------------------------------------
# row bookkeeping


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _read_rows(path: Path, columns: tuple[str, ...]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ValueError(f"{path}: unexpected or missing CSV header")
        rows = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(columns):
                raise ValueError(
                    f"{path}: data row {i} has {len(row)} cells, expected {len(columns)}"
                )
            rows.append(dict(zip(columns, row)))
        return rows


def _metrics(stats: dict[str, tuple[float, float]]) -> dict[str, dict[str, float]]:
    return {name: {"mean": mean, "std": std} for name, (mean, std) in stats.items()}


def _occ_blocks(rows: list[dict]) -> dict:
    per_model = aggregate(rows, operator.itemgetter("model", "kind", "n_models"), "run", OCC_METRIC_COLUMNS)
    return {
        model: {"kind": kind, "n_models": int(n_models), "metrics": _metrics(stats)}
        for (model, kind, n_models), stats in per_model.items()
    }


def _omission_blocks(rows: list[dict]) -> dict:
    per_k = aggregate(rows, operator.itemgetter("k", "arm"), "combination_id", OMISSION_METRICS)
    return {f"k={k}/{arm}": {"metrics": _metrics(stats)} for (k, arm), stats in per_k.items()}


# Each experiment's per_run.csv columns and the report blocks built from those
# rows: a run writes its report and `occkit report` audits it through this table.
_RESULTS = {
    "occ-eval": (OCC_CSV_COLUMNS, _occ_blocks),
    "omission": (OMISSION_CSV_COLUMNS, _omission_blocks),
}


# ---------------------------------------------------------------------------
# occ-eval


def _occ_predict(cfg: DetectorConfig, normals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Fit on the normal rows, calibrate the threshold on them, classify X."""
    det = fit_detector(cfg, normals)
    threshold = calibrate_threshold(score_detector(det, normals))
    return classify(score_detector(det, X), threshold)


def _occ_cell(
    config: ExperimentConfig, source: _DataSource, cell: tuple[int, str]
) -> tuple[np.ndarray, np.ndarray]:
    """One (run, detector) cell: the run's test labels and the detector's predictions on them."""
    run, name = cell
    normals, test = source.split_for_run(config.split, run)
    seed = derive_seed(config.seed, "detector", name, run)
    cfg = dataclasses.replace(config.detectors[name], seed=seed)
    return test.y, _occ_predict(cfg, normals.X, test.X)


def _occ_rows_for_run(
    config: ExperimentConfig, run: int, y_test: np.ndarray, preds_by_name: dict[str, np.ndarray]
) -> list[dict]:
    members = config.ensemble_members
    matrix = PredictionMatrix(np.array([preds_by_name[m] for m in members]))
    models = [(name, "detector", 1, preds) for name, preds in preds_by_name.items()] + [
        (f"ensemble-{k}", "ensemble", len(members), consensus(matrix, k))
        for k in config.ensemble_levels
    ]
    return [
        {
            "run": run,
            "model": model,
            "kind": kind,
            "n_models": n_models,
            **metric_row(confusion(y_test, preds)),
        }
        for model, kind, n_models, preds in models
    ]


def _finalize(config: ExperimentConfig, run_dir: Path, rows: list[dict]) -> Report:
    """Write per_run.csv, config.json and report.json, its blocks built as `occkit report` rebuilds them."""
    columns, build_blocks = _RESULTS[config.experiment]
    _write_rows(run_dir / "per_run.csv", columns, rows)
    blocks = build_blocks(_read_rows(run_dir / "per_run.csv", columns))
    report = Report(
        experiment=config.experiment,
        seed=config.seed,
        config_hash=config.config_hash,
        artifact_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        n_runs=config.split.n_runs,
        blocks=blocks,
    )
    _write_json(run_dir / "config.json", config.resolved)
    _write_json(run_dir / "report.json", dataclasses.asdict(report))
    return report


def _write_json(path: Path, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_occ_eval(config: ExperimentConfig, out_dir: Path, workers: int = 1) -> Report:
    """Run the full one-class pipeline over every split and persist results.

    Each (run, detector) cell runs on one of up to `workers` forked worker
    processes; rows are built from the cells in (run, detector) order, so
    the output does not depend on `workers`. A failing cell aborts the
    experiment with a diagnostic naming its run; rows from the runs before
    it are preserved in per_run.partial.csv.
    """
    runs = range(config.split.n_runs)
    cells = [(run, name) for run in runs for name in config.detectors]
    source = _DataSource(config)
    run_dir = out_dir / config.experiment / config.config_hash  # made by its first file
    per_run: list[list[dict]] = []
    try:
        outcomes = map_cells(functools.partial(_occ_cell, config, source), cells, workers)
        with contextlib.closing(outcomes):  # a failure while building rows shuts the pool down too
            for run in runs:
                preds_by_name = {}
                for name in config.detectors:
                    y_test, preds_by_name[name] = next(outcomes)
                per_run.append(_occ_rows_for_run(config, run, y_test, preds_by_name))
    except Exception as exc:
        completed = [row for chunk in per_run for row in chunk]
        if completed:
            _write_rows(run_dir / "per_run.partial.csv", OCC_CSV_COLUMNS, completed)
        raise ValueError(
            f"occ-eval aborted at run {len(per_run)}: {exc} "
            f"({len(per_run)} completed runs preserved)"
        ) from exc
    return _finalize(config, run_dir, [row for chunk in per_run for row in chunk])


# ---------------------------------------------------------------------------
# omission


def cmd_omission(config: ExperimentConfig, out_dir: Path, workers: int = 1) -> Report:
    """Run the omission grid with its plain, noise and one-class arms on identical folds.

    The grid's cells use up to `workers` forked processes; the output does not depend on `workers`.
    """
    data = _DataSource(config).dataset
    tags = config.omission["attack_types"]
    tags = data.attack_tags() if tags is None else tags
    plan = OmissionPlan(
        attack_types=tuple(tags),
        k_values=tuple(config.omission["k_values"]),
        with_noise=config.omission["with_noise"],
        split=config.split,
        combination_cap=config.omission["combination_cap"],
    )
    occ_name = config.omission["occ_detector"] or (
        "stochastic-forest" if "stochastic-forest" in config.detectors else next(iter(config.detectors))
    )

    def occ(run: int, train: Dataset, test: Dataset) -> np.ndarray:
        """The one-class arm: the `occ` detector, fitted on the run's training normals."""
        cfg = dataclasses.replace(config.detectors[occ_name], seed=derive_seed(config.seed, "occ", run))
        return _occ_predict(cfg, filter_normal(train).X, test.X)

    rf_config = ForestConfig(**config.omission["rf"])
    result = run_omission_experiment(data, plan, rf_config, workers=workers, occ=occ)
    rows = [{**vars(cell), "combination_tags": "|".join(cell.combination)} for cell in result.cells]
    return _finalize(config, out_dir / config.experiment / config.config_hash, rows)


# ---------------------------------------------------------------------------
# demo


def cmd_demo(seed: int, out_dir: Path) -> Path:
    """Train both forest arms and one detector on the synthetic clusters.

    Omits attack type a1 (the cluster between the benign data and the far
    attack cluster) from the forest training sets, then emits one row per
    generated point with every model's prediction.
    """
    demo = generate_gaussian_demo(seed)
    reduced = omit_attack_types(demo, {"a1"})
    rf_config = ForestConfig()
    plain = rf_fit(reduced.X, reduced.y, rf_config, seed=derive_seed(seed, "demo-rf-plain"))
    noisy_train = augment_with_noise(reduced, derive_seed(seed, "demo-noise"))
    noisy = rf_fit(noisy_train.X, noisy_train.y, rf_config, seed=derive_seed(seed, "demo-rf-noise"))
    occ_config = DetectorConfig(variant="stochastic-forest", seed=derive_seed(seed, "demo-occ"))

    pred_plain = rf_predict(plain, demo.X)
    pred_noise = rf_predict(noisy, demo.X)
    pred_occ = _occ_predict(occ_config, filter_normal(demo).X, demo.X)

    resolved = {"experiment": "demo", "seed": seed}
    run_id = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:12]
    run_dir = out_dir / "demo" / run_id
    columns = ("x1", "x2", "true_label", "rf_plain", "rf_noise", "occ")
    rows = [
        {
            "x1": float(demo.X[i, 0]),
            "x2": float(demo.X[i, 1]),
            "true_label": int(demo.y[i]),
            "rf_plain": int(pred_plain[i]),
            "rf_noise": int(pred_noise[i]),
            "occ": int(pred_occ[i]),
        }
        for i in range(demo.n_rows)
    ]
    _write_rows(run_dir / "demo_points.csv", columns, rows)
    _write_json(run_dir / "config.json", resolved)
    return run_dir


# ---------------------------------------------------------------------------
# report


def _render_blocks(report: Report) -> str:
    lines = [
        f"experiment: {report.experiment}   runs: {report.n_runs}   seed: {report.seed}   "
        f"config: {report.config_hash}",
    ]
    shown = ("accuracy", "attack_recall", "attack_f1", "macro_f1")
    header = f"{'block':<28}" + "".join(f"{m:>22}" for m in shown)
    lines.append(header)
    lines.append("-" * len(header))
    for name, block in report.blocks.items():
        cells = []
        for m in shown:
            stats = block["metrics"].get(m)
            cells.append(
                f"{stats['mean']:>13.2f} +/-{stats['std']:>5.2f}" if stats else " " * 22
            )
        lines.append(f"{name:<28}" + "".join(cells))
    return "\n".join(lines)


def _same(stored: object, recomputed: object) -> bool:
    """Equal and of one JSON type: a stored `true` or `1.0` is no integer 1."""
    return type(stored) is type(recomputed) and stored == recomputed


def _compare_blocks(stored: object, recomputed: dict) -> None:
    """Check every stored block against its rebuild: its keys, its non-metric values and each metric.

    A metric must match exactly: the rebuild applies the run's own rule to the
    same CSV text, and JSON keeps a float's repr, which reads back exactly.
    """
    if not isinstance(stored, dict):
        raise ValueError("report.json 'blocks' is not an object")
    if set(stored) != set(recomputed):
        raise ConsistencyError(
            f"report blocks {sorted(stored)} do not match per-run CSV blocks {sorted(recomputed)}"
        )
    for name, block in recomputed.items():
        stored_block = stored[name]
        stored_metrics = stored_block.get("metrics") if isinstance(stored_block, dict) else None
        if not isinstance(stored_metrics, dict):
            raise ValueError(f"report.json block {name!r} has no 'metrics' object")
        for what, got, want in (("keys", stored_block, block), ("metrics", stored_metrics, block["metrics"])):
            if set(got) != set(want):
                raise ConsistencyError(f"{name}: stored {what} {sorted(got)} but per-run rows give {sorted(want)}")
        for key, value in block.items():
            if key != "metrics" and not _same(stored_block[key], value):
                raise ConsistencyError(f"{name}.{key}: stored {stored_block[key]!r} but per-run rows give {value!r}")
        for metric, stats in block["metrics"].items():
            stored_stats = stored_metrics[metric]
            if not isinstance(stored_stats, dict) or not all(_fits(v, float) for v in stored_stats.values()):
                raise ValueError(f"report.json block {name!r} metric {metric!r} is not an object of numbers")
            for field in ("mean", "std"):
                got, want = stats[field], stored_stats.get(field)
                if want is None or got != want:  # a NaN on either side fails too
                    raise ConsistencyError(
                        f"{name}.{metric}.{field}: stored {want!r} but per-run rows give {got!r}"
                    )


def cmd_report(run_dir: Path) -> Report:
    """Recompute aggregates from per_run.csv and verify them against report.json."""
    report_path = run_dir / "report.json"
    csv_path = run_dir / "per_run.csv"
    if not report_path.is_file() or not csv_path.is_file():
        raise ValueError(f"{run_dir} does not contain report.json and per_run.csv")
    with open(report_path, encoding="utf-8") as fh:
        stored = json.load(fh)
    if not isinstance(stored, dict):
        raise ValueError(f"{report_path} is not a JSON object")
    missing = [f.name for f in dataclasses.fields(Report) if f.name not in stored]
    if missing:
        raise ValueError(f"{report_path}: missing key(s) {missing}")
    experiment = stored["experiment"]
    if not isinstance(experiment, str) or experiment not in _RESULTS:
        raise ValueError(f"report.json has unknown experiment kind {experiment!r}")
    columns, build_blocks = _RESULTS[experiment]
    rows = _read_rows(csv_path, columns)
    recomputed = build_blocks(rows)
    _compare_blocks(stored["blocks"], recomputed)
    n_runs = len({int(row["run"]) for row in rows})
    if not _same(stored["n_runs"], n_runs):
        raise ConsistencyError(f"n_runs: stored {stored['n_runs']!r} but per-run rows hold {n_runs} runs")
    return Report(**{f.name: stored[f.name] for f in dataclasses.fields(Report)} | {"blocks": recomputed})


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="occkit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("occ-eval", "omission"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="experiment config JSON")
        p.add_argument("--out", type=Path, required=True, help="output directory root")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="worker processes for the cells (needs fork)")
    p = sub.add_parser("demo")
    p.add_argument("--out", type=Path, required=True, help="output directory root")
    p.add_argument("--seed", type=int, required=True, help="seed of the clusters and every model")
    p = sub.add_parser("report")
    p.add_argument("--run-dir", type=Path, required=True, help="run directory to audit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = cmd_report(args.run_dir)
            print(_render_blocks(report))
        elif args.command == "demo":
            _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
            run_dir = cmd_demo(args.seed, args.out)
            print(f"demo artifacts written to {run_dir}")
        else:
            config = load_config(args.config, experiment=args.command, seed_override=args.seed)
            if args.workers < 1:
                raise ConfigError(f"--workers must be at least 1, got {args.workers}")
            if args.workers > 1:
                # Imported here only: a serial run never loads multiprocessing.
                import multiprocessing

                if "fork" not in multiprocessing.get_all_start_methods():
                    raise ConfigError(f"--workers {args.workers} needs the 'fork' start method; this platform has none")
            runner = cmd_occ_eval if args.command == "occ-eval" else cmd_omission
            report = runner(config, args.out, workers=args.workers)
            print(_render_blocks(report))
            print(f"artifacts written to {args.out / config.experiment / config.config_hash}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
