"""occkit benchmark: timed workloads, output checks and a traced per-layer run.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the checkout that holds this file,
and everything the benchmark writes goes under `.perfbench/` there.

Each repetition runs `occkit.cli.main([...])` in a fresh interpreter
(`repetition.py`), so its peak memory and import cost are its own.
Repetitions repeat until `--seconds` is used up (at least MIN_REPS). With
`--trace 0` the end-to-end metrics are printed; with `--trace 1` one more
repetition runs with timing wrappers installed on the names the orchestrator
calls, and the per-layer metrics are printed. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy

import nslgen
from spans import Span, self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
REQUIRED = ("src/occkit/cli.py", "configs/demo-occ-eval.json", "configs/demo-omission.json",
            "configs/nsl-kdd.schema.json")

MIN_REPS = 2
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0  # one invocation must finish within 180 s
PROBE = "import time; t = time.perf_counter(); import occkit.cli; print(time.perf_counter() - t)"
DETECTOR_VARIANTS = ("isolation-forest", "stochastic-forest", "lof", "linear-recon")


@dataclass(frozen=True)
class Workload:
    workers: int
    rows: int  # rows per_run.csv must have
    prepare: Callable[[Path, int], list[str]]  # (work dir, seed) -> occkit argv without --out


def _demo(command: str, config: str) -> Callable[[Path, int], list[str]]:
    def prepare(work: Path, seed: int) -> list[str]:
        return [command, "--config", str(ROOT / config), "--seed", str(seed), "--workers", "1"]

    return prepare


def _nsl_occ(work: Path, seed: int) -> list[str]:
    data = work / "nsl-kdd-shaped.csv"
    nslgen.write_csv(data, seed)
    config = {
        "seed": seed,
        "dataset": {"csv": str(data), "schema": str(ROOT / "configs/nsl-kdd.schema.json")},
        "split": {"ratio": 0.8, "n_runs": 3},
        "preprocessor_fit": "full",
        "detectors": {
            "stochastic-forest": {"variant": "stochastic-forest", "n_trees": 100, "subsample": 256},
            "isolation-forest": {"variant": "isolation-forest", "n_trees": 100, "subsample": 256},
        },
    }
    path = work / "nsl-occ.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return ["occ-eval", "--config", str(path), "--workers", "2"]


# Why each workload exists is recorded in BENCHMARK.json. Rows: 10 runs x
# (4 detectors + 4 levels); 10 runs x 4 combinations x (plain, noise, occ);
# 3 runs x (2 detectors + 2 levels).
WORKLOADS = {
    "occ-demo": Workload(1, 80, _demo("occ-eval", "configs/demo-occ-eval.json")),
    "omission-demo": Workload(1, 120, _demo("omission", "configs/demo-omission.json")),
    "nsl-occ": Workload(2, 12, _nsl_occ),
}

# Per-layer metric stem -> the wrapped names whose spans it is built from; a
# metric whose source is no longer present in the program is reported missing.
SOURCES = {
    "dataset.rows": ("cli.stratified_split",),
    "dataset.encoded_features": ("cli.stratified_split",),
    "dataset.peak_rss_mb": ("cli.stratified_split", "cli.apply_preprocessor"),
    "dataset.load_csv": ("cli.load_csv",),
    "dataset.fit_preprocessor": ("cli.fit_preprocessor",),
    "dataset.apply_preprocessor": ("cli.apply_preprocessor",),
    "dataset.split": ("cli.stratified_split", "supervised.stratified_split"),
    "dataset.filter_normal": ("cli.filter_normal",),
    "dataset.omit_attack_types": ("supervised.omit_attack_types",),
    "detectors.fit": ("cli.fit_detector",),
    "detectors.score": ("cli.score_detector",),
    "calibration.calibrate_threshold": ("cli.calibrate_threshold",),
    "calibration.classify": ("cli.classify",),
    "calibration.sigma_zero": ("cli.calibrate_threshold",),
    "ensemble.consensus": ("cli.consensus",),
    "supervised.rf_fit": ("supervised.rf_fit",),
    "supervised.rf_predict": ("supervised.rf_predict",),
    "supervised.augment_with_noise": ("supervised.augment_with_noise",),
    "supervised.omission_grid": ("cli.run_omission_experiment",),
    "supervised.fallback_cells": ("cli.run_omission_experiment", "supervised.rf_fit"),
    "supervised.grid_cells": ("cli.run_omission_experiment",),
    "supervised.fit_ratio": ("cli.run_omission_experiment", "supervised.rf_fit"),
    "metrics.confusion": ("cli.confusion", "supervised.confusion"),
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# repetitions


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _read_csv(path: Path) -> tuple[str, float, int]:
    """sha256 of the per-run CSV, the mean of its macro_f1 column, and its row count."""
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    values = [float(r["macro_f1"]) for r in rows]
    mean = math.fsum(values) / len(values) if values else math.nan
    return hashlib.sha256(data).hexdigest(), mean, len(values)


def run_repetition(argv: list[str], rep_dir: Path, workload: str, index: int, trace: bool,
                   timeout: float, rows: int) -> dict:
    """Run one repetition in a fresh interpreter; never raises on a failing run.

    A per_run.csv with other than `rows` rows is a failure.
    """
    rep_dir.mkdir(parents=True)
    spec = {
        "argv": argv + ["--out", str(rep_dir / "out")],
        "out": str(rep_dir / "out"),
        "trace": trace,
        "workload": workload,
        "repetition": index,
        "result": str(rep_dir / "result.json"),
    }
    (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    rep = {"index": index, "trace": trace, "error": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "repetition.py"), str(rep_dir / "spec.json")],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        rep["error"] = f"timed out after {timeout:.0f} s"
        return rep
    rep["duration_s"] = time.perf_counter() - start
    result_path = rep_dir / "result.json"
    if result_path.is_file():
        rep.update(json.loads(result_path.read_text(encoding="utf-8")))
    if proc.returncode != 0:
        rep["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
    elif rep.get("report_code") != 0:
        rep["error"] = f"occkit report rejected the run directory (code {rep.get('report_code')})"
    else:
        rep["sha256"], rep["macro_f1"], rep["csv_rows"] = _read_csv(Path(rep["csv"]))
        if rep["csv_rows"] != rows:
            rep["error"] = f"per_run.csv has {rep['csv_rows']} rows, expected {rows}"
    return rep


def check_repetitions(reps: list[dict]) -> None:
    """Mark failures in place: bad exit, rejected report, or bytes unlike the first CSV."""
    reference = next((r["sha256"] for r in reps if "sha256" in r), None)
    for rep in reps:
        if rep["error"] is None and rep["sha256"] != reference:
            rep["error"] = f"per_run.csv sha256 {rep['sha256'][:12]} differs from {reference[:12]}"


def setup_probes(n: int, timeout: float) -> list[float]:
    """Import time of occkit.cli in `n` fresh interpreters, after one untimed warm-up.

    A probe that fails to import gives no sample; the repetitions report the failure.
    """
    samples = []
    for i in range(n + 1):
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
        if i and proc.returncode == 0:
            samples.append(float(proc.stdout))
    return samples


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans: list[Span], missing: list[str], untraced_wall_s: float,
                  traced_wall_s: float, cpu_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one traced repetition, and the metrics reported missing."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def spans_of(stem: str) -> list[Span]:
        return [s for name in SOURCES[stem] for s in by_name[name]]

    def busy(group: list[Span]) -> float:
        return math.fsum(s.duration for s in group)

    m: dict[str, float] = {}
    for stem in ("dataset.load_csv", "dataset.fit_preprocessor", "dataset.apply_preprocessor",
                 "dataset.split", "dataset.filter_normal", "dataset.omit_attack_types",
                 "calibration.calibrate_threshold", "calibration.classify",
                 "supervised.rf_predict", "supervised.augment_with_noise"):
        m[f"{stem}.s"] = busy(spans_of(stem))

    # Ingest ends with the last apply_preprocessor call; without CSV ingest,
    # the first split is where the dataset is complete.
    splits = spans_of("dataset.split")
    applied = by_name["cli.apply_preprocessor"]
    ingest = applied[-1] if applied else (splits[0] if splits else None)
    source = max(splits, key=lambda s: s.attrs.get("rows", 0)) if splits else ingest
    m["dataset.rows"] = float(source.attrs.get("rows", 0)) if source else 0.0
    m["dataset.encoded_features"] = float(source.attrs.get("features", 0)) if source else 0.0
    m["dataset.peak_rss_mb"] = float(ingest.attrs.get("maxrss_mb", 0.0)) if ingest else 0.0

    for v in DETECTOR_VARIANTS:
        fits = [s for s in spans_of("detectors.fit") if s.attrs.get("variant") == v]
        scores = [s for s in spans_of("detectors.score") if s.attrs.get("variant") == v]
        rows = sum(s.attrs.get("rows", 0) for s in scores)
        m[f"detectors.fit.{v}.s"] = busy(fits)
        m[f"detectors.fit.{v}.calls"] = float(len(fits))
        m[f"detectors.score.{v}.s"] = busy(scores)
        m[f"detectors.score.{v}.rows"] = float(rows)
        m[f"detectors.score.{v}.rows_per_s"] = rows / busy(scores) if scores else 0.0

    m["calibration.sigma_zero"] = float(
        sum(1 for s in spans_of("calibration.sigma_zero") if s.attrs.get("sigma_zero"))
    )
    consensus = spans_of("ensemble.consensus")
    m["ensemble.consensus.s"] = busy(consensus)
    m["ensemble.consensus.calls"] = float(len(consensus))

    fits = spans_of("supervised.rf_fit")
    m["supervised.rf_fit.s"] = busy(fits)
    m["supervised.rf_fit.calls"] = float(len(fits))
    m["supervised.rf_fit.rows"] = float(sum(s.attrs.get("rows", 0) for s in fits))
    grids = by_name["cli.run_omission_experiment"]
    grid_ids = {s.id for s in grids}
    cells = sum(s.attrs.get("cells", 0) for s in grids)
    grid_fits = sum(1 for s in fits if s.parent in grid_ids)
    m["supervised.omission_grid.self_s"] = math.fsum(own[s.id] for s in grids)
    m["supervised.grid_cells"] = float(cells)
    m["supervised.fallback_cells"] = float(cells - grid_fits)
    m["supervised.fit_ratio"] = grid_fits / cells if cells else 0.0

    confusion = spans_of("metrics.confusion")
    m["metrics.confusion.s"] = busy(confusion)
    m["metrics.confusion.calls"] = float(len(confusion))

    root = by_name["cli.main"][0]
    m["cli.self_s"] = own[root.id]
    m["process.cpu_s"] = cpu_s
    m["process.cpu_util"] = cpu_s / traced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s

    lost = [stem for stem, srcs in SOURCES.items() if set(srcs) & set(missing)]
    gone = [name for name in m if any(name == st or name.startswith(st + ".") for st in lost)]
    for name in gone:
        del m[name]
    return m, gone


def trace_integrity(spans: list[Span], workers: int) -> str | None:
    """On one worker, the root's children plus its self time must add up to its duration."""
    if workers != 1:
        return None
    root = next(s for s in spans if s.parent is None)
    children = math.fsum(s.duration for s in spans if s.parent == root.id)
    gap = children + self_times(spans)[root.id] - root.duration
    if len({s.thread for s in spans}) != 1 or abs(gap) > 1e-6:
        return f"children + cli.self_s differ from the traced wall time by {gap:.3g} s"
    return None


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


# ---------------------------------------------------------------------------
# one workload


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare, measure and check one workload; returns the printed result."""
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    provenance = {
        "workload": name, "seed": seed, "workers": workload.workers, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": _git_sha(), "loadavg_start": _loadavg(),
    }
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        argv = workload.prepare(work, seed)
        setup = setup_probes(SETUP_PROBES, timeout=max(1.0, deadline - time.perf_counter()))

        reps: list[dict] = []
        start = time.perf_counter()
        while True:
            reps.append(run_repetition(argv, work / f"rep{len(reps)}", name, len(reps), False,
                                       deadline - time.perf_counter(), workload.rows))
            typical = _median([r["duration_s"] for r in reps if "duration_s" in r]) or 1.0
            now = time.perf_counter()
            if len(reps) >= MIN_REPS and now - start + typical > seconds:
                break
            # Leave room for one more repetition, plus the traced one.
            if now + typical * (2.5 if trace else 1.5) > deadline:
                break
        if trace:
            reps.append(run_repetition(argv, work / "traced", name, len(reps), True,
                                       deadline - time.perf_counter(), workload.rows))
        check_repetitions(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in reps if not r["trace"] and r["error"] is None]
    setup += [r["import_s"] for r in reps if "import_s" in r]
    wall = [r["wall_s"] for r in timed]
    reference = next((r for r in reps if r["error"] is None), {})
    failed = sum(1 for r in reps if r["error"] is not None)
    counts = {
        "wall_s": len(wall), "setup_s": len(setup), "peak_rss_mb": len(timed),
        "macro_f1": reference.get("csv_rows", 0),
    }
    problems = [f"repetition {r['index']}: {r['error']}" for r in reps if r["error"]]
    missing: list[str] = []
    if trace:
        traced = reps[-1]
        if traced["error"] is None:
            spans = [Span(**{k: v for k, v in s.items() if k not in ("workload", "repetition")})
                     for s in traced["spans"]]
            metrics, missing = layer_metrics(spans, traced["missing"], _median(wall),
                                             traced["wall_s"], traced["cpu_s"])
            problem = trace_integrity(spans, workload.workers)
            if problem:
                problems.append(problem)
            counts = {k: 1 for k in metrics}
            (WORK / "results").mkdir(parents=True, exist_ok=True)
            (WORK / "results" / f"{name}-seed{seed}-spans.json").write_text(
                json.dumps(traced["spans"]), encoding="utf-8")
        else:
            metrics = {}
    else:
        metrics = {
            "wall_s": _median(wall),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["maxrss_mb"] for r in timed]),
            "macro_f1": reference.get("macro_f1", 0.0),
        }
    provenance.update({
        "loadavg_end": _loadavg(),
        "samples": counts,
        "per_run_csv_sha256": reference.get("sha256"),
        "macro_f1": reference.get("macro_f1"),
        "repetition_wall_s": [r.get("wall_s") for r in reps],
        "error_rate": failed / len(reps),
        "missing": missing,
        "problems": problems,
    })
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**provenance, "metrics": metrics}, indent=2), encoding="utf-8")
    return {
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "counts": counts,
        "provenance": provenance,
    }


def _print_result(name: str, result: dict, units: dict[str, str], why: str) -> None:
    p = result["provenance"]
    print(f"== {name}: {why}")
    print(f"   seed {p['seed']}  workers {p['workers']}  trace {int(p['trace'])}  "
          f"git {p['git_sha'][:12]}  nproc {p['nproc']}  python {p['python']}  numpy {p['numpy']}")
    print(f"   loadavg start [{p['loadavg_start']}]  end [{p['loadavg_end']}]")
    for metric, unit in units.items():
        if metric in result["metrics"]:
            value = result["metrics"][metric]
            print(f"   {metric:<44} {value:>16.6f} {unit:<6} n={result['counts'][metric]}")
    print(f"   {'error_rate':<44} {p['error_rate']:>16.6f} {'ratio':<6} "
          f"n={result['attempted']}")
    print(f"   per_run.csv sha256 {p['per_run_csv_sha256']}  macro_f1 {p['macro_f1']}")
    for name_missing in p["missing"]:
        print(f"   missing: {name_missing}")
    for problem in p["problems"]:
        print(f"   FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"error: not an occkit checkout, missing {absent}", file=sys.stderr)
        return 2

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_result(name, results[name], units, whys[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if len(names) > 1 else k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
