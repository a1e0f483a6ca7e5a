"""One repetition of a workload, run in a fresh interpreter.

Usage: python3 perfbench/repetition.py SPEC_JSON

The spec names the occkit argv, the output root, whether to trace, and where
to write the result. The import of `occkit.cli` is timed first (set-up time),
then `occkit.cli.main(argv)` (wall time), then the run directory is audited
with `occkit report`, outside the timed region. The process exits with the
code `main` returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Recorder, install


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _rows_of(position: int):
    def describe(args, kwargs, result):
        return {"rows": int(args[position].shape[0])}

    return describe


def _variant_rows(args, kwargs, result):
    return {"variant": args[0].variant, "rows": int(args[1].shape[0])}


def _dataset_in(args, kwargs, result):
    data = args[0]
    return {"rows": data.n_rows, "features": data.n_features, "maxrss_mb": _maxrss_mb()}


def _dataset_out(args, kwargs, result):
    return {"rows": result.n_rows, "features": result.n_features, "maxrss_mb": _maxrss_mb()}


# Names looked up by the orchestrator (occkit.cli) and by the omission experiment
# (occkit.supervised), each with what its span records beyond the timing.
CLI_NAMES = {
    "load_csv": lambda args, kwargs, result: {"rows": result.row_count},
    "fit_preprocessor": None,
    "apply_preprocessor": _dataset_out,
    "stratified_split": _dataset_in,
    "filter_normal": None,
    "fit_detector": _variant_rows,
    "score_detector": _variant_rows,
    "calibrate_threshold": lambda args, kwargs, result: {"sigma_zero": result.sigma == 0.0},
    "classify": None,
    "consensus": None,
    "confusion": None,
    "run_omission_experiment": lambda args, kwargs, result: {"cells": len(result.cells)},
}
SUPERVISED_NAMES = {
    "rf_fit": _rows_of(0),
    "rf_predict": _rows_of(1),
    "augment_with_noise": None,
    "omit_attack_types": None,
    "stratified_split": _dataset_in,
    "confusion": None,
}


def run(spec: dict) -> int:
    start = time.perf_counter()
    import occkit.cli as cli

    import_s = time.perf_counter() - start
    entry = cli.main
    recorder = None
    missing: list[str] = []
    if spec["trace"]:
        import occkit.supervised as supervised

        recorder = Recorder(spec["workload"], spec["repetition"])
        missing = install(recorder, cli, CLI_NAMES, "cli") + install(
            recorder, supervised, SUPERVISED_NAMES, "supervised"
        )
        entry = recorder.wrap(cli.main, "cli.main")

    cpu_start = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = entry(spec["argv"])
        except Exception:
            traceback.print_exc()
            code = 1
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu_start
    maxrss_mb = _maxrss_mb()

    csv_paths = sorted(Path(spec["out"]).glob("*/*/per_run.csv"))
    report_code = None
    if code == 0 and len(csv_paths) == 1:
        with contextlib.redirect_stdout(io.StringIO()):
            report_code = cli.main(["report", "--run-dir", str(csv_paths[0].parent)])
    result = {
        "exit_code": code,
        "report_code": report_code,
        "csv": str(csv_paths[0]) if len(csv_paths) == 1 else None,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_mb": maxrss_mb,
        "missing": missing,
        "spans": recorder.to_json() if recorder else [],
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))))
