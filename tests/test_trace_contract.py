"""The names the benchmark's tracer wraps stay in the program and keep their nesting."""

import collections
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import occkit.cli as cli
import occkit.supervised as supervised

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_wrapped_name_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    repetition = importlib.import_module("repetition")
    for module, names in ((cli, repetition.CLI_NAMES), (supervised, repetition.SUPERVISED_NAMES)):
        assert [name for name in names if not callable(getattr(module, name, None))] == []


def _traced_run(tmp_path, command, config):
    """The result of one traced repetition of `occkit <command>` on `config`, after its common checks."""
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(json.dumps(config))
    spec = {
        "argv": [command, "--config", str(config_path), "--workers", "1", "--out", str(tmp_path / "out")],
        "out": str(tmp_path / "out"),
        "trace": True,
        "workload": f"{command}-tiny",
        "repetition": 0,
        "result": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "repetition.py"), str(tmp_path / "spec.json")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["missing"] == []
    assert result["report_code"] == 0
    return result


def test_traced_omission_misses_no_name_and_fits_under_the_grid(tmp_path):
    result = _traced_run(tmp_path, "omission", {
        "seed": 5,
        "dataset": {"demo": {"n_normal": 60, "n_attack": 20}},
        "split": {"n_runs": 2},
        "detectors": {"stochastic-forest": {"variant": "stochastic-forest", "n_trees": 5}},
        "omission": {"k_values": [1], "rf": {"n_trees": 3}},
    })
    (grid,) = [s for s in result["spans"] if s["name"] == "cli.run_omission_experiment"]
    fits = [s for s in result["spans"] if s["name"] == "supervised.rf_fit"]
    assert fits and all(s["parent"] == grid["id"] for s in fits)


def test_traced_occ_eval_sees_every_detector_call(tmp_path):
    # A detector call routed around a wrapped `cli` name would zero its layer.
    result = _traced_run(tmp_path, "occ-eval", {
        "seed": 5,
        "dataset": {"demo": {"n_normal": 60, "n_attack": 20}},
        "split": {"n_runs": 2},
        "detectors": {
            "stochastic-forest": {"variant": "stochastic-forest", "n_trees": 5},
            "lof": {"variant": "lof", "k_neighbors": 5},
        },
    })
    counts = collections.Counter(s["name"] for s in result["spans"])
    assert {name: counts[f"cli.{name}"] for name in (
        "stratified_split", "filter_normal", "fit_detector", "score_detector",
        "calibrate_threshold", "classify", "consensus", "confusion",
    )} == {
        "stratified_split": 2, "filter_normal": 2, "fit_detector": 4, "score_detector": 8,
        "calibrate_threshold": 4, "classify": 4, "consensus": 4, "confusion": 8,
    }
