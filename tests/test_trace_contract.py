"""The names the benchmark's tracer wraps stay in the program and keep their nesting."""

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


def test_traced_omission_misses_no_name_and_fits_under_the_grid(tmp_path):
    config = tmp_path / "omission.json"
    config.write_text(json.dumps({
        "seed": 5,
        "dataset": {"demo": {"n_normal": 60, "n_attack": 20}},
        "split": {"n_runs": 2},
        "detectors": {"stochastic-forest": {"variant": "stochastic-forest", "n_trees": 5}},
        "omission": {"k_values": [1], "rf": {"n_trees": 3}},
    }))
    spec = {
        "argv": ["omission", "--config", str(config), "--workers", "1", "--out", str(tmp_path / "out")],
        "out": str(tmp_path / "out"),
        "trace": True,
        "workload": "omission-tiny",
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
    (grid,) = [s for s in result["spans"] if s["name"] == "cli.run_omission_experiment"]
    fits = [s for s in result["spans"] if s["name"] == "supervised.rf_fit"]
    assert fits and all(s["parent"] == grid["id"] for s in fits)
