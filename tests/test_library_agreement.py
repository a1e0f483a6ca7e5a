"""The omission report written by the CLI and the library's result agree exactly."""

import json

import occkit.cli as cli
from occkit.dataset import SplitPlan, generate_gaussian_demo
from occkit.supervised import ForestConfig, OmissionPlan, run_omission_experiment


def test_omission_report_blocks_equal_library_per_k(tmp_path, monkeypatch):
    config = {
        "seed": 11,
        "dataset": {"demo": {"n_normal": 150, "n_attack": 60}},
        "split": {"ratio": 0.8, "n_runs": 2},
        "detectors": {"stochastic-forest": {"variant": "stochastic-forest", "n_trees": 10}},
        "omission": {"k_values": [1, 2], "with_noise": True, "rf": {"n_trees": 8}},
    }
    path = tmp_path / "omission.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    passed = {}  # the one-class arm the CLI hands the library

    def spy(*args, occ, **kwargs):
        passed["occ"] = occ
        return run_omission_experiment(*args, occ=occ, **kwargs)

    monkeypatch.setattr(cli, "run_omission_experiment", spy)
    assert cli.main(["omission", "--config", str(path), "--out", str(out)]) == 0
    (report_path,) = out.glob("omission/*/report.json")
    blocks = json.loads(report_path.read_text())["blocks"]

    data = generate_gaussian_demo(11, n_normal=150, n_attack=60)
    plan = OmissionPlan(
        attack_types=data.attack_tags(),
        k_values=(1, 2),
        with_noise=True,
        split=SplitPlan(ratio=0.8, n_runs=2, base_seed=11),
    )
    per_k = run_omission_experiment(data, plan, ForestConfig(n_trees=8), occ=passed["occ"]).per_k

    assert {arm for _, arm in per_k} == {"plain", "noise", "occ"}
    assert set(blocks) == {f"k={k}/{arm}" for k, arm in per_k}
    for (k, arm), summary in per_k.items():
        assert blocks[f"k={k}/{arm}"]["metrics"] == {
            name: {"mean": mean, "std": std} for name, (mean, std) in summary.items()
        }
