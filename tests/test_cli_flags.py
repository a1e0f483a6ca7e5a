"""Every CLI flag does something: forms that would be silently ignored are rejected."""

import json

import pytest

from occkit.cli import main


def _omission_config(tmp_path):
    path = tmp_path / "omission.json"
    path.write_text(
        json.dumps(
            {
                "seed": 3,
                "dataset": {"demo": {"n_normal": 60, "n_attack": 20}},
                "split": {"n_runs": 1},
                "detectors": {"stochastic-forest": {"variant": "stochastic-forest", "n_trees": 5}},
                "omission": {"k_values": [1], "with_noise": False, "rf": {"n_trees": 3}},
            }
        )
    )
    return path


def _argparse_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_demo_rejects_workers(tmp_path):
    argv = ["demo", "--out", str(tmp_path), "--seed", "1", "--workers", "2"]
    assert _argparse_exit_code(argv) == 2
    assert not (tmp_path / "demo").exists()


def test_omission_rejects_more_than_one_worker(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["omission", "--config", str(_omission_config(tmp_path)), "--out", str(out)]
    assert main(argv + ["--workers", "2"]) == 2
    assert "--workers must be 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--workers", "1"]) == 0


def test_omission_help_says_workers_must_be_one(capsys):
    assert _argparse_exit_code(["omission", "--help"]) == 0
    assert "--workers WORKERS must be 1" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("workers", [0, -1])
def test_occ_eval_rejects_workers_below_one(workers, tmp_path, capsys):
    config = tmp_path / "occ.json"
    config.write_text(json.dumps({"seed": 3, "split": {"n_runs": 1}}))
    out = tmp_path / "out"
    argv = ["occ-eval", "--config", str(config), "--out", str(out), "--workers", str(workers)]
    assert main(argv) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_out_alias(tmp_path):
    assert _argparse_exit_code(["report", "--out", str(tmp_path)]) == 2


def test_report_requires_run_dir():
    assert _argparse_exit_code(["report"]) == 2
