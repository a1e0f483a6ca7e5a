import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from occkit.cli import (
    ConfigError,
    ConsistencyError,
    _finalize,
    cmd_demo,
    cmd_occ_eval,
    cmd_omission,
    cmd_report,
    load_config,
    main,
)
from occkit.dataset import generate_gaussian_demo

SMALL_DETECTORS = {
    "stochastic-forest": {"variant": "stochastic-forest", "n_trees": 30, "subsample": 64},
    "isolation-forest": {"variant": "isolation-forest", "n_trees": 30, "subsample": 64},
    "lof": {"variant": "lof", "k_neighbors": 8},
    "linear-recon": {"variant": "linear-recon", "n_components": 1},
}


def _occ_config(tmp_path, **overrides):
    cfg = {
        "seed": 7,
        "dataset": {"demo": {"n_normal": 120, "n_attack": 40}},
        "split": {"ratio": 0.8, "n_runs": 3},
        "detectors": SMALL_DETECTORS,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config parsing


def test_config_requires_seed(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"demo": {}}}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path, experiment="occ-eval", seed_override=None)
    cfg = load_config(path, experiment="occ-eval", seed_override=3)
    assert cfg.seed == 3


def test_config_rejects_detector_seed_key(tmp_path):
    path = _occ_config(tmp_path, detectors={"d": {"variant": "lof", "seed": 1}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path, experiment="occ-eval", seed_override=None)


def test_config_rejects_unknown_ensemble_member(tmp_path):
    path = _occ_config(tmp_path, ensemble={"members": ["nope"]})
    with pytest.raises(ConfigError, match="nope"):
        load_config(path, experiment="occ-eval", seed_override=None)


def test_config_rejects_bad_level(tmp_path):
    path = _occ_config(tmp_path, ensemble={"levels": [9]})
    with pytest.raises(ConfigError, match="level"):
        load_config(path, experiment="occ-eval", seed_override=None)


def test_config_rejects_duplicate_ensemble_member(tmp_path):
    # A repeated member would count one detector's vote twice.
    path = _occ_config(tmp_path, ensemble={"members": ["lof", "lof"]})
    with pytest.raises(ConfigError, match="ensemble.members repeats a detector"):
        load_config(path, experiment="occ-eval", seed_override=None)


def test_config_rejects_duplicate_ensemble_level(tmp_path):
    # A repeated level would write two ensemble-1 rows per run.
    path = _occ_config(tmp_path, ensemble={"levels": [1, 1]})
    with pytest.raises(ConfigError, match="ensemble.levels repeats a level"):
        load_config(path, experiment="occ-eval", seed_override=None)


@pytest.mark.parametrize(
    "overrides, where, key",
    [
        ({"sede": 7}, "config", "sede"),
        ({"dataset": {"demo": {}, "csv": "flows.csv"}}, "dataset", "csv"),
        ({"dataset": {"demo": {"n_normals": 50}}}, "dataset.demo", "n_normals"),
        ({"split": {"ratoi": 0.5}}, "split", "ratoi"),
        ({"detectors": {"lof": {"variant": "lof", "k": 5}}}, "detector 'lof'", "k"),
        ({"ensemble": {"level": [1]}}, "ensemble", "level"),
        ({"omission": {"k_value": [1]}}, "omission", "k_value"),
        ({"omission": {"rf": {"depth": 3}}}, "omission.rf", "depth"),
    ],
    ids=["top-level", "dataset", "dataset.demo", "split", "detector", "ensemble", "omission", "omission.rf"],
)
def test_main_rejects_an_unknown_key_in_every_block(overrides, where, key, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["occ-eval", "--config", str(_occ_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    assert f"{where} has unknown keys ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def _with_forest(**settings):
    forest = {**SMALL_DETECTORS["stochastic-forest"], **settings}
    return {**SMALL_DETECTORS, "stochastic-forest": forest}


@pytest.mark.parametrize(
    "command, overrides, named",
    [
        ("occ-eval", {"seed": True}, "config.seed must be a JSON integer"),
        ("occ-eval", {"dataset": {"demo": {"n_normal": "many"}}}, "dataset.demo.n_normal"),
        ("occ-eval", {"split": {"n_runs": 2.7}}, "split.n_runs must be a JSON integer"),
        ("occ-eval", {"detectors": _with_forest(n_trees=2.5)}, "detector 'stochastic-forest'.n_trees"),
        ("occ-eval", {"ensemble": {"members": "lof"}}, "ensemble.members must be a JSON list"),
        ("occ-eval", {"ensemble": {"levels": ["x"]}}, "ensemble.levels must be a JSON list"),
        ("omission", {"omission": {"k_values": "12"}}, "omission.k_values must be a JSON list"),
        ("omission", {"omission": {"k_values": [1, 1]}}, "omission.k_values repeats a value: [1, 1]"),
        ("omission", {"omission": {"with_noise": "no"}}, "omission.with_noise must be a JSON boolean"),
        ("omission", {"omission": {"rf": {"n_trees": "5"}}}, "omission.rf.n_trees must be a JSON integer"),
        ("omission", {"omission": {"rf": {"n_trees": 0}}}, "omission.rf: n_trees must be >= 1"),
        ("omission", {"omission": {"combination_cap": 0}}, "omission.combination_cap must be >= 1"),
        ("occ-eval", {"seed": -1}, "config.seed must be >= 0, got -1"),
        ("omission", {"split": {"base_seed": -4}}, "split: base_seed must be >= 0, got -4"),
        ("occ-eval", {"dataset": {"demo": {"seed": -2}}}, "dataset.demo.seed must be >= 0, got -2"),
        ("occ-eval", {"dataset": {"demo": {"n_normal": 0}}}, "dataset.demo.n_normal must be >= 2, got 0"),
        ("occ-eval", {"dataset": {"demo": {"n_normal": 1}}}, "dataset.demo.n_normal must be >= 2, got 1"),
        ("omission", {"dataset": {"demo": {"n_normal": -5}}}, "dataset.demo.n_normal must be >= 2, got -5"),
        ("occ-eval", {"dataset": {"demo": {"n_attack": 0}}}, "dataset.demo.n_attack must be >= 1, got 0"),
        ("occ-eval", {"dataset": {"demo": {"sigma": -1}}}, "dataset.demo.sigma must be finite and >= 0, got -1.0"),
        ("omission", {"dataset": {"demo": {"sigma": float("nan")}}}, "dataset.demo.sigma must be finite and >= 0, got nan"),
        ("occ-eval", {"dataset": {"demo": {"sigma": float("inf")}}}, "dataset.demo.sigma must be finite and >= 0, got inf"),
        ("occ-eval", {"ensemble": {"members": []}}, "ensemble.members is empty"),
        ("occ-eval", {"preprocessor_fit": "train"}, "preprocessor_fit='train' needs a CSV dataset"),
    ],
    ids=[
        "seed", "dataset.demo", "split", "detector", "ensemble.members", "ensemble.levels",
        "omission.k_values", "omission.k_values-repeated", "omission.with_noise", "omission.rf-type",
        "omission.rf-range", "omission.combination_cap", "seed-negative", "split.base_seed-negative",
        "dataset.demo.seed-negative", "dataset.demo.n_normal-zero", "dataset.demo.n_normal-one",
        "dataset.demo.n_normal-negative", "dataset.demo.n_attack-zero", "dataset.demo.sigma-negative",
        "dataset.demo.sigma-nan", "dataset.demo.sigma-infinite", "ensemble.members-empty",
        "preprocessor_fit-demo",
    ],
)
def test_main_rejects_a_wrong_typed_value_in_every_block(command, overrides, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", str(_occ_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_main_runs_the_smallest_demo_sizes_the_config_accepts(tmp_path):
    overrides = {
        "dataset": {"demo": {"n_normal": 2, "n_attack": 1}},
        "split": {"n_runs": 1},
        "detectors": {"isolation-forest": SMALL_DETECTORS["isolation-forest"]},
    }
    config = str(_occ_config(tmp_path, **overrides))
    for command in ("occ-eval", "omission"):  # omission's training fold holds no "a2" row here
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 0, command


def _readme_example(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    # Strip the // comments, then the comma they leave after the "demo" block.
    example = re.sub(r",(\s*\})", r"\1", re.sub(r"//[^\n]*", "", example))
    path = tmp_path / "readme.json"
    path.write_text(example)
    return path


def test_readme_configuration_example_loads(tmp_path):
    cfg = load_config(_readme_example(tmp_path), experiment="omission", seed_override=None)
    assert list(cfg.detectors) == ["stochastic-forest", "lof"]
    assert cfg.ensemble_members == ("stochastic-forest", "lof")
    assert cfg.omission["rf"] == {"n_trees": 100, "max_depth": None, "min_leaf": 1}


# config.json sha256 and config_hash of configs the golden tests do not run.
RESOLVED_PINS = {
    ("readme", "occ-eval"): (
        "8779b76b26cd71103706f7255c3427d410ac4f38f76cb739a68391ccfd7d1e04",
        "0680bcb1cfef",
    ),
    ("readme", "omission"): (
        "b98093f6ac257fda729401fb876ae8738fb1fd58a3fe44db3cb59bd1bbf52f34",
        "321cdd7cdb8b",
    ),
    ("seed-only", "occ-eval"): (
        "5bc95ef1feb407d719428342b5e02dd3d338fa6c68a4bfea129eda8b76bc1073",
        "a15570dfc2e3",
    ),
    ("seed-only", "omission"): (
        "eb2a6d2633e8605cff32641861c347899315bb91561ceb67510e75033249cab8",
        "88423cac4404",
    ),
    ("int-sigma", "occ-eval"): (
        "b5b98525f4b40c679ca1238b9658785091d7d7915810a9b6412d6b5411928156",
        "bba952ea82ab",
    ),
    ("int-sigma", "omission"): (
        "a660dbecd07f147d50af5b23873c0dcf361100462f50badd89e02d78afa3d082",
        "0a01588b4ccc",
    ),
}


@pytest.mark.parametrize("name, experiment", sorted(RESOLVED_PINS))
def test_resolved_config_is_pinned(name, experiment, tmp_path):
    if name == "readme":
        path = _readme_example(tmp_path)
    else:
        raw = {"seed": 1}
        if name == "int-sigma":
            raw["dataset"] = {"demo": {"n_normal": 50, "n_attack": 10, "sigma": 1}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
    config = load_config(path, experiment=experiment, seed_override=None)
    _finalize(config, tmp_path, {})  # writes config.json exactly as a run does
    digest = hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest()
    assert (digest, config.config_hash) == RESOLVED_PINS[name, experiment]


def test_config_defaults_fill_detectors(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1}))
    cfg = load_config(path, experiment="occ-eval", seed_override=None)
    assert set(cfg.detectors) == {"isolation-forest", "stochastic-forest", "lof", "linear-recon"}
    assert cfg.ensemble_levels == (1, 2, 3, 4)


def test_config_hash_stable(tmp_path):
    path = _occ_config(tmp_path)
    c1 = load_config(path, experiment="occ-eval", seed_override=None)
    c2 = load_config(path, experiment="occ-eval", seed_override=None)
    assert c1.config_hash == c2.config_hash


# ---------------------------------------------------------------------------
# occ-eval


@pytest.fixture(scope="module")
def occ_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("occ")
    config_path = _occ_config(tmp_path)
    config = load_config(config_path, experiment="occ-eval", seed_override=None)
    out = tmp_path / "out"
    report = cmd_occ_eval(config, out)
    return config, out, report


def test_occ_eval_outputs(occ_run):
    config, out, report = occ_run
    run_dir = out / "occ-eval" / config.config_hash
    assert (run_dir / "per_run.csv").is_file()
    assert (run_dir / "report.json").is_file()
    assert (run_dir / "config.json").is_file()
    # 4 detector blocks + 4 ensemble blocks
    kinds = [b["kind"] for b in report.blocks.values()]
    assert kinds.count("detector") == 4
    assert kinds.count("ensemble") == 4


def test_occ_eval_rows_cover_runs_and_models(occ_run):
    config, out, _ = occ_run
    rows = _read_csv(out / "occ-eval" / config.config_hash / "per_run.csv")
    assert len(rows) == 3 * 8
    assert {r["run"] for r in rows} == {"0", "1", "2"}
    ensemble_rows = [r for r in rows if r["kind"] == "ensemble"]
    assert all(r["n_models"] == "4" for r in ensemble_rows)


def test_occ_eval_rerun_byte_identical(occ_run, tmp_path):
    config, out, _ = occ_run
    out2 = tmp_path / "out2"
    cmd_occ_eval(config, out2)
    a = (out / "occ-eval" / config.config_hash / "per_run.csv").read_bytes()
    b = (out2 / "occ-eval" / config.config_hash / "per_run.csv").read_bytes()
    assert a == b


def test_occ_eval_worker_count_does_not_change_output(occ_run, tmp_path):
    config, out, _ = occ_run
    out2 = tmp_path / "out_w4"
    cmd_occ_eval(config, out2, workers=4)
    a = (out / "occ-eval" / config.config_hash / "per_run.csv").read_bytes()
    b = (out2 / "occ-eval" / config.config_hash / "per_run.csv").read_bytes()
    assert a == b


def test_report_self_consistency(occ_run):
    config, out, report = occ_run
    audited = cmd_report(out / "occ-eval" / config.config_hash)
    assert audited.blocks.keys() == report.blocks.keys()


def test_report_detects_tampering(occ_run, tmp_path):
    config, out, _ = occ_run
    run_dir = out / "occ-eval" / config.config_hash
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    for name in ("per_run.csv", "report.json"):
        (tampered / name).write_text((run_dir / name).read_text())
    text = (tampered / "per_run.csv").read_text().splitlines()
    cells = text[1].split(",")
    cells[4] = "12.5"  # accuracy cell
    text[1] = ",".join(cells)
    (tampered / "per_run.csv").write_text("\n".join(text) + "\n")
    with pytest.raises(ConsistencyError):
        cmd_report(tampered)


def test_report_missing_dir(tmp_path):
    with pytest.raises(ValueError):
        cmd_report(tmp_path / "nothing")


# ---------------------------------------------------------------------------
# omission command


@pytest.fixture(scope="module")
def omission_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("omis")
    config_path = _occ_config(
        tmp_path,
        omission={"k_values": [1, 2], "with_noise": True, "rf": {"n_trees": 20}},
    )
    config = load_config(config_path, experiment="omission", seed_override=None)
    out = tmp_path / "out"
    report = cmd_omission(config, out)
    return config, out, report


def test_omission_rows_structure(omission_run):
    config, out, _ = omission_run
    rows = _read_csv(out / "omission" / config.config_hash / "per_run.csv")
    # combos: k0 -> 1, k1 -> 2, k2 -> 1; arms plain+noise+occ; 3 runs
    assert len(rows) == 4 * 3 * 3
    arms = {r["arm"] for r in rows}
    assert arms == {"plain", "noise", "occ"}
    for row in rows:
        if row["k"] == "1":
            assert row["combination_tags"] in ("a1", "a2")
        if row["k"] == "2":
            assert row["combination_tags"] == "a1|a2"


def test_omission_occ_rows_constant_across_k(omission_run):
    config, out, _ = omission_run
    rows = _read_csv(out / "omission" / config.config_hash / "per_run.csv")
    occ = [r for r in rows if r["arm"] == "occ"]
    for run in ("0", "1", "2"):
        per_run = {
            (r["k"], r["combination_id"]): (r["accuracy"], r["attack_f1"], r["macro_f1"])
            for r in occ
            if r["run"] == run
        }
        assert len(set(per_run.values())) == 1


def test_omission_report_audit(omission_run):
    config, out, _ = omission_run
    audited = cmd_report(out / "omission" / config.config_hash)
    assert any(key.startswith("k=0/") for key in audited.blocks)


def test_omission_rf_degrades_with_k_but_occ_does_not(omission_run):
    _, _, report = omission_run
    plain_acc = {
        k: report.blocks[f"k={k}/plain"]["metrics"]["accuracy"]["mean"] for k in (0, 2)
    }
    occ_acc = {
        k: report.blocks[f"k={k}/occ"]["metrics"]["accuracy"]["mean"] for k in (0, 2)
    }
    assert plain_acc[0] - plain_acc[2] > 20.0
    assert occ_acc[0] == pytest.approx(occ_acc[2], abs=1e-12)


# ---------------------------------------------------------------------------
# demo command


def test_demo_outputs(tmp_path):
    run_dir = cmd_demo(seed=5, out_dir=tmp_path)
    rows = _read_csv(run_dir / "demo_points.csv")
    assert list(rows[0].keys()) == ["x1", "x2", "true_label", "rf_plain", "rf_noise", "occ"]
    assert len(rows) == 1000

    demo = generate_gaussian_demo(5)
    a1_rows = [i for i, tag in enumerate(demo.attack_type) if tag == "a1"]
    flagged = sum(int(rows[i]["rf_noise"]) for i in a1_rows)
    assert flagged / len(a1_rows) >= 0.8

    other = cmd_demo(seed=6, out_dir=tmp_path)
    assert other != run_dir
    other_rows = _read_csv(other / "demo_points.csv")
    assert other_rows[0]["x1"] != rows[0]["x1"]


# ---------------------------------------------------------------------------
# csv-backed experiments


def _ids_like_csv(tmp_path, n=400, seed=0):
    """Small NSL-KDD-shaped table: numerics + categoricals, attack-name labels."""
    rng = np.random.default_rng(seed)
    schema = {
        "columns": {
            "duration": "numeric",
            "src_bytes": "numeric",
            "dst_bytes": "numeric",
            "count": "numeric",
            "protocol_type": "categorical",
            "flag": "categorical",
            "class": "binary-label",
            "difficulty": "ignored",
        },
        "label_values": {"normal": ["normal"], "attack": ["*"]},
    }
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    lines = ["duration,src_bytes,dst_bytes,count,protocol_type,flag,class,difficulty"]
    protos = ["tcp", "udp", "icmp"]
    for i in range(n):
        if i % 4:  # normals: tight operating region
            row = rng.normal([10, 300, 400, 5], [2, 30, 40, 1])
            label = "normal"
        else:  # attacks: shifted regions per type
            kind = ["neptune", "smurf"][i % 8 == 0]
            shift = [0, 4000, 50, 200] if kind == "neptune" else [300, 20, 9000, 80]
            row = rng.normal(shift, [5, 10, 100, 10])
            label = kind
        duration = "" if i % 37 == 0 else f"{row[0]:.2f}"
        lines.append(
            f"{duration},{row[1]:.2f},{row[2]:.2f},{row[3]:.2f},"
            f"{protos[i % 3]},{'SF' if i % 2 else 'S0'},{label},{i % 5}"
        )
    csv_path = tmp_path / "flows.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path, schema_path


@pytest.mark.parametrize("fit_mode", ["full", "train"])
def test_occ_eval_on_csv_dataset(tmp_path, fit_mode):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    config_path = _occ_config(
        tmp_path,
        dataset={"csv": str(csv_path), "schema": str(schema_path)},
        preprocessor_fit=fit_mode,
        detectors={
            "stochastic-forest": {"variant": "stochastic-forest", "n_trees": 40, "subsample": 64}
        },
    )
    config = load_config(config_path, experiment="occ-eval", seed_override=None)
    out = tmp_path / f"out-{fit_mode}"
    report = cmd_occ_eval(config, out)
    acc = report.blocks["stochastic-forest"]["metrics"]["accuracy"]["mean"]
    assert acc >= 80.0  # well-separated synthetic attacks

    out2 = tmp_path / f"out2-{fit_mode}"
    cmd_occ_eval(config, out2)
    a = (out / "occ-eval" / config.config_hash / "per_run.csv").read_bytes()
    b = (out2 / "occ-eval" / config.config_hash / "per_run.csv").read_bytes()
    assert a == b


def test_omission_on_csv_dataset_by_attack_name(tmp_path):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    config_path = _occ_config(
        tmp_path,
        dataset={"csv": str(csv_path), "schema": str(schema_path)},
        detectors={
            "stochastic-forest": {"variant": "stochastic-forest", "n_trees": 30, "subsample": 64}
        },
        split={"ratio": 0.8, "n_runs": 2},
        omission={"k_values": [1], "with_noise": False, "rf": {"n_trees": 15}},
    )
    config = load_config(config_path, experiment="omission", seed_override=None)
    report = cmd_omission(config, tmp_path / "out")
    assert "k=1/plain" in report.blocks


def _fail_run_2(monkeypatch):
    """Make every cell of run 2 raise, naming the process it ran in."""
    import occkit.cli as cli_mod

    real = cli_mod._occ_cell

    def flaky(config, source, cell):
        if cell[0] == 2:
            raise ValueError(f"synthetic failure in process {os.getpid()}")
        return real(config, source, cell)

    monkeypatch.setattr(cli_mod, "_occ_cell", flaky)


def test_failed_run_preserves_completed_rows(tmp_path, monkeypatch):
    _fail_run_2(monkeypatch)
    config_path = _occ_config(tmp_path)
    config = load_config(config_path, experiment="occ-eval", seed_override=None)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="aborted at run 2"):
        cmd_occ_eval(config, out)
    partial = out / "occ-eval" / config.config_hash / "per_run.partial.csv"
    rows = _read_csv(partial)
    assert {r["run"] for r in rows} == {"0", "1"}
    assert not (out / "occ-eval" / config.config_hash / "per_run.csv").exists()


def test_occ_eval_failing_in_its_first_run_leaves_no_run_directory(tmp_path, capsys):
    # k_neighbors is not below the 96 training normals, so run 0's LOF fit fails.
    detectors = {"lof": {"variant": "lof", "k_neighbors": 500}}
    config_path = _occ_config(tmp_path, split={"ratio": 0.8, "n_runs": 2}, detectors=detectors)
    out = tmp_path / "out"
    assert main(["occ-eval", "--config", str(config_path), "--out", str(out)]) == 3
    assert "occ-eval aborted at run 0" in capsys.readouterr().err
    assert not out.exists()


def test_failed_cell_in_a_worker_process_preserves_completed_rows(tmp_path, monkeypatch):
    _fail_run_2(monkeypatch)
    config_path = _occ_config(tmp_path)
    config = load_config(config_path, experiment="occ-eval", seed_override=None)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"aborted at run 2: synthetic failure in process (\d+)") as exc:
        cmd_occ_eval(config, out, workers=2)
    assert int(re.search(r"process (\d+)", str(exc.value)).group(1)) != os.getpid()
    run_dir = out / "occ-eval" / config.config_hash
    serial = tmp_path / "serial"
    cmd_occ_eval(load_config(_occ_config(tmp_path, split={"ratio": 0.8, "n_runs": 2}),
                             experiment="occ-eval", seed_override=None), serial)
    # The rows of runs 0 and 1 are the ones a clean two-run experiment writes.
    partial = (run_dir / "per_run.partial.csv").read_text()
    assert partial == next(serial.glob("occ-eval/*/per_run.csv")).read_text()
    assert not (run_dir / "per_run.csv").exists()


def test_failed_grid_cell_in_a_worker_process_ends_omission_with_a_data_error(tmp_path, monkeypatch, capsys):
    import occkit.supervised as supervised_mod

    def failing_fit(X, y, config, seed):
        raise ValueError(f"synthetic failure in process {os.getpid()}")

    monkeypatch.setattr(supervised_mod, "rf_fit", failing_fit)
    config_path = _occ_config(
        tmp_path,
        detectors={"stochastic-forest": SMALL_DETECTORS["stochastic-forest"]},
        omission={"k_values": [1], "with_noise": True, "rf": {"n_trees": 3}},
    )
    out = tmp_path / "out"
    assert main(["omission", "--config", str(config_path), "--out", str(out), "--workers", "2"]) == 3
    pid = re.search(r"synthetic failure in process (\d+)", capsys.readouterr().err).group(1)
    assert int(pid) != os.getpid()
    assert not list(out.glob("omission/*/per_run.csv"))


def test_config_rejects_a_repeated_omission_attack_type(tmp_path):
    config_path = _occ_config(tmp_path, omission={"attack_types": ["a1", "a1"]})
    with pytest.raises(ConfigError, match="repeats a type"):
        load_config(config_path, experiment="omission", seed_override=None)


def test_main_rejects_an_empty_omission_attack_type_list(tmp_path, capsys):
    config_path = _occ_config(tmp_path, omission={"attack_types": []})
    out = tmp_path / "out"
    assert main(["omission", "--config", str(config_path), "--out", str(out)]) == 2
    assert "omission.attack_types is empty" in capsys.readouterr().err
    assert not out.exists()


def test_main_omission_rejects_a_k_with_more_combinations_than_the_cap_can_draw(tmp_path, capsys):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    header, *rows = csv_path.read_text().splitlines()
    attacks = [i for i, row in enumerate(rows) if ",normal," not in row]
    for j, i in enumerate(attacks):  # 100 attack rows over 70 tags
        prefix, _, difficulty = rows[i].rsplit(",", 2)
        rows[i] = f"{prefix},t{j % 70:02d},{difficulty}"
    csv_path.write_text("\n".join([header] + rows) + "\n")
    dataset = {"csv": str(csv_path), "schema": str(schema_path)}
    cfg = _occ_config(tmp_path, dataset=dataset, omission={"k_values": [35]})
    out = tmp_path / "out"
    assert main(["omission", "--config", str(cfg), "--out", str(out)]) == 3
    assert "C(70, 35) combinations, above 2^63 - 1" in capsys.readouterr().err
    assert not out.exists()


def test_main_omission_on_a_csv_without_attack_rows_is_a_data_error(tmp_path, capsys):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    header, *rows = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([header] + [row for row in rows if ",normal," in row]) + "\n")
    cfg = _occ_config(tmp_path, dataset={"csv": str(csv_path), "schema": str(schema_path)})
    out = tmp_path / "out"
    assert main(["omission", "--config", str(cfg), "--out", str(out)]) == 3
    assert "omission needs at least one attack type" in capsys.readouterr().err
    assert not out.exists()


def test_leak_free_mode_rejected_for_omission(tmp_path):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    config_path = _occ_config(
        tmp_path,
        dataset={"csv": str(csv_path), "schema": str(schema_path)},
        preprocessor_fit="train",
    )
    with pytest.raises(ConfigError, match="leak-free"):
        load_config(config_path, experiment="omission", seed_override=None)


# ---------------------------------------------------------------------------
# exit codes through main()


def test_main_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["occ-eval", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_main_missing_seed_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"demo": {}}}))
    assert main(["occ-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["occ-eval", "omission", "demo"])
def test_main_rejects_a_negative_seed_flag(command, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [command, "--out", str(out), "--seed", "-1"]
    if command != "demo":
        argv += ["--config", str(_occ_config(tmp_path))]
    assert main(argv) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preprocessor_fit", ["full", "train"])
def test_main_bad_numeric_cell_names_its_row_in_the_file(tmp_path, capsys, preprocessor_fit):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[60] = "fast" + lines[60][lines[60].index(","):]
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = _occ_config(
        tmp_path,
        dataset={"csv": str(csv_path), "schema": str(schema_path)},
        preprocessor_fit=preprocessor_fit,
    )
    assert main(["occ-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "column 'duration', data row 60: cannot parse 'fast'" in capsys.readouterr().err


def test_main_non_finite_numeric_cell_names_its_row_in_the_file(tmp_path, capsys):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    lines = csv_path.read_text().splitlines()
    cells = lines[60].split(",")
    cells[1] = "inf"  # src_bytes, a column without empty cells
    lines[60] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = _occ_config(tmp_path, dataset={"csv": str(csv_path), "schema": str(schema_path)})
    assert main(["occ-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "column 'src_bytes', data row 60: 'inf' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_schema_with_a_label_values_list_is_a_data_error(tmp_path, capsys):
    csv_path, schema_path = _ids_like_csv(tmp_path)
    schema = json.loads(schema_path.read_text())
    schema["label_values"] = ["normal"]
    schema_path.write_text(json.dumps(schema))
    cfg = _occ_config(tmp_path, dataset={"csv": str(csv_path), "schema": str(schema_path)})
    assert main(["occ-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "schema 'label_values' must be an object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_report_data_error(tmp_path):
    assert main(["report", "--run-dir", str(tmp_path / "missing")]) == 3


def test_main_report_consistency_exit_code(occ_run, tmp_path):
    config, out, _ = occ_run
    run_dir = out / "occ-eval" / config.config_hash
    tampered = tmp_path / "t2"
    tampered.mkdir()
    for name in ("per_run.csv", "report.json"):
        (tampered / name).write_text((run_dir / name).read_text())
    text = (tampered / "per_run.csv").read_text().splitlines()
    cells = text[2].split(",")
    cells[-1] = "1.0"
    text[2] = ",".join(cells)
    (tampered / "per_run.csv").write_text("\n".join(text) + "\n")
    assert main(["report", "--run-dir", str(tampered)]) == 4


def _copy_run(occ_run, dest):
    config, out, _ = occ_run
    run_dir = out / "occ-eval" / config.config_hash
    dest.mkdir()
    for name in ("per_run.csv", "report.json"):
        (dest / name).write_text((run_dir / name).read_text())
    return dest


def test_main_report_names_missing_report_key(occ_run, tmp_path, capsys):
    damaged = _copy_run(occ_run, tmp_path / "damaged")
    stored = json.loads((damaged / "report.json").read_text())
    del stored["seed"]
    (damaged / "report.json").write_text(json.dumps(stored))
    assert main(["report", "--run-dir", str(damaged)]) == 3
    assert "['seed']" in capsys.readouterr().err


def test_main_report_rejects_a_report_that_is_no_object(occ_run, tmp_path, capsys):
    damaged = _copy_run(occ_run, tmp_path / "damaged")
    (damaged / "report.json").write_text("5")
    assert main(["report", "--run-dir", str(damaged)]) == 3
    assert "report.json is not a JSON object" in capsys.readouterr().err


def test_main_report_names_short_csv_row(occ_run, tmp_path, capsys):
    damaged = _copy_run(occ_run, tmp_path / "damaged")
    lines = (damaged / "per_run.csv").read_text().splitlines()
    width = len(lines[0].split(","))
    lines[3] = lines[3].rsplit(",", 1)[0]
    (damaged / "per_run.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--run-dir", str(damaged)]) == 3
    assert f"data row 3 has {width - 1} cells, expected {width}" in capsys.readouterr().err


def test_main_report_rejects_a_nan_metric_cell(occ_run, tmp_path, capsys):
    damaged = _copy_run(occ_run, tmp_path / "damaged")
    lines = (damaged / "per_run.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = "nan"  # accuracy cell
    lines[1] = ",".join(cells)
    (damaged / "per_run.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--run-dir", str(damaged)]) == 4
    assert f"{cells[1]}.accuracy.mean" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage", ["drop", "not-an-object", "blocks-a-list", "stats-a-number", "mean-a-string"]
)
def test_main_report_names_block_without_metrics(occ_run, tmp_path, capsys, damage):
    damaged = _copy_run(occ_run, tmp_path / "damaged")
    stored = json.loads((damaged / "report.json").read_text())
    name = sorted(stored["blocks"])[0]
    block = stored["blocks"][name]
    named = f"block {name!r} metric 'accuracy' is not an object of numbers"
    if damage == "drop":
        del block["metrics"]
        named = f"block {name!r} has no 'metrics' object"
    elif damage == "not-an-object":
        block["metrics"] = [1, 2]
        named = f"block {name!r} has no 'metrics' object"
    elif damage == "blocks-a-list":
        stored["blocks"] = list(stored["blocks"].values())
        named = "report.json 'blocks' is not an object"
    elif damage == "stats-a-number":
        block["metrics"]["accuracy"] = 1.0
    else:
        block["metrics"]["accuracy"]["mean"] = "1.0"
    (damaged / "report.json").write_text(json.dumps(stored))
    assert main(["report", "--run-dir", str(damaged)]) == 3
    assert named in capsys.readouterr().err


def _nudge_accuracy_mean(stored, name):
    """Move a stored mean by one ulp: the audit compares exactly."""
    stats = stored["blocks"][name]["metrics"]["accuracy"]
    stats["mean"] = math.nextafter(stats["mean"], math.inf)


@pytest.mark.parametrize(
    "tamper, named",
    [
        (lambda stored, name: stored["blocks"][name]["metrics"].update(bogus={"mean": 1.0, "std": 0.0}),
         ": stored metrics ["),
        (lambda stored, name: stored["blocks"][name].update(note="added"),
         ": stored keys ['kind', 'metrics', 'n_models', 'note']"),
        (lambda stored, name: stored["blocks"][name].update(kind="ensemble"),
         ".kind: stored 'ensemble' but per-run rows give 'detector'"),
        (lambda stored, name: stored["blocks"][name].update(n_models=99),
         ".n_models: stored 99 but per-run rows give 1"),
        (lambda stored, name: stored.update(n_runs=7), "n_runs: stored 7 but per-run rows hold 3 runs"),
        (_nudge_accuracy_mean, ".accuracy.mean: stored "),
    ],
    ids=["bogus-metric", "extra-key", "kind", "n_models", "n_runs", "mean-one-ulp"],
)
def test_main_report_audits_whole_blocks_and_run_count(occ_run, tmp_path, capsys, tamper, named):
    damaged = _copy_run(occ_run, tmp_path / "damaged")
    stored = json.loads((damaged / "report.json").read_text())
    tamper(stored, next(name for name, block in stored["blocks"].items() if block["kind"] == "detector"))
    (damaged / "report.json").write_text(json.dumps(stored))
    assert main(["report", "--run-dir", str(damaged)]) == 4
    assert named in capsys.readouterr().err


def test_main_demo_runs(tmp_path):
    assert main(["demo", "--out", str(tmp_path), "--seed", "3"]) == 0
    assert (tmp_path / "demo").is_dir()


def test_main_occ_eval_runs(tmp_path):
    cfg = _occ_config(tmp_path, split={"ratio": 0.8, "n_runs": 2})
    assert main(["occ-eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


_DEMO_RUNS = """
import sys
from occkit.cli import main
for command in ("occ-eval", "omission"):
    assert main([command, "--config", f"configs/demo-{command}.json", "--out", sys.argv[1]]) == 0
print(sorted(name for name in ("numpy.ma", *sys.argv[2:]) if name in sys.modules))
"""

# Installed for the tests only; a run needs nothing beyond numpy.
_TEST_ONLY = ("scipy", "hypothesis", "threadpoolctl", "pytest", "pytest_benchmark")


def test_demo_runs_do_not_import_numpy_ma(tmp_path):
    # np.unique without return_* imports numpy.ma, ~12 ms of each run.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", _DEMO_RUNS, str(tmp_path), *_TEST_ONLY], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
