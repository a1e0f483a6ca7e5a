"""Golden sha256 pins for the CSV ingest path.

The shipped-config pins in test_golden.py run on demo data only, so they
never reach load_csv, fit_preprocessor or apply_preprocessor. The table
here is built in the test from a fixed seed and covers what ingest must
handle: missing numeric and categorical cells, a category that some
training folds lack (it then encodes to an all-zero block), a constant
column, and a header whose order differs from the schema's.
"""

import hashlib
import json

import numpy as np
import pytest

from occkit.cli import main
from occkit.dataset import (
    apply_preprocessor,
    extract_labels,
    fit_preprocessor,
    load_csv,
    load_schema,
    stratified_indices,
)

SCHEMA = {
    "duration": "numeric",
    "proto": "categorical",
    "src_bytes": "numeric",
    "const": "numeric",
    "flag": "categorical",
    "label": "binary-label",
    "attack_cat": "attack-type-tag",
}
HEADER = ("label", "src_bytes", "proto", "duration", "attack_cat", "flag", "const")
N_RUNS = 5
RARE = "gre"  # one row only: absent from the training part of some runs


def _write_table(tmp_path):
    rng = np.random.default_rng(20240)
    lines = [",".join(HEADER)]
    for i in range(150):
        attack = i % 3 == 0
        tag = ("dos", "probe")[i % 2] if attack else ""
        duration = "" if rng.random() < 0.1 else f"{rng.normal(5.0 if attack else 1.0, 0.7):.3f}"
        src_bytes = str(int(rng.integers(200, 900) if attack else rng.integers(0, 300)))
        proto = RARE if i == 40 else ("tcp", "udp", "icmp")[int(rng.integers(0, 3))]
        flag = "" if rng.random() < 0.05 else ("SF", "S0", "REJ")[int(rng.integers(0, 3))]
        cells = {
            "label": "attack" if attack else "normal",
            "src_bytes": src_bytes if i % 17 else f"{float(src_bytes):.1e}",
            "proto": proto,
            "duration": duration,
            "attack_cat": tag,
            "flag": flag,
            "const": "1",
        }
        lines.append(",".join(cells[name] for name in HEADER))
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"columns": SCHEMA}), encoding="utf-8")
    return csv_path, schema_path


def test_table_has_the_cases_it_claims(tmp_path):
    csv_path, schema_path = _write_table(tmp_path)
    schema = load_schema(schema_path)
    table = load_csv(csv_path, schema)
    assert np.isnan(table.columns["duration"]).any()
    assert -1 in table.columns["flag"]
    assert not np.isnan(table.columns["const"]).any() and set(table.columns["const"].tolist()) == {1.0}
    y, _ = extract_labels(table, schema)
    rare_row = table.columns["proto"].tolist().index(table.texts["proto"].index(RARE))
    train_has_rare = []
    for run in range(N_RUNS):
        train_idx, _ = stratified_indices(y, 0.8, np.random.default_rng([3, run]))
        train_has_rare.append(rare_row in train_idx)
    assert True in train_has_rare and False in train_has_rare


def test_apply_preprocessor_output_is_pinned(tmp_path):
    csv_path, schema_path = _write_table(tmp_path)
    schema = load_schema(schema_path)
    table = load_csv(csv_path, schema)
    data = apply_preprocessor(fit_preprocessor(table, schema), table, schema)
    digest = hashlib.sha256(data.X.tobytes() + "\n".join(data.feature_names).encode())
    assert data.X.shape == (150, 10)
    assert digest.hexdigest() == (
        "c5db2d6734cb69b6b7556b722a1501ba96d9581c6dadbdcba63b8836e41ede07"
    )


@pytest.mark.parametrize(
    "preprocessor_fit, per_run",
    [
        ("full", "8d132b6d7d3ee1c20e7ed8f6cef4aa72af2ffa418dff1f916c1bd58250bd50df"),
        ("train", "7987fb967950a2b6f64a4041fa2543a02f198e8dc1a29d1ec440c83dea26263a"),
    ],
)
def test_csv_occ_eval_per_run_is_pinned(tmp_path, preprocessor_fit, per_run):
    csv_path, schema_path = _write_table(tmp_path)
    config = {
        "seed": 3,
        "dataset": {"csv": str(csv_path), "schema": str(schema_path)},
        "split": {"ratio": 0.8, "n_runs": N_RUNS},
        "preprocessor_fit": preprocessor_fit,
        "detectors": {
            "stochastic-forest": {"variant": "stochastic-forest", "n_trees": 20, "subsample": 32},
            "isolation-forest": {"variant": "isolation-forest", "n_trees": 20, "subsample": 32},
            "lof": {"variant": "lof", "k_neighbors": 5},
            "linear-recon": {"variant": "linear-recon", "n_components": 2},
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["occ-eval", "--config", str(config_path), "--out", str(out)]) == 0
    (per_run_csv,) = out.glob("occ-eval/*/per_run.csv")
    assert hashlib.sha256(per_run_csv.read_bytes()).hexdigest() == per_run
