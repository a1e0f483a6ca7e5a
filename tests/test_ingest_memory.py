"""Memory bound on ingest: load, fit and apply over an NSL-KDD-shaped plain CSV.

The encoded float64 matrix is the one large array ingest must build. Reading
the file and fitting the preprocessor are bounded by it: the Python-level
(tracemalloc) peak of the three steps stays within twice its size; the
csv-module reader with a fit that encoded the whole table peaked at 3.4 times.
"""

import tracemalloc
from pathlib import Path

import numpy as np

from occkit.dataset import apply_preprocessor, fit_preprocessor, load_csv, load_schema

SCHEMA_FILE = Path(__file__).resolve().parent.parent / "configs" / "nsl-kdd.schema.json"
LEVELS = {"protocol_type": 3, "service": 70, "flag": 11}
N_ROWS = 20_000


def _write_nsl_shaped(path, schema, rng):
    """A plain CSV in the schema's 43-column layout, every category level present."""
    cells = []
    for name, kind in schema.columns:
        if kind == "numeric":
            column = np.where(rng.random(N_ROWS) < 0.5, rng.integers(0, 500, N_ROWS), 0).astype(str)
        elif kind == "categorical":
            codes = rng.integers(0, LEVELS[name], N_ROWS)
            codes[: LEVELS[name]] = np.arange(LEVELS[name])
            column = np.char.add(f"{name[:3]}", codes.astype(str))
        elif kind == "binary-label":
            column = np.where(rng.random(N_ROWS) < 0.5, "normal", "neptune")
        else:
            column = rng.integers(0, 22, N_ROWS).astype(str)
        cells.append(column.tolist())
    lines = [",".join(name for name, _ in schema.columns)]
    lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_peak_is_within_twice_the_encoded_matrix(tmp_path):
    schema = load_schema(SCHEMA_FILE)
    path = tmp_path / "nsl.csv"
    _write_nsl_shaped(path, schema, np.random.default_rng(7))
    tracemalloc.start()
    try:
        table = load_csv(path, schema)
        data = apply_preprocessor(fit_preprocessor(table, schema), table, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.X.shape == (N_ROWS, 38 + sum(LEVELS.values()))
    assert peak <= 2 * data.X.nbytes, f"peak {peak / 2**20:.1f} MiB, X {data.X.nbytes / 2**20:.1f} MiB"
