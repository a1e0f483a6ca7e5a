"""The array-based CSV ingest against a cell-by-cell text reference.

The reference below is the ingest that kept every cell as text until it was
encoded: each encode parsed its numeric cells, looked every categorical cell
up in the vocabulary, and labels and tags were read row by row. It is kept
here, test-only, as the oracle for `load_csv` + `fit_preprocessor` +
`apply_preprocessor` + `extract_labels`: on any small CSV, fitted on one row
subset and applied to another, both must give the same bytes or the same
error.
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.dataset import Schema, apply_preprocessor, fit_preprocessor, load_csv

HEADER = ("n1", "c1", "junk", "n2", "label", "tag")
KINDS = {
    "n1": "numeric",
    "c1": "categorical",
    "junk": "ignored",
    "n2": "numeric",
    "label": "binary-label",
    "tag": "attack-type-tag",
}


# ---------------------------------------------------------------------------
# the text reference


def _reference_columns(path):
    """Every column as a tuple of its cell texts, None for an empty cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: tuple(row[j] or None for row in rows) for j, name in enumerate(header)}


def _reference_encode(columns, schema, means, cats):
    blocks, names = [], []
    for name, kind in schema.feature_columns:
        col = columns[name]
        if kind == "numeric":
            values = np.array(col, dtype=np.float64)
            missing = np.array([cell is None for cell in col], dtype=bool)
            if name not in means:
                present = values[~missing]
                if not present.size:
                    raise ValueError(f"numeric column {name!r} is entirely missing, cannot impute")
                means[name] = math.fsum(present.tolist()) / present.size
            values[missing] = means[name]
            blocks.append(values[:, None])
            names.append(name)
        else:
            if name not in cats:
                cats[name] = tuple(sorted(set(col) - {None}))
            vocab = cats[name]
            block = np.zeros((len(col), len(vocab)))
            for i, cell in enumerate(col):
                if cell in vocab:
                    block[i, vocab.index(cell)] = 1.0
            blocks.append(block)
            names.extend(f"{name}={v}" for v in vocab)
    return np.hstack(blocks), tuple(names)


def _reference_labels(columns, schema):
    label_col = columns[schema.label_column]
    wildcard_attack = "*" in schema.attack_values
    y = np.empty(len(label_col), dtype=np.int64)
    for i, cell in enumerate(label_col):
        if cell is None:
            raise ValueError(f"label column, data row {i + 1}: missing label value")
        v = cell.strip().lower()
        if v in schema.normal_values:
            y[i] = 0
        elif v in schema.attack_values or wildcard_attack:
            y[i] = 1
        else:
            raise ValueError(
                f"label column, data row {i + 1}: unrecognized label {cell!r} "
                f"(extend label_values in the schema file)"
            )
    if schema.tag_column is None:
        return y, ["" if label == 0 else cell.strip() for label, cell in zip(y, label_col)]
    tags = []
    for i, (label, cell) in enumerate(zip(y, columns[schema.tag_column])):
        if label == 0:
            tags.append("")
        elif cell is None or cell.strip() == "":
            raise ValueError(f"attack-type column, data row {i + 1}: attack row has no tag")
        else:
            tags.append(cell.strip())
    return y, tags


def _reference_ingest(path, schema, fit_rows, apply_rows):
    columns = _reference_columns(path)
    # The one rule the text ingest lacked: a numeric cell of any row must be a
    # finite number, checked column by column in file order.
    for name, kind in schema.columns:
        for i, cell in enumerate(columns[name]):
            if kind == "numeric" and cell is not None and not math.isfinite(float(cell)):
                raise ValueError(f"column {name!r}, data row {i + 1}: {cell!r} is not a finite number")
    fit_cols = {name: tuple(col[i] for i in fit_rows) for name, col in columns.items()}
    apply_cols = {name: tuple(col[i] for i in apply_rows) for name, col in columns.items()}
    if not fit_rows:
        raise ValueError("cannot fit a preprocessor on an empty table")
    means, cats = {}, {}
    X, names = _reference_encode(fit_cols, schema, means, cats)
    lo, hi = X.min(axis=0), X.max(axis=0)
    X, apply_names = _reference_encode(apply_cols, schema, means, cats)
    assert apply_names == names
    span = hi - lo
    X = (X - lo) / np.where(span == 0, 1.0, span)
    X[:, span == 0] = 0.0
    y, tags = _reference_labels(apply_cols, schema)
    return X.tobytes(), names, y.tolist(), tags


def _ingest(path, schema, fit_rows, apply_rows):
    table = load_csv(path, schema)
    state = fit_preprocessor(table.subset(fit_rows), schema)
    data = apply_preprocessor(state, table.subset(apply_rows), schema)
    return data.X.tobytes(), data.feature_names, data.y.tolist(), data.attack_type.tolist()


def _outcome(ingest, *args):
    try:
        return ingest(*args)
    except ValueError as exc:
        return ("error", str(exc))


# ---------------------------------------------------------------------------
# generated tables

_NUMBERS = st.one_of(
    st.sampled_from(["", "", "nan", "NaN", "-nan", "inf", "-0", " 1.5", "1_0", "+7", "1e400"]),
    st.integers(-1000, 1000).map(lambda i: f"{i:+d}"),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.3e}"),
)
_CATEGORIES = st.sampled_from(["", "tcp", "udp", "icmp", "TCP", " tcp", "sctp"])
_NORMAL_LABELS = st.sampled_from(["normal", "Normal", " NORMAL ", "0", "benign"])
_ATTACK_LABELS = st.sampled_from(["attack", "Attack ", "1", " anomaly", "MALICIOUS"])
_ATTACK_NAMES = st.sampled_from(["neptune", " smurf ", "Neptune", "satan"])
_TAGS = st.sampled_from(["dos", " dos", "probe ", " r2l ", "U2R"])
# mostly clean rows; now and then an empty or unknown label, or an attack row without a tag
_FAULTS = st.sampled_from([None] * 12 + ["empty label", "unknown label", "missing tag"])


@st.composite
def _cases(draw):
    wildcard = draw(st.booleans())
    columns = tuple((n, KINDS[n]) for n in HEADER if n != "tag" or draw(st.booleans()))
    labels = {"normal_values": frozenset({"normal", "0"}), "attack_values": frozenset({"*"})}
    schema = Schema(columns=columns, **(labels if wildcard else {}))
    # Half the files hold only numbers numpy's reader parses (finite, not
    # empty, no "_") and no quoted cell, so that it, not the csv module, reads them.
    plain = _NUMBERS.filter(lambda cell: cell.strip() and "_" not in cell and math.isfinite(float(cell)))
    numbers = draw(st.sampled_from([_NUMBERS, plain]))
    quoted = draw(st.booleans()) and numbers is _NUMBERS
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    n = draw(st.integers(1, 25))
    lines = [",".join(name for name, _ in columns)]
    for _ in range(n):
        attack = draw(st.booleans())
        if attack:
            label = draw(_ATTACK_NAMES if wildcard else _ATTACK_LABELS)
        else:
            label = draw(_NORMAL_LABELS)
        tag = draw(_TAGS) if attack else draw(st.sampled_from(["", "dos", " "]))
        fault = draw(_FAULTS)
        if fault == "empty label":
            label = ""
        elif fault == "unknown label":
            label = "weird"
        elif fault == "missing tag":
            tag = draw(st.sampled_from(["", "  "]))
        c1 = draw(_CATEGORIES)
        cells = {
            "n1": draw(numbers),
            "c1": f'"{c1}"' if quoted and draw(st.booleans()) else c1,
            "junk": draw(st.sampled_from(["", "x", "1.5"])),
            "n2": draw(numbers),
            "label": label,
            "tag": tag,
        }
        lines.append(",".join(cells[name] for name, _ in columns))
    rows = list(range(n))
    fit_rows = sorted(draw(st.sets(st.sampled_from(rows), max_size=n)))
    apply_rows = sorted(draw(st.sets(st.sampled_from(rows), min_size=1, max_size=n)))
    return schema, newline.join(lines) + newline, fit_rows, apply_rows


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_ingest_equals_the_cell_by_cell_text_reference(case):
    schema, text, fit_rows, apply_rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text, encoding="utf-8")
        expected = _outcome(_reference_ingest, path, schema, fit_rows, apply_rows)
        got = _outcome(_ingest, path, schema, fit_rows, apply_rows)
    assert got == expected
