"""Tabular IDS data: CSV ingestion, preprocessing, splits and synthetic demos.

Preprocessing follows the minimal recipe the detectors assume: mean imputation
for missing numerics, lexicographically-ordered one-hot encoding for
categoricals, then max-min scaling fitted once and applied to any table.
Out-of-range values at apply time are deliberately not clipped; clipping would
erase the anomaly signal one-class detectors rely on.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "COLUMN_KINDS",
    "Schema",
    "RawTable",
    "PreprocessorState",
    "Dataset",
    "SplitPlan",
    "load_schema",
    "load_csv",
    "extract_labels",
    "fit_preprocessor",
    "apply_preprocessor",
    "split_indices",
    "stratified_split",
    "filter_normal",
    "omit_attack_types",
    "generate_gaussian_demo",
    "generate_uniform_noise",
]

COLUMN_KINDS = ("numeric", "categorical", "binary-label", "attack-type-tag", "ignored")

DEFAULT_NORMAL_VALUES = frozenset({"0", "normal", "benign"})
DEFAULT_ATTACK_VALUES = frozenset({"1", "attack", "anomaly", "malicious"})

NOISE_TAG = "synthetic-noise"

# Demo geometry: one benign cluster, one attack cluster sitting between the
# benign cluster and a far attack cluster, all inside the unit square so the
# data needs no further scaling and uniform noise covers every cluster.
DEMO_CENTERS = {
    "normal": (0.20, 0.20),
    "a1": (0.38, 0.38),
    "a2": (0.80, 0.80),
}
DEMO_SIGMA = 0.03
DEMO_N_NORMAL = 600
DEMO_N_ATTACK = 200


@dataclass(frozen=True)
class Schema:
    """Ordered column names and kinds, plus the label vocabulary.

    Exactly one column must be the binary label; at most one may carry the
    attack-type tag. Label cell values are matched case-insensitively against
    normal_values / attack_values; attack_values may contain "*" to accept
    any value that is not a normal one (for label columns holding attack
    names, as in NSL-KDD).
    """

    columns: tuple[tuple[str, str], ...]
    normal_values: frozenset[str] = DEFAULT_NORMAL_VALUES
    attack_values: frozenset[str] = DEFAULT_ATTACK_VALUES

    def __post_init__(self) -> None:
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names in schema: {dupes}")
        for name, kind in self.columns:
            if kind not in COLUMN_KINDS:
                raise ValueError(f"column {name!r} has unknown kind {kind!r}")
        labels = [n for n, k in self.columns if k == "binary-label"]
        if len(labels) != 1:
            raise ValueError(f"schema needs exactly one binary-label column, found {len(labels)}")
        tags = [n for n, k in self.columns if k == "attack-type-tag"]
        if len(tags) > 1:
            raise ValueError(f"schema allows at most one attack-type-tag column, found {len(tags)}")
        object.__setattr__(self, "normal_values", frozenset(v.lower() for v in self.normal_values))
        object.__setattr__(self, "attack_values", frozenset(v.lower() for v in self.attack_values))

    @property
    def label_column(self) -> str:
        return next(n for n, k in self.columns if k == "binary-label")

    @property
    def tag_column(self) -> str | None:
        return next((n for n, k in self.columns if k == "attack-type-tag"), None)

    @property
    def feature_columns(self) -> tuple[tuple[str, str], ...]:
        return tuple((n, k) for n, k in self.columns if k in ("numeric", "categorical"))


def load_schema(path: str | Path) -> Schema:
    """Read a schema from a JSON side file.

    Accepts either a flat mapping {column: kind} or an object with a
    "columns" mapping and an optional "label_values" override
    {"normal": [...], "attack": [...]} of lists of strings; the object form
    rejects any other key.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"schema file {path} must contain a JSON object")
    if "columns" in raw:
        _require_keys(raw, {"columns", "label_values"}, f"schema file {path}")
        columns = raw["columns"]
        label_values = raw.get("label_values", {})
        if not isinstance(label_values, dict):
            raise ValueError("schema 'label_values' must be an object of 'normal' and 'attack' lists")
        _require_keys(label_values, {"normal", "attack"}, "schema 'label_values'")
    else:
        columns = raw
        label_values = {}
    if not isinstance(columns, dict):
        raise ValueError("schema 'columns' must be a mapping of column name to kind")
    kwargs = {}
    for key, values in label_values.items():
        if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
            raise ValueError(f"schema 'label_values.{key}' must be a list of strings, got {json.dumps(values)}")
        kwargs[f"{key}_values"] = frozenset(values)
    return Schema(columns=tuple((str(n), str(k)) for n, k in columns.items()), **kwargs)


def _require_keys(raw: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class RawTable:
    """A CSV table after its one parse: one array per non-ignored column, by name, in file order.

    Numeric columns are float64, finite where a cell is given and NaN (the only
    empty-cell marker) where it is empty; other columns are int64 codes into
    `texts`, their sorted distinct non-empty cells, with -1 for an empty cell.
    """

    columns: dict[str, np.ndarray]
    texts: dict[str, tuple[str, ...]]

    @property
    def row_count(self) -> int:
        return len(next(iter(self.columns.values())))

    def subset(self, indices: Sequence[int]) -> RawTable:
        idx = np.asarray(indices, dtype=np.int64)
        return RawTable({name: column[idx] for name, column in self.columns.items()}, self.texts)


# bytes and byte pairs that keep a file from numpy's reader (see `_read_plain`)
_NOT_PLAIN = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\n\n", b"\n\r\n")


def load_csv(path: str | Path, schema: Schema) -> RawTable:
    """Read an RFC-4180 CSV with a header row into a RawTable, the only read of its cells.

    An empty numeric cell reads as NaN. A plain file goes through numpy's C
    reader (see `_read_plain`); any other file, or a plain one that reader
    turns down, goes through the csv module. Both readers accept the same
    files, give the same table and raise the same errors, as the csv module
    is the only one that raises.

    Raises:
        ValueError: if the header repeats a column or does not match the
            schema's column set, a row's width differs from the header (the
            message names the 1-based line number), or a numeric cell is not
            a finite number (the message names the column and the 1-based
            data row).
    """
    path = Path(path)
    table = _read_plain(path, schema)
    return table if table is not None else _read_with_csv(path, schema)


def _read_plain(path: Path, schema: Schema) -> RawTable | None:
    """The table as numpy's C reader reads it, or None where the csv module must read the file.

    A plain file holds no '"', no NUL and no CR outside a CRLF. The csv module
    splits such a file into cells at every comma and into rows at every LF or
    CRLF, and so does `np.loadtxt`. None is returned for any other file and
    wherever the two could part: a header that does not match the schema, no
    data row, a blank line (numpy skips it, csv rejects it), a row of the
    wrong width, a line longer than csv's field size limit, a byte 0x1C-0x1F
    (numpy strips it from a number, `float` does not), or a numeric cell
    numpy cannot parse (where its syntax is a subset of `float`'s) or that is
    not finite. An empty numeric cell is handed to numpy as "nan".
    """
    data = path.read_bytes()
    if any(byte in data for byte in _NOT_PLAIN) or data.count(b"\r") != data.count(b"\r\n"):
        return None
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    n_rows = ends.size - 1 + (not data.endswith(b"\n"))
    if n_rows < 1 or np.diff(ends, prepend=-1, append=len(data)).max() > csv.field_size_limit():
        return None
    try:
        header = data[: ends[0]].decode("utf-8").removesuffix("\r").split(",")
    except UnicodeDecodeError:
        return None
    kinds = dict(schema.columns)
    if sorted(header) != sorted(kinds):
        return None
    # numbered fields, as a column name may be one numpy will not take
    dtype = np.dtype({
        "names": [f"f{j}" for j in range(len(header))],
        "formats": [np.float64 if kinds[name] == "numeric" else object for name in header],
    })
    # An empty numeric cell is read as "nan"; NaN is accepted there only, as
    # any other cell that is not finite sends the file to csv.
    at, row, column = _empty_cells(data, ends)
    if column.size and column.max() >= len(header):
        return None
    numeric = np.array([kinds[name] == "numeric" for name in header])
    at, row, column = at[numeric[column]], row[numeric[column]], column[numeric[column]]
    if at.size:
        cuts = [0, *at.tolist(), len(data)]
        marked = b"nan".join(data[a:b] for a, b in zip(cuts, cuts[1:]))
        source = io.TextIOWrapper(io.BytesIO(marked), encoding="utf-8")
    else:
        source = open(path, encoding="utf-8")
    del data
    try:
        # every row's width is checked, as no usecols is given; max_rows sizes
        # the result once
        with source as fh:
            rows = np.loadtxt(
                fh, dtype, comments=None, delimiter=",", skiprows=1, max_rows=n_rows, ndmin=1
            )
    except ValueError:
        return None
    columns, texts = {}, {}
    for j, name in enumerate(header):
        if kinds[name] == "numeric":
            columns[name] = np.ascontiguousarray(rows[f"f{j}"])
            given = np.ones(len(columns[name]), dtype=bool)
            given[row[column == j]] = False
            if not np.isfinite(columns[name][given]).all():
                return None
        elif kinds[name] != "ignored":
            columns[name], texts[name] = _code_texts(rows[f"f{j}"].tolist())
    return RawTable(columns, texts)


def _empty_cells(data: bytes, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offset, data row, column) of each empty cell of a plain file, by offset.

    `ends` holds the offsets of the file's LFs, the header's first. A data
    cell is empty where a comma, CR or LF comes right after a comma or LF,
    and where the file ends in a comma; the offset is where the cell ends.
    """
    byte = np.frombuffer(data, np.uint8)
    start = ends[0]
    splits = byte == ord(",")
    splits |= byte == ord("\n")
    closes = byte[start + 1 :] == ord("\r")
    closes |= splits[start + 1 :]
    closes &= splits[start:-1]
    at = np.flatnonzero(closes) + start + 1
    if data.endswith(b","):
        at = np.append(at, len(data))
    row = np.searchsorted(ends, at)  # LFs before the cell: its data row + 1
    commas = np.flatnonzero(byte == ord(",")) if at.size else at
    column = np.searchsorted(commas, at) - np.searchsorted(commas, ends[row - 1] + 1)
    return at, row - 1, column


def _read_with_csv(path: Path, schema: Schema) -> RawTable:
    """The table as the csv module reads it; the source of every error `load_csv` raises."""
    kinds = dict(schema.columns)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty, expected a header row") from None
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise ValueError(f"{path}: header repeats columns: {repeated}")
        unknown = [c for c in header if c not in kinds]
        if unknown:
            raise ValueError(f"{path}: header has columns not in schema: {unknown}")
        absent = sorted(set(kinds) - set(header))
        if absent:
            raise ValueError(f"{path}: header is missing schema columns: {absent}")
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {lineno} has {len(cells)} cells, expected {len(header)}"
                )
            rows.append(cells)
    by_column = np.array(rows, dtype=object).reshape(len(rows), len(header)).T
    columns, texts = {}, {}
    for j, name in enumerate(header):
        if kinds[name] == "ignored":
            continue
        cells = by_column[j].tolist()
        if kinds[name] == "numeric":
            columns[name] = _parse_numeric(cells, name)
        else:
            columns[name], texts[name] = _code_texts(cells)
    return RawTable(columns, texts)


def _code_texts(cells: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int64 codes into the sorted distinct non-empty cells, -1 for an empty cell, and those cells."""
    texts = tuple(sorted(set(cells) - {""}))
    code = {"": -1} | {text: i for i, text in enumerate(texts)}
    return np.fromiter(map(code.__getitem__, cells), np.int64, len(cells)), texts


def _parse_numeric(cells: list[str], column: str) -> np.ndarray:
    """A numeric column as float64, NaN where a cell is empty and finite elsewhere.

    A cell that is not a number, or that reads as nan, inf or a value beyond
    the double range, raises ValueError naming the column and its data row.
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:  # an empty cell or one that is not a number: go cell by cell
        values = np.full(len(cells), np.nan)
        for i, cell in enumerate(cells):
            try:
                if cell:
                    values[i] = float(cell)
            except ValueError:
                raise ValueError(
                    f"column {column!r}, data row {i + 1}: cannot parse {cell!r} as a number"
                ) from None
    # an empty cell is NaN by design; any other cell that is not finite is rejected
    bad = [i for i in np.flatnonzero(~np.isfinite(values)).tolist() if cells[i]]
    if bad:
        i = bad[0]
        raise ValueError(f"column {column!r}, data row {i + 1}: {cells[i]!r} is not a finite number")
    return values


@dataclass(frozen=True)
class PreprocessorState:
    """Fitted imputation means, category vocabularies and per-feature ranges."""

    imputation_means: dict[str, float]
    category_maps: dict[str, tuple[str, ...]]
    minmax: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for feat, (lo, hi) in self.minmax.items():
            if lo > hi:
                raise ValueError(f"feature {feat!r} has min {lo} > max {hi}")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.minmax.keys())


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with binary labels and per-row attack-type tags.

    y is 0 for normal and 1 for attack; normal rows always carry an empty
    attack_type. X, y and attack_type are read-only views: a float64 X, an
    int64 y and an object attack_type share the caller's memory rather than
    being copied; any other sequence of tags becomes an object array.
    """

    X: np.ndarray
    y: np.ndarray
    attack_type: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64).view()
        y = np.asarray(self.y, dtype=np.int64).view()
        tags = np.asarray(self.attack_type, dtype=object).view()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if y.size and not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 (normal) or 1 (attack)")
        if tags.shape != (X.shape[0],):
            raise ValueError("attack_type length must equal row count")
        if X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must equal column count")
        if (tags[y == 0] != "").any():
            raise ValueError("normal rows must have an empty attack_type")
        for name, array in (("X", X), ("y", y), ("attack_type", tags)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: Sequence[int]) -> Dataset:
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            X=self.X[idx],
            y=self.y[idx],
            attack_type=self.attack_type[idx],
            feature_names=self.feature_names,
        )

    def attack_tags(self) -> tuple[str, ...]:
        """Distinct attack-type tags present, in first-appearance order."""
        return tuple(dict.fromkeys(self.attack_type[self.y == 1].tolist()))


@dataclass(frozen=True)
class SplitPlan:
    """Stratified split settings: train ratio, number of runs, base seed."""

    ratio: float = 0.8
    n_runs: int = 10
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0,1), got {self.ratio}")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")


def fit_preprocessor(table: RawTable, schema: Schema) -> PreprocessorState:
    """Fit imputation means, category vocabularies and max-min ranges.

    Means are computed over the given (non-NaN) values only; categories are
    collected in lexicographic order; min/max are those of the imputed,
    one-hot encoded matrix, read off each column without building it: a
    one-hot feature's max is 1 and its min is 1 only when every row holds
    its category.

    Raises:
        ValueError: on an empty table, a fully-missing numeric column, a
            schema with no feature columns, or two encoded features of one name.
    """
    if table.row_count == 0:
        raise ValueError("cannot fit a preprocessor on an empty table")
    if not schema.feature_columns:
        raise ValueError("schema has no numeric or categorical feature columns")
    means: dict[str, float] = {}
    counts: dict[str, np.ndarray] = {}
    for name, kind in schema.feature_columns:
        column = table.columns[name]
        if kind == "numeric":
            present = column[~np.isnan(column)]
            if not present.size:
                raise ValueError(f"numeric column {name!r} is entirely missing, cannot impute")
            means[name] = math.fsum(present.tolist()) / present.size
        else:
            counts[name] = np.bincount(column + 1, minlength=len(table.texts[name]) + 1)[1:]
    cats = {name: tuple(table.texts[name][code] for code in np.flatnonzero(c)) for name, c in counts.items()}
    names = _feature_names(schema, cats)
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"encoded feature names repeat: {repeated}")
    minmax: dict[str, tuple[float, float]] = {}
    for name, kind in schema.feature_columns:
        column = table.columns[name]
        if kind == "numeric":
            imputed = np.where(np.isnan(column), means[name], column)
            if len(names) > 1:
                # as a column of the encoded matrix, a strided view: numpy's
                # contiguous min/max may pick the other sign of a zero extreme
                imputed = np.stack((imputed, imputed), axis=1)[:, 0]
            minmax[name] = (float(imputed.min()), float(imputed.max()))
        else:
            for text, count in zip(cats[name], counts[name][counts[name] > 0].tolist()):
                minmax[f"{name}={text}"] = (float(count == column.size), 1.0)
    return PreprocessorState(imputation_means=means, category_maps=cats, minmax=minmax)


def _feature_names(schema: Schema, category_maps: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Encoded feature names: a numeric column's name, one `column=value` per category."""
    names: list[str] = []
    for name, kind in schema.feature_columns:
        if kind == "numeric":
            names.append(name)
        else:
            names.extend(f"{name}={v}" for v in category_maps[name])
    return tuple(names)


def extract_labels(table: RawTable, schema: Schema) -> tuple[np.ndarray, np.ndarray]:
    """Binary labels and attack-type tags (an object array) from the label/tag columns.

    Normal rows always get an empty tag, whatever the tag column holds. If a
    tag column exists, attack rows must have a non-empty tag; without one,
    attack rows are tagged with their raw label text, so a label column that
    carries attack names doubles as the tag source.
    """
    codes, texts = table.columns[schema.label_column], table.texts[schema.label_column]
    wildcard_attack = "*" in schema.attack_values
    # 0 normal, 1 attack, -1 unrecognized per distinct text; -2 for code -1, an empty cell
    classes = [
        0 if v in schema.normal_values else 1 if v in schema.attack_values or wildcard_attack else -1
        for v in (text.strip().lower() for text in texts)
    ]
    y = np.array(classes + [-2], dtype=np.int64)[codes]
    bad = np.flatnonzero(y < 0)
    if bad.size:
        i = int(bad[0])
        if y[i] == -2:
            raise ValueError(f"label column, data row {i + 1}: missing label value")
        raise ValueError(
            f"label column, data row {i + 1}: unrecognized label {texts[codes[i]]!r} "
            f"(extend label_values in the schema file)"
        )
    if schema.tag_column is not None:
        codes, texts = table.columns[schema.tag_column], table.texts[schema.tag_column]
    tags = np.array([text.strip() for text in texts] + [""], dtype=object)[codes]
    tags[y == 0] = ""
    untagged = np.flatnonzero((y == 1) & (tags == ""))
    if schema.tag_column is not None and untagged.size:
        raise ValueError(f"attack-type column, data row {untagged[0] + 1}: attack row has no tag")
    return y, tags


def apply_preprocessor(state: PreprocessorState, table: RawTable, schema: Schema) -> Dataset:
    """Impute, encode and scale a table with a fitted state.

    Missing numerics take the fitted mean, unseen categories map to an
    all-zero block, scaling uses the fitted ranges without clipping, and
    constant features (min == max) map to 0. A schema whose feature columns
    differ from the fitted ones (one added, dropped or of another kind)
    raises ValueError.
    """
    fitted = dict.fromkeys(state.imputation_means, "numeric")
    fitted |= dict.fromkeys(state.category_maps, "categorical")
    names = state.feature_names
    if fitted != dict(schema.feature_columns) or _feature_names(schema, state.category_maps) != names:
        raise ValueError("schema feature columns do not match those the state was fitted with")
    X = np.zeros((table.row_count, len(names)))
    j = 0
    for name, kind in schema.feature_columns:
        column = table.columns[name]
        if kind == "numeric":
            X[:, j] = np.where(np.isnan(column), state.imputation_means[name], column)
            j += 1
        else:
            index = {v: k for k, v in enumerate(state.category_maps[name])}
            # an unseen or missing (code -1, the trailing slot) category stays all-zero
            slots = np.array([index.get(text, -1) for text in table.texts[name]] + [-1])[column]
            rows = np.flatnonzero(slots >= 0)
            X[rows, j + slots[rows]] = 1.0
            j += len(index)
    lo = np.array([state.minmax[f][0] for f in names], dtype=np.float64)
    hi = np.array([state.minmax[f][1] for f in names], dtype=np.float64)
    span = hi - lo
    constant = span == 0
    X -= lo
    X /= np.where(constant, 1.0, span)
    X[:, constant] = 0.0
    y, tags = extract_labels(table, schema)
    return Dataset(X=X, y=y, attack_type=tags, feature_names=names)


def stratified_indices(
    y: np.ndarray, ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class seeded shuffle and prefix cut; returns (train, test) row indices."""
    train_parts = []
    test_parts = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < 2:
            raise ValueError(
                f"class {cls} has {idx.size} rows, need at least 2 to stratify"
            )
        perm = idx[rng.permutation(idx.size)]
        n_train = int(math.floor(ratio * idx.size + 1e-9))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def split_indices(y: np.ndarray, plan: SplitPlan, run_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices of one run's stratified partition.

    The shuffle is seeded by (base_seed, run_index) only, so the same run
    always produces the same membership whatever else the caller does.
    """
    if not 0 <= run_index < plan.n_runs:
        raise ValueError(f"run_index {run_index} out of range 0..{plan.n_runs - 1}")
    return stratified_indices(y, plan.ratio, np.random.default_rng([plan.base_seed, run_index]))


def stratified_split(data: Dataset, plan: SplitPlan, run_index: int) -> tuple[Dataset, Dataset]:
    """Seeded, reproducible stratified partition for one run, see `split_indices`."""
    train_idx, test_idx = split_indices(data.y, plan, run_index)
    return data.subset(train_idx), data.subset(test_idx)


def filter_normal(data: Dataset) -> Dataset:
    """Rows with y == 0, order preserved.

    Raises:
        ValueError: if there are no normal rows to train on.
    """
    idx = np.flatnonzero(data.y == 0)
    if idx.size == 0:
        raise ValueError("no normal rows: one-class training needs benign data")
    return data.subset(idx)


def omit_attack_types(data: Dataset, combo: Iterable[str]) -> Dataset:
    """Remove every row whose attack_type is in combo; normal rows untouched.

    Raises:
        ValueError: if a tag in combo does not occur in the data.
    """
    combo_set = set(combo)
    present = set(data.attack_tags())
    unknown = sorted(combo_set - present)
    if unknown:
        raise ValueError(f"attack types not present in data: {unknown}")
    return data.subset(np.flatnonzero(~np.isin(data.attack_type, list(combo_set))))


def generate_gaussian_demo(
    seed: int,
    n_normal: int = DEMO_N_NORMAL,
    n_attack: int = DEMO_N_ATTACK,
    sigma: float = DEMO_SIGMA,
) -> Dataset:
    """Three well-separated 2-D Gaussian clusters inside the unit square.

    One cluster is benign; the two others are attack types "a1" (between the
    benign cluster and the far corner) and "a2" (the far corner). Centers sit
    at least six pooled standard deviations apart so cluster identity is
    unambiguous.
    """
    rng = np.random.default_rng([seed, 0x6D0])
    sizes = [n_normal if name == "normal" else n_attack for name in DEMO_CENTERS]
    X = np.vstack([rng.normal(loc=c, scale=sigma, size=(n, 2)) for c, n in zip(DEMO_CENTERS.values(), sizes)])
    tags = np.repeat(np.array(["" if name == "normal" else name for name in DEMO_CENTERS], object), sizes)
    return Dataset(X=X, y=(tags != "").astype(np.int64), attack_type=tags, feature_names=("x1", "x2"))


def generate_uniform_noise(n: int, d: int, seed: int) -> Dataset:
    """n rows uniform on [0,1]^d, all labeled attack with the synthetic-noise tag."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng([seed, 0x401])
    return Dataset(
        X=rng.uniform(0.0, 1.0, size=(n, d)),
        y=np.ones(n, dtype=np.int64),
        attack_type=np.full(n, NOISE_TAG, dtype=object),
        feature_names=tuple(f"f{j}" for j in range(d)),
    )
