"""Tabular IDS data: CSV ingestion, preprocessing, splits and synthetic demos.

Preprocessing follows the minimal recipe the detectors assume: mean imputation
for missing numerics, lexicographically-ordered one-hot encoding for
categoricals, then max-min scaling fitted once and applied to any table.
Out-of-range values at apply time are deliberately not clipped; clipping would
erase the anomaly signal one-class detectors rely on.
"""

from __future__ import annotations

import csv
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
    {"normal": [...], "attack": [...]}.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"schema file {path} must contain a JSON object")
    if "columns" in raw:
        columns = raw["columns"]
        label_values = raw.get("label_values", {})
    else:
        columns = raw
        label_values = {}
    if not isinstance(columns, dict):
        raise ValueError("schema 'columns' must be a mapping of column name to kind")
    kwargs = {}
    if "normal" in label_values:
        kwargs["normal_values"] = frozenset(str(v) for v in label_values["normal"])
    if "attack" in label_values:
        kwargs["attack_values"] = frozenset(str(v) for v in label_values["attack"])
    return Schema(columns=tuple((str(n), str(k)) for n, k in columns.items()), **kwargs)


@dataclass(frozen=True)
class RawTable:
    """A CSV table after its one parse: one array per non-ignored column, by name.

    Numeric columns are float64, finite where a cell is given and NaN where
    `missing` marks an empty cell; other columns are int64 codes into `texts`,
    their sorted distinct non-empty cells, with -1 for an empty cell.
    """

    header: tuple[str, ...]
    columns: dict[str, np.ndarray]
    missing: dict[str, np.ndarray]
    texts: dict[str, tuple[str, ...]]

    @property
    def row_count(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def col_count(self) -> int:
        return len(self.header)

    def subset(self, indices: Sequence[int]) -> RawTable:
        idx = np.asarray(indices, dtype=np.int64)
        columns = {name: column[idx] for name, column in self.columns.items()}
        missing = {name: mask[idx] for name, mask in self.missing.items()}
        return RawTable(self.header, columns, missing, self.texts)


# bytes and byte pairs that keep a file from numpy's reader (see `_read_plain`)
_NOT_PLAIN = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\n\n", b"\n\r\n")


def load_csv(path: str | Path, schema: Schema) -> RawTable:
    """Read an RFC-4180 CSV with a header row into a RawTable, the only read of its cells.

    A plain file goes through numpy's C reader (see `_read_plain`); any other
    file, or a plain one that reader turns down, goes through the csv module.
    Both readers accept the same files, give the same table and raise the
    same errors, as the csv module is the only one that raises.

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
    numpy cannot parse (elsewhere its syntax is a subset of `float`'s) or
    that is not finite.
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
    del data
    try:
        # every row's width is checked, as no usecols is given; max_rows sizes
        # the result once
        with open(path, encoding="utf-8") as fh:
            rows = np.loadtxt(
                fh, dtype, comments=None, delimiter=",", skiprows=1, max_rows=n_rows, ndmin=1
            )
    except ValueError:
        return None
    columns, missing, texts = {}, {}, {}
    for j, name in enumerate(header):
        if kinds[name] == "numeric":
            columns[name] = np.ascontiguousarray(rows[f"f{j}"])
            if not np.isfinite(columns[name]).all():
                return None
            missing[name] = np.zeros(len(rows), bool)
        elif kinds[name] != "ignored":
            columns[name], texts[name] = _code_texts(rows[f"f{j}"].tolist())
    return RawTable(header=tuple(header), columns=columns, missing=missing, texts=texts)


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
        missing = sorted(set(kinds) - set(header))
        if missing:
            raise ValueError(f"{path}: header is missing schema columns: {missing}")
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {lineno} has {len(cells)} cells, expected {len(header)}"
                )
            rows.append(cells)
    by_column = np.array(rows, dtype=object).reshape(len(rows), len(header)).T
    columns, missing_cells, texts = {}, {}, {}
    for j, name in enumerate(header):
        if kinds[name] == "ignored":
            continue
        cells = by_column[j].tolist()
        if kinds[name] == "numeric":
            columns[name], missing_cells[name] = _parse_numeric(cells, name)
        else:
            columns[name], texts[name] = _code_texts(cells)
    return RawTable(header=tuple(header), columns=columns, missing=missing_cells, texts=texts)


def _code_texts(cells: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int64 codes into the sorted distinct non-empty cells, -1 for an empty cell, and those cells."""
    texts = tuple(sorted(set(cells) - {""}))
    code = {"": -1} | {text: i for i, text in enumerate(texts)}
    return np.fromiter(map(code.__getitem__, cells), np.int64, len(cells)), texts


def _parse_numeric(cells: list[str], column: str) -> tuple[np.ndarray, np.ndarray]:
    """A numeric column as float64 plus its mask of empty cells, which read as NaN.

    A cell that is not a number, or that reads as nan, inf or a value beyond
    the double range, raises ValueError naming the column and its data row.
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        empty = np.zeros(len(cells), bool)
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
        empty = np.array([not cell for cell in cells], dtype=bool)
    bad = ~(np.isfinite(values) | empty)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"column {column!r}, data row {i + 1}: {cells[i]!r} is not a finite number")
    return values, empty


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


def fit_preprocessor(table: RawTable, schema: Schema) -> PreprocessorState:
    """Fit imputation means, category vocabularies and max-min ranges.

    Means are computed over non-missing values only; categories are collected
    in lexicographic order; min/max are those of the imputed, one-hot encoded
    matrix, read off each column without building it: a one-hot feature's
    max is 1 and its min is 1 only when every row holds its category.

    Raises:
        ValueError: on an empty table, a fully-missing numeric column, or a
            schema with no feature columns.
    """
    if table.row_count == 0:
        raise ValueError("cannot fit a preprocessor on an empty table")
    if not schema.feature_columns:
        raise ValueError("schema has no numeric or categorical feature columns")
    means: dict[str, float] = {}
    cats: dict[str, tuple[str, ...]] = {}
    names = _feature_names(table, schema, means, cats)
    minmax: dict[str, tuple[float, float]] = {}
    for name, kind in schema.feature_columns:
        column = table.columns[name]
        if kind == "numeric":
            imputed = np.where(table.missing[name], means[name], column)
            if len(names) > 1:
                # as a column of the encoded matrix, a strided view: numpy's
                # contiguous min/max may pick the other sign of a zero extreme
                imputed = np.stack((imputed, imputed), axis=1)[:, 0]
            minmax[name] = (float(imputed.min()), float(imputed.max()))
        else:
            counts = np.bincount(column + 1, minlength=len(table.texts[name]) + 1)[1:]
            for code in np.flatnonzero(counts):
                minmax[f"{name}={table.texts[name][code]}"] = (float(counts[code] == column.size), 1.0)
    return PreprocessorState(imputation_means=means, category_maps=cats, minmax=minmax)


def _feature_names(
    table: RawTable,
    schema: Schema,
    means: dict[str, float],
    cats: dict[str, tuple[str, ...]],
) -> tuple[str, ...]:
    """Output feature names of the encoded table.

    A feature column with no entry in means / cats is fitted on this table and
    the entry added.
    """
    names: list[str] = []
    for name, kind in schema.feature_columns:
        column = table.columns[name]
        if kind == "numeric":
            if name not in means:
                present = column[~table.missing[name]]
                if not present.size:
                    raise ValueError(f"numeric column {name!r} is entirely missing, cannot impute")
                means[name] = math.fsum(present.tolist()) / present.size
            names.append(name)
        else:
            if name not in cats:
                texts = table.texts[name]
                cats[name] = tuple(texts[code] for code in np.unique(column[column >= 0]))
            names.extend(f"{name}={v}" for v in cats[name])
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
    constant features (min == max) map to 0.
    """
    # copies, so a column the state lacks is fitted here and rejected below
    means, cats = dict(state.imputation_means), dict(state.category_maps)
    names = _feature_names(table, schema, means, cats)
    if names != state.feature_names:
        raise ValueError("table columns do not match the schema/state used at fit time")
    X = np.zeros((table.row_count, len(names)))
    j = 0
    for name, kind in schema.feature_columns:
        column = table.columns[name]
        if kind == "numeric":
            X[:, j] = np.where(table.missing[name], means[name], column)
            j += 1
        else:
            index = {v: k for k, v in enumerate(cats[name])}
            # an unseen or missing (code -1, the trailing slot) category stays all-zero
            slots = np.array([index.get(text, -1) for text in table.texts[name]] + [-1])[column]
            rows = np.flatnonzero(slots >= 0)
            X[rows, j + slots[rows]] = 1.0
            j += len(cats[name])
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


def stratified_split(data: Dataset, plan: SplitPlan, run_index: int) -> tuple[Dataset, Dataset]:
    """Seeded, reproducible stratified partition for one run.

    The shuffle is seeded by (base_seed, run_index) only, so the same run
    always produces the same membership whatever else the caller does.
    """
    if not 0 <= run_index < plan.n_runs:
        raise ValueError(f"run_index {run_index} out of range 0..{plan.n_runs - 1}")
    rng = np.random.default_rng([plan.base_seed, run_index])
    train_idx, test_idx = stratified_indices(data.y, plan.ratio, rng)
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
    centers: dict[str, tuple[float, float]] | None = None,
) -> Dataset:
    """Three well-separated 2-D Gaussian clusters inside the unit square.

    One cluster is benign; the two others are attack types "a1" (between the
    benign cluster and the far corner) and "a2" (the far corner). Centers sit
    at least six pooled standard deviations apart so cluster identity is
    unambiguous.
    """
    centers = dict(DEMO_CENTERS if centers is None else centers)
    rng = np.random.default_rng([seed, 0x6D0])
    sizes = [n_normal if name == "normal" else n_attack for name in centers]
    X = np.vstack([rng.normal(loc=c, scale=sigma, size=(n, 2)) for c, n in zip(centers.values(), sizes)])
    tags = np.repeat(np.array(["" if name == "normal" else name for name in centers], object), sizes)
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
