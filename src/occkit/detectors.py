"""Four one-class detectors trained on benign rows only.

Every variant exposes the same contract: fit on a matrix of normal rows,
then emit one finite normality score per scored row, oriented so that higher
means more normal. Variants whose natural output is an anomaly score (LOF,
reconstruction error) are negated internally so a single threshold rule
applies uniformly downstream.

Variants:
    isolation-forest   random-cut trees, score = mean path length
    stochastic-forest  split-at-datum trees; splits sit on training
                       coordinates, so rankings are invariant under strictly
                       monotone per-feature transforms
    lof                local outlier factor against the training set, negated
    linear-recon       principal subspace from one symmetric
                       eigendecomposition; the seed has no effect;
                       score = -squared reconstruction error
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import trees
from .calibration import Threshold
from .seeding import rng_for

__all__ = [
    "VARIANTS",
    "DetectorConfig",
    "FittedDetector",
    "fit",
    "score",
    "isolation_path_adjustment",
    "save_detector",
    "load_detector",
    "load_saved_threshold",
]

EULER_MASCHERONI = 0.5772156649

# Stand-in for an infinite local reachability density when a point has k or
# more duplicates; keeps scores finite and ordering sensible.
LRD_SENTINEL = 1e12

# Attempts to find a non-degenerate split-at-datum cut before giving up on a node.
_SPLIT_RETRIES = 8

PERSIST_FORMAT_VERSION = 2


@dataclass(frozen=True)
class DetectorConfig:
    """Variant selector plus hyperparameters; unused fields are ignored.

    n_components defaults to min(d, 8), resolved when fitting.
    """

    variant: str
    n_trees: int = 100
    subsample: int = 256
    k_neighbors: int = 20
    n_components: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("n_trees", "subsample", "k_neighbors", "n_components", "seed"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name == "n_components")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.subsample < 2:
            raise ValueError(f"subsample must be >= 2, got {self.subsample}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.n_components is not None and self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def isolation_path_adjustment(n: int) -> float:
    """Average unsuccessful-search path length c(n) of a binary tree over n points.

    c(0) = c(1) = 0; otherwise c(n) = 2*H(n-1) - 2*(n-1)/n with
    H(i) = ln(i) + Euler-Mascheroni. Added to a probe's tree depth when it
    lands in a leaf holding n training points.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n < 2:
        return 0.0
    harmonic = math.log(n - 1) + EULER_MASCHERONI
    return 2.0 * harmonic - 2.0 * (n - 1) / n


class FittedDetector:
    """Immutable trained model exposing a normality-score function.

    A variant's fitted arrays are named once, in `_STATE`, each with its
    shape: one letter per axis, where "d" is the feature count and every
    other letter takes one length across the variant's arrays. The
    constructor, `save_detector` and `load_detector` all read that tuple.
    """

    variant: str = ""
    _STATE: tuple[tuple[str, str], ...] = ()

    def __init__(self, config: DetectorConfig, feature_count: int, **state: np.ndarray) -> None:
        self.config = config
        self.feature_count = feature_count
        for name, _ in self._STATE:
            setattr(self, name, np.asarray(state[name]))

    def score(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def _check_state(cls, config: DetectorConfig, state: dict[str, np.ndarray], feature_count: int) -> None:
        """Raise ValueError unless each array has its `_STATE` shape; a variant may check `config`."""
        length = {"d": (feature_count, f"feature_count is {feature_count}")}
        for name, axes in cls._STATE:
            array = state[name]
            if array.ndim != len(axes) or (array.size and array.dtype.kind not in "if"):
                raise ValueError(f"{cls.variant} state: {name} is not a {len(axes)}-D array of numbers")
            for axis, letter in enumerate(axes):
                unit = "entries" if array.ndim == 1 else ("rows", "columns")[axis]
                found = f"{name} has {array.shape[axis]} {unit}"
                want, source = length.setdefault(letter, (array.shape[axis], found))
                if array.shape[axis] != want:
                    raise ValueError(f"{cls.variant} state: {found}, {source}")


def fit(config: DetectorConfig, X_normal: np.ndarray) -> FittedDetector:
    """Train the configured variant on a matrix of normal rows.

    Deterministic given (config, X_normal); the returned model never mutates.

    Raises:
        ValueError: on an empty matrix or too few rows for the variant.
    """
    X = _check_matrix(X_normal)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a detector on an empty matrix")
    if X.shape[1] == 0:
        raise ValueError("cannot fit a detector with zero features")
    cls = _VARIANT_CLASSES[config.variant]
    return cls.fit(config, X)


def score(det: FittedDetector, X: np.ndarray) -> np.ndarray:
    """One finite normality score per row of X (higher = more normal).

    Raises:
        ValueError: if X's column count differs from the fitted feature count.
    """
    X = _check_matrix(X)
    if X.shape[1] != det.feature_count:
        raise ValueError(
            f"matrix has {X.shape[1]} features, detector was fitted on {det.feature_count}"
        )
    return det.score(X)


def _check_matrix(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.size and not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite values")
    return X


# ---------------------------------------------------------------------------
# forest variants


class _ForestDetector(FittedDetector):
    """Shared growth, scoring and state for the two tree ensembles.

    Tree t draws from its own stream rng_for(seed, variant, t): first its
    subsample, the first `subsample` rows of a permutation, then per depth
    _DRAWS uniform doubles for each open node, in level order. A node is open
    while it holds two rows or more and lies above depth
    ceil(log2(subsample)). A subclass supplies `_cuts`, the cut of every open
    node of a depth from its doubles at once; the tests hold it to a per-node
    cut and `forest_fit_oracle` (`tests/oracles.py`). The shared rule sends
    a cut node's rows right where not x < value and counts each child's rows
    in one bincount; a child is open while it holds two rows or more and
    lies above the depth limit, and a node's state is its row count. The
    forest is one node table (`occkit.trees`) whose payload is each leaf's
    path length, depth + c(mass), and `score` is one `trees.leaf_sums` walk
    over it.
    """

    # The node table, in the order `trees.grow` returns it.
    _STATE = (("feature", "n"), ("value", "n"), ("left", "n"), ("roots", "t"), ("path_length", "n"))

    # Whether `_cuts` reads every column of a node's rows: if so, a grower
    # step counts (tree, row, feature) triples against trees._CHUNK_PAIRS,
    # else (tree, row) pairs.
    _READS_EVERY_COLUMN = True

    @classmethod
    def fit(cls, config: DetectorConfig, X: np.ndarray) -> _ForestDetector:
        X = np.ascontiguousarray(X)
        n, d = X.shape
        effective, limit, rngs = _growth(config, n)
        flat_X = X.ravel()
        unit = np.ones(effective)
        adjustment = np.array([isolation_path_adjustment(mass) for mass in range(effective + 1)])

        def rule(level: trees.Level) -> trees.Cuts:
            mass = level.state  # each node's rows
            # A stable sort groups the rows by node, each node's in its
            # subsample's order. It runs on the narrowest integer type that
            # holds a node index: on a key of at most 16 bits numpy sorts by
            # radix, on a wider one by timsort.
            order = np.argsort(level.node.astype(np.min_scalar_type(mass.size - 1)), kind="stable")
            sizes = mass.astype(np.intp)
            cut_feature, value, ok = cls._cuts(X, level.rows[order], np.cumsum(sizes) - sizes, sizes, level.u)
            # Not `>=`: a NaN goes right, as in the walker.
            right = ~(flat_X[level.rows * d + cut_feature[level.node]] < value[level.node])
            children = np.bincount(2 * level.node + right, minlength=2 * mass.size).reshape(-1, 2)[ok].ravel()
            depth = np.repeat(level.depth[ok] + 1, 2)
            opened = (children > 1) & (depth < limit)
            path_length = np.where(ok, 0.0, level.depth + adjustment[sizes])
            child = np.where(opened, children, depth + adjustment[children])
            return trees.Cuts(np.where(ok, cut_feature, -1), np.where(ok, value, 0.0), path_length, right, opened, child)

        def sample(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, bool, float]:
            # A root is open iff it holds two rows or more; then limit > 0 too.
            is_open = effective > 1
            return rng.permutation(n)[:effective], unit, is_open, float(effective) if is_open else adjustment[effective]

        table = trees.grow(rngs, sample, rule, d if cls._READS_EVERY_COLUMN else 1, cls._DRAWS)
        return cls(config, d, **{name: array for (name, _), array in zip(cls._STATE, table)})

    def score(self, X: np.ndarray) -> np.ndarray:
        total = trees.leaf_sums(self.feature, self.value, self.left, self.roots, self.path_length, X)
        return total / self.roots.size

    @classmethod
    def _check_state(cls, config: DetectorConfig, state: dict[str, np.ndarray], feature_count: int) -> None:
        super()._check_state(config, state, feature_count)
        _check_table(state, feature_count)


def _growth(config: DetectorConfig, n: int) -> tuple[int, int, list[np.random.Generator]]:
    """A forest detector's rows per tree, its depth limit and one stream per tree."""
    effective = min(config.subsample, n)
    limit = math.ceil(math.log2(effective)) if effective > 1 else 0
    return effective, limit, [rng_for(config.seed, config.variant, t) for t in range(config.n_trees)]


class IsolationForestDetector(_ForestDetector):
    """A node cuts one of its spread features, drawn with the first double,
    at a uniform value in [lo, hi) of that feature, set by the second.
    Finding the spread features reads every column of a node's rows."""

    variant = "isolation-forest"
    _DRAWS = 2

    @staticmethod
    def _cuts(X: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray, u: np.ndarray):
        sub = np.take(X, rows, axis=0)  # as X[rows], but several times faster on narrow rows
        # A feature is spread on a node iff some row of the node differs from
        # the row before it; the pair that straddles two nodes does not count.
        step = sub[1:] != sub[:-1]
        step[starts[1:] - 1] = False
        spread = np.logical_or.reduceat(step, starts)
        pick = (u[:, 0] * spread.sum(axis=1)).astype(np.intp)
        # The pick-th spread feature is the first whose running count passes pick.
        feature = np.argmax(np.cumsum(spread, axis=1) > pick[:, None], axis=1)
        column = np.take(X.ravel(), rows * X.shape[1] + np.repeat(feature, sizes))
        lo = np.minimum.reduceat(column, starts)
        hi = np.maximum.reduceat(column, starts)
        value = lo + (hi - lo) * u[:, 1]
        # Some row lies below the cut iff lo < value, some at or above it iff
        # value <= hi; a draw on the boundary, or a node with no spread
        # feature (lo == hi), leaves one side empty.
        return feature, value, (lo < value) & (value <= hi)


class StochasticForestDetector(_ForestDetector):
    """A node tries up to _SPLIT_RETRIES (feature, datum) pairs, two doubles
    each, and cuts at the first datum with some row of the node below it.
    A batch reads one column of a node's rows per retry it makes, so its
    trees grow in chunks counted by (tree, row) pairs.

    The cut sits exactly on a training coordinate: every decision depends only
    on comparisons between data values, never on their magnitudes, which is
    what makes rankings scale-free.
    """

    variant = "stochastic-forest"
    _DRAWS = 2 * _SPLIT_RETRIES
    _READS_EVERY_COLUMN = False

    @staticmethod
    def _cuts(X: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray, u: np.ndarray):
        d = X.shape[1]
        flat_X = X.ravel()
        feature = (u[:, 0::2] * d).astype(np.intp)
        datum = rows[starts[:, None] + (u[:, 1::2] * sizes[:, None]).astype(np.intp)]
        value = flat_X[datum * d + feature]
        first = np.zeros(starts.size, dtype=np.intp)
        ok = np.zeros(starts.size, dtype=bool)
        # Retry r reads only the rows of the nodes whose earlier retries all
        # failed. The datum itself keeps the right side non-empty; the left
        # side is non-empty iff the node's minimum on the feature lies below it.
        pending = np.arange(starts.size)
        for r in range(_SPLIT_RETRIES):
            cells = rows * d + np.repeat(feature[pending, r], sizes)
            hit = np.minimum.reduceat(flat_X[cells], starts) < value[pending, r]
            first[pending[hit]], ok[pending[hit]] = r, True
            if hit.all():
                break
            rows = rows[np.repeat(~hit, sizes)]
            pending, sizes = pending[~hit], sizes[~hit]
            starts = np.cumsum(sizes) - sizes
        node = np.arange(first.size)
        return feature[node, first], value[node, first], ok


# ---------------------------------------------------------------------------
# local outlier factor

# Doubles in one (rows x training rows) block of the candidate filter, and in
# one gathered (pairs x features) chunk of the exact recompute.
_BLOCK_ELEMENTS = 1 << 21

# Neighbour pairs a fit holds between its kdist and LRD steps. Only ties on a
# large scale (many duplicate rows) overrun it; the rows that do are filtered
# again for their LRD.
_KEPT_PAIRS = 1 << 21


def _neighbour_blocks(Q: np.ndarray, X: np.ndarray, k: int, own: np.ndarray | None = None):
    """Yield (start, kdist, counts, columns, distances) per block of Q's rows.

    A row's neighbours are the rows of X at or within its k-distance, the k-th
    smallest distance to X; `own[r]`, if given, is row r's own column, which
    never counts. `counts` holds each row's neighbour count, and `columns` and
    `distances` hold the neighbours of the block's rows, row after row, each
    row's in ascending column order. Every distance is
    sqrt(((a - b) ** 2).sum(axis=-1)), bit for bit.

    The Gram form only picks candidates. Write h = fl(|b|^2 - 2 a.b), which
    ranks a row's columns as |a - b|^2 does, u = 2^-53, gamma_n = n u / (1 - n u)
    and N = |a|^2 + |b|^2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3; no underflow or overflow):
      - whatever the summation order, |b|^2 and a.b err by at most gamma_d
        times the sum of their terms' magnitudes, and 2 sum |a_i b_i| <= N, so
        h is within 2 gamma_{d+1} N of |b|^2 - 2 a.b;
      - the exact e = fl(sum fl(fl(a - b)^2)) is within
        gamma_{d+2} |a - b|^2 <= 2 gamma_{d+2} N of |a - b|^2;
      - so h + |a|^2 and e differ by at most M = 4 gamma_{d+2} N.
    Let h_k be the row's k-th smallest h. Its k columns at or below h_k have
    e <= h_k + |a|^2 + M, so the k-th smallest e, e_k, is at most that. A
    column ties the k-th distance after the square root when
    e <= e_k (1 + 4.01 u), that is e_k + 8.1 u N at most. Every such column has
    h <= h_k + 2 M + 8.1 u N, and rounding h_k + 2 margin costs at most
    2.1 u N more. The margin below, 8 (d + 8) u N with N taken at the largest
    |b|^2, is twice the M + 5.1 u N that this needs, which covers the rounding
    of the norms and of the margin itself.
    """
    m, d = X.shape
    sq = np.square(X).sum(axis=1)
    margin = 8.0 * (d + 8) * (np.finfo(np.float64).eps / 2) * (np.square(Q).sum(axis=1) + sq.max())
    step = max(1, _BLOCK_ELEMENTS // m)
    h_block = np.empty(min(step, Q.shape[0]) * m)
    kth_block = np.empty_like(h_block)
    chunk = max(1, _BLOCK_ELEMENTS // d)
    for start in range(0, Q.shape[0], step):
        A = Q[start : start + step]
        r = A.shape[0]
        # -2 scales every product and partial sum exactly: this is -2 (A @ X.T).
        h = np.matmul(-2.0 * A, X.T, out=h_block[: r * m].reshape(r, m))
        h += sq
        if own is not None:
            h[np.arange(r), own[start : start + r]] = np.inf
        kth = kth_block[: r * m].reshape(r, m)
        np.copyto(kth, h)
        kth.partition(k - 1, axis=1)
        bound = kth[:, k - 1] + 2.0 * margin[start : start + r]
        row, col = np.divmod(np.flatnonzero(h <= bound[:, None]), m)
        dist = np.empty(row.size)
        for at in range(0, row.size, chunk):
            diff = A[row[at : at + chunk]]
            diff -= X[col[at : at + chunk]]
            dist[at : at + chunk] = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
        # Each row's k-th smallest candidate distance, from its candidates
        # padded with inf; a row has at most m of them, so they fit in kth.
        counts = np.bincount(row, minlength=r)
        place = np.arange(row.size)
        place -= (np.cumsum(counts) - counts)[row]
        padded = kth_block[: r * counts.max()].reshape(r, -1)
        padded.fill(np.inf)
        padded[row, place] = dist
        del place
        padded.partition(k - 1, axis=1)
        kdist = padded[:, k - 1].copy()
        near = dist <= kdist[row]
        counts = np.bincount(row[near], minlength=r)
        del row
        col, dist = col[near], dist[near]
        yield start, kdist, counts, col, dist


def _row_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.mean of each row's run of `values`, the runs in row order, bit for bit.

    Rows are grouped by count and each group averaged as one C-contiguous
    matrix, whose row means sum in np.mean's pairwise order; np.add.reduceat
    sums in another.
    """
    starts = np.cumsum(counts) - counts
    out = np.empty(counts.size)
    for c in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == c)
        out[rows] = values[starts[rows, None] + np.arange(c)].mean(axis=1)
    return out


def _lrd(reach: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's local reachability density: 1 / mean reach, LRD_SENTINEL where that mean is 0."""
    mean = _row_means(reach, counts)
    return np.divide(1.0, mean, out=np.full(mean.size, LRD_SENTINEL), where=mean != 0.0)


class LofDetector(FittedDetector):
    variant = "lof"
    _STATE = (("X_train", "md"), ("kdist", "m"), ("lrd", "m"))

    @classmethod
    def fit(cls, config: DetectorConfig, X: np.ndarray) -> LofDetector:
        n = X.shape[0]
        k = config.k_neighbors
        if n <= k:
            raise ValueError(f"lof needs more than k_neighbors={k} training rows, got {n}")
        everyone = np.arange(n)
        kdist, lrd = np.empty(n), np.empty(n)
        kept, again, held = [], [], 0
        for start, kd, counts, cols, dists in _neighbour_blocks(X, X, k, own=everyone):
            rows = everyone[start : start + kd.size]
            kdist[rows] = kd
            if held + cols.size <= _KEPT_PAIRS:
                kept.append((rows, counts, cols, dists))
                held += cols.size
            else:
                again.append(rows)
        # A row's LRD needs its neighbours' kdist, so it waits for the whole pass.
        for rows, counts, cols, dists in kept:
            lrd[rows] = _lrd(np.maximum(kdist[cols], dists), counts)
        if again:
            rows = np.concatenate(again)
            for start, kd, counts, cols, dists in _neighbour_blocks(X[rows], X, k, own=rows):
                lrd[rows[start : start + kd.size]] = _lrd(np.maximum(kdist[cols], dists), counts)
        return cls(config, X.shape[1], X_train=X.copy(), kdist=kdist, lrd=lrd)

    @classmethod
    def _check_state(cls, config: DetectorConfig, state: dict[str, np.ndarray], feature_count: int) -> None:
        super()._check_state(config, state, feature_count)
        k, rows = config.k_neighbors, state["X_train"].shape[0]
        if k >= rows:
            raise ValueError(f"lof state: k_neighbors={k} is not below X_train's {rows} rows")

    def score(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for start, _, counts, cols, dists in _neighbour_blocks(X, self.X_train, self.config.k_neighbors):
            lrd_probe = _lrd(np.maximum(self.kdist[cols], dists), counts)
            out[start : start + counts.size] = -_row_means(self.lrd[cols], counts) / lrd_probe
        return out


# ---------------------------------------------------------------------------
# linear reconstruction


class LinearReconDetector(FittedDetector):
    variant = "linear-recon"
    # basis holds orthonormal rows spanning the retained subspace.
    _STATE = (("mean", "d"), ("basis", "rd"))

    @classmethod
    def fit(cls, config: DetectorConfig, X: np.ndarray) -> LinearReconDetector:
        n, d = X.shape
        r = config.n_components if config.n_components is not None else min(d, 8)
        if r > d:
            raise ValueError(f"n_components={r} exceeds feature count {d}")
        mean = X.mean(axis=0)
        centered = X - mean
        cov = centered.T @ centered / n
        # eigh's eigenvectors form a complete orthonormal basis (zero-variance
        # directions included), in ascending order of eigenvalue.
        basis = np.ascontiguousarray(np.linalg.eigh(cov)[1].T[::-1][:r])
        return cls(config, d, mean=mean, basis=basis)

    def score(self, X: np.ndarray) -> np.ndarray:
        centered = X - self.mean
        recon = (centered @ self.basis.T) @ self.basis
        return -np.sum((centered - recon) ** 2, axis=1)


_VARIANT_CLASSES = {
    cls.variant: cls
    for cls in (IsolationForestDetector, StochasticForestDetector, LofDetector, LinearReconDetector)
}
VARIANTS = tuple(_VARIANT_CLASSES)


# ---------------------------------------------------------------------------
# persistence


def save_detector(
    det: FittedDetector, path: str | Path, threshold: Threshold | None = None
) -> None:
    """Write a fitted detector (and optionally its calibrated threshold) to JSON."""
    payload = {
        "format_version": PERSIST_FORMAT_VERSION,
        "variant": det.variant,
        "config": asdict(det.config),
        "state": {
            "feature_count": det.feature_count,
            **{name: getattr(det, name).tolist() for name, _ in det._STATE},
        },
    }
    if threshold is not None:
        payload["threshold"] = asdict(threshold)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_detector(path: str | Path) -> FittedDetector:
    """Rebuild a fitted detector from save_detector output."""
    payload = _read_container(path)
    missing = [key for key in ("variant", "config", "state") if key not in payload]
    if missing:
        raise ValueError(f"detector container lacks {missing}")
    config = _from_object(DetectorConfig, payload["config"], "detector container config")
    variant = payload["variant"]
    if variant != config.variant:
        raise ValueError(f"container variant {variant!r} differs from its config's {config.variant!r}")
    cls = _VARIANT_CLASSES[variant]
    saved = payload["state"]
    if not isinstance(saved, dict):
        raise ValueError(f"{variant} state must be a JSON object")
    unknown = sorted(set(saved) - {"feature_count", *(name for name, _ in cls._STATE)})
    if unknown:
        raise ValueError(f"{variant} state has unknown keys {unknown}")
    feature_count = saved.get("feature_count")
    if not _is_int(feature_count) or feature_count < 1:
        raise ValueError(f"{variant} state: feature_count {feature_count!r} is not a positive integer")
    state = {}
    for name, _ in cls._STATE:
        try:
            state[name] = np.asarray(saved[name])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{variant} state: {name} is missing or ragged") from exc
    cls._check_state(config, state, feature_count)
    return cls(config, feature_count, **state)


def _check_table(table: dict[str, np.ndarray], feature_count: int) -> None:
    """Raise ValueError unless every row descends from each root to a leaf of `table`.

    The arrays already have their `_STATE` shapes. Each left[i] is -1 or in
    (i, n - 2]: children come after their parent (depth-first and level-order
    tables both hold that), so no descent loops, and the right child
    left[i] + 1 is still a node.
    """
    n = table["feature"].size
    for name in ("feature", "left", "roots"):
        if table[name].size and table[name].dtype.kind != "i":
            raise ValueError(f"forest table: {name} is not a list of integers")
    feature, left, roots = table["feature"], table["left"], table["roots"]
    bad = (left != -1) & ((left <= np.arange(n)) | (left > n - 2))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"forest table: left[{i}] = {left[i]} is neither -1 nor in ({i}, {n - 2}]")
    bad = (left >= 0) & ((feature < 0) | (feature >= feature_count))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"forest table: feature[{i}] = {feature[i]} is not in [0, {feature_count})")
    if roots.size == 0:
        raise ValueError("forest table: roots is empty")
    bad = (roots < 0) | (roots >= n)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"forest table: roots[{t}] = {roots[t]} is not a node of the {n}-node table")


def load_saved_threshold(path: str | Path) -> Threshold | None:
    """Threshold stored alongside a detector, or None if the container has none."""
    block = _read_container(path).get("threshold")
    return None if block is None else _from_object(Threshold, block, "detector container threshold")


def _read_container(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("detector container must be a JSON object")
    version = payload.get("format_version")
    if version != PERSIST_FORMAT_VERSION:
        raise ValueError(f"unsupported detector container version: {version!r}")
    unknown = sorted(set(payload) - {"format_version", "variant", "config", "state", "threshold"})
    if unknown:
        raise ValueError(f"detector container has unknown keys {unknown}")
    return payload


def _from_object(cls: type, raw: object, where: str):
    """cls(**raw); ValueError unless raw is a JSON object of cls's fields that has every required one."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    known = {field.name: field.default is MISSING for field in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    missing = [name for name, required in known.items() if required and name not in raw]
    if missing:
        raise ValueError(f"{where} lacks {missing}")
    return cls(**raw)
