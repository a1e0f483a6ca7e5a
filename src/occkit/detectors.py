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
    linear-recon       principal-subspace projection via power iteration,
                       score = -squared reconstruction error
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .calibration import Threshold
from .trees import leaf_sums

__all__ = [
    "VARIANTS",
    "DetectorConfig",
    "FittedDetector",
    "fit",
    "score",
    "isolation_path_adjustment",
    "lof_brute_oracle",
    "save_detector",
    "load_detector",
    "load_saved_threshold",
]

VARIANTS = ("isolation-forest", "stochastic-forest", "lof", "linear-recon")

EULER_MASCHERONI = 0.5772156649

# Stand-in for an infinite local reachability density when a point has k or
# more duplicates; keeps scores finite and ordering sensible.
LRD_SENTINEL = 1e12

# Attempts to find a non-degenerate split-at-datum cut before giving up on a node.
_SPLIT_RETRIES = 8

# The arrays of a forest detector's node table (`occkit.trees`), as persisted.
_TABLE = ("feature", "value", "left", "roots", "path_length")

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
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.subsample < 2:
            raise ValueError(f"subsample must be >= 2, got {self.subsample}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.n_components is not None and self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")


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


@lru_cache(maxsize=4096)
def _leaf_adjustment(mass: int) -> float:
    return isolation_path_adjustment(mass)


class FittedDetector:
    """Immutable trained model exposing a normality-score function."""

    variant: str = ""

    def __init__(self, config: DetectorConfig, feature_count: int) -> None:
        self.config = config
        self.feature_count = feature_count

    def score(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> dict:
        raise NotImplementedError


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
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
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

    Each tree grows on a subsample drawn without replacement, at most
    ceil(log2(subsample)) levels deep. A subclass supplies only
    `_cut(X, idx, rng)`: a (feature, value, going_left) cut of rows idx into
    two non-empty sides, or None. The forest is one node table
    (`occkit.trees`) whose payload is each leaf's path length, depth + c(mass).
    """

    def __init__(self, config: DetectorConfig, feature_count: int, **table: np.ndarray) -> None:
        """`table` holds the arrays named in _TABLE; path_length is the leaf payload."""
        super().__init__(config, feature_count)
        self.feature, self.value, self.left, self.roots, self.path_length = (
            np.asarray(table[name]) for name in _TABLE
        )

    @classmethod
    def fit(cls, config: DetectorConfig, X: np.ndarray) -> _ForestDetector:
        """Grow each tree depth first, left before right, so `_cut` draws in that order."""
        rng = np.random.default_rng(config.seed)
        effective = min(config.subsample, X.shape[0])
        limit = math.ceil(math.log2(effective)) if effective > 1 else 0
        nodes, roots = [], []  # nodes[i] is node i's (feature, value, left, path length)
        for _ in range(config.n_trees):
            roots.append(len(nodes))
            nodes.append(None)
            stack = [(roots[-1], rng.permutation(X.shape[0])[:effective], 0)]
            while stack:
                node, idx, depth = stack.pop()
                cut = None if idx.size <= 1 or depth >= limit else cls._cut(X, idx, rng)
                if cut is None:
                    nodes[node] = (-1, 0.0, -1, depth + _leaf_adjustment(idx.size))
                    continue
                feature, value, going_left = cut
                child = len(nodes)
                nodes[node] = (feature, value, child, 0.0)
                nodes += (None, None)
                stack.append((child + 1, idx[~going_left], depth + 1))
                stack.append((child, idx[going_left], depth + 1))
        table = dict(zip(("feature", "value", "left", "path_length"), zip(*nodes)), roots=roots)
        return cls(config, X.shape[1], **table)

    def score(self, X: np.ndarray) -> np.ndarray:
        total = leaf_sums(self.feature, self.value, self.left, self.roots, self.path_length, X)
        return total / self.roots.size

    def _state(self) -> dict:
        table = {name: getattr(self, name).tolist() for name in _TABLE}
        return {"feature_count": self.feature_count, **table}


class IsolationForestDetector(_ForestDetector):
    variant = "isolation-forest"

    @staticmethod
    def _cut(X: np.ndarray, idx: np.ndarray, rng: np.random.Generator):
        sub = X[idx]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        spread = np.flatnonzero(hi > lo)
        if spread.size == 0:
            return None
        feature = int(spread[rng.integers(spread.size)])
        value = float(rng.uniform(lo[feature], hi[feature]))
        # Some row lies below the cut iff lo < value, some at or above it iff
        # value <= hi; a draw on the boundary leaves one side empty.
        if not lo[feature] < value <= hi[feature]:
            return None
        return feature, value, sub[:, feature] < value


class StochasticForestDetector(_ForestDetector):
    variant = "stochastic-forest"

    @staticmethod
    def _cut(X: np.ndarray, idx: np.ndarray, rng: np.random.Generator):
        # The cut must sit exactly on a training coordinate: every decision
        # below depends only on comparisons between data values, never on
        # their magnitudes, which is what makes rankings scale-free.
        for _ in range(_SPLIT_RETRIES):
            feature = int(rng.integers(X.shape[1]))
            value = float(X[idx[rng.integers(idx.size)], feature])
            going_left = X[:, feature][idx] < value
            if going_left.any():  # the chosen datum itself keeps the right side non-empty
                return feature, value, going_left
        return None


# ---------------------------------------------------------------------------
# local outlier factor


def _distance_rows(A: np.ndarray, B: np.ndarray, block: int = 256):
    """Yield (start, distance block) for rows of A against all of B."""
    for start in range(0, A.shape[0], block):
        chunk = A[start : start + block]
        d2 = ((chunk[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
        yield start, np.sqrt(d2)


def _lrd_from_reach(mean_reach: float) -> float:
    return LRD_SENTINEL if mean_reach == 0.0 else 1.0 / mean_reach


class LofDetector(FittedDetector):
    variant = "lof"

    def __init__(
        self,
        config: DetectorConfig,
        X_train: np.ndarray,
        kdist: np.ndarray,
        lrd: np.ndarray,
    ) -> None:
        super().__init__(config, X_train.shape[1])
        self.X_train = X_train
        self.kdist = kdist
        self.lrd = lrd

    @classmethod
    def fit(cls, config: DetectorConfig, X: np.ndarray) -> LofDetector:
        n = X.shape[0]
        k = config.k_neighbors
        if n <= k:
            raise ValueError(f"lof needs more than k_neighbors={k} training rows, got {n}")
        kdist = np.empty(n, dtype=np.float64)
        for start, dist in _distance_rows(X, X):
            for r in range(dist.shape[0]):
                row = dist[r]
                row[start + r] = np.inf  # a point is not its own neighbor
                kdist[start + r] = np.partition(row, k - 1)[k - 1]
        lrd = np.empty(n, dtype=np.float64)
        for start, dist in _distance_rows(X, X):
            for r in range(dist.shape[0]):
                i = start + r
                row = dist[r]
                row[i] = np.inf
                nb = np.flatnonzero(row <= kdist[i])
                reach = np.maximum(kdist[nb], row[nb])
                lrd[i] = _lrd_from_reach(float(np.mean(reach)))
        return cls(config, X.copy(), kdist, lrd)

    def score(self, X: np.ndarray) -> np.ndarray:
        k = self.config.k_neighbors
        out = np.empty(X.shape[0], dtype=np.float64)
        for start, dist in _distance_rows(X, self.X_train):
            for r in range(dist.shape[0]):
                row = dist[r]
                kd = np.partition(row, k - 1)[k - 1]
                nb = np.flatnonzero(row <= kd)
                reach = np.maximum(self.kdist[nb], row[nb])
                lrd_probe = _lrd_from_reach(float(np.mean(reach)))
                out[start + r] = -float(np.mean(self.lrd[nb])) / lrd_probe
        return out

    def _state(self) -> dict:
        return {
            "feature_count": self.feature_count,
            "X_train": self.X_train.tolist(),
            "kdist": self.kdist.tolist(),
            "lrd": self.lrd.tolist(),
        }


def lof_brute_oracle(X_train: np.ndarray, X_probe: np.ndarray, k: int) -> np.ndarray:
    """Textbook LOF of each probe against the training set, negated.

    Exhaustive O(n^2) reference: k-distances, reachability distances and
    local reachability densities are computed point by point. Serves as the
    test-time oracle for the production lof variant.
    """
    X_train = _check_matrix(X_train)
    X_probe = _check_matrix(X_probe)
    n = X_train.shape[0]
    if n <= k:
        raise ValueError(f"oracle needs more than k={k} training rows, got {n}")

    def dist(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sqrt(np.sum((a - b) ** 2)))

    pair = np.array([[dist(X_train[i], X_train[j]) for j in range(n)] for i in range(n)])
    kdist = np.empty(n, dtype=np.float64)
    lrd = np.empty(n, dtype=np.float64)
    for i in range(n):
        others = pair[i].copy()
        others[i] = np.inf
        kdist[i] = np.sort(others)[k - 1]
    for i in range(n):
        others = pair[i].copy()
        others[i] = np.inf
        nb = np.flatnonzero(others <= kdist[i])
        reach = np.maximum(kdist[nb], others[nb])
        lrd[i] = _lrd_from_reach(float(np.mean(reach)))

    scores = np.empty(X_probe.shape[0], dtype=np.float64)
    for p in range(X_probe.shape[0]):
        d = np.array([dist(X_probe[p], X_train[j]) for j in range(n)])
        kd = np.sort(d)[k - 1]
        nb = np.flatnonzero(d <= kd)
        reach = np.maximum(kdist[nb], d[nb])
        lrd_probe = _lrd_from_reach(float(np.mean(reach)))
        scores[p] = -float(np.mean(lrd[nb])) / lrd_probe
    return scores


# ---------------------------------------------------------------------------
# linear reconstruction


class LinearReconDetector(FittedDetector):
    variant = "linear-recon"

    def __init__(self, config: DetectorConfig, mean: np.ndarray, basis: np.ndarray) -> None:
        super().__init__(config, mean.shape[0])
        self.mean = mean
        self.basis = basis  # orthonormal rows spanning the retained subspace

    @classmethod
    def fit(cls, config: DetectorConfig, X: np.ndarray) -> LinearReconDetector:
        n, d = X.shape
        r = config.n_components if config.n_components is not None else min(d, 8)
        if r > d:
            raise ValueError(f"n_components={r} exceeds feature count {d}")
        mean = X.mean(axis=0)
        centered = X - mean
        cov = centered.T @ centered / n
        rng = np.random.default_rng(config.seed)
        basis = np.zeros((r, d), dtype=np.float64)
        deflated = cov.copy()
        for comp in range(r):
            basis[comp] = cls._leading_direction(deflated, basis[:comp], rng, d)
            lam = float(basis[comp] @ deflated @ basis[comp])
            deflated = deflated - lam * np.outer(basis[comp], basis[comp])
        return cls(config, mean, basis)

    @staticmethod
    def _leading_direction(
        matrix: np.ndarray, prior: np.ndarray, rng: np.random.Generator, d: int
    ) -> np.ndarray:
        """Power iteration for the top eigenvector orthogonal to prior rows."""

        def orthonormalize(v: np.ndarray) -> np.ndarray:
            if prior.shape[0]:
                v = v - prior.T @ (prior @ v)
            norm = float(np.linalg.norm(v))
            return v / norm if norm > 1e-12 else np.zeros(d)

        v = orthonormalize(rng.standard_normal(d))
        if not v.any():
            return LinearReconDetector._complete_basis(prior, d)
        for _ in range(200):
            w = orthonormalize(matrix @ v)
            if not w.any():
                # No variance left in the orthogonal complement; any completion
                # direction reconstructs the data equally well.
                return LinearReconDetector._complete_basis(prior, d)
            if abs(float(w @ v)) > 1.0 - 1e-13:
                return w
            v = w
        return v

    @staticmethod
    def _complete_basis(prior: np.ndarray, d: int) -> np.ndarray:
        for axis in range(d):
            v = np.zeros(d)
            v[axis] = 1.0
            if prior.shape[0]:
                v = v - prior.T @ (prior @ v)
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                return v / norm
        raise ValueError("cannot extend orthonormal basis, subspace already complete")

    def score(self, X: np.ndarray) -> np.ndarray:
        centered = X - self.mean
        recon = (centered @ self.basis.T) @ self.basis
        return -np.sum((centered - recon) ** 2, axis=1)

    def _state(self) -> dict:
        return {
            "feature_count": self.feature_count,
            "mean": self.mean.tolist(),
            "basis": self.basis.tolist(),
        }


_VARIANT_CLASSES = {
    "isolation-forest": IsolationForestDetector,
    "stochastic-forest": StochasticForestDetector,
    "lof": LofDetector,
    "linear-recon": LinearReconDetector,
}


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
        "state": det._state(),
    }
    if threshold is not None:
        payload["threshold"] = {"mu": threshold.mu, "sigma": threshold.sigma, "th": threshold.th}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_detector(path: str | Path) -> FittedDetector:
    """Rebuild a fitted detector from save_detector output."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != PERSIST_FORMAT_VERSION:
        raise ValueError(f"unsupported detector container version: {version!r}")
    config = DetectorConfig(**payload["config"])
    state = payload["state"]
    variant = payload["variant"]
    if variant in ("isolation-forest", "stochastic-forest"):
        cls = _VARIANT_CLASSES[variant]
        det = cls(config, state["feature_count"], **{name: state[name] for name in _TABLE})
    elif variant == "lof":
        det = LofDetector(
            config,
            np.array(state["X_train"], dtype=np.float64),
            np.array(state["kdist"], dtype=np.float64),
            np.array(state["lrd"], dtype=np.float64),
        )
    elif variant == "linear-recon":
        det = LinearReconDetector(
            config,
            np.array(state["mean"], dtype=np.float64),
            np.array(state["basis"], dtype=np.float64),
        )
    else:
        raise ValueError(f"unknown variant in container: {variant!r}")
    return det


def load_saved_threshold(path: str | Path) -> Threshold | None:
    """Threshold stored alongside a detector, or None if the container has none."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    block = payload.get("threshold")
    if block is None:
        return None
    return Threshold(mu=block["mu"], sigma=block["sigma"], th=block["th"])
