"""Slow, plain references that the product's fast paths are tested against.

None of this ships with `occkit`: each function here restates a rule that
`src` implements once, in its batched or blocked form, and the tests compare
the two bit for bit or rank for rank.

- `_best_split` and `rf_fit_oracle`: the CART forest grown one node at a time
  (`occkit.forest.rf_fit`).
- `grow_oracle`: the node-by-node grower (`occkit.trees.grow`).
- `forest_fit_oracle`, with the per-node cut of each forest variant in
  `CUTS`: the detector forests grown one node at a time
  (`occkit.detectors.fit`).
- `lof_brute_oracle`: textbook LOF, point by point (the `lof` detector).
- `all_levels`: every consensus level at once (`occkit.ensemble.consensus`).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from occkit.detectors import (
    LRD_SENTINEL,
    DetectorConfig,
    FittedDetector,
    _check_matrix,
    _growth,
    _VARIANT_CLASSES,
    isolation_path_adjustment,
)
from occkit.ensemble import PredictionMatrix, consensus
from occkit.forest import (
    ForestConfig,
    ForestModel,
    _features,
    _model,
    _splittable,
    _training_inputs,
)
from occkit.seeding import rng_for

# ---------------------------------------------------------------------------
# CART forest


def _best_split(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Gini-minimizing (feature, midpoint threshold) for one node, or None."""
    node_y = y[idx]
    n = idx.size
    total_ones = int(node_y.sum())
    total_zeros = n - total_ones
    best_score = np.inf
    best: tuple[int, float] | None = None
    for f in features:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        ys = node_y[order]
        cut_ok = vs[1:] > vs[:-1]
        if not cut_ok.any():
            continue
        n_left = np.arange(1, n)
        ones_left = np.cumsum(ys)[:-1]
        zeros_left = n_left - ones_left
        ones_right = total_ones - ones_left
        zeros_right = total_zeros - zeros_left
        n_right = n - n_left
        gini_left = 1.0 - (zeros_left / n_left) ** 2 - (ones_left / n_left) ** 2
        gini_right = 1.0 - (zeros_right / n_right) ** 2 - (ones_right / n_right) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        valid = cut_ok & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        weighted = np.where(valid, weighted, np.inf)
        j = int(np.argmin(weighted))
        if weighted[j] < best_score:
            best_score = float(weighted[j])
            # Between adjacent doubles the midpoint can round onto vs[j], and
            # the sum can overflow: the cut then sits at vs[j + 1].
            with np.errstate(over="ignore", invalid="ignore"):
                mid = (vs[j] + vs[j + 1]) / 2.0
            best = (int(f), float(mid if vs[j] < mid <= vs[j + 1] else vs[j + 1]))
    return best


def rf_fit_oracle(
    X: np.ndarray, y: np.ndarray, config: ForestConfig = ForestConfig(), seed: int = 0
) -> ForestModel:
    """rf_fit's forest grown one tree and one node at a time through _best_split.

    The same streams, draws and node table as rf_fit, with each bag kept as
    drawn (repeated rows and all) and each depth's nodes visited in level
    order. The test oracle for rf_fit, as lof_brute_oracle is for the lof
    detector.
    """
    X, y, n_split = _training_inputs(X, y, config)
    n, d = X.shape

    def cut(idx: np.ndarray, depth: int, rng: np.random.Generator) -> tuple:
        total, ones = idx.size, int(y[idx].sum())
        counts = (total - ones, ones)
        if not _splittable(np.array(total), np.array(ones), depth, config):
            return None, counts
        features = _features(rng.random((1, d)), n_split)[0]
        return _best_split(X, y, idx, features, config.min_leaf), counts

    rngs = [rng_for(seed, "tree", t) for t in range(config.n_trees)]
    return _model(grow_oracle(X, rngs, lambda rng: rng.integers(0, n, size=n), cut), config, d)


# ---------------------------------------------------------------------------
# the node table


def grow_oracle(
    X: np.ndarray,
    rngs: Sequence[np.random.Generator],
    sample: Callable[[np.random.Generator], np.ndarray],
    cut: Callable[[np.ndarray, int, np.random.Generator], tuple],
) -> tuple[np.ndarray, ...]:
    """grow's table built one tree at a time and one node at a time, in level order.

    Tree t's rows are sample(rngs[t]), kept as drawn (repeats and all); each
    node's rows keep that order. cut(idx, depth, rng) returns the node's
    (feature, value) cut, or None for a leaf, and its payload, drawing from
    the tree's stream as it goes. The test oracle for grow.
    """
    feature, value, left, roots, payload = [], [], [], [], []
    for rng in rngs:
        roots.append(len(feature))
        level = [sample(rng)]
        depth = 0
        while level:
            first_child = len(feature) + len(level)
            children = []
            for idx in level:
                split, node_payload = cut(idx, depth, rng)
                payload.append(node_payload)
                if split is None:
                    feature.append(-1)
                    value.append(0.0)
                    left.append(-1)
                    continue
                f, v = split
                feature.append(f)
                value.append(v)
                left.append(first_child + len(children))
                going_left = X[idx, f] < v
                children += [idx[going_left], idx[~going_left]]
            level = children
            depth += 1
    return (
        np.array(feature, dtype=np.int32),
        np.array(value, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(roots, dtype=np.int32),
        np.array(payload),
    )


# ---------------------------------------------------------------------------
# detector forests


def isolation_cut(X: np.ndarray, idx: np.ndarray, u: np.ndarray):
    """One node's isolation-forest cut: a spread feature picked by u[0], a value in [lo, hi) by u[1]."""
    sub = X[idx]
    lo = sub.min(axis=0)
    hi = sub.max(axis=0)
    spread = np.flatnonzero(hi > lo)
    if spread.size == 0:
        return None
    feature = int(spread[int(u[0] * spread.size)])
    value = float(lo[feature] + (hi[feature] - lo[feature]) * u[1])
    if not lo[feature] < value <= hi[feature]:
        return None
    return feature, value


def stochastic_cut(X: np.ndarray, idx: np.ndarray, u: np.ndarray):
    """One node's stochastic-forest cut: the first (feature, datum) pair of u with some row below the datum."""
    for feature_u, datum_u in u.reshape(-1, 2):
        feature = int(feature_u * X.shape[1])
        value = float(X[idx[int(datum_u * idx.size)], feature])
        if (X[idx, feature] < value).any():
            return feature, value
    return None


# The per-node cut of each forest variant, from the node's rows and its doubles.
CUTS = {"isolation-forest": isolation_cut, "stochastic-forest": stochastic_cut}


def forest_fit_oracle(config: DetectorConfig, X_normal: np.ndarray) -> FittedDetector:
    """`fit`'s isolation or stochastic forest grown one tree and one node at a time.

    The same streams, draws and node table as `fit`: each node of a depth, in
    level order, draws its doubles and is cut by the variant's entry in
    `CUTS`. Serves as the test-time oracle for the batched forest growth.
    """
    X = _check_matrix(X_normal)
    if config.variant not in CUTS:
        raise ValueError(f"{config.variant!r} is not a forest variant")
    cls = _VARIANT_CLASSES[config.variant]
    n, d = X.shape
    effective, limit, rngs = _growth(config, n)

    def cut(idx: np.ndarray, depth: int, rng: np.random.Generator) -> tuple:
        split = None
        if idx.size > 1 and depth < limit:
            split = CUTS[config.variant](X, idx, rng.random(cls._DRAWS))
        return split, (depth + isolation_path_adjustment(idx.size) if split is None else 0.0)

    table = grow_oracle(X, rngs, lambda rng: rng.permutation(n)[:effective], cut)
    return cls(config, d, **{name: array for (name, _), array in zip(cls._STATE, table)})


# ---------------------------------------------------------------------------
# local outlier factor


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

    def lrd_of(reach: np.ndarray) -> float:
        mean_reach = float(np.mean(reach))
        return LRD_SENTINEL if mean_reach == 0.0 else 1.0 / mean_reach

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
        lrd[i] = lrd_of(reach)

    scores = np.empty(X_probe.shape[0], dtype=np.float64)
    for p in range(X_probe.shape[0]):
        d = np.array([dist(X_probe[p], X_train[j]) for j in range(n)])
        kd = np.sort(d)[k - 1]
        nb = np.flatnonzero(d <= kd)
        reach = np.maximum(kdist[nb], d[nb])
        lrd_probe = lrd_of(reach)
        scores[p] = -float(np.mean(lrd[nb])) / lrd_probe
    return scores


# ---------------------------------------------------------------------------
# consensus


def all_levels(matrix: PredictionMatrix) -> dict[int, np.ndarray]:
    """Consensus predictions for every level k = 1..n_models."""
    return {k: consensus(matrix, k) for k in range(1, matrix.n_models + 1)}
