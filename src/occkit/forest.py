"""CART random forest: the supervised baseline's model.

A plain CART ensemble (gini splits, bootstrap resampling, random feature
subsets per node) built here so tree internals stay inspectable and
deterministic. The forest is one flat node table (`occkit.trees`). `rf_fit`
hands `trees.grow` the batched gini rule `_best_cuts`, and `rf_predict`
counts the trees' votes with `trees.leaf_sums`. The tests hold `rf_fit` to a
node-by-node reference, `rf_fit_oracle` with the per-node rule `_best_split`
(`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trees
from .seeding import rng_for

__all__ = [
    "ForestConfig",
    "ForestModel",
    "rf_fit",
    "rf_predict",
]


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters; features_per_split defaults to ceil(sqrt(d))."""

    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError(f"features_per_split must be >= 1, got {self.features_per_split}")


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Fitted forest as one flat node table, plus the config that grew it.

    Node i sends rows with X[:, feature[i]] < value[i] to node left[i] and the
    others to left[i] + 1; a leaf has feature and left -1 and value 0.
    counts[i] holds the node's (normal, attack) bagged-row counts. Tree t
    starts at node roots[t] and its nodes follow in level order, left child
    before right.
    """

    feature: np.ndarray
    value: np.ndarray
    left: np.ndarray
    counts: np.ndarray
    roots: np.ndarray
    config: ForestConfig
    feature_count: int


def _training_inputs(
    X: np.ndarray, y: np.ndarray, config: ForestConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Checked (X, y) and the features tried per node."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both classes")
    n_split = min(config.features_per_split or math.ceil(math.sqrt(d)), d)
    return X, y, n_split


def _splittable(total: np.ndarray, ones: np.ndarray, depth: int, config: ForestConfig) -> np.ndarray:
    """Nodes that may split: both classes, room for two leaves, depth to spare."""
    if config.max_depth is not None and depth >= config.max_depth:
        return np.zeros(total.shape, dtype=bool)
    return (ones > 0) & (ones < total) & (total >= 2 * config.min_leaf)


def _features(keys: np.ndarray, n_split: int) -> np.ndarray:
    """Each node's features in trial order: its key row's first n_split argsort entries."""
    return np.argsort(keys, axis=1, kind="stable")[:, :n_split]


def rf_fit(X: np.ndarray, y: np.ndarray, config: ForestConfig = ForestConfig(), seed: int = 0) -> ForestModel:
    """Grow a forest of CART trees on bootstrap resamples, level by level.

    Tree t draws from its own stream rng_for(seed, "tree", t): its bootstrap
    bag first, then at each depth one row of d uniform keys per node that may
    split, in level order. A node tries the features its key row's stable
    argsort lists first (n_split of them, in that order) and takes the cut of
    lowest weighted gini: the earliest feature, then the lowest threshold,
    among equals. Trees grow together in chunks; the table does not depend on
    the chunking, and equals that of rf_fit_oracle in tests/oracles.py.

    Raises:
        ValueError: with fewer than 2 rows or a single class in y.
    """
    X, y, n_split = _training_inputs(X, y, config)
    n, d = X.shape
    # ranks[f * n + i] is row i's position in column f sorted, so one integer
    # sort orders the rows of every node by that node's own feature.
    ranks = np.empty(d * n, dtype=np.int64)
    for f in range(d):
        ranks[f * n + np.argsort(X[:, f], kind="stable")] = np.arange(n)

    def bag(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(drawn)
        return rows, drawn[rows]

    def rule(level: trees.Level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Counts are held as float64, exact for whole numbers, so gini needs no casts.
        attack = level.weight * y[level.rows]
        k = level.tree.size
        total = np.bincount(level.node, weights=level.weight, minlength=k)
        ones = np.bincount(level.node, weights=attack, minlength=k)
        feature = np.full(k, -1)
        value = np.zeros(k)
        nodes, elements, seg = level.open(_splittable(total, ones, level.depth, config))
        if nodes.size:
            best, cut_feature, cut_value = _best_cuts(
                X, ranks, level.rows[elements], level.weight[elements], attack[elements], seg,
                _features(level.draw(nodes, d), n_split), total[nodes], ones[nodes],
                config.min_leaf,
            )
            split = best < np.inf
            feature[nodes[split]] = cut_feature[split]
            value[nodes[split]] = cut_value[split]
        return feature, value, np.column_stack([total - ones, ones]).astype(np.int32)

    rngs = [rng_for(seed, "tree", t) for t in range(config.n_trees)]
    return _model(trees.grow(X, rngs, bag, rule, n), config, d)


def _model(table: tuple[np.ndarray, ...], config: ForestConfig, d: int) -> ForestModel:
    """The ForestModel of a (feature, value, left, roots, counts) table from occkit.trees."""
    feature, value, left, roots, counts = table
    return ForestModel(feature, value, left, counts, roots, config, d)


def _best_cuts(
    X: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    attack: np.ndarray,
    seg: np.ndarray,
    features: np.ndarray,
    total: np.ndarray,
    ones: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(score, feature, threshold) of the best cut of every open node, score inf if none.

    Element i belongs to open node seg[i], which tries features[seg[i]] in
    order. Per feature slot, one integer argsort puts the elements in (node,
    rank) order; each node's run of elements then gives every cut's class
    counts by cumulative sums. Same arithmetic and tie order as the per-node
    _best_split in tests/oracles.py.
    """
    n, d = X.shape
    flat_X = X.ravel()
    k = total.size
    sizes = np.bincount(seg, minlength=k)
    starts = np.cumsum(sizes) - sizes
    node = np.repeat(np.arange(k), sizes)  # node of each element once sorted
    at = node[:-1]  # node of the cut after each sorted element
    inside = node[1:] == at
    n_node, ones_node = total[at], ones[at]
    seg_key = seg * n
    best = np.full(k, np.inf)
    cut_feature = np.zeros(k, dtype=np.int64)
    cut_value = np.zeros(k)
    for slot in features.T:
        order = np.argsort(seg_key + ranks[slot[seg] * n + rows])
        xs = flat_X[rows[order] * d + slot[node]]
        # Taking the previous node's totals off each run's first element makes
        # the running sums restart at every node.
        w, a = weight[order], attack[order]
        w[starts[1:]] -= total[:-1]
        a[starts[1:]] -= ones[:-1]
        n_left, ones_left = np.cumsum(w)[:-1], np.cumsum(a)[:-1]
        n_right = n_node - n_left
        ones_right = ones_node - ones_left
        # The cut after a run's last element has nothing on its right; it is masked below.
        with np.errstate(invalid="ignore"):
            score = _gini(n_left - ones_left, ones_left, n_left)
            score *= n_left
            right = _gini(n_right - ones_right, ones_right, n_right)
            right *= n_right
        score += right
        score /= n_node
        valid = xs[1:] > xs[:-1]
        valid &= inside
        if min_leaf > 1:
            valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
        score[~valid] = np.inf
        low = np.minimum.reduceat(score, starts)
        # Every run holds its minimum, so the first hit at or after its start is its own.
        hits = np.flatnonzero(score == low[at])
        first = hits[np.searchsorted(hits, starts)]
        better = low < best
        best[better] = low[better]
        cut_feature[better] = slot[better]
        j = first[better]
        cut_value[better] = (xs[j] + xs[j + 1]) / 2.0
    return best, cut_feature, cut_value


def _gini(zeros: np.ndarray, ones: np.ndarray, size: np.ndarray) -> np.ndarray:
    """1 - (zeros/size)^2 - (ones/size)^2, rounded step by step as tests/oracles.py's _best_split does."""
    gini = np.divide(zeros, size)
    np.square(gini, out=gini)
    np.subtract(1.0, gini, out=gini)
    attack = np.divide(ones, size)
    np.square(attack, out=attack)
    gini -= attack
    return gini


def rf_predict(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over the trees; an exact tie, in a leaf or in the vote, is attack."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ValueError(
            f"matrix has shape {X.shape}, model expects (*, {model.feature_count})"
        )
    attack = (model.counts[:, 1] >= model.counts[:, 0]).astype(np.float64)
    votes = trees.leaf_sums(model.feature, model.value, model.left, model.roots, attack, X)
    return (2 * votes >= model.roots.size).astype(np.int64)
