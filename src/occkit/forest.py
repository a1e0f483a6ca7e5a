"""CART random forest: the supervised baseline's model.

A plain CART ensemble (gini splits, bootstrap resampling, random feature
subsets per node) built here so tree internals stay inspectable and
deterministic. The forest is one flat node table (`occkit.trees`). `rf_fit`
codes each column once (`_codings`) and hands `trees.grow` the batched gini
rule `_best_cuts`, a histogram over those codes that also routes each row by
its code and gives each child its class counts, and `rf_predict`
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
    if y.min() == y.max():
        raise ValueError("training data must contain both classes")
    if np.isnan(X).any():
        raise ValueError("training matrix holds NaN")
    n_split = min(config.features_per_split or math.ceil(math.sqrt(d)), d)
    return X, y, n_split


def _splittable(total: np.ndarray, ones: np.ndarray, depth: np.ndarray, config: ForestConfig) -> np.ndarray:
    """Nodes that may split: both classes, room for two leaves, depth to spare."""
    can = (ones > 0) & (ones < total) & (total >= 2 * config.min_leaf)
    if config.max_depth is not None:
        can &= depth < config.max_depth
    return can


def _features(keys: np.ndarray, n_split: int) -> np.ndarray:
    """Each node's features in trial order: its key row's first n_split argsort entries."""
    return np.argsort(keys, axis=1, kind="stable")[:, :n_split]


# Heaviest node, in bagged rows, whose cuts _best_cuts searches on merged
# bins; its docstring derives the bound.
_MERGE_CAP = 4096


def rf_fit(X: np.ndarray, y: np.ndarray, config: ForestConfig = ForestConfig(), seed: int = 0) -> ForestModel:
    """Grow a forest of CART trees on bootstrap resamples, level by level.

    Tree t draws from its own stream rng_for(seed, "tree", t): its bootstrap
    bag first, then at each depth one row of d uniform keys per node that may
    split, in level order. A node tries the features its key row's stable
    argsort lists first (n_split of them, in that order) and takes the cut of
    lowest weighted gini: the earliest feature, then the lowest threshold,
    among equals. Trees join the grower as earlier ones drain; the table does
    not depend on when each joins, and equals that of rf_fit_oracle in
    tests/oracles.py.

    Raises:
        ValueError: with fewer than 2 rows, a single class in y or a NaN in X.
    """
    X, y, n_split = _training_inputs(X, y, config)
    n, d = X.shape
    codes, bins, merged = _codings(X, y, config.min_leaf == 1)

    def bag(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(drawn)
        ones = int(np.dot(drawn, y))
        return rows, drawn[rows], _splittable(n, ones, 0, config), np.array([n - ones, ones], dtype=np.int32)

    def rule(level: trees.Level) -> trees.Cuts:
        # A node's state and payload are its (normal, attack) bagged counts.
        # Float64 holds them exactly, so gini needs no casts.
        counts = level.state
        ones = counts[:, 1].astype(np.float64)
        total = counts.sum(axis=1, dtype=np.float64)
        coding = _features(level.u, n_split)
        if merged:
            coding += np.where(total <= _MERGE_CAP, merged, 0)[:, None]
        best, feature, value, n_left, ones_left, right = _best_cuts(
            X, codes, bins, level.rows, level.weight, level.node, level.tree, coding, total, ones, config.min_leaf
        )
        split = best < np.inf
        feature[~split] = -1
        left = np.column_stack([n_left - ones_left, ones_left])[split].astype(np.int32)
        child = np.stack([left, counts[split] - left], axis=1).reshape(-1, 2)
        depth = np.repeat(level.depth[split] + 1, 2)
        return trees.Cuts(feature, value, counts, right, _splittable(child.sum(axis=1), child[:, 1], depth, config), child)

    rngs = [rng_for(seed, "tree", t) for t in range(config.n_trees)]
    return _model(trees.grow(rngs, bag, rule, 1, d), config, d)


def _model(table: tuple[np.ndarray, ...], config: ForestConfig, d: int) -> ForestModel:
    """The ForestModel of a (feature, value, left, roots, counts) table from occkit.trees."""
    feature, value, left, roots, counts = table
    return ForestModel(feature, value, left, counts, roots, config, d)


def _codings(X: np.ndarray, y: np.ndarray, merge: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """(codes, bins, merged): codes[c * n + i] = 2 * (row i's bin under coding c) + y[i].

    Coding c has bins[c] bins. Without merge, coding f holds column f's value codes: one bin per
    distinct value, in ascending order. With merge, coding merged + f holds
    column f's merged bins, where consecutive distinct values whose rows all
    have one class share a bin, and the value codes come first (merged = d)
    only if a node can outweigh _MERGE_CAP, that is if n does; else merged
    is 0. Codes take the narrowest unsigned type that holds them.
    """
    n, d = X.shape
    merged = d if merge and n > _MERGE_CAP else 0
    codings = merged + d if merge else d
    codes = np.empty((codings, n), dtype=np.uint32)
    bins = np.empty(codings, dtype=np.int64)
    for f in range(d):
        _, code = np.unique(X[:, f], return_inverse=True)
        m = code.max() + 1
        if not merge or merged:
            codes[f], bins[f] = code, m
        if merge:
            attacks = np.bincount(code, weights=y, minlength=m)
            # per distinct value: 0 if its rows are all normal, 1 all attack, 2 both
            kind = np.where(attacks == 0, 0, np.where(attacks == np.bincount(code, minlength=m), 1, 2))
            opens = np.concatenate([[True], (kind[1:] != kind[:-1]) | (kind[1:] == 2)])
            bin_of = np.cumsum(opens) - 1
            codes[merged + f], bins[merged + f] = bin_of[code], bin_of[-1] + 1
    codes *= 2
    codes += y.astype(np.uint32)
    return codes.ravel().astype(np.min_scalar_type(2 * bins.max() - 1), copy=False), bins, merged


def _best_cuts(
    X: np.ndarray,
    codes: np.ndarray,
    bins: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    seg: np.ndarray,
    tree: np.ndarray,
    coding: np.ndarray,
    total: np.ndarray,
    ones: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, ...]:
    """(score, feature, threshold, n_left, ones_left, right) of the best cut of every open node.

    Per node: the cut's score (inf if the node has none), feature and
    threshold, and the bagged rows and attack rows left of it (0 without a
    cut); per element: whether it goes right. An element goes left iff its
    bin under the winning coding is at most the bin left of the cut, which
    is the same as X < threshold, as the threshold lies in (a, b] below.

    Element i belongs to open node seg[i], of tree tree[seg[i]], which tries
    the codings coding[seg[i]] of `_codings` in order; coding c reads column
    c % d. Per slot, one weighted bincount over (node, bin, class) cells,
    laid out node after node, gives every node's class counts per bin. A
    node spans all its coding's bins or, when those of the slot's nodes
    would fill more than one block, only the bins from the lowest to the
    highest one its elements hold. Running sums per node over its
    occupied bins give the counts of every cut, and gini is computed there
    only, with the same `_gini` and float ops on the same whole-number
    counts as the per-node _best_split in tests/oracles.py. Ties keep the
    earliest slot, then the lowest bin. Cells go in blocks of whole trees
    (a tree's nodes and elements are contiguous), each of at most
    trees._CHUNK_PAIRS bins unless one tree holds more. A winning cut's
    threshold is the midpoint of the node's largest value a in the bin left
    of it and its smallest b in the next occupied bin, both taken in one
    pass over the elements, or b where the rounded midpoint is not in (a, b].

    Value codes give exactly _best_split's cuts, so its scores, bit for bit.
    Merged bins drop the cuts inside a run of one class; they are used only
    with min_leaf 1 and at nodes of bagged weight N <= _MERGE_CAP, where no
    dropped cut can win:

    - Moving x of the node's N bagged rows left, with z rows of the other
      class on the left and z' on the right, N * score is
      2 (z + z') - 2 (z^2 / x + z'^2 / (N - x)). Along a run of one class z
      and z' stay fixed and z + z' >= 1 (an open node holds both classes),
      so this is strictly concave in x, with second derivative at most
      -4 / N^3.
    - A dropped cut x lies strictly inside its run, at least 1 from each of
      its ends a < x < b, so N * score(x) is at least 2 / N^3 above the chord
      between them: score(x) >= min(score(a), score(b)) + 2 / N^4.
    - The ends are cuts that merged bins keep, with one exception that does
      not matter: a first run has a = 0 (nothing left), but there z = 0 and
      the score falls with x, so b is the better end; for a last run z' = 0
      and a is.
    - Each computed score is within 8u of its exact value (u = 2^-53): each
      gini is within 5u, the two weighted terms within 6uN together, and the
      division adds u. So a dropped cut computes strictly above its better
      end while 2 / N^4 > 16u, that is N < 2^12.5 (about 5,790); _MERGE_CAP
      is 2^12.
    - With min_leaf > 1 an end may be barred while a cut inside its run is
      not, so merged bins are not used.
    """
    n, d = X.shape
    k = total.size
    # Per-element temporaries are dropped as soon as they are used: what a
    # step holds at its peak is freed at its end, handed back to the system
    # and faulted in again by the next step.
    element_bounds = tree_ends = None  # once a slot needs more than one block
    best = np.full(k, np.inf)
    won = np.zeros(k, dtype=np.int64)  # winning coding
    # bins either side of the winning cut; -1 is no bin
    below = np.full(k, -1)
    above = np.full(k, -1)
    # bagged rows, and attack rows among them, left of the winning cut
    n_left_won = np.zeros(k)
    ones_left_won = np.zeros(k)
    for slot in coding.T:
        at_code = (slot * n)[seg]
        at_code += rows
        code = codes[at_code]
        del at_code
        # A node's bins run from first[node]: 0, or, where the full bins would
        # not fit one block, the lowest bin its elements hold, up to the
        # highest; deep nodes of a many-bin column would fill blocks with
        # empty cells.
        first = np.zeros(k, dtype=code.dtype)
        span = bins[slot]
        if span.sum() > trees._CHUNK_PAIRS:
            top = np.zeros(k, dtype=code.dtype)
            np.maximum.at(top, seg, code)
            first[:] = np.iinfo(code.dtype).max
            np.minimum.at(first, seg, code)
            first >>= 1
            span = (top >> 1) - first.astype(np.int64) + 1
        cell_bounds = np.concatenate([[0], np.cumsum(span)])
        # Two cells per (node, bin), its normal rows then its attack rows, as
        # a code is twice the bin plus the row's class.
        cell = (2 * (cell_bounds[:-1] - first))[seg]
        cell += code
        del code
        if cell_bounds[-1] <= trees._CHUNK_PAIRS:
            blocks = [(0, k)]
        else:
            if element_bounds is None:
                element_bounds = np.concatenate([[0], np.cumsum(np.bincount(seg, minlength=k))])
                tree_ends = np.flatnonzero(np.append(tree[1:] != tree[:-1], True)) + 1
            blocks = _tree_blocks(cell_bounds[tree_ends], tree_ends)
        for a, b in blocks:
            e0, e1 = (0, seg.size) if element_bounds is None else (element_bounds[a], element_bounds[b])
            bounds = cell_bounds[a : b + 1] - cell_bounds[a]  # of the block's nodes' cells
            local = cell[e0:e1] - 2 * cell_bounds[a] if a else cell[e0:e1]
            low, cut_cell, next_cell, n_left, ones_left = _lowest_cuts(
                np.bincount(local, weights=weight[e0:e1], minlength=2 * bounds[-1]),
                bounds, total[a:b], ones[a:b], min_leaf,
            )
            better = low < best[a:b]
            base = first[a:b] - bounds[:-1]  # a block cell's bin is cell + base[node]
            for into, value in (
                (best, low), (won, slot[a:b]), (below, cut_cell + base), (above, next_cell + base),
                (n_left_won, n_left), (ones_left_won, ones_left),
            ):
                np.copyto(into[a:b], value, where=better)
    del cell, local
    feature = won % d
    at_code = (won * n)[seg]
    at_code += rows
    bin_of = codes[at_code]
    del at_code
    bin_of >>= 1
    below_of = below[seg]
    right = bin_of > below_of
    flat_X = X.ravel()
    edges = []
    for side, fill, pick in ((below_of, -np.inf, np.maximum), (above[seg], np.inf, np.minimum)):
        on = np.flatnonzero(bin_of == side)
        node = seg[on]
        at_x = rows[on]
        at_x *= d
        at_x += feature[node]
        edge = np.full(k, fill)
        pick.at(edge, node, flat_X[at_x])
        edges.append(edge)
    threshold = np.zeros(k)
    cut = best < np.inf
    a, b = edges[0][cut], edges[1][cut]
    # Between two adjacent doubles the midpoint can round onto a, and a + b
    # can overflow; the cut then sits at b.
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (a + b) / 2.0
        threshold[cut] = np.where((a < mid) & (mid <= b), mid, b)
    return best, feature, threshold, n_left_won, ones_left_won, right


def _lowest_cuts(
    counts: np.ndarray, bounds: np.ndarray, total: np.ndarray, ones: np.ndarray, min_leaf: int
) -> tuple[np.ndarray, ...]:
    """Per node of a block: (score, cell, next cell, n_left, ones_left) of its lowest cut, score inf if none.

    counts holds the block's (normal, attack) cells, node after node, node i
    owning cells bounds[i] to bounds[i + 1]; a cut lies after one occupied
    cell, `cell`, and before the node's next, `next cell`. Ties keep the
    lowest cell.
    """
    occupied = np.flatnonzero(np.logical_or(counts[::2], counts[1::2]))
    ones_left = counts[1::2][occupied]
    n_left = counts[::2][occupied]
    n_left += ones_left
    del counts
    starts = np.searchsorted(occupied, bounds[:-1])  # each node's first occupied cell
    node = np.repeat(np.arange(total.size), np.diff(starts, append=occupied.size))
    # Taking the previous node's totals off each node's first cell makes the
    # running sums restart at every node.
    n_left[starts[1:]] -= total[:-1]
    ones_left[starts[1:]] -= ones[:-1]
    np.cumsum(n_left, out=n_left)
    np.cumsum(ones_left, out=ones_left)
    n_right = total[node]
    n_right -= n_left
    ones_right = ones[node]
    ones_right -= ones_left
    # The cut after a node's last cell has nothing on its right; it is masked below.
    with np.errstate(invalid="ignore"):
        score = _gini(n_left - ones_left, ones_left, n_left)
        score *= n_left
        right = _gini(n_right - ones_right, ones_right, n_right)
        right *= n_right
    score += right
    del right, ones_right
    score /= total[node]
    score[(n_left < min_leaf) | (n_right < min_leaf)] = np.inf
    del n_right
    low = np.minimum.reduceat(score, starts)
    # Every node holds its minimum, so the first hit at or after its start is its own.
    hits = np.flatnonzero(score == low[node])
    j = hits[np.searchsorted(hits, starts)]
    # A node without a cut may end the block: its j + 1 is clipped, and unread.
    return low, occupied[j], occupied[np.minimum(j + 1, occupied.size - 1)], n_left[j], ones_left[j]


def _tree_blocks(cells: np.ndarray, tree_ends: np.ndarray):
    """(first, end) node ranges of whole trees, in order, each of at most
    trees._CHUNK_PAIRS cells or of one tree; cells[t] counts the cells of trees up to t."""
    first = done = i = 0
    while i < tree_ends.size:
        i = max(i + 1, int(np.searchsorted(cells, done + trees._CHUNK_PAIRS, side="right")))
        yield first, tree_ends[i - 1]
        first, done = tree_ends[i - 1], cells[i - 1]


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
