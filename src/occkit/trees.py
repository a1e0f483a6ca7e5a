"""The flat node table every forest in occkit is stored as, and its one walker.

A forest is parallel arrays over its nodes, one root per tree: node i sends
rows with X[:, feature[i]] < value[i] to node left[i] and the others (a NaN
included) to node left[i] + 1; a leaf has left[i] == -1. Each forest attaches a
per-node payload that only its leaves use (a CART tree's vote, a detector
tree's path length), and `leaf_sums` adds up the payload of the leaf each row
reaches in every tree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["leaf_sums"]

# Most (tree, row) pairs a forest is grown or walked with at once, level by
# level: `forest.rf_fit` grows trees in chunks of max(1, _CHUNK_PAIRS // rows),
# and `leaf_sums` walks them that way up to _CHUNK_PAIRS rows. At 1 << 14 a
# 100-tree CART fit on 1,300 rows peaks near 2.5 MB of heap; each doubling
# about doubles that, for up to ~20% less fit time.
_CHUNK_PAIRS = 1 << 14


def leaf_sums(
    feature: np.ndarray,
    value: np.ndarray,
    left: np.ndarray,
    roots: np.ndarray,
    payload: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """Per row of X, the sum over trees, in tree order, of payload at the leaf it reaches.

    Up to _CHUNK_PAIRS rows, the (tree, row) pairs of a chunk of trees descend
    together one level per step. With more rows, each tree is walked on its
    own by partitioning the row indices at every node. Both give the same
    sums; each was the slower one on one side of that row count.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    total = np.zeros(n, dtype=np.float64)
    if n > _CHUNK_PAIRS:
        table = feature.tolist(), value.tolist(), left.tolist(), payload.tolist()
        at_leaf = np.empty(n, dtype=np.float64)
        for root in roots.tolist():
            _fill_by_partition(table, root, X, at_leaf)
            total += at_leaf
        return total
    per_chunk = max(1, _CHUNK_PAIRS // max(n, 1))
    for t in range(0, len(roots), per_chunk):
        for leaves in _leaf_nodes(feature, value, left, roots[t : t + per_chunk], X):
            total += payload[leaves]
    return total


def _fill_by_partition(table: tuple, root: int, X: np.ndarray, out: np.ndarray) -> None:
    """Write into out the payload at the leaf each row of X reaches in the tree at `root`."""
    feature, value, left, payload = table
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        child = left[node]
        if child < 0:
            out[idx] = payload[node]
            continue
        going_left = X[:, feature[node]][idx] < value[node]
        stack.append((child, idx[going_left]))
        stack.append((child + 1, idx[~going_left]))


def _leaf_nodes(
    feature: np.ndarray, value: np.ndarray, left: np.ndarray, roots: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Leaf each row of X reaches in each tree from `roots`, shape (len(roots), n).

    Every (tree, row) pair descends one level per step, all pairs together; a
    pair drops out once it stands on a leaf.
    """
    n, d = X.shape
    flat_X = X.ravel()
    node = np.repeat(np.asarray(roots, dtype=np.intp), n)
    active = np.flatnonzero(left[node] >= 0)
    while active.size:
        at = node[active]
        going_right = ~(flat_X[active % n * d + feature[at]] < value[at])
        at = left[at] + going_right
        node[active] = at
        active = active[left[at] >= 0]
    return node.reshape(len(roots), n)
