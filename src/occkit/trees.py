"""Growers and walkers for the binary trees in occkit.

The detector forests keep nested dicts, persisted as plain JSON: an internal
node is {"feature", "value", "left", "right"} and sends rows with
X[:, feature] < value left; any other dict is a leaf carrying its forest's
payload (isolation mass). `grow` and `leaf_values` build and walk them.

The CART forest keeps one flat node table per forest instead: parallel arrays
feature, value, left and right, with left == -1 at a leaf, and one root per
tree. `leaf_nodes` walks such a table.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["grow", "leaf_values", "leaf_nodes"]


def grow(root_idx: np.ndarray, split: Callable, leaf: Callable) -> dict:
    """Grow a tree over training rows `root_idx`, depth first, left before right.

    At each node `leaf(idx)` builds the payload the node keeps as a leaf, then
    `split(idx, depth, payload)` returns the cut (feature, value, going_left),
    with `going_left` a mask over `idx`, or None to keep the leaf. A split rule
    that draws random numbers thus draws at a node before its left subtree.
    """
    return _grow(root_idx, 0, split, leaf)


def _grow(idx: np.ndarray, depth: int, split: Callable, leaf: Callable) -> dict:
    # Recursing through a module-level function, not a nested closure, avoids a
    # reference cycle that would keep `split` (and its training matrix) alive
    # until the cyclic garbage collector runs.
    payload = leaf(idx)
    cut = split(idx, depth, payload)
    if cut is None:
        return payload
    feature, value, going_left = cut
    return {
        "feature": feature,
        "value": value,
        "left": _grow(idx[going_left], depth + 1, split, leaf),
        "right": _grow(idx[~going_left], depth + 1, split, leaf),
    }


def leaf_values(tree: dict, X: np.ndarray, value: Callable) -> np.ndarray:
    """`value(leaf, depth)` of the leaf each row of X lands in, as float64.

    All rows descend together: each node partitions the row indices it holds.
    """
    out = np.zeros(X.shape[0], dtype=np.float64)
    stack = [(tree, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if "feature" not in node:
            out[idx] = value(node, depth)
            continue
        going_left = X[:, node["feature"]][idx] < node["value"]
        stack.append((node["left"], idx[going_left], depth + 1))
        stack.append((node["right"], idx[~going_left], depth + 1))
    return out


def leaf_nodes(
    feature: np.ndarray,
    value: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """Leaf each row of X reaches in each tree of a flat table, shape (len(roots), n).

    Every (tree, row) pair descends one level per step, all pairs together; a
    pair drops out once it stands on a leaf.
    """
    n, d = X.shape
    flat_X = np.ascontiguousarray(X).ravel()
    node = np.repeat(np.asarray(roots, dtype=np.intp), n)
    active = np.flatnonzero(left[node] >= 0)
    while active.size:
        at = node[active]
        going_left = flat_X[active % n * d + feature[at]] < value[at]
        at = np.where(going_left, left[at], right[at])
        node[active] = at
        active = active[left[at] >= 0]
    return node.reshape(len(roots), n)
