"""One grower and one walker for every binary tree in occkit.

Trees are nested dicts, persisted as plain JSON. An internal node is
{"feature", "value", "left", "right"} and sends rows with
X[:, feature] < value left; any other dict is a leaf carrying its forest's
payload (isolation mass, class counts).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["grow", "leaf_values"]


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
