"""The flat node table every forest in occkit is stored as: one grower, one walker.

A forest is parallel arrays over its nodes, one root per tree: node i sends
rows with X[:, feature[i]] < value[i] to node left[i] and the others (a NaN
included) to node left[i] + 1; a leaf has feature[i] == left[i] == -1. Each
forest attaches a per-node payload that only its leaves use (a CART tree's
class counts, a detector tree's path length).

`grow` builds the table of every forest: the trees of a chunk grow together,
one depth per step, and a forest supplies only its batched split rule, which
picks one cut per open node of a depth. `leaf_sums` adds up the payload of
the leaf each row reaches in every tree. The tests hold `grow` to
`grow_oracle` (`tests/oracles.py`), which builds the same table one tree and
one node at a time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["Level", "grow", "leaf_sums"]

# Most (tree, row) pairs a forest is grown or walked with at once, level by
# level: `grow` takes trees in chunks of max(1, _CHUNK_PAIRS // pairs_per_tree),
# and `leaf_sums` walks them that way up to _CHUNK_PAIRS rows. At 1 << 14 a
# 100-tree CART fit on 1,300 rows peaks near 2.5 MB of heap; each doubling
# about doubles that, for up to ~20% less fit time.
_CHUNK_PAIRS = 1 << 14


class Level(NamedTuple):
    """The nodes of one depth of a chunk of trees, as a split rule sees them.

    Nodes are ordered by tree, then in level order. Each element is a row of
    its tree's sample; elements keep the order the samples gave them.
    """

    depth: int
    tree: np.ndarray  # tree of each node, numbered within the chunk
    rows: np.ndarray  # row of X of each element
    weight: np.ndarray  # how often its tree's sample drew each element
    node: np.ndarray  # node of each element
    rngs: Sequence[np.random.Generator]  # one stream per tree of the chunk

    def open(self, can_split: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, elements, seg) of the nodes a rule may cut.

        `nodes` are the indices where can_split holds, `elements` the
        positions of their elements, and seg[i] the index in `nodes` of
        element elements[i]'s node.
        """
        nodes = np.flatnonzero(can_split)
        elements = np.flatnonzero(can_split[self.node])
        return nodes, elements, (np.cumsum(can_split) - 1)[self.node[elements]]

    def draw(self, nodes: np.ndarray, width: int) -> np.ndarray:
        """One row of `width` uniform doubles per node of `nodes` (ascending, not empty).

        Rows come in level order; a tree's rows are one `random` call on its
        stream, which gives the same doubles as one call per node in order.
        """
        per_tree = np.bincount(self.tree[nodes], minlength=len(self.rngs))
        return np.concatenate([rng.random((m, width)) for rng, m in zip(self.rngs, per_tree.tolist()) if m])


# A split rule takes a Level and returns, per node, the feature to cut (-1 for
# a leaf), the threshold, and the node's payload.
SplitRule = Callable[[Level], tuple[np.ndarray, np.ndarray, np.ndarray]]


def grow(
    X: np.ndarray,
    rngs: Sequence[np.random.Generator],
    sample: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]],
    rule: SplitRule,
    pairs_per_tree: int,
) -> tuple[np.ndarray, ...]:
    """(feature, value, left, roots, payload) of one tree per stream in rngs.

    Tree t draws from rngs[t] only: first sample(rng), its rows and how often
    each was drawn, then whatever the rule draws per depth through
    Level.draw. Trees grow in chunks of max(1, _CHUNK_PAIRS // pairs_per_tree),
    each chunk one depth per step; the table does not depend on the chunking.
    Each tree's nodes are stored together, in level order, left child before
    right.
    """
    per_chunk = max(1, _CHUNK_PAIRS // pairs_per_tree)
    d = X.shape[1]
    flat_X = X.ravel()
    levels = []
    first_id = 0  # nodes are numbered once, in the order they are made
    for t in range(0, len(rngs), per_chunk):
        chunk = rngs[t : t + per_chunk]
        rows, weight = zip(*(sample(rng) for rng in chunk))
        node = np.repeat(np.arange(len(chunk)), [drawn.size for drawn in rows])
        rows = np.concatenate(rows)
        weight = np.concatenate(weight).astype(np.float64)
        tree = np.arange(len(chunk))
        depth = 0
        while tree.size:
            k = tree.size
            feature, value, payload = rule(Level(depth, tree, rows, weight, node, chunk))
            feature = np.asarray(feature, dtype=np.int32)
            split = feature >= 0
            parents = np.flatnonzero(split)
            left = np.full(k, -1, dtype=np.int32)
            left[parents] = first_id + k + 2 * np.arange(parents.size)
            levels.append((tree + t, feature, value, left, payload))
            first_id += k
            if parents.size == 0:
                break
            keep = split[node]
            rows, weight, node = rows[keep], weight[keep], node[keep]
            # Not `>=`: a NaN goes right, as in the walker.
            going_right = ~(flat_X[rows * d + feature[node]] < value[node])
            node = 2 * (np.cumsum(split) - 1)[node] + going_right
            tree = np.repeat(tree[parents], 2)
            depth += 1
    # Renumber tree by tree; a stable sort keeps each tree's level order.
    tree, feature, value, left, payload = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(tree, kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    left = left[order]
    left[left >= 0] = new_id[left[left >= 0]]
    roots = np.searchsorted(tree[order], np.arange(len(rngs))).astype(np.int32)
    return feature[order], value[order], left, roots, payload[order]


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
    together one level per step. With more rows, each block of _CHUNK_PAIRS
    rows walks each tree on its own, partitioning the row indices at every
    node. Both give the same sums; each was the slower one on one side of
    that row count.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    total = np.zeros(n, dtype=np.float64)
    if n > _CHUNK_PAIRS:
        table = feature.tolist(), value.tolist(), left.tolist(), payload.tolist()
        for start in range(0, n, _CHUNK_PAIRS):
            # One contiguous copy per block, so each node reads a feature's
            # values from one row of it instead of a strided column of X;
            # a block at a time bounds the copy.
            block = np.ascontiguousarray(X[start : start + _CHUNK_PAIRS].T)
            at_leaf = np.empty(block.shape[1], dtype=np.float64)
            block_total = total[start : start + _CHUNK_PAIRS]
            for root in roots.tolist():
                _fill_by_partition(table, root, block, at_leaf)
                block_total += at_leaf
        return total
    per_chunk = max(1, _CHUNK_PAIRS // max(n, 1))
    for t in range(0, len(roots), per_chunk):
        for leaves in _leaf_nodes(feature, value, left, roots[t : t + per_chunk], X):
            total += payload[leaves]
    return total


def _fill_by_partition(table: tuple, root: int, XT: np.ndarray, out: np.ndarray) -> None:
    """Write into out the payload at the leaf each column of XT reaches in the tree at `root`.

    XT is a block of rows of X, transposed: one row per feature.
    """
    feature, value, left, payload = table
    stack = [(root, np.arange(XT.shape[1]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        child = left[node]
        if child < 0:
            out[idx] = payload[node]
            continue
        going_left = XT[feature[node]][idx] < value[node]
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
