"""The flat node table every forest in occkit is stored as: one grower, one walker.

A forest is parallel arrays over its nodes, one root per tree: node i sends
rows with X[:, feature[i]] < value[i] to node left[i] and the others (a NaN
included) to node left[i] + 1; a leaf has feature[i] == left[i] == -1. Each
forest attaches a per-node payload that only its leaves use (a CART tree's
class counts, a detector tree's path length).

`grow` builds the table of every forest: each growing tree advances one
depth per step, trees join as earlier ones drain, and grow draws each open
node's uniform doubles. A forest supplies only its sample and its batched
split rule, a function of the step's `Level` alone, which cuts the open
nodes of a step, routes their rows and says which children stay open.
`leaf_sums` adds up the payload of the leaf each row reaches in every tree,
in one tiled walk: a block of rows against a chunk of trees, one level per
step. The tests hold `grow` to `grow_oracle` (`tests/oracles.py`), which
builds the same table one tree and one node at a time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["Cuts", "Level", "grow", "leaf_sums"]

# Most (tree, row) pairs a forest is grown or walked with at once, level by
# level: a `grow` step holds at most this many (a tree alone may hold more),
# `forest._best_cuts` histograms at most this many cells at once, and
# `leaf_sums` tiles trees the same way over a block of rows. At 1 << 14 the
# 100-tree CART fit on 1,300 rows of tests/test_supervised.py peaks at
# 3.71 MB of traced heap, at the final sort of the node table; its steps
# peak near 2.3 MB.
_CHUNK_PAIRS = 1 << 14

# Most rows of X `leaf_sums` copies and walks at once.
_ROW_BLOCK = 1 << 12


class Level(NamedTuple):
    """The nodes of one step of the growing trees, as a split rule sees them.

    Every node is one the rule may cut. Each growing tree has one depth per
    step. Nodes are ordered by tree, then in level order. Each element is a
    row of its tree's sample that reached an open node; elements keep the
    order the samples gave them, so a tree's nodes and its elements are
    contiguous.
    """

    depth: np.ndarray  # depth of each node
    tree: np.ndarray  # tree of each node, as its index in grow's rngs
    rows: np.ndarray  # row of X of each element
    weight: np.ndarray  # how often its tree's sample drew each element
    node: np.ndarray  # node of each element
    state: np.ndarray  # each node's state, as the rule (or sample, for a root) gave it
    u: np.ndarray  # each node's row of uniform doubles, drawn by grow


class Cuts(NamedTuple):
    """What a split rule returns for a Level.

    A child is open if the rule may cut it at the next step, else a leaf;
    `child` holds an open child's state and a leaf child's payload.
    """

    feature: np.ndarray  # feature each node cuts, -1 for a leaf
    value: np.ndarray  # each node's threshold
    payload: np.ndarray  # each node's payload
    right: np.ndarray  # whether each element goes right; read only for the elements of cut nodes
    open: np.ndarray  # per child of the cut nodes, in node order, left before right
    child: np.ndarray  # likewise


SplitRule = Callable[[Level], Cuts]

# A sample returns a tree's rows, how often each was drawn, and its root's
# verdict and state or payload, as a rule gives a child's.
Sample = Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray, bool, object]]


def grow(
    rngs: Sequence[np.random.Generator], sample: Sample, rule: SplitRule, pairs_per_row: int, draws: int
) -> tuple[np.ndarray, ...]:
    """(feature, value, left, roots, payload) of one tree per stream in rngs.

    Tree t draws from rngs[t] only: first sample(rng), then at each depth
    one rng.random((m, draws)) call for its m open nodes, in level order,
    which the rule reads as Level.u. Each growing tree advances one
    depth per step, and trees join in order, at depth 0, while the step's
    elements times pairs_per_row stay within _CHUNK_PAIRS (a tree alone
    always may): a tree joins as soon as the earlier ones have drained
    enough. Only open nodes reach the rule, with their rows; a leaf is
    recorded when it is made and its rows are dropped. The table does not
    depend on when a tree joins. Each tree's nodes are stored together, in
    level order, left child before right.
    """
    made = []  # batches of nodes, in the order they are numbered: (tree, feature, value, left, payload)
    n_ids = 0  # nodes are numbered once, in the order they are made
    tree = depth = rows = node = np.zeros(0, dtype=np.int64)  # tree and depth of each open node
    weight = np.zeros(0)
    state = None
    at = []  # (batch, index in it) of the open nodes, a batch at a time, in order
    joined = 0  # trees that have joined so far
    drawn = None  # the next tree's sample, once drawn
    while True:
        samples = []
        elements = rows.size
        while joined < len(rngs):
            if drawn is None:
                drawn = sample(rngs[joined])
            size = drawn[0].size if drawn[2] else 0
            if elements and (elements + size) * pairs_per_row > _CHUNK_PAIRS:
                break
            samples.append(drawn)
            elements += size
            drawn = None
            joined += 1
        if samples:
            opened = np.array([is_open for _, _, is_open, _ in samples])
            kept = [s for s, is_open in zip(samples, opened.tolist()) if is_open]
            sizes = [picked.size for picked, _, _, _ in kept]
            node = np.concatenate([node, np.repeat(np.arange(tree.size, tree.size + len(kept)), sizes)])
            rows = np.concatenate([rows] + [picked for picked, _, _, _ in kept])
            weight = np.concatenate([weight] + [times for _, times, _, _ in kept], dtype=np.float64)
            batch = _batch(np.arange(joined - len(samples), joined), np.asarray([root for _, _, _, root in samples]))
            made.append(batch)
            n_ids += len(samples)
            at.append((batch, np.flatnonzero(opened)))
            tree = np.concatenate([tree, batch[0][opened]])
            depth = np.concatenate([depth, np.zeros(len(kept), dtype=np.int64)])
            state = batch[4][opened] if state is None else np.concatenate([state, batch[4][opened]])
        k = tree.size
        if k == 0:
            break
        growing, per_tree = np.unique(tree, return_counts=True)
        u = np.concatenate([rngs[t].random((m, draws)) for t, m in zip(growing.tolist(), per_tree.tolist())])
        cuts = rule(Level(depth, tree, rows, weight, node, state, u))
        feature = np.asarray(cuts.feature, dtype=np.int32)
        split = feature >= 0
        parents = np.flatnonzero(split)
        children = 2 * parents.size
        left = np.full(k, -1, dtype=np.int32)
        left[parents] = n_ids + 2 * np.arange(parents.size)
        done = 0
        for batch, index in at:
            part = slice(done, done + index.size)
            for column, values in zip(batch[1:], (feature, cuts.value, left, cuts.payload)):
                column[index] = values[part]
            done += index.size
        batch = _batch(np.repeat(tree[parents], 2), cuts.child)
        made.append(batch)
        n_ids += children
        opened = np.asarray(cuts.open, dtype=bool)
        at = [(batch, np.flatnonzero(opened))]
        # Each element's child among the cut nodes' children; an element of
        # an uncut node points past them, at a child that is never open.
        child = np.where(split, 2 * np.cumsum(split) - 2, children)[node]
        child += cuts.right
        # Positions, not a mask: a mask this scattered indexes several times slower.
        keep = np.flatnonzero(np.append(opened, [False, False])[child])
        rows, weight = rows[keep], weight[keep]
        node = (np.cumsum(opened) - 1)[child[keep]]
        tree, state = batch[0][opened], cuts.child[opened]
        depth = np.repeat(depth[parents] + 1, 2)[opened]
    # Renumber tree by tree; a stable sort keeps each tree's level order. It
    # runs on the narrowest integer type that holds a tree index: on a key of
    # at most 16 bits numpy sorts by radix.
    tree, feature, value, left, payload = (np.concatenate(c) for c in zip(*made))
    order = np.argsort(tree.astype(np.min_scalar_type(len(rngs) - 1)), kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    left = left[order]
    left[left >= 0] = new_id[left[left >= 0]]
    roots = np.searchsorted(tree[order], np.arange(len(rngs))).astype(np.int32)
    return feature[order], value[order], left, roots, payload[order]


def _batch(tree: np.ndarray, payload: np.ndarray) -> tuple[np.ndarray, ...]:
    """(tree, feature, value, left, payload) of new nodes, each a leaf until
    grow writes the cut of an open one; payload is taken as the leaves'."""
    m = tree.size
    return tree, np.full(m, -1, dtype=np.int32), np.zeros(m), np.full(m, -1, dtype=np.int32), payload


def leaf_sums(
    feature: np.ndarray,
    value: np.ndarray,
    left: np.ndarray,
    roots: np.ndarray,
    payload: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """Per row of X, the sum over trees, in tree order, of payload at the leaf it reaches.

    One walk for any row count: rows go in blocks of at most _ROW_BLOCK,
    each copied column-major once, and trees in chunks of
    max(1, _CHUNK_PAIRS // block rows). Every (tree, row) pair of such a tile
    descends one level per step, until no pair moves. A leaf is absorbing:
    the walk reads it as a cut on feature 0 at NaN whose right child is the
    leaf itself, and nothing is below NaN.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    leaf = left < 0
    step_feature = np.where(leaf, 0, feature).astype(np.intp)
    step_value = np.where(leaf, np.nan, value)
    right = np.where(leaf, np.arange(left.size), left + 1).astype(np.intp)
    roots = np.asarray(roots, dtype=np.intp)
    total = np.zeros(n, dtype=np.float64)
    for start in range(0, n, _ROW_BLOCK):
        b = min(_ROW_BLOCK, n - start)
        block = X[start : start + b].ravel(order="F")
        at_feature = step_feature * b  # where each node's feature starts in block
        per_chunk = max(1, _CHUNK_PAIRS // b)
        column = np.tile(np.arange(b), min(per_chunk, roots.size))
        block_total = total[start : start + b]
        for t in range(0, roots.size, per_chunk):
            chunk = roots[t : t + per_chunk]
            node = np.repeat(chunk, b)
            col = column[: node.size]
            while True:
                # Not `>=`: a NaN goes right.
                moved = right[node] - (block[at_feature[node] + col] < step_value[node])
                if np.array_equal(moved, node):
                    break
                node = moved
            for leaves in payload[node].reshape(chunk.size, b):
                block_total += leaves
    return total
