import copy

import numpy as np
import pytest

from occkit import trees
from occkit.detectors import DetectorConfig, fit, score
from occkit.forest import ForestConfig, rf_fit, rf_predict
from oracles import CUTS, forest_fit_oracle


def test_oracle_grower_cuts_level_by_level_left_before_right(monkeypatch):
    X = np.array([[3.0], [0.0], [2.0], [1.0], [7.0], [4.0], [6.0], [5.0]])
    visits = []

    def halve(X, idx, u):
        visits.append(tuple(sorted(X[idx, 0].tolist())))
        return 0, float(np.median(X[idx, 0]))

    monkeypatch.setitem(CUTS, "stochastic-forest", halve)
    det = forest_fit_oracle(DetectorConfig(variant="stochastic-forest", n_trees=1, subsample=8), X)
    assert visits == [
        (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3), (4, 5, 6, 7), (0, 1), (2, 3), (4, 5), (6, 7)
    ]
    # Each depth's children follow it in pairs, left before right: root 0, then 1-2, 3-6, 7-14.
    assert det.roots.tolist() == [0]
    assert det.left.tolist() == [1, 3, 5, 7, 9, 11, 13] + [-1] * 8
    assert det.value.tolist()[:7] == [3.5, 1.5, 5.5, 0.5, 2.5, 4.5, 6.5]
    leaves = det.left < 0
    assert det.path_length[leaves].tolist() == [3.0] * 8
    assert det.path_length[~leaves].tolist() == [0.0] * 7
    assert score(det, X).tolist() == [3.0] * 8


def _descend_sums(feature, value, left, roots, payload, X):
    """Row by row: payload at each tree's leaf, added in tree order."""
    out = []
    for x in X:
        total = 0.0
        for node in roots:
            while left[node] >= 0:
                node = left[node] if x[feature[node]] < value[node] else left[node] + 1
            total += payload[node]
        out.append(total)
    return out


def _forest(kind):
    """Node table plus payload, the forest's public scorer, and sums -> its output."""
    rng = np.random.default_rng(6)
    if kind == "cart-nan":
        X = rng.uniform(size=(120, 3))
        y = (X[:, 0] + rng.normal(0, 0.2, size=120) > 0.5).astype(np.int64)
        model = rf_fit(X, y, ForestConfig(n_trees=9, min_leaf=2), seed=1)
        attack = (model.counts[:, 1] >= model.counts[:, 0]).astype(np.float64)
        table = model.feature, model.value, model.left, model.roots, attack
        return table, lambda X: rf_predict(model, X), lambda sums: (2 * sums >= 9).astype(np.int64)
    variant = "stochastic-forest" if kind == "leaf-first" else kind
    det = fit(DetectorConfig(variant=variant, n_trees=7, subsample=32, seed=3), rng.normal(size=(60, 3)))
    table = det.feature, det.value, det.left, det.roots, det.path_length
    if kind == "leaf-first":
        # Put a tree that is one leaf, node 0, in front of the last 6 trees.
        keep = slice(det.roots[1], None)
        shift = det.roots[1] - 1
        left = det.left[keep]
        table = (
            np.concatenate([[-1], det.feature[keep]]),
            np.concatenate([[0.0], det.value[keep]]),
            np.concatenate([[-1], np.where(left >= 0, left - shift, -1)]),
            np.concatenate([[0], det.roots[1:] - shift]),
            np.concatenate([[2.5], det.path_length[keep]]),
        )
        return table, None, None
    return table, lambda X: score(det, X), lambda sums: sums / 7


@pytest.mark.parametrize("kind", ["isolation-forest", "stochastic-forest", "cart-nan", "leaf-first"])
def test_leaf_sums_branches_agree_with_row_by_row_descent(kind, monkeypatch):
    table, scorer, finish = _forest(kind)
    rng = np.random.default_rng(7)
    probes = rng.normal(0.3, 0.6, size=(50, 3))
    probes[rng.uniform(size=probes.shape) < 0.2] = np.nan  # NaN goes right
    probes[np.arange(3), np.arange(3)] = np.nan  # at least one in every column
    feature, value = table[0], table[1]
    cut = np.flatnonzero(feature >= 0)[:20]
    probes[10 + np.arange(cut.size), feature[cut]] = value[cut]  # a tie goes right
    want = _descend_sums(*table, probes)
    # rf_predict sends a NaN right; a detector's score rejects non-finite rows.
    scored = slice(None) if kind == "cart-nan" else ~np.isnan(probes).any(axis=1)
    # Tile shapes over the 50 probes, as (_ROW_BLOCK, _CHUNK_PAIRS): row
    # blocks of 16 + 16 + 16 + 2 with 2 trees per tile, then 20 on the last
    # block; one block with 4 trees per tile (7 trees: 4 + 3; 9 trees:
    # 4 + 4 + 1); one tree per tile.
    for row_block, pairs in ((16, 40), (4096, 200), (4096, 1)):
        monkeypatch.setattr(trees, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(trees, "_CHUNK_PAIRS", pairs)
        got = trees.leaf_sums(*table, probes)
        assert got.dtype == np.float64
        assert got.tolist() == want, (row_block, pairs)
        if scorer is not None:
            assert np.array_equal(scorer(probes[scored]), finish(np.array(want)[scored])), (row_block, pairs)
    assert trees.leaf_sums(*table, probes[:0]).shape == (0,)


def test_grow_draws_each_trees_doubles_in_one_call_per_step(monkeypatch):
    # 16 rows, 8 per tree; a node is cut on the bit of its rows' index that
    # its depth names, when its first double is below 0.8, so trees of one
    # step hold different numbers of open nodes.
    draws = 3
    rngs = [np.random.default_rng(seed) for seed in range(6)]
    after_sample = []

    def sample(rng):
        rows = rng.permutation(16)[:8]
        after_sample.append(copy.deepcopy(rng))
        return rows, np.ones(rows.size), True, rows.size

    steps = []

    def rule(level):
        steps.append((level.depth, level.tree, level.u))
        cut = level.u[:, 0] < 0.8
        right = (level.rows >> level.depth[level.node]) & 1 == 1
        children = np.bincount(2 * level.node + right, minlength=2 * cut.size).reshape(-1, 2)[cut].ravel()
        opened = (children > 1) & (np.repeat(level.depth[cut] + 1, 2) < 4)
        feature = np.where(cut, 0, -1)
        return trees.Cuts(feature, np.zeros(cut.size), np.zeros(cut.size), right, opened, children)

    # 8 elements per tree against 20 pairs: two trees join at once, and a
    # third only once the first two have drained below 12 elements.
    monkeypatch.setattr(trees, "_CHUNK_PAIRS", 20)
    trees.grow(rngs, sample, rule, 1, draws)
    assert len(after_sample) == len(rngs)
    assert any(depth.min() == 0 < depth.max() for depth, _, _ in steps)
    assert any(np.unique(np.unique(tree, return_counts=True)[1]).size > 1 for _, tree, _ in steps)
    for _, tree, u in steps:
        assert u.shape == (tree.size, draws)
        for t in np.unique(tree).tolist():
            mine = tree == t
            assert np.array_equal(u[mine], after_sample[t].random((int(mine.sum()), draws)))


def test_grow_records_closed_roots_declined_nodes_and_late_trees_exactly(monkeypatch):
    # A node cuts on the bit of its rows' index that its depth names, and
    # declines when its rows all share that bit. Tree 1's root is closed,
    # next to the open roots of trees 0 and 2; tree 2's root is declined;
    # with 6 pairs, tree 3 joins at step 1, beside tree 0's depth-1 nodes.
    steps = []

    def rule(level):
        steps.append((level.tree.tolist(), level.depth.tolist()))
        state = level.state
        right = (level.rows >> level.depth[level.node]) & 1 == 1
        counts = np.bincount(2 * level.node + right, minlength=2 * state.size).reshape(-1, 2)
        sums = np.bincount(2 * level.node + right, weights=level.rows, minlength=2 * state.size).reshape(-1, 2)
        cut = (counts > 0).all(axis=1)
        opened = counts[cut].ravel() > 1
        child = np.where(opened, counts[cut].ravel(), 100 + sums[cut].ravel())
        feature = np.where(cut, level.depth, -1)
        payload = np.where(cut, -state, 50 + state)
        return trees.Cuts(feature, np.where(cut, state + 0.5, 0.0), payload, right, opened, child)

    want = [
        [0, 1, 1, -1, -1, -1, -1, -1, -1, 0, -1, -1],
        [4.5, 2.5, 2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.5, 0.0, 0.0],
        [1, 3, 5, -1, -1, -1, -1, -1, -1, 10, -1, -1],
        [0, 7, 8, 9],
        [-4.0, -2.0, -2.0, 100.0, 102.0, 101.0, 103.0, 7.0, 52.0, -2.0, 106.0, 105.0],
    ]
    for pairs in (6, 1, 1 << 14):
        steps.clear()
        samples = iter([([0, 1, 2, 3], True, 4.0), ([], False, 7.0), ([4, 6], True, 2.0), ([5, 6], True, 2.0)])

        def sample(rng):
            rows, is_open, at_root = next(samples)
            return np.array(rows, dtype=np.int64), np.ones(len(rows)), is_open, at_root

        monkeypatch.setattr(trees, "_CHUNK_PAIRS", pairs)
        table = trees.grow([np.random.default_rng(t) for t in range(4)], sample, rule, 1, 1)
        assert [column.dtype for column in table] == [np.int32, np.float64, np.int32, np.int32, np.float64]
        assert [column.tolist() for column in table] == want, pairs
        if pairs == 6:
            assert steps == [([0, 2], [0, 0]), ([0, 0, 3], [1, 1, 0])]
