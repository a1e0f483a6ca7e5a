import numpy as np

from occkit.trees import grow, leaf_values


def _halving_tree(X, visits):
    """Split rows on feature 0 at their median until a node holds one row."""

    def split(idx, depth, payload):
        visits.append(tuple(idx.tolist()))
        if idx.size <= 1:
            return None
        value = float(np.median(X[idx, 0]))
        going_left = X[idx, 0] < value
        if going_left.all() or not going_left.any():
            return None
        return 0, value, going_left

    return grow(np.arange(X.shape[0]), split, lambda idx: {"rows": idx.tolist()})


def test_grow_is_depth_first_left_before_right():
    X = np.array([[3.0], [0.0], [2.0], [1.0]])
    visits = []
    tree = _halving_tree(X, visits)
    assert visits == [(0, 1, 2, 3), (1, 3), (1,), (3,), (0, 2), (2,), (0,)]
    assert tree["feature"] == 0 and tree["value"] == 1.5
    assert tree["left"]["left"] == {"rows": [1]}
    assert tree["right"]["right"] == {"rows": [0]}


def test_leaf_values_matches_row_by_row_descent():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(40, 3))
    tree = _halving_tree(X, [])
    probes = rng.uniform(size=(200, 3))

    def descend(x):
        node, depth = tree, 0
        while "feature" in node:
            node = node["left"] if x[node["feature"]] < node["value"] else node["right"]
            depth += 1
        return node["rows"][0] * 100 + depth

    got = leaf_values(tree, probes, lambda leaf, depth: leaf["rows"][0] * 100 + depth)
    assert got.dtype == np.float64
    assert got.tolist() == [descend(x) for x in probes]
    assert leaf_values(tree, probes[:0], lambda leaf, depth: 1.0).shape == (0,)
