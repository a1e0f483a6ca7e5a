import numpy as np

from occkit.trees import grow, leaf_nodes, leaf_values


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


def _flatten(trees):
    """Flat (feature, value, left, right, roots) table of dict trees, level order."""
    feature, value, left, right, roots = [], [], [], [], []
    for tree in trees:
        roots.append(len(feature))
        queue = [tree]
        while queue:
            node = queue.pop(0)
            if "feature" in node:
                child = len(feature) + len(queue) + 1
                feature.append(node["feature"])
                value.append(node["value"])
                left.append(child)
                right.append(child + 1)
                queue += [node["left"], node["right"]]
            else:
                feature.append(-1)
                value.append(0.0)
                left.append(-1)
                right.append(-1)
    return tuple(np.array(a) for a in (feature, value, left, right, roots))


def test_leaf_nodes_matches_row_by_row_descent():
    rng = np.random.default_rng(5)
    trees = [_halving_tree(rng.uniform(size=(n, 2)), []) for n in (1, 7, 30)]
    feature, value, left, right, roots = _flatten(trees)
    probes = rng.uniform(size=(100, 2))

    def descend(node, x):
        while left[node] >= 0:
            node = left[node] if x[feature[node]] < value[node] else right[node]
        return node

    got = leaf_nodes(feature, value, left, right, roots, probes)
    assert got.shape == (3, 100)
    assert got.tolist() == [[descend(root, x) for x in probes] for root in roots]
    assert leaf_nodes(feature, value, left, right, roots, probes[:0]).shape == (3, 0)
