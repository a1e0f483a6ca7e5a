import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occkit import forest, supervised, trees
from occkit.dataset import Dataset, SplitPlan, generate_gaussian_demo, stratified_split
from occkit.seeding import rng_for
from occkit.supervised import (
    ForestConfig,
    ForestModel,
    OmissionPlan,
    augment_with_noise,
    enumerate_combinations,
    rf_fit,
    rf_predict,
    run_omission_experiment,
)
from oracles import rf_fit_oracle


def _blobs(seed=0, n=50, centers=((0.2, 0.2), (0.8, 0.8))):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(c, 0.03, size=(n, 2)) for c in centers])
    y = np.array([0] * n + [1] * n)
    return X, y


# ---------------------------------------------------------------------------
# forest


def test_rf_separable_blobs_perfect_training_accuracy():
    X, y = _blobs(1, n=50)
    model = rf_fit(X, y, ForestConfig(n_trees=30), seed=0)
    preds = rf_predict(model, X)
    assert np.array_equal(preds, y)


def test_rf_deterministic():
    X, y = _blobs(2)
    probes = np.random.default_rng(3).uniform(size=(25, 2))
    p1 = rf_predict(rf_fit(X, y, ForestConfig(n_trees=20), seed=9), probes)
    p2 = rf_predict(rf_fit(X, y, ForestConfig(n_trees=20), seed=9), probes)
    assert np.array_equal(p1, p2)


def test_rf_rejects_single_class():
    X = np.random.default_rng(4).uniform(size=(20, 2))
    with pytest.raises(ValueError, match="both classes"):
        rf_fit(X, np.zeros(20, dtype=int))


def test_rf_probe_at_centroid_gets_blob_label():
    X, y = _blobs(5, n=60)
    model = rf_fit(X, y, ForestConfig(n_trees=30), seed=1)
    preds = rf_predict(model, np.array([[0.2, 0.2], [0.8, 0.8]]))
    assert preds.tolist() == [0, 1]


def test_rf_empty_probe():
    X, y = _blobs(6)
    model = rf_fit(X, y, ForestConfig(n_trees=5), seed=0)
    assert rf_predict(model, np.zeros((0, 2))).shape == (0,)


def _leaf_forest(*counts):
    """One single-leaf tree per (normal, attack) count pair."""
    k = len(counts)
    return ForestModel(
        feature=np.full(k, -1),
        value=np.zeros(k),
        left=np.full(k, -1),
        counts=np.array(counts),
        roots=np.arange(k),
        config=ForestConfig(n_trees=k),
        feature_count=1,
    )


def test_rf_tie_vote_is_attack():
    model = _leaf_forest([3, 0], [0, 3])
    assert rf_predict(model, np.array([[0.5]]))[0] == 1


def test_rf_leaf_tie_is_attack():
    model = _leaf_forest([2, 2])
    assert rf_predict(model, np.array([[0.0]]))[0] == 1


def test_rf_split_values_inside_node_range():
    X, y = _blobs(7, n=40)
    model = rf_fit(X, y, ForestConfig(n_trees=10), seed=2)

    def check(node, lo, hi):
        if model.left[node] < 0:
            return
        f, v = model.feature[node], model.value[node]
        assert lo[f] <= v <= hi[f]
        left_hi = hi.copy()
        left_hi[f] = v
        right_lo = lo.copy()
        right_lo[f] = v
        check(model.left[node], lo, left_hi)
        check(model.left[node] + 1, right_lo, hi)

    for root in model.roots:
        check(root, np.full(2, -np.inf), np.full(2, np.inf))


def test_rf_majority_matches_brute_force_over_serialized_trees():
    X, y = _blobs(8, n=40)
    model = rf_fit(X, y, ForestConfig(n_trees=15), seed=3)
    probes = np.random.default_rng(9).uniform(size=(20, 2))
    got = rf_predict(model, probes)

    def tree_vote(node, x):
        while model.left[node] >= 0:
            going_left = x[model.feature[node]] < model.value[node]
            node = model.left[node] if going_left else model.left[node] + 1
        return 1 if model.counts[node][1] >= model.counts[node][0] else 0

    for i, x in enumerate(probes):
        votes = sum(tree_vote(root, x) for root in model.roots)
        assert got[i] == (1 if 2 * votes >= len(model.roots) else 0)


_TABLE = ("feature", "value", "left", "counts", "roots")


def _assert_same_table(got, want):
    for name in _TABLE:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def _forest_cases(draw):
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Few decimals and a small value range force tied values and duplicate rows.
    X = np.round(rng.uniform(0, draw(st.sampled_from([1.0, 3.0])), size=(n, d)), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        # A threshold on one column: each class is one long run of that
        # column's sorted values, so most cuts fall inside a one-class run.
        j = rng.integers(d)
        y = (X[:, j] > rng.uniform(X[:, j].min(), X[:, j].max())).astype(np.int64)
    else:
        y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[: 2] = (0, 1)
    if draw(st.booleans()):
        # A block of uniform attack rows in the unit cube, as the noise arm appends.
        m = draw(st.integers(1, n))
        X = np.vstack([X, rng.uniform(0, 1, size=(m, d))])
        y = np.concatenate([y, np.ones(m, dtype=np.int64)])
    config = ForestConfig(
        n_trees=draw(st.integers(1, 12)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        min_leaf=draw(st.integers(1, 4)),
        features_per_split=draw(st.integers(1, d)),
    )
    return X, y, config, seed


@settings(max_examples=60, deadline=None)
@given(_forest_cases())
# At min_leaf 3 a cut inside a one-class run wins here, where both ends of
# the run are barred: merged bins would miss it.
@example((
    np.array([[0.5, 1.0], [0.1, 0.9], [0.3, 0.4], [0.8, 0.4], [0.5, 0.0], [0.8, 0.5]]),
    np.array([1, 0, 0, 1, 0, 0]),
    ForestConfig(n_trees=2, min_leaf=3, features_per_split=1),
    1,
))
# Two adjacent doubles: their midpoint rounds onto the lower one.
@example((
    np.array([[1.0], [np.nextafter(1.0, 2.0)]] * 5),
    np.array([0, 1] * 5),
    ForestConfig(n_trees=3),
    0,
))
def test_rf_fit_table_equals_node_by_node_oracle(case):
    X, y, config, seed = case
    _assert_same_table(rf_fit(X, y, config, seed=seed), rf_fit_oracle(X, y, config, seed=seed))


def test_rf_fit_table_does_not_depend_on_chunking(monkeypatch):
    X, y = _blobs(10, n=120, centers=((0.48, 0.48), (0.52, 0.52)))
    X = np.round(X, 2)  # overlapping classes and tied values grow deep trees
    config = ForestConfig(n_trees=25, min_leaf=2)
    batched = rf_fit(X, y, config, seed=4)
    probes = np.random.default_rng(11).uniform(size=(50, 2))
    depths = []
    level = trees.Level
    monkeypatch.setattr(trees, "Level", lambda *fields: depths.append(fields[0]) or level(*fields))
    # 240 rows, of which each bag holds ~150: one tree at a time, then 720
    # pairs (3 trees' worth), then 2.5 trees' worth, under which a tree
    # joins while others still grow.
    joined_while_growing = {}
    for chunk_pairs in (1, 720, 600):
        monkeypatch.setattr(trees, "_CHUNK_PAIRS", chunk_pairs)
        depths.clear()
        chunked = rf_fit(X, y, config, seed=4)
        _assert_same_table(chunked, batched)
        assert np.array_equal(rf_predict(batched, probes), rf_predict(chunked, probes))
        joined_while_growing[chunk_pairs] = any(d.min() == 0 < d.max() for d in depths)
    assert not joined_while_growing[1] and joined_while_growing[600]


_ADJACENT_DOUBLES = """
import numpy as np
from occkit.forest import ForestConfig, rf_fit, rf_predict
X = np.array([[1.0], [np.nextafter(1.0, 2.0)]] * 5)
y = np.array([0, 1] * 5)
model = rf_fit(X, y, ForestConfig(n_trees=3))
assert rf_predict(model, X).tolist() == y.tolist()
"""


def test_rf_fit_returns_when_the_best_cut_lies_between_adjacent_doubles():
    # (a + b) / 2 rounds onto a here: a cut there sends every row right, and
    # a grower that keeps cutting the same node never returns, so the fit
    # runs in a child process that the timeout kills.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _ADJACENT_DOUBLES], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_rf_fit_cuts_adjacent_doubles_at_the_upper_one_under_a_depth_limit():
    X = np.array([[1.0], [np.nextafter(1.0, 2.0)]] * 5)
    y = np.array([0, 1] * 5)
    model = rf_fit(X, y, ForestConfig(n_trees=3, max_depth=2))
    # A cut at the lower double left an empty leaf whose (0, 0) counts voted attack.
    assert (model.counts.sum(axis=1) > 0).all()
    assert set(model.value[model.left >= 0].tolist()) == {X[1, 0]}
    assert rf_predict(model, X).tolist() == y.tolist()


@st.composite
def _routed_nodes(draw):
    """One tree's open nodes for _best_cuts: tied values, adjacent doubles and huge ones."""
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "adjacent", "huge"]))
    if kind == "ties":
        X = np.round(rng.uniform(0, 1, size=(n, d)), 1)
    else:
        # A few consecutive doubles above 1.0, or near the largest double,
        # where a + b overflows.
        base = 1.0 if kind == "adjacent" else np.finfo(np.float64).max * 0.75
        X = base + rng.integers(0, 4, size=(n, d)) * np.spacing(base)
    y = rng.integers(0, 2, size=n)
    drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
    rows = np.flatnonzero(drawn)
    k = draw(st.integers(1, 4))
    seg = np.sort(rng.integers(0, k, size=rows.size))
    seg = np.unique(seg, return_inverse=True)[1]  # no empty node
    k = seg.max() + 1
    weight = drawn[rows].astype(np.float64)
    coding = np.argsort(rng.uniform(size=(k, d)), axis=1)[:, : draw(st.integers(1, d))]
    merge = draw(st.booleans())
    min_leaf = draw(st.integers(1, 3))
    return X, y, rows, weight, seg, coding, merge, min_leaf


@settings(max_examples=150, deadline=None)
@given(_routed_nodes())
def test_bin_code_routing_equals_the_float_threshold(case):
    X, y, rows, weight, seg, coding, merge, min_leaf = case
    k = seg.max() + 1
    total = np.bincount(seg, weights=weight, minlength=k)
    ones = np.bincount(seg, weights=weight * y[rows], minlength=k)
    codes, bins, _ = forest._codings(X, y, merge)
    best, feature, threshold, n_left, ones_left, right = forest._best_cuts(
        X, codes, bins, rows, weight, seg, np.zeros(k, dtype=np.int64), coding, total, ones, min_leaf
    )
    cut = best < np.inf
    routed = cut[seg]
    assert np.array_equal(right[routed], ~(X[rows, feature[seg]] < threshold[seg])[routed])
    left = ~right & routed
    assert np.array_equal(n_left, np.bincount(seg[left], weights=weight[left], minlength=k))
    assert np.array_equal(ones_left, np.bincount(seg[left], weights=(weight * y[rows])[left], minlength=k))
    assert (n_left[cut] >= min_leaf).all() and (total - n_left)[cut].min(initial=min_leaf) >= min_leaf


def _value_and_merged_cuts(X, y, weight, seg, coding):
    """_best_cuts of one tree's nodes on value codes, then on merged bins (min_leaf 1)."""
    rows = np.flatnonzero(weight)
    seg, weight = seg[rows], weight[rows].astype(np.float64)
    k = seg.max() + 1
    total = np.bincount(seg, weights=weight, minlength=k)
    ones = np.bincount(seg, weights=weight * y[rows], minlength=k)
    tree = np.zeros(k, dtype=np.int64)
    return [
        forest._best_cuts(X, *forest._codings(X, y, merge)[:2], rows, weight, seg, tree, coding, total, ones, 1)
        for merge in (False, True)
    ]


@pytest.mark.parametrize("n", [6, 1000, forest._MERGE_CAP - 1, forest._MERGE_CAP])
@pytest.mark.parametrize("case", ["normal-below-run", "normal-above-run", "both", "bagged", "bagged-nodes"])
def test_merged_bins_cut_as_value_codes_up_to_the_cap(n, case):
    rng = np.random.default_rng(n)
    # Column 0 holds n distinct sorted values, column 1 a shuffle of few values.
    X = np.column_stack([np.arange(n) / n, rng.integers(0, 7, size=n) / 7])
    y = np.ones(n, dtype=np.int64)
    weight = np.ones(n, dtype=np.int64)
    seg = np.zeros(n, dtype=np.int64)
    if case == "normal-below-run":  # one normal row at the low edge of a run of attack rows
        y[0] = 0
    elif case == "normal-above-run":  # the mirror case
        y[-1] = 0
    elif case == "both":
        y[[0, -1]] = 0
    else:  # a bootstrap bag of mixed classes: N = n in one node, about n / 3 in three
        y = rng.integers(0, 2, size=n)
        y[:6] = (0, 1, 0, 1, 0, 1)
        drawn = rng.integers(0, n, size=n)
        drawn[:6] = np.arange(6)
        weight = np.bincount(drawn, minlength=n)
        if case == "bagged-nodes":
            seg = rng.integers(0, 3, size=n)
            seg[:6] = (0, 0, 1, 1, 2, 2)
    k = seg.max() + 1
    for coding in ([[0, 1]] * k, [[1, 0]] * k):
        value, merged = _value_and_merged_cuts(X, y, weight, seg, np.array(coding))
        for got, want in zip(merged, value):
            assert got.tobytes() == want.tobytes()


def test_rf_fit_rejects_nan_in_training():
    X, y = _blobs()
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        rf_fit(X, y, ForestConfig(n_trees=2))


def test_rf_fit_and_predict_hold_little_memory():
    # Overlapping classes grow deep trees, like the noise arm of the omission grid.
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(1300, 2))
    y = (X.sum(axis=1) + rng.normal(0, 0.3, size=1300) > 1.0).astype(np.int64)
    # A first small fit does the one-time imports (np.unique pulls in numpy.ma).
    rf_predict(rf_fit(X[:50], y[:50], ForestConfig(n_trees=2), seed=0), X[:5])
    tracemalloc.start()
    try:
        model = rf_fit(X, y, ForestConfig(n_trees=100), seed=5)
        fit_peak = tracemalloc.get_traced_memory()[1]
        probes = np.random.default_rng(13).uniform(size=(10_000, 2))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rf_predict(model, probes)
        predict_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fit_peak <= 4 * 2**20
    assert predict_peak <= 4 * 2**20


# ---------------------------------------------------------------------------
# combinations and noise


def test_enumerate_combinations_counts():
    tags = ["a1", "a2", "a3", "a4"]
    assert len(enumerate_combinations(tags, 2)) == 6
    assert enumerate_combinations(tags, 0) == [()]
    assert enumerate_combinations(tags, 4) == [("a1", "a2", "a3", "a4")]
    with pytest.raises(ValueError):
        enumerate_combinations(tags, 5)


def test_enumerate_combinations_binomial_identity():
    tags = [f"a{i}" for i in range(10)]
    for k in range(11):
        expect = math.comb(10, k)
        assert len(enumerate_combinations(tags, k)) == expect


def test_capped_combinations_equal_enumerate_then_pick():
    for m in range(1, 9):
        tags = tuple(f"a{i}" for i in range(m))
        for k in range(1, m + 1):
            every = enumerate_combinations(tags, k)
            for cap in {1, 3, max(1, len(every) - 1)}:
                plan = OmissionPlan(tags, (k,), split=SplitPlan(n_runs=1, base_seed=5), combination_cap=cap)
                want = every
                if len(every) > cap:
                    rng = rng_for(5, "combination-cap", k)
                    want = [every[i] for i in np.sort(rng.choice(len(every), size=cap, replace=False))]
                assert supervised._capped_combinations(plan, k) == want, (m, k, cap)


def test_capped_combinations_build_only_the_kept_ones(monkeypatch):
    combinations = itertools.combinations

    def bounded(items, k):
        for i, combo in enumerate(combinations(items, k)):
            assert i < 20, "built a combination past the cap"
            yield combo

    monkeypatch.setattr(itertools, "combinations", bounded)
    tags = tuple(f"a{i:02d}" for i in range(40))
    plan = OmissionPlan(tags, (20,), split=SplitPlan(n_runs=1))  # C(40, 20) = 1.4e11
    combos = supervised._capped_combinations(plan, 20)
    assert len(set(combos)) == 20
    assert all(len(combo) == 20 and list(combo) == sorted(set(combo)) for combo in combos)
    assert combos == sorted(combos)
    assert supervised._capped_combinations(plan, 0) == [()]


def _train_set(n_normal, n_attack, seed=0):
    rng = np.random.default_rng(seed)
    n = n_normal + n_attack
    X = rng.uniform(size=(n, 3))
    y = np.array([0] * n_normal + [1] * n_attack)
    tags = ("",) * n_normal + ("a1",) * n_attack
    return Dataset(X=X, y=y, attack_type=tags, feature_names=("f0", "f1", "f2"))


def test_augment_with_noise_counts():
    train = _train_set(700, 200)
    augmented = augment_with_noise(train, seed=1)
    assert augmented.n_rows == 700 + 200 + 700
    assert int((augmented.y == 1).sum()) == 900


def test_augment_with_noise_balances_pure_normal_training():
    train = _train_set(500, 0)
    augmented = augment_with_noise(train, seed=2)
    assert augmented.n_rows == 1000
    assert int((augmented.y == 0).sum()) == int((augmented.y == 1).sum()) == 500


def test_augment_noise_block_identical_across_omissions():
    # different surviving attacks, same normals, same seed -> same noise rows
    a = augment_with_noise(_train_set(300, 50, seed=3), seed=9)
    b = augment_with_noise(_train_set(300, 120, seed=4), seed=9)
    noise_a = a.X[-300:]
    noise_b = b.X[-300:]
    assert np.array_equal(noise_a, noise_b)


# ---------------------------------------------------------------------------
# omission experiment


@pytest.fixture(scope="module")
def small_demo_result():
    demo = generate_gaussian_demo(1, n_normal=300, n_attack=100)
    plan = OmissionPlan(
        attack_types=demo.attack_tags(),
        k_values=(1, 2),
        with_noise=True,
        split=SplitPlan(n_runs=3, base_seed=5),
    )
    return demo, plan, run_omission_experiment(demo, plan, ForestConfig(n_trees=30))


def test_omission_grid_shape(small_demo_result):
    _, plan, result = small_demo_result
    # k=0: 1 combo, k=1: 2 combos, k=2: 1 combo; 2 arms, 3 runs
    assert len(result.cells) == (1 + 2 + 1) * 2 * 3
    ks = sorted({c.k for c in result.cells})
    assert ks == [0, 1, 2]
    assert {c.arm for c in result.cells} == {"plain", "noise"}


def test_omission_occ_arm_runs_once_per_run_on_the_forest_folds(monkeypatch):
    demo = generate_gaussian_demo(4, n_normal=120, n_attack=40)
    plan = OmissionPlan(
        attack_types=demo.attack_tags(), k_values=(1,), split=SplitPlan(n_runs=3, base_seed=2)
    )
    calls = {"split": [], "omit": 0, "occ": []}
    real_split, real_omit = supervised.stratified_split, supervised.omit_attack_types

    def split(data, split_plan, run):
        calls["split"].append(real_split(data, split_plan, run))
        return calls["split"][-1]

    def omit(data, combo):
        calls["omit"] += 1
        return real_omit(data, combo)

    def occ(run, train, test):
        calls["occ"].append((run, train, test))
        return (test.X[:, 0] > 0.5).astype(np.int64)

    monkeypatch.setattr(supervised, "stratified_split", split)
    monkeypatch.setattr(supervised, "omit_attack_types", omit)
    result = run_omission_experiment(demo, plan, ForestConfig(n_trees=3), workers=1, occ=occ)

    n_combos = 1 + 2  # k=0, then k=1 for a1 and a2
    assert [run for run, _, _ in calls["occ"]] == [0, 1, 2]
    for (_, train, test), (fold_train, fold_test) in zip(calls["occ"], calls["split"], strict=True):
        assert train is fold_train and test is fold_test  # the folds the forest arms got
    assert calls["omit"] == 3 * n_combos  # plain and noise share one omission
    occ_cells = [c for c in result.cells if c.arm == "occ"]
    assert len(occ_cells) == 3 * n_combos
    for cell in occ_cells:
        test = calls["split"][cell.run][1]
        assert cell.attack_recall == pytest.approx(100.0 * np.mean(test.X[test.y == 1, 0] > 0.5))


def _occ_by_first_feature(run, train, test):
    return (test.X[:, 0] > 0.5).astype(np.int64)


def test_omission_cells_come_in_report_order():
    demo = generate_gaussian_demo(4, n_normal=120, n_attack=40)
    plan = OmissionPlan(
        attack_types=demo.attack_tags(), k_values=(1, 2), split=SplitPlan(n_runs=3, base_seed=2)
    )
    result = run_omission_experiment(demo, plan, ForestConfig(n_trees=3), occ=_occ_by_first_feature)
    arms = ("plain", "noise", "occ")
    keys = [(c.k, c.combination_id, c.run, arms.index(c.arm)) for c in result.cells]
    assert keys == sorted(set(keys))
    assert len(keys) == (1 + 2 + 1) * 3 * len(arms)
    assert list(result.per_k) == [(k, arm) for k in (0, 1, 2) for arm in arms]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
def test_omission_occ_runs_once_per_run_on_two_forked_workers(tmp_path):
    demo = generate_gaussian_demo(4, n_normal=120, n_attack=40)
    plan = OmissionPlan(
        attack_types=demo.attack_tags(), k_values=(1, 2), split=SplitPlan(n_runs=10, base_seed=2)
    )
    log = tmp_path / "occ-calls.txt"

    def occ(run, train, test):
        with open(log, "a", encoding="utf-8") as fh:  # the workers are other processes: count in a file
            fh.write(f"{run}\n")
        return _occ_by_first_feature(run, train, test)

    forked = run_omission_experiment(demo, plan, ForestConfig(n_trees=3), workers=2, occ=occ)
    assert sorted(map(int, log.read_text().split())) == list(range(10))
    assert forked == run_omission_experiment(demo, plan, ForestConfig(n_trees=3), workers=1, occ=occ)


def test_omission_unseen_middle_cluster_phenomenon(small_demo_result):
    _, _, result = small_demo_result
    plain = [c.omitted_recall for c in result.cells if c.k == 1 and c.combination == ("a1",) and c.arm == "plain"]
    noisy = [c.omitted_recall for c in result.cells if c.k == 1 and c.combination == ("a1",) and c.arm == "noise"]
    assert np.mean(plain) <= 20.0
    assert np.mean(noisy) >= 80.0


def test_omission_all_attacks_removed_collapses_plain_arm(small_demo_result):
    _, _, result = small_demo_result
    k2_plain = [c for c in result.cells if c.k == 2 and c.arm == "plain"]
    assert all(c.attack_recall == 0.0 and c.attack_f1 == 0.0 for c in k2_plain)


def test_omission_noise_neutral_at_k0(small_demo_result):
    _, _, result = small_demo_result
    acc = {arm: result.per_k[(0, arm)]["accuracy"][0] for arm in ("plain", "noise")}
    assert abs(acc["plain"] - acc["noise"]) < 2.0


def test_omission_aggregate_recomputation(small_demo_result):
    _, _, result = small_demo_result
    # independent recomputation of Avg(metric_k) from the stored cells
    for (k, arm), summary in result.per_k.items():
        for metric, (mean, std) in summary.items():
            by_combo = {}
            for cell in result.cells:
                if cell.k == k and cell.arm == arm:
                    by_combo.setdefault(cell.combination_id, []).append(getattr(cell, metric))
            combo_means = [sum(v) / len(v) for _, v in sorted(by_combo.items())]
            want_mean = sum(combo_means) / len(combo_means)
            want_std = math.sqrt(
                sum((v - want_mean) ** 2 for v in combo_means) / len(combo_means)
            )
            assert abs(mean - want_mean) <= 1e-12
            assert abs(std - want_std) <= 1e-12


def test_omission_plain_recall_non_increasing_in_k():
    demo = generate_gaussian_demo(2, n_normal=300, n_attack=100)
    plan = OmissionPlan(
        attack_types=demo.attack_tags(),
        k_values=(1, 2),
        with_noise=False,
        split=SplitPlan(n_runs=10, base_seed=11),
    )
    result = run_omission_experiment(demo, plan, ForestConfig(n_trees=30))
    recalls = [result.per_k[(k, "plain")]["attack_recall"][0] for k in (0, 1, 2)]
    inversions = sum(1 for a, b in zip(recalls, recalls[1:]) if b > a + 1e-9)
    assert inversions <= 1
    assert all(b <= a + 2.0 for a, b in zip(recalls, recalls[1:]))


def test_omission_rejects_unknown_attack_type():
    demo = generate_gaussian_demo(3, n_normal=60, n_attack=20)
    plan = OmissionPlan(attack_types=("zzz",), k_values=(1,), split=SplitPlan(n_runs=1))
    with pytest.raises(ValueError, match="not present"):
        run_omission_experiment(demo, plan, ForestConfig(n_trees=2))


def test_omission_grid_finishes_when_a_training_fold_lacks_a_withheld_type():
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(60 + 32, 2))
    y = np.array([0] * 60 + [1] * 32)
    attack_type = ("",) * 60 + ("a1",) * 30 + ("rare",) * 2
    data = Dataset(X=X, y=y, attack_type=attack_type, feature_names=("f0", "f1"))
    split = SplitPlan(ratio=0.5, n_runs=4, base_seed=1)
    plan = OmissionPlan(attack_types=("a1", "rare"), k_values=(1,), with_noise=False, split=split)
    folds = [stratified_split(data, split, run) for run in range(split.n_runs)]
    held = [(np.sum(train.attack_type == "rare"), np.sum(test.attack_type == "rare")) for train, test in folds]
    assert held == [(2, 0), (0, 2), (1, 1), (2, 0)]  # run 1 trains on no "rare" row

    result = run_omission_experiment(data, plan, ForestConfig(n_trees=5))
    rare = [c for c in result.cells if c.combination == ("rare",)]
    assert [c.run for c in rare] == [0, 1, 2, 3]
    for cell, (_, in_test) in zip(rare, held):
        assert (cell.omitted_recall is not None) == (in_test > 0)


def test_omission_plan_rejects_a_repeated_attack_type():
    with pytest.raises(ValueError, match="repeat"):
        OmissionPlan(attack_types=("a1", "a1"), k_values=(1,), split=SplitPlan(n_runs=1))


def test_omission_combination_cap():
    rng = np.random.default_rng(12)
    tags = tuple(f"a{i}" for i in range(6))
    n_attack = 6 * 12
    X = rng.uniform(size=(120 + n_attack, 2))
    y = np.array([0] * 120 + [1] * n_attack)
    attack_type = ("",) * 120 + tuple(tags[i // 12] for i in range(n_attack))
    data = Dataset(X=X, y=y, attack_type=attack_type, feature_names=("f0", "f1"))
    plan = OmissionPlan(
        attack_types=tags,
        k_values=(3,),
        with_noise=False,
        split=SplitPlan(n_runs=1, base_seed=1),
        combination_cap=5,
    )
    result = run_omission_experiment(data, plan, ForestConfig(n_trees=4))
    k3 = {c.combination for c in result.cells if c.k == 3}
    assert len(k3) == 5  # capped below C(6,3) = 20
