import contextlib
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit import detectors, trees
from occkit.detectors import (
    LRD_SENTINEL,
    PERSIST_FORMAT_VERSION,
    DetectorConfig,
    VARIANTS,
    fit,
    isolation_path_adjustment,
    load_detector,
    save_detector,
    score,
)
from oracles import CUTS, forest_fit_oracle, lof_brute_oracle

EULER_MASCHERONI = 0.5772156649


def _cluster(seed, n=60, d=2, center=0.5, sigma=0.02):
    rng = np.random.default_rng(seed)
    return rng.normal(loc=center, scale=sigma, size=(n, d))


def _config(variant, seed=0, **kw):
    defaults = {"n_trees": 50, "subsample": 64, "k_neighbors": 10}
    defaults.update(kw)
    return DetectorConfig(variant=variant, seed=seed, **defaults)


# ---------------------------------------------------------------------------
# path-length adjustment


def test_adjustment_small_n():
    assert isolation_path_adjustment(0) == 0.0
    assert isolation_path_adjustment(1) == 0.0


def test_adjustment_two_points():
    expect = 2.0 * (math.log(1) + EULER_MASCHERONI) - 1.0
    assert isolation_path_adjustment(2) == pytest.approx(0.15443, abs=1e-4)
    assert isolation_path_adjustment(2) == pytest.approx(expect, abs=1e-12)


def test_adjustment_256():
    assert 9.5 < isolation_path_adjustment(256) < 11.0


def test_adjustment_monotone():
    values = [isolation_path_adjustment(n) for n in range(0, 600)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_adjustment_rejects_negative():
    with pytest.raises(ValueError):
        isolation_path_adjustment(-1)


# ---------------------------------------------------------------------------
# shared contracts


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_and_score_deterministic(variant):
    X = _cluster(1)
    probes = _cluster(2, n=20)
    cfg = _config(variant, seed=7)
    s1 = score(fit(cfg, X), probes)
    s2 = score(fit(cfg, X), probes)
    assert np.array_equal(s1, s2)
    assert np.all(np.isfinite(s1))


@pytest.mark.parametrize("variant", VARIANTS)
def test_score_empty_matrix(variant):
    det = fit(_config(variant), _cluster(3))
    out = score(det, np.zeros((0, 2)))
    assert out.shape == (0,)
    assert out.dtype == np.float64


@pytest.mark.parametrize("variant", VARIANTS)
def test_score_shape_mismatch(variant):
    det = fit(_config(variant), _cluster(4))
    with pytest.raises(ValueError, match="features"):
        score(det, np.zeros((3, 5)))


def test_fit_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        fit(_config("isolation-forest"), np.zeros((0, 2)))


def test_lof_needs_more_rows_than_k():
    X = _cluster(5, n=10)
    with pytest.raises(ValueError, match="k_neighbors"):
        fit(_config("lof", k_neighbors=10), X)


def test_isolation_forest_caps_subsample():
    X = _cluster(6, n=30)
    det = fit(_config("isolation-forest", subsample=1000), X)
    probes = _cluster(7, n=5)
    assert np.all(np.isfinite(score(det, probes)))


@pytest.mark.parametrize("variant", ["isolation-forest", "stochastic-forest", "lof"])
def test_far_probe_scores_below_median_training_score_1d(variant):
    rng = np.random.default_rng(8)
    X = 0.5 + 0.01 * rng.standard_normal((50, 1))
    det = fit(_config(variant, seed=1), X)
    train_scores = score(det, X)
    probe = score(det, np.array([[0.99]]))[0]
    assert probe < np.median(train_scores)


def test_far_probe_scores_below_median_training_score_linear_recon():
    # Needs a subspace to project out of: anisotropic 2-D cluster, one component.
    rng = np.random.default_rng(9)
    t = rng.normal(size=(50, 1))
    X = 0.5 + t * np.array([[0.05, -0.05]]) + 0.002 * rng.standard_normal((50, 2))
    det = fit(_config("linear-recon", n_components=1, seed=1), X)
    train_scores = score(det, X)
    probe = score(det, np.array([[0.99, 0.99]]))[0]
    assert probe < np.median(train_scores)


@pytest.mark.parametrize("variant", VARIANTS)
def test_far_outlier_is_strictly_minimal(variant):
    # Orientation property: the planted outlier must get the strictly
    # smallest score in the batch. The forest/density variants see the
    # contaminated batch at fit time (an in-sample outlier isolates fast);
    # linear-recon must learn its subspace from the normals alone, since a
    # single extreme point would otherwise become the principal direction.
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(2, 5))
        scale = np.linspace(1.0, 2.0, d)  # anisotropy pins the principal axis
        X = rng.standard_normal((60, d)) * scale
        outlier = np.full((1, d), 60.0)
        batch = np.vstack([X, outlier])
        cfg = _config(variant, seed=seed, n_components=max(1, d - 1))
        det = fit(cfg, X if variant == "linear-recon" else batch)
        s = score(det, batch)
        assert np.argmin(s) == 60
        assert s[60] < s[:60].min()


# ---------------------------------------------------------------------------
# lof against the brute-force oracle


def test_lof_grid_point_has_unit_factor():
    grid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
    probe = np.array([[1.0, 1.0]])
    s = lof_brute_oracle(grid, probe, k=3)
    assert s[0] == pytest.approx(-1.0, abs=0.35)


def test_lof_far_probe_is_lowest():
    grid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
    probes = np.vstack([grid[:4], [[100.0, 100.0]]])
    s = lof_brute_oracle(grid, probes, k=3)
    assert s[-1] < -10
    assert np.argmin(s) == len(probes) - 1


def test_lof_probe_inside_corner_cluster_scores_like_training():
    rng = np.random.default_rng(10)
    corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    X = np.vstack([c + 0.01 * rng.standard_normal((5, 2)) for c in corners])
    cfg = _config("lof", k_neighbors=3)
    det = fit(cfg, X)
    train_scores = score(det, X)
    probe = X[:5].mean(axis=0, keepdims=True)
    probe_score = score(det, probe)[0]
    assert abs(probe_score - np.median(train_scores)) < 0.2


def test_lof_production_matches_oracle_small():
    rng = np.random.default_rng(11)
    X_train = rng.uniform(size=(30, 3))
    X_probe = rng.uniform(size=(12, 3))
    det = fit(_config("lof", k_neighbors=5), X_train)
    got = score(det, X_probe)
    want = lof_brute_oracle(X_train, X_probe, k=5)
    assert np.array_equal(np.argsort(got, kind="stable"), np.argsort(want, kind="stable"))
    assert got == pytest.approx(want, rel=1e-9)


def test_lof_duplicate_points_stay_finite():
    X = np.vstack([np.zeros((8, 2)), np.ones((8, 2))])
    det = fit(_config("lof", k_neighbors=3), X)
    s = score(det, np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert np.all(np.isfinite(s))
    assert s[0] > s[1]  # the duplicated location is more normal than the gap


def _lof_row_by_row(X_train, X_probe, k):
    """kdist, lrd and negated scores of LOF, one row at a time.

    Each block of rows gets its distances from one (rows, m, d) difference
    tensor; each row then takes its k-distance with np.partition and every
    mean with np.mean over its neighbours, in column order. The blocked lof
    variant must reproduce these three arrays bit for bit.
    """

    def distance_rows(A, B, block=256):
        for start in range(0, A.shape[0], block):
            chunk = A[start : start + block]
            yield start, np.sqrt(((chunk[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1))

    def lrd_of(reach):
        mean_reach = float(np.mean(reach))
        return LRD_SENTINEL if mean_reach == 0.0 else 1.0 / mean_reach

    n = X_train.shape[0]
    kdist = np.empty(n)
    for start, dist in distance_rows(X_train, X_train):
        for r in range(dist.shape[0]):
            row = dist[r]
            row[start + r] = np.inf  # a point is not its own neighbor
            kdist[start + r] = np.partition(row, k - 1)[k - 1]
    lrd = np.empty(n)
    for start, dist in distance_rows(X_train, X_train):
        for r in range(dist.shape[0]):
            i = start + r
            row = dist[r]
            row[i] = np.inf
            nb = np.flatnonzero(row <= kdist[i])
            lrd[i] = lrd_of(np.maximum(kdist[nb], row[nb]))
    scores = np.empty(X_probe.shape[0])
    for start, dist in distance_rows(X_probe, X_train):
        for r in range(dist.shape[0]):
            row = dist[r]
            nb = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1])
            lrd_probe = lrd_of(np.maximum(kdist[nb], row[nb]))
            scores[start + r] = -float(np.mean(lrd[nb])) / lrd_probe
    return kdist, lrd, scores


@st.composite
def _lof_cases(draw):
    k = draw(st.integers(1, 23))
    n = k + draw(st.integers(1, 40))
    # d >= 8 sums the squared differences in numpy's pairwise order.
    d = draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(size=(n, d))
    levels = draw(st.sampled_from([0, 1, 2, 3]))
    if levels:  # a coarse grid: tied distances and duplicate rows
        X = np.round(X * levels) / levels
    duplicates = draw(st.booleans())
    if duplicates:  # k + 3 copies of one row: kdist 0, and LRD_SENTINEL
        X[: k + 3] = X[0]
    # A large common offset: the Gram form cancels all but a few digits.
    X += draw(st.sampled_from([0.0, 1e4]))
    probes = np.vstack([X[rng.integers(0, n, size=4)], X[:1] + 1e-9, rng.uniform(size=(6, d)) + X.min()])
    return k, X, probes, duplicates, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_lof_cases())
def test_lof_equals_row_by_row_reference_bit_for_bit(case):
    k, X, probes, duplicates, small_blocks = case
    with pytest.MonkeyPatch.context() as patch:
        if small_blocks:  # many blocks, many recompute chunks, most rows filtered twice
            patch.setattr(detectors, "_BLOCK_ELEMENTS", 3 * X.shape[0])
            patch.setattr(detectors, "_KEPT_PAIRS", 2 * k)
        det = fit(_config("lof", k_neighbors=k), X)
        got = score(det, probes)
    kdist, lrd, want = _lof_row_by_row(X, probes, k)
    assert det.kdist.tobytes() == kdist.tobytes()
    assert det.lrd.tobytes() == lrd.tobytes()
    assert got.tobytes() == want.tobytes()
    if duplicates:
        assert (lrd == LRD_SENTINEL).any()


def _count_filtered_rows(monkeypatch):
    seen = []
    blocks = detectors._neighbour_blocks

    def counting(Q, *args, **kwargs):
        seen.append(Q.shape[0])
        return blocks(Q, *args, **kwargs)

    monkeypatch.setattr(detectors, "_neighbour_blocks", counting)
    return seen


def test_lof_fit_filters_each_row_once(monkeypatch):
    X = _cluster(4, n=300, d=5)
    seen = _count_filtered_rows(monkeypatch)
    det = fit(_config("lof", k_neighbors=7), X)
    assert seen == [300]
    assert det.lrd.tobytes() == _lof_row_by_row(X, X[:0], 7)[1].tobytes()


def test_lof_fit_filters_again_only_the_rows_past_the_kept_pairs(monkeypatch):
    X = np.zeros((40, 2))  # every pair ties: each row keeps 39 neighbours
    monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", 10 * 40)
    monkeypatch.setattr(detectors, "_KEPT_PAIRS", 20 * 39)
    seen = _count_filtered_rows(monkeypatch)
    det = fit(_config("lof", k_neighbors=3), X)
    assert seen == [40, 20]
    assert (det.lrd == LRD_SENTINEL).all()


@pytest.mark.parametrize("case, blocks", [("nsl-width", 4), ("duplicate-rows", 11)])
def test_lof_fit_and_score_memory_is_bounded(case, blocks):
    if case == "nsl-width":
        # NSL-KDD's encoded width: the Gram and selection blocks dominate.
        X = np.random.default_rng(5).uniform(size=(20_000, 122))
    else:
        # Every pair ties, so every pair is a candidate: the recompute runs in
        # chunks, and fit filters the rows past its kept pairs twice.
        X = np.ones((2_000, 122))
    tracemalloc.start()
    try:
        det = fit(_config("lof", k_neighbors=20), X)
        score(det, X[:2_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Beside the detector's copy of X, a few arrays of one block each; one
    # (256 rows, m, 122) difference tensor alone would be 5 GB and 500 MB.
    assert peak - X.nbytes < blocks * detectors._BLOCK_ELEMENTS * 8


_OPENBLAS = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))

_LOF_BYTES = """
import ctypes, hashlib, sys
import numpy as np
from occkit.detectors import DetectorConfig, fit, score
threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_()
rng = np.random.default_rng(13)
X = rng.uniform(size=(3000, 122))
det = fit(DetectorConfig("lof", k_neighbors=20), X)
probes = rng.uniform(size=(500, 122))
digest = hashlib.sha256(det.kdist.tobytes() + det.lrd.tobytes() + score(det, probes).tobytes())
print(threads, digest.hexdigest())
"""


@pytest.mark.skipif(not _OPENBLAS, reason="numpy does not bundle scipy-openblas here")
def test_lof_bytes_do_not_depend_on_blas_threads():
    root = Path(__file__).resolve().parent.parent
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _LOF_BYTES, str(_OPENBLAS[0])], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        used, digest = proc.stdout.split()
        assert used == threads
        digests.add(digest)
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# stochastic forest


def _monotone_transform(X, kinds):
    out = np.empty_like(X)
    for j, kind in enumerate(kinds):
        col = X[:, j]
        if kind == 0:
            out[:, j] = col**3
        elif kind == 1:
            out[:, j] = np.exp(col)
        elif kind == 2:
            out[:, j] = 3.0 * col - 7.0
        else:
            out[:, j] = np.arctan(col)
    return out


def test_stochastic_forest_scores_invariant_under_monotone_transforms():
    rng = np.random.default_rng(12)
    for trial in range(10):
        n, d = int(rng.integers(30, 120)), int(rng.integers(1, 5))
        X = rng.uniform(-2, 2, size=(n, d))
        probes = rng.uniform(-2, 2, size=(25, d))
        kinds = rng.integers(0, 4, size=d)
        cfg = _config("stochastic-forest", seed=trial)
        s_raw = score(fit(cfg, X), probes)
        s_tr = score(fit(cfg, _monotone_transform(X, kinds)), _monotone_transform(probes, kinds))
        assert np.array_equal(s_raw, s_tr)


def test_stochastic_forest_repeated_training_point():
    X = np.tile([[0.3, 0.7]], (40, 1))
    det = fit(_config("stochastic-forest"), X)
    batch = np.array([[0.3, 0.7], [0.9, 0.1], [0.0, 0.0]])
    s = score(det, batch)
    assert s[0] >= s[1] and s[0] >= s[2]


def test_stochastic_forest_outlier_ranked_last():
    # subsample >= sample size so the planted outlier is in every tree
    cluster = _cluster(13, n=80)
    contaminated = np.vstack([cluster, [[50.0, 50.0]]])
    det = fit(_config("stochastic-forest", seed=2, n_trees=200, subsample=128), contaminated)
    batch = np.vstack([cluster[:10], [[50.0, 50.0]]])
    s = score(det, batch)
    assert np.argmin(s) == 10


# ---------------------------------------------------------------------------
# isolation forest: exhaustive check on two-point subsample trees


def _walk(det, root, x):
    """(depth, node) of the leaf x reaches in the tree at `root`."""
    depth = 0
    node = root
    while det.left[node] >= 0:
        node = det.left[node] if x[det.feature[node]] < det.value[node] else det.left[node] + 1
        depth += 1
    return depth, node


def test_isolation_forest_two_point_trees_enumerated():
    v, w = 0.25, 0.75
    X = np.array([[v], [v], [w]])
    cfg = DetectorConfig(variant="isolation-forest", n_trees=40, subsample=2, seed=3)
    det = fit(cfg, X)
    c2 = isolation_path_adjustment(2)
    paths = []
    for root in det.roots:
        depth, leaf = _walk(det, root, np.array([v]))
        path = det.path_length[leaf]
        # a {v,v} pair cannot split (depth 0, path c(2)); a {v,w} pair splits once (depth 1, path 1)
        assert depth in (0, 1)
        assert path == pytest.approx(1.0 if depth else c2, abs=1e-12)
        paths.append(path)
    expect = float(np.mean(paths))
    got = score(det, np.array([[v]]))[0]
    assert got == pytest.approx(expect, abs=1e-12)


def test_forest_trees_respect_height_limit():
    X = np.random.default_rng(15).uniform(size=(200, 3))
    for variant in ("isolation-forest", "stochastic-forest"):
        # subsample >= n: every training row is in every tree, so each leaf's
        # mass is the number of training rows that reach it.
        det = fit(_config(variant, subsample=256), X)
        limit = math.ceil(math.log2(200))
        for root in det.roots:
            mass = {}
            for x in X:
                leaf = _walk(det, root, x)[1]
                mass[leaf] = mass.get(leaf, 0) + 1
            for node, depth in _tree_nodes(det, root):
                assert depth <= limit
                if det.left[node] < 0:
                    assert mass.get(node, 0) >= 1
                    assert det.path_length[node] == depth + isolation_path_adjustment(mass[node])
    # Leaves of up to 4,000 copies of one value, near the top of the c(mass)
    # table a 4,096-row subsample uses: each distinct value ends in its own
    # leaf, bit for bit depth + c(its copies).
    copies = [1, 2, 3, 90, 4000]
    X = np.repeat(np.arange(5.0), copies)[:, None]
    for variant in _FORESTS:
        det = fit(DetectorConfig(variant=variant, n_trees=4, subsample=4096), X)
        for root in det.roots:
            for value, mass in enumerate(copies):
                depth, leaf = _walk(det, root, np.array([float(value)]))
                assert det.path_length[leaf] == depth + isolation_path_adjustment(mass)


_FORESTS = ("isolation-forest", "stochastic-forest")
_TABLE = ("feature", "value", "left", "roots", "path_length")


def _assert_same_table(got, want):
    for name in _TABLE:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def _detector_cases(draw):
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few decimals on a small range give tied values and duplicate rows; a
    # zeroed column is constant.
    X = np.round(rng.uniform(0, draw(st.sampled_from([1.0, 3.0])), size=(n, d)), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.0
    config = DetectorConfig(
        variant=draw(st.sampled_from(_FORESTS)),
        n_trees=draw(st.integers(1, 12)),
        subsample=draw(st.integers(2, 64)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return config, X


@settings(max_examples=80, deadline=None)
@given(_detector_cases())
def test_forest_fit_table_equals_node_by_node_oracle(case):
    config, X = case
    _assert_same_table(fit(config, X), forest_fit_oracle(config, X))


def test_stochastic_fit_on_mostly_duplicate_rows_equals_oracle(monkeypatch):
    # 85% of the cells are 0, so most rows are (0, 0, 0): a retry fails
    # whenever its datum is a node's minimum on its feature, and a node of
    # identical rows fails all of them.
    X = (np.random.default_rng(11).uniform(size=(300, 3)) < 0.15).astype(np.float64)
    config = DetectorConfig(variant="stochastic-forest", n_trees=40, subsample=128, seed=5)
    taken = []  # per oracle cut, the retry that cut it, or None

    def counting_cut(X, idx, u):
        for retry, (feature_u, datum_u) in enumerate(u.reshape(-1, 2)):
            feature = int(feature_u * X.shape[1])
            value = float(X[idx[int(datum_u * idx.size)], feature])
            if (X[idx, feature] < value).any():
                taken.append(retry)
                return feature, value
        taken.append(None)
        return None

    monkeypatch.setitem(CUTS, "stochastic-forest", counting_cut)
    want = forest_fit_oracle(config, X)
    assert set(range(1, detectors._SPLIT_RETRIES)) <= set(taken) and None in taken
    _assert_same_table(fit(config, X), want)


@pytest.mark.parametrize("variant", _FORESTS)
def test_forest_fit_table_does_not_depend_on_chunking(variant, monkeypatch):
    X = np.round(np.random.default_rng(8).uniform(size=(150, 3)), 1)
    config = DetectorConfig(variant=variant, n_trees=25, subsample=64, seed=2)
    batched = fit(config, X)
    assert batched.roots.size == 25
    depths = []
    level = trees.Level
    monkeypatch.setattr(trees, "Level", lambda *fields: depths.append(fields[0]) or level(*fields))
    # One tree at a time; then 4 isolation trees (768 // (64 rows x 3
    # features)) or 12 stochastic trees (768 // 64 rows) at first; then 2.5
    # trees' worth of pairs, under which a tree joins while others still grow.
    per_tree = 64 * (3 if variant == "isolation-forest" else 1)
    joined_while_growing = {}
    for chunk_pairs in (1, 768, 5 * per_tree // 2):
        monkeypatch.setattr(trees, "_CHUNK_PAIRS", chunk_pairs)
        depths.clear()
        chunked = fit(config, X)
        _assert_same_table(chunked, batched)
        assert np.array_equal(score(batched, X), score(chunked, X))
        joined_while_growing[chunk_pairs] = any(d.min() == 0 < d.max() for d in depths)
    assert not joined_while_growing[1] and joined_while_growing[5 * per_tree // 2]


def test_forest_fit_oracle_rejects_other_variants():
    with pytest.raises(ValueError, match="forest"):
        forest_fit_oracle(_config("lof"), _cluster(23))


def _tree_nodes(det, root):
    """(node, depth) of every node of the tree at `root`."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if det.left[node] >= 0:
            stack += [(det.left[node], depth + 1), (det.left[node] + 1, depth + 1)]


# ---------------------------------------------------------------------------
# linear reconstruction


def test_linear_recon_full_rank_reconstructs_training_exactly():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 4))
    det = fit(_config("linear-recon", n_components=4), X)
    s = score(det, X)
    assert np.all(np.abs(s) <= 1e-9)
    assert s.max() - s.min() <= 1e-9


def test_linear_recon_component_cap():
    X = np.random.default_rng(17).normal(size=(10, 3))
    with pytest.raises(ValueError, match="n_components"):
        fit(_config("linear-recon", n_components=5), X)


def test_linear_recon_basis_is_orthonormal():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(60, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
    det = fit(_config("linear-recon", n_components=3), X)
    gram = det.basis @ det.basis.T
    assert np.allclose(gram, np.eye(3), atol=1e-9)


def test_linear_recon_basis_is_the_top_eigenvector_on_the_demo():
    # Run 8 of the shipped seed-42 demo occ-eval: its normals are near-isotropic
    # (second eigenvalue / first 0.976), where 200 steps of a seeded power
    # iteration stopped 5.7 degrees short of the top eigenvector (|cos| 0.9951).
    from pathlib import Path

    from occkit.cli import _DataSource, load_config
    from occkit.seeding import derive_seed

    path = Path(__file__).resolve().parent.parent / "configs" / "demo-occ-eval.json"
    config = load_config(path, experiment="occ-eval", seed_override=None)
    normals = _DataSource(config).split_for_run(config.split, 8)[0].X
    seed = derive_seed(config.seed, "detector", "linear-recon", 8)
    det = fit(DetectorConfig(variant="linear-recon", n_components=1, seed=seed), normals)
    top = np.linalg.svd(normals - normals.mean(axis=0))[2][0]
    assert abs(float(det.basis[0] @ top)) >= 1 - 1e-12


def test_linear_recon_does_not_depend_on_the_seed():
    X = np.random.default_rng(25).normal(size=(50, 4))
    bases = [fit(_config("linear-recon", seed=seed, n_components=2), X).basis for seed in (0, 1, 99)]
    assert all(np.array_equal(basis, bases[0]) for basis in bases[1:])


@st.composite
def _recon_cases(draw):
    """A small matrix, some of its columns made constant and some copies of another column."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 6))
    values = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    for j in range(d):
        kind = draw(st.sampled_from(["free", "constant", "copy"]))
        if kind == "constant":
            X[:, j] = X[0, j]
        elif kind == "copy":
            X[:, j] = X[:, draw(st.integers(0, d - 1))]
    return X


@settings(max_examples=150, deadline=None)
@given(_recon_cases())
def test_linear_recon_captures_the_largest_eigenvalues(X):
    # scipy is a test-only dependency: an eigenvalue reference independent of numpy's eigh.
    from scipy.linalg import eigvalsh

    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / X.shape[0]
    eigenvalues = eigvalsh(cov)[::-1]
    d = X.shape[1]
    tolerance = 1e-9 * (1.0 + float(np.trace(cov)))
    for r in range(1, d + 1):
        basis = fit(_config("linear-recon", n_components=r), X).basis
        assert basis.shape == (r, d)
        assert np.allclose(basis @ basis.T, np.eye(r), atol=1e-9)
        captured = float(np.trace(basis @ cov @ basis.T))
        assert abs(captured - float(eigenvalues[:r].sum())) <= tolerance


# ---------------------------------------------------------------------------
# persistence


def test_variants_are_listed_in_their_registration_order():
    # The order of the default detectors, and so of a default config's rows.
    assert VARIANTS == ("isolation-forest", "stochastic-forest", "lof", "linear-recon")


# sha256 of save_detector's output for _pinned_detector(variant).
_SAVED_SHA256 = {
    "isolation-forest": "08643424394376d0f3ed44f8445a1edc745f4fd9dbb1f333809063dd6c44ce81",
    "stochastic-forest": "41149111d27b758a5cd8a2f7897e0bb9fa100fcd96ed69d355f430d62bfb6834",
    "lof": "c14e0c19e2b228bf4d6d746e5ecce72d1f273c7922b987a5322aff0b6237bfa5",
    "linear-recon": "95277be9936f2469b857e5797a52271343b56869cb428ffee5e832cf04f9283e",
}


def _pinned_detector(variant):
    X = np.random.default_rng(3).normal(size=(40, 3))
    return fit(DetectorConfig(variant=variant, n_trees=4, subsample=16, k_neighbors=5, seed=11), X)


@pytest.mark.parametrize("variant", VARIANTS)
def test_saved_container_bytes_are_pinned(variant, tmp_path):
    path = tmp_path / "model.json"
    save_detector(_pinned_detector(variant), path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == _SAVED_SHA256[variant]
    state = json.loads(data)["state"]
    assert list(state)[0] == "feature_count"
    # Loading and saving again writes the same bytes.
    save_detector(load_detector(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == data


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_load_roundtrip(variant, tmp_path):
    X = _cluster(19)
    probes = _cluster(20, n=15)
    det = fit(_config(variant, seed=5), X)
    path = tmp_path / "model.json"
    save_detector(det, path)
    loaded = load_detector(path)
    assert np.array_equal(score(det, probes), score(loaded, probes))
    assert loaded.config == det.config


def test_container_carries_threshold(tmp_path):
    from occkit.calibration import calibrate_threshold
    from occkit.detectors import load_saved_threshold

    X = _cluster(22)
    det = fit(_config("stochastic-forest", seed=1), X)
    threshold = calibrate_threshold(score(det, X))
    path = tmp_path / "model.json"
    save_detector(det, path, threshold=threshold)
    restored = load_saved_threshold(path)
    assert restored == threshold

    bare = tmp_path / "bare.json"
    save_detector(det, bare)
    assert load_saved_threshold(bare) is None


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda payload: payload["threshold"].update(scale=1.0), r"threshold has unknown keys \['scale'\]"),
        (lambda payload: payload["threshold"].pop("th"), r"threshold lacks \['th'\]"),
        (lambda payload: payload["threshold"].update(sigma="0"), "sigma must be a number, got '0'"),
        (lambda payload: payload["threshold"].update(mu=None), "mu must be a number, got None"),
        # Without the top-level key check the misspelt block read as no threshold at all.
        (
            lambda payload: payload.update(treshold=payload.pop("threshold")),
            r"detector container has unknown keys \['treshold'\]",
        ),
        (lambda payload: payload.update(format_version=99), "unsupported detector container version: 99"),
    ],
    ids=["unknown-key", "no-th", "string-sigma", "null-mu", "misspelt-threshold", "unknown-version"],
)
def test_load_saved_threshold_rejects_a_damaged_block(damage, message, tmp_path):
    from occkit.calibration import calibrate_threshold
    from occkit.detectors import load_saved_threshold

    X = _cluster(22)
    det = fit(_config("lof"), X)
    path = tmp_path / "model.json"
    save_detector(det, path, threshold=calibrate_threshold(score(det, X)))
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_saved_threshold(path)


def test_load_rejects_unknown_version(tmp_path):
    X = _cluster(21)
    det = fit(_config("linear-recon"), X)
    path = tmp_path / "model.json"
    save_detector(det, path)
    payload = path.read_text().replace(
        f'"format_version": {PERSIST_FORMAT_VERSION}', '"format_version": 99'
    )
    assert '"format_version": 99' in payload
    path.write_text(payload)
    with pytest.raises(ValueError, match="version"):
        load_detector(path)


def test_load_rejects_version_1_dict_trees(tmp_path):
    leaf = {"mass": 1}
    container = {
        "format_version": 1,
        "variant": "isolation-forest",
        "config": {"variant": "isolation-forest", "n_trees": 1, "subsample": 2, "seed": 0},
        "state": {
            "feature_count": 1,
            "trees": [{"feature": 0, "value": 0.5, "left": leaf, "right": leaf}],
        },
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(container))
    with pytest.raises(ValueError, match=r"version: 1$"):
        load_detector(path)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, instead of hanging, if the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _damage(payload, case):
    """Break one part of a saved container; return it and the message load_detector must give."""
    state = payload["state"]
    if case == "container-is-a-list":
        return [payload], "detector container must be a JSON object"
    if case == "state-is-a-list":
        payload["state"] = list(state.values())
        return payload, "stochastic-forest state must be a JSON object"
    if case == "config-is-a-list":
        payload["config"] = list(payload["config"].values())
        return payload, "detector container config must be a JSON object"
    if case in ("no-config", "no-variant", "no-state"):
        del payload[case[3:]]
        return payload, rf"detector container lacks \['{case[3:]}'\]"
    if case == "unknown-config-key":
        payload["config"]["depth"] = 3
        return payload, r"detector container config has unknown keys \['depth'\]"
    if case == "no-config-variant":
        del payload["config"]["variant"]
        return payload, r"detector container config lacks \['variant'\]"
    if case == "lof-string-k":
        payload["config"]["k_neighbors"] = "3"
        return payload, "k_neighbors must be an integer, got '3'"
    if case == "lof-fractional-k":
        # score would fail inside numpy's partition.
        payload["config"]["k_neighbors"] = 3.5
        return payload, "k_neighbors must be an integer, got 3.5"
    if case == "bool-n-trees":
        payload["config"]["n_trees"] = True
        return payload, "n_trees must be an integer, got True"
    if case == "string-seed":
        payload["config"]["seed"] = "x"
        return payload, "seed must be an integer, got 'x'"
    if case == "misspelt-threshold":
        payload["treshold"] = {"mu": 0.0, "sigma": 1.0, "th": -3.0}
        return payload, r"detector container has unknown keys \['treshold'\]"
    if case == "unknown-state-array":
        state["depth"] = [0] * len(state["left"])
        return payload, r"stochastic-forest state has unknown keys \['depth'\]"
    if case == "variant-mismatch":
        payload["variant"] = "isolation-forest"
        return payload, "container variant 'isolation-forest' differs from its config's 'stochastic-forest'"
    if case == "no-feature-count":
        del state["feature_count"]
        return payload, "stochastic-forest state: feature_count None is not a positive integer"
    if case == "missing-array":
        del state["value"]
        return payload, "stochastic-forest state: value is missing or ragged"
    if case == "lof-rows-unlike-kdist":
        # 20 rows is still more than k_neighbors, so nothing else would notice.
        del state["X_train"][20:]
        return payload, "lof state: kdist has 60 entries, X_train has 20 rows"
    if case == "lof-short-kdist":
        state["kdist"].pop()
        return payload, "lof state: kdist has 59 entries, X_train has 60 rows"
    if case == "lof-short-lrd":
        state["lrd"].pop()
        return payload, "lof state: lrd has 59 entries, X_train has 60 rows"
    if case == "lof-k-not-below-rows":
        # fit never writes this; score would fail inside numpy's partition.
        payload["config"]["k_neighbors"] = 60
        return payload, "lof state: k_neighbors=60 is not below X_train's 60 rows"
    if case == "lof-wide-rows":
        for row in state["X_train"]:
            row.append(0.5)
        return payload, "lof state: X_train has 3 columns, feature_count is 2"
    if case == "linear-recon-wide-basis":
        for row in state["basis"]:
            row.append(0.0)
        return payload, "linear-recon state: basis has 3 columns, feature_count is 2"
    if case == "linear-recon-wide-mean":
        state["mean"].append(0.5)
        return payload, "linear-recon state: mean has 3 entries, feature_count is 2"
    if case == "linear-recon-ragged-basis":
        state["basis"][0].pop()
        return payload, "linear-recon state: basis is missing or ragged"
    if case == "linear-recon-flat-basis":
        state["basis"] = state["basis"][0]
        return payload, "linear-recon state: basis is not a 2-D array of numbers"
    left, n = state["left"], len(state["left"])
    inner = [i for i in range(n) if left[i] >= 0]
    if case == "cycle":
        # The root's left child pointing back at the root: descent would loop forever.
        i = left[0]
        left[i] = 0
        return payload, rf"left\[{i}\] = 0 is neither -1 nor in"
    if case == "child-past-the-table":
        left[inner[-1]] = n - 1
        return payload, rf"left\[{inner[-1]}\] = {n - 1} is neither -1 nor in"
    if case == "child-is-itself":
        left[inner[0]] = inner[0]
        return payload, rf"left\[{inner[0]}\] = {inner[0]} is neither -1 nor in"
    if case == "negative-child":
        left[inner[0]] = -2
        return payload, rf"left\[{inner[0]}\] = -2 is neither -1 nor in"
    if case == "unequal-lengths":
        state["path_length"].pop()
        return payload, rf"path_length has {n - 1} entries, feature has {n}"
    if case == "feature-out-of-range":
        state["feature"][inner[0]] = state["feature_count"]
        return payload, rf"feature\[{inner[0]}\] = 2 is not in \[0, 2\)"
    if case == "root-past-the-table":
        state["roots"][1] = n
        return payload, rf"roots\[1\] = {n} is not a node of the {n}-node table"
    if case == "no-roots":
        state["roots"] = []
        return payload, "roots is empty"
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    [
        "cycle",
        "child-past-the-table",
        "child-is-itself",
        "negative-child",
        "unequal-lengths",
        "feature-out-of-range",
        "root-past-the-table",
        "no-roots",
        "variant-mismatch",
        "no-feature-count",
        "missing-array",
        "lof-rows-unlike-kdist",
        "lof-short-kdist",
        "lof-short-lrd",
        "lof-k-not-below-rows",
        "lof-wide-rows",
        "linear-recon-wide-basis",
        "linear-recon-wide-mean",
        "linear-recon-ragged-basis",
        "linear-recon-flat-basis",
        "container-is-a-list",
        "state-is-a-list",
        "config-is-a-list",
        "no-config",
        "no-variant",
        "no-state",
        "unknown-config-key",
        "no-config-variant",
        "lof-string-k",
        "lof-fractional-k",
        "bool-n-trees",
        "string-seed",
        "misspelt-threshold",
        "unknown-state-array",
    ],
)
def test_load_rejects_a_damaged_forest_table(case, tmp_path):
    X = _cluster(24)
    variant = next((v for v in ("lof", "linear-recon") if case.startswith(v + "-")), "stochastic-forest")
    path = tmp_path / "model.json"
    save_detector(fit(_config(variant, n_trees=3), X), path)
    payload = json.loads(path.read_text())
    damaged, message = _damage(payload, case)
    path.write_text(json.dumps(damaged))
    # Without the check, the cycle case loops forever in score.
    with _deadline(10), pytest.raises(ValueError, match=message):
        score(load_detector(path), X)


def test_load_accepts_a_depth_first_table(tmp_path):
    # The layout depth-first growth wrote, children allocated in pairs as their
    # parent was cut; each leaf's payload is the one row that reaches it.
    left = [1, 3, 9, 5, 7, -1, -1, -1, -1, 11, 13, -1, -1, -1, -1]
    value = [3.5, 1.5, 5.5, 0.5, 2.5, 0, 0, 0, 0, 4.5, 6.5, 0, 0, 0, 0]
    path_length = [0, 0, 0, 0, 0, 0, 1, 2, 3, 0, 0, 4, 5, 6, 7]
    container = {
        "format_version": PERSIST_FORMAT_VERSION,
        "variant": "stochastic-forest",
        "config": {"variant": "stochastic-forest", "n_trees": 1, "subsample": 8},
        "state": {
            "feature_count": 1,
            "feature": [0 if child >= 0 else -1 for child in left],
            "value": value,
            "left": left,
            "roots": [0],
            "path_length": path_length,
        },
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(container))
    X = np.array([[3.0], [0.0], [2.0], [1.0], [7.0], [4.0], [6.0], [5.0]])
    assert score(load_detector(path), X).tolist() == X[:, 0].tolist()
