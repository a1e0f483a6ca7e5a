import numpy as np
import pytest

from occkit.ensemble import PredictionMatrix, consensus
from oracles import all_levels


def _matrix(rows):
    return PredictionMatrix(np.array(rows))


def test_single_column_vote_levels():
    m = _matrix([[1], [0], [1], [0], [0]])
    assert consensus(m, 1)[0] == 1
    assert consensus(m, 2)[0] == 1
    assert consensus(m, 3)[0] == 0


def test_all_zero_column():
    m = _matrix([[0], [0], [0]])
    for k in (1, 2, 3):
        assert consensus(m, k)[0] == 0


def test_exhaustive_three_models_against_popcount():
    for bits in range(8):
        column = [(bits >> i) & 1 for i in range(3)]
        m = _matrix([[b] for b in column])
        for k in (1, 2, 3):
            assert consensus(m, k)[0] == (1 if sum(column) >= k else 0)


def test_k_out_of_range():
    m = _matrix([[1, 0], [0, 1]])
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            consensus(m, bad)


def test_all_levels_returns_every_k():
    m = _matrix(np.random.default_rng(0).integers(0, 2, size=(5, 20)))
    levels = all_levels(m)
    assert sorted(levels) == [1, 2, 3, 4, 5]


def test_unanimous_rows_agree_at_every_level():
    row = np.random.default_rng(1).integers(0, 2, size=30)
    m = _matrix([row, row, row, row])
    levels = all_levels(m)
    for k in range(2, 5):
        assert np.array_equal(levels[k], levels[1])


def test_level_one_is_or_and_level_n_is_and():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m_inst = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, size=(n, m_inst))
        m = _matrix(preds)
        assert np.array_equal(consensus(m, 1), preds.any(axis=0).astype(int))
        assert np.array_equal(consensus(m, n), preds.all(axis=0).astype(int))


def test_attack_sets_nest_as_k_grows():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        preds = rng.integers(0, 2, size=(n, int(rng.integers(1, 50))))
        m = _matrix(preds)
        levels = all_levels(m)
        for k in range(1, n):
            attacks_k = set(np.flatnonzero(levels[k]))
            attacks_k1 = set(np.flatnonzero(levels[k + 1]))
            assert attacks_k1 <= attacks_k


def test_row_permutation_invariance():
    rng = np.random.default_rng(4)
    preds = rng.integers(0, 2, size=(5, 25))
    m = _matrix(preds)
    perm = rng.permutation(5)
    m_perm = _matrix(preds[perm])
    for k in range(1, 6):
        assert np.array_equal(consensus(m, k), consensus(m_perm, k))


def test_matrix_validation():
    with pytest.raises(ValueError, match="2-D"):
        PredictionMatrix(np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="0 or 1"):
        PredictionMatrix(np.array([[2, 0]]))
