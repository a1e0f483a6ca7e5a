"""Any-k consensus over per-detector binary predictions.

An instance is flagged as an attack at consensus level k when at least k of
the member detectors flag it. Level 1 is the OR of all members, level n the
AND.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PredictionMatrix", "consensus"]


@dataclass(frozen=True)
class PredictionMatrix:
    """n_models x m_instances matrix of 0/1 attack votes, one row per model."""

    preds: np.ndarray

    def __post_init__(self) -> None:
        preds = np.asarray(self.preds, dtype=np.int64)
        if preds.ndim != 2:
            raise ValueError(f"preds must be 2-D, got shape {preds.shape}")
        if preds.size and not np.isin(preds, (0, 1)).all():
            raise ValueError("predictions must be 0 or 1")
        object.__setattr__(self, "preds", preds)

    @property
    def n_models(self) -> int:
        return self.preds.shape[0]


def consensus(matrix: PredictionMatrix, k: int) -> np.ndarray:
    """Attack predictions at consensus level k: 1 where at least k votes are 1.

    Raises:
        ValueError: if k is outside 1..n_models.
    """
    if not 1 <= k <= matrix.n_models:
        raise ValueError(f"consensus level k={k} out of range 1..{matrix.n_models}")
    votes = matrix.preds.sum(axis=0)
    return (votes >= k).astype(np.int64)
