"""Decision thresholds from training-score distributions.

A detector trained on benign rows only emits normality scores (higher = more
normal). The decision boundary is the three-sigma rule applied to the training
scores: anything at or below mean - 3 * std is flagged as an attack.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["Threshold", "calibrate_threshold", "classify"]


@dataclass(frozen=True)
class Threshold:
    """Training-score mean, population std, and the derived cutoff th = mu - 3*sigma."""

    mu: float
    sigma: float
    th: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "th"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        expected = self.mu - 3.0 * self.sigma
        if abs(self.th - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(f"th={self.th} does not satisfy th = mu - 3*sigma = {expected}")


def calibrate_threshold(train_scores: np.ndarray) -> Threshold:
    """Fit the three-sigma cutoff to a vector of training normality scores.

    Uses the population standard deviation (divide by N) so results are
    bit-reproducible regardless of library defaults.

    Raises:
        ValueError: if the score vector is empty or contains non-finite values.
    """
    s = np.asarray(train_scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("cannot calibrate a threshold on an empty score vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("training scores must all be finite")
    mu = float(np.mean(s))
    sigma = float(np.std(s))
    return Threshold(mu=mu, sigma=sigma, th=mu - 3.0 * sigma)


def classify(scores: np.ndarray, threshold: Threshold) -> np.ndarray:
    """Binary predictions: 1 (attack) where score <= th, else 0 (normal).

    The boundary score == th counts as an attack.
    """
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must all be finite")
    return (s <= threshold.th).astype(np.int64)
