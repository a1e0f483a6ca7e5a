"""Confusion-matrix metrics on the percent scale, plus the one aggregate every report uses.

The attack class (label 1) is the positive class everywhere. Metrics for the
normal class are obtained by swapping the positive-class convention, see
:meth:`ConfusionCounts.swapped`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ConfusionCounts",
    "ClassMetrics",
    "confusion",
    "class_metrics",
    "macro_f1",
    "metric_row",
    "mean_std",
    "aggregate",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with attack (1) as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def swapped(self) -> ConfusionCounts:
        """Counts with the positive-class convention flipped (normal as positive)."""
        return ConfusionCounts(tp=self.tn, fp=self.fn, fn=self.fp, tn=self.tp)


@dataclass(frozen=True)
class ClassMetrics:
    """Accuracy, precision, recall and F1 on the 0..100 percent scale."""

    accuracy: float
    precision: float
    recall: float
    f1: float


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionCounts:
    """Count tp/fp/fn/tn for binary labels (1 = attack, positive class).

    Raises:
        ValueError: on length mismatch or empty inputs.
    """
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: y_true has {t.size}, y_pred has {p.size}")
    if t.size == 0:
        raise ValueError("cannot compute confusion counts on empty inputs")
    return ConfusionCounts(
        tp=int(np.sum((t == 1) & (p == 1))),
        fp=int(np.sum((t == 0) & (p == 1))),
        fn=int(np.sum((t == 1) & (p == 0))),
        tn=int(np.sum((t == 0) & (p == 0))),
    )


def _ratio_percent(num: int, den: int) -> float:
    # Zero-denominator cells are defined as 0 so near-degenerate results stay numeric.
    return 0.0 if den == 0 else 100.0 * num / den


def class_metrics(c: ConfusionCounts) -> ClassMetrics:
    """Percent-scale accuracy, precision, recall, F1 for the positive class."""
    if c.total == 0:
        raise ValueError("confusion counts are all zero")
    accuracy = 100.0 * (c.tp + c.tn) / c.total
    precision = _ratio_percent(c.tp, c.tp + c.fp)
    recall = _ratio_percent(c.tp, c.tp + c.fn)
    f1 = 0.0 if precision + recall == 0 else 2.0 * precision * recall / (precision + recall)
    return ClassMetrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def macro_f1(attack: ClassMetrics, normal: ClassMetrics) -> float:
    """Unweighted mean of the attack-class and normal-class F1 scores."""
    return (attack.f1 + normal.f1) / 2.0


def metric_row(c: ConfusionCounts) -> dict[str, float]:
    """The per-row metric dict every experiment reports for one set of predictions."""
    attack = class_metrics(c)
    normal = class_metrics(c.swapped())
    return {
        "accuracy": attack.accuracy,
        "attack_precision": attack.precision,
        "attack_recall": attack.recall,
        "attack_f1": attack.f1,
        "normal_f1": normal.f1,
        "macro_f1": macro_f1(attack, normal),
    }


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation, both via exact fsum."""
    mu = math.fsum(values) / len(values)
    var = math.fsum((v - mu) ** 2 for v in values) / len(values)
    return mu, math.sqrt(var)


def aggregate(
    rows: Iterable[Mapping], block: Callable[[Mapping], Hashable], group: str, names: Sequence[str]
) -> dict[Hashable, dict[str, tuple[float, float]]]:
    """Per block of rows, in first-seen order, the `mean_std` of each metric's group means.

    A block's rows are grouped by the integer column `group`, groups in
    ascending order: omission by combination, occ-eval by run, whose one row
    is its own mean exactly. Values are numbers or per_run.csv text. Every sum
    is an fsum, so no statistic depends on the order of the rows.
    """
    blocks: dict[Hashable, dict[int, list[Mapping]]] = {}
    for row in rows:
        blocks.setdefault(block(row), {}).setdefault(int(row[group]), []).append(row)
    return {
        key: {
            name: mean_std([math.fsum(float(r[name]) for r in g) / len(g) for _, g in sorted(groups.items())])
            for name in names
        }
        for key, groups in blocks.items()
    }
