"""Supervised random-forest baseline and the attack-omission experiment.

The forest is a plain CART ensemble (gini splits, bootstrap resampling,
random feature subsets per node) built here so tree internals stay
inspectable and deterministic. The omission driver removes every size-k
combination of attack types from the training folds, optionally adds a
uniform-noise arm labeled as attack, and evaluates against test folds that
always retain every attack type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import (
    Dataset,
    SplitPlan,
    generate_uniform_noise,
    omit_attack_types,
    stratified_split,
)
from .metrics import confusion, mean_std, metric_row
from .seeding import derive_seed, rng_for
from .trees import grow, leaf_values

__all__ = [
    "ForestConfig",
    "ForestModel",
    "OmissionPlan",
    "OmissionCell",
    "OmissionResult",
    "gini_impurity",
    "rf_fit",
    "rf_predict",
    "augment_with_noise",
    "enumerate_combinations",
    "run_omission_experiment",
]

OMISSION_METRICS = ("accuracy", "attack_precision", "attack_recall", "attack_f1", "macro_f1")


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters; features_per_split defaults to ceil(sqrt(d))."""

    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError(f"features_per_split must be >= 1, got {self.features_per_split}")


@dataclass(frozen=True)
class ForestModel:
    """Fitted forest: serializable tree dicts plus the config that grew them."""

    trees: tuple[dict, ...]
    config: ForestConfig
    feature_count: int


def gini_impurity(class_counts: Sequence[int]) -> float:
    """1 - sum((c_i / total)^2) over the class counts.

    Raises:
        ValueError: if any count is negative or all counts are zero.
    """
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"class counts must be non-negative, got {counts}")
    total = sum(counts)
    if total == 0:
        raise ValueError("class counts are all zero")
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _best_split(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Gini-minimizing (feature, midpoint threshold) for one node, or None."""
    node_y = y[idx]
    n = idx.size
    total_ones = int(node_y.sum())
    total_zeros = n - total_ones
    best_score = np.inf
    best: tuple[int, float] | None = None
    for f in features:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        ys = node_y[order]
        cut_ok = vs[1:] > vs[:-1]
        if not cut_ok.any():
            continue
        n_left = np.arange(1, n)
        ones_left = np.cumsum(ys)[:-1]
        zeros_left = n_left - ones_left
        ones_right = total_ones - ones_left
        zeros_right = total_zeros - zeros_left
        n_right = n - n_left
        gini_left = 1.0 - (zeros_left / n_left) ** 2 - (ones_left / n_left) ** 2
        gini_right = 1.0 - (zeros_right / n_right) ** 2 - (ones_right / n_right) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        valid = cut_ok & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        weighted = np.where(valid, weighted, np.inf)
        j = int(np.argmin(weighted))
        if weighted[j] < best_score:
            best_score = float(weighted[j])
            best = (int(f), float((vs[j] + vs[j + 1]) / 2.0))
    return best


def rf_fit(
    X: np.ndarray, y: np.ndarray, config: ForestConfig = ForestConfig(), seed: int | None = None
) -> ForestModel:
    """Grow a forest of CART trees on bootstrap resamples.

    Raises:
        ValueError: with fewer than 2 rows or a single class in y.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both classes")
    n_split = config.features_per_split or math.ceil(math.sqrt(d))
    n_split = min(n_split, d)
    rng = np.random.default_rng(config.seed if seed is None else seed)

    def leaf(idx: np.ndarray) -> dict:
        ones = int(y[idx].sum())
        return {"counts": [int(idx.size) - ones, ones]}

    def split(idx: np.ndarray, depth: int, payload: dict):
        if (
            0 in payload["counts"]
            or idx.size < 2 * config.min_leaf
            or (config.max_depth is not None and depth >= config.max_depth)
        ):
            return None
        features = rng.choice(d, size=n_split, replace=False)
        best = _best_split(X, y, idx, features, config.min_leaf)
        if best is None:
            return None
        feature, value = best
        return feature, value, X[:, feature][idx] < value

    # Each tree draws its bootstrap bag before growing.
    trees = tuple(grow(rng.integers(0, n, size=n), split, leaf) for _ in range(config.n_trees))
    return ForestModel(trees=trees, config=config, feature_count=d)


def _vote(leaf: dict, depth: int) -> float:
    """A leaf's 0/1 vote; ties go to attack."""
    return 1.0 if leaf["counts"][1] >= leaf["counts"][0] else 0.0


def rf_predict(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over the trees; an exact tie is classified as attack."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise ValueError(
            f"matrix has shape {X.shape}, model expects (*, {model.feature_count})"
        )
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    votes = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        votes += leaf_values(tree, X, _vote)
    return (2 * votes >= len(model.trees)).astype(np.int64)


def augment_with_noise(train: Dataset, seed: int) -> Dataset:
    """Append uniform-[0,1] rows labeled attack, as many as there are normals.

    With N_n normals and A_n - C_n surviving attack rows the result has
    N_n + (A_n - C_n) + N_n rows. The noise block depends only on the seed,
    so every omission combination within a run sees the same noise.
    """
    n_normal = int(np.sum(train.y == 0))
    if n_normal == 0:
        raise ValueError("training split has no normal rows to match noise against")
    noise = generate_uniform_noise(n_normal, train.n_features, seed)
    return Dataset(
        X=np.vstack([train.X, noise.X]),
        y=np.concatenate([train.y, noise.y]),
        attack_type=train.attack_type + noise.attack_type,
        feature_names=train.feature_names,
    )


def enumerate_combinations(attack_types: Sequence[str], k: int) -> list[tuple[str, ...]]:
    """All C(m, k) subsets of the attack types, in lexicographic position order."""
    m = len(attack_types)
    if not 0 <= k <= m:
        raise ValueError(f"k={k} out of range 0..{m}")
    return list(itertools.combinations(attack_types, k))


@dataclass(frozen=True)
class OmissionPlan:
    """Grid settings for the omission experiment; k=0 is always evaluated."""

    attack_types: tuple[str, ...]
    k_values: tuple[int, ...]
    with_noise: bool = True
    n_runs: int = 10
    ratio: float = 0.8
    base_seed: int = 0
    combination_cap: int = 20

    def __post_init__(self) -> None:
        m = len(self.attack_types)
        if m == 0:
            raise ValueError("omission needs at least one attack type")
        for k in self.k_values:
            if not 1 <= k <= m:
                raise ValueError(f"k={k} out of range 1..{m}")
        if self.combination_cap < 1:
            raise ValueError("combination_cap must be >= 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")


@dataclass(frozen=True)
class OmissionCell:
    """Metrics for one (k, combination, run, arm) grid cell, percent scale."""

    k: int
    combination_id: int
    combination: tuple[str, ...]
    run: int
    arm: str
    accuracy: float
    attack_precision: float
    attack_recall: float
    attack_f1: float
    macro_f1: float
    omitted_recall: float | None

    def metric(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class OmissionResult:
    """All grid cells plus per-(k, arm) aggregates over combination means."""

    cells: tuple[OmissionCell, ...]
    per_k: dict[tuple[int, str], dict[str, tuple[float, float]]]


def _capped_combinations(plan: OmissionPlan, k: int) -> list[tuple[str, ...]]:
    combos = enumerate_combinations(plan.attack_types, k)
    if len(combos) <= plan.combination_cap:
        return combos
    rng = rng_for(plan.base_seed, "combination-cap", k)
    picked = np.sort(rng.choice(len(combos), size=plan.combination_cap, replace=False))
    return [combos[i] for i in picked]


def _evaluate_predictions(test: Dataset, preds: np.ndarray, combo: tuple[str, ...]) -> dict:
    row = metric_row(confusion(test.y, preds))
    omitted_recall = None
    if combo:
        rows = [i for i, tag in enumerate(test.attack_type) if tag in combo]
        if rows:
            omitted_recall = 100.0 * float(np.mean(preds[rows] == 1))
    return {**{name: row[name] for name in OMISSION_METRICS}, "omitted_recall": omitted_recall}


def aggregate_per_k(rows: Sequence[Mapping]) -> dict[tuple[int, str], dict[str, tuple[float, float]]]:
    """Mean and population std over combination-level means, per (k, arm).

    Each combination's metric is first averaged over its runs; aggregates are
    then taken across combinations, matching how omission curves are plotted.
    Rows map "k", "arm", "combination_id" and every OMISSION_METRICS name to
    a value, either as a number or as the text written to per_run.csv.
    """
    grouped: dict[tuple[int, str], dict[int, list[Mapping]]] = {}
    for row in rows:
        key = (int(row["k"]), str(row["arm"]))
        grouped.setdefault(key, {}).setdefault(int(row["combination_id"]), []).append(row)
    return {
        key: {
            name: mean_std(
                [
                    math.fsum(float(r[name]) for r in combo_rows) / len(combo_rows)
                    for _, combo_rows in sorted(by_combo.items())
                ]
            )
            for name in OMISSION_METRICS
        }
        for key, by_combo in sorted(grouped.items())
    }


def run_omission_experiment(
    data: Dataset, plan: OmissionPlan, rf_config: ForestConfig = ForestConfig()
) -> OmissionResult:
    """Evaluate the forest over the full (k, combination, run, arm) grid.

    Splits depend only on (base_seed, run), so test folds are identical
    across combinations; omission removes rows from the training fold only.
    A training fold left with a single class (every attack omitted, plain
    arm) is scored through a constant all-normal predictor, which is what an
    attack-blind supervised model degenerates to.
    """
    present = set()
    for tag in data.attack_tags():
        present.add(tag)
    for tag in plan.attack_types:
        if tag not in present:
            raise ValueError(f"attack type {tag!r} not present in data")
    split_plan = SplitPlan(ratio=plan.ratio, n_runs=plan.n_runs, base_seed=plan.base_seed)
    ks = [0] + sorted(set(plan.k_values))
    arms = ["plain", "noise"] if plan.with_noise else ["plain"]
    cells: list[OmissionCell] = []
    for run in range(plan.n_runs):
        train, test = stratified_split(data, split_plan, run)
        noise_seed = derive_seed(plan.base_seed, "noise", run)
        for k in ks:
            for combo_id, combo in enumerate(_capped_combinations(plan, k)):
                reduced = omit_attack_types(train, combo)
                for arm in arms:
                    fit_data = reduced if arm == "plain" else augment_with_noise(reduced, noise_seed)
                    if len(np.unique(fit_data.y)) < 2:
                        preds = np.zeros(test.n_rows, dtype=np.int64)
                    else:
                        seed = derive_seed(plan.base_seed, "rf", k, combo_id, run, arm)
                        model = rf_fit(fit_data.X, fit_data.y, rf_config, seed=seed)
                        preds = rf_predict(model, test.X)
                    cells.append(
                        OmissionCell(
                            k=k,
                            combination_id=combo_id,
                            combination=combo,
                            run=run,
                            arm=arm,
                            **_evaluate_predictions(test, preds, combo),
                        )
                    )
    return OmissionResult(cells=tuple(cells), per_k=aggregate_per_k([vars(c) for c in cells]))
