"""Supervised random-forest baseline and the attack-omission experiment.

The forest itself (config, model, fit, predict) lives in `occkit.forest` and
is re-exported here. The omission driver removes every size-k combination of
attack types from the training folds and evaluates up to three arms against
test folds that always retain every attack type: the forest ("plain"), the
forest with uniform noise labeled as attack ("noise"), and a caller's
one-class model ("occ"), which never sees an attack.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cells import map_cells
from .dataset import (
    Dataset,
    SplitPlan,
    generate_uniform_noise,
    omit_attack_types,
    stratified_split,
)
from .forest import ForestConfig, ForestModel, rf_fit, rf_predict
from .metrics import aggregate, confusion, metric_row
from .seeding import derive_seed, rng_for

__all__ = [
    "ForestConfig",
    "ForestModel",
    "OmissionPlan",
    "OmissionCell",
    "OmissionResult",
    "rf_fit",
    "rf_predict",
    "augment_with_noise",
    "enumerate_combinations",
    "run_omission_experiment",
]

OMISSION_METRICS = ("accuracy", "attack_precision", "attack_recall", "attack_f1", "macro_f1")


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
        attack_type=np.concatenate([train.attack_type, noise.attack_type]),
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
    split: SplitPlan = SplitPlan()
    combination_cap: int = 20

    def __post_init__(self) -> None:
        m = len(self.attack_types)
        if m == 0:
            raise ValueError("omission needs at least one attack type")
        if len(set(self.attack_types)) != m:
            raise ValueError(f"attack_types repeats a type: {list(self.attack_types)}")
        for k in self.k_values:
            if not 1 <= k <= m:
                raise ValueError(f"k={k} out of range 1..{m}")
        if self.combination_cap < 1:
            raise ValueError("combination_cap must be >= 1")


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


@dataclass(frozen=True)
class OmissionResult:
    """All grid cells plus per-(k, arm) aggregates over combination means.

    Each combination's metric is first averaged over its runs; `per_k` then
    takes mean and std across combinations, as omission curves are plotted.
    """

    cells: tuple[OmissionCell, ...]
    per_k: dict[tuple[int, str], dict[str, tuple[float, float]]]


def _capped_combinations(plan: OmissionPlan, k: int) -> list[tuple[str, ...]]:
    """All size-k combinations, or combination_cap of them picked by rank; only those are built."""
    count = math.comb(len(plan.attack_types), k)
    if count <= plan.combination_cap:
        return enumerate_combinations(plan.attack_types, k)
    rng = rng_for(plan.split.base_seed, "combination-cap", k)
    picked = np.sort(rng.choice(count, size=plan.combination_cap, replace=False))
    return [_combination_at(plan.attack_types, k, int(rank)) for rank in picked]


def _combination_at(items: Sequence[str], k: int, rank: int) -> tuple[str, ...]:
    """Combination number `rank` of itertools.combinations(items, k)."""
    chosen = []
    for i, item in enumerate(items):
        if len(chosen) == k:
            break
        taking_it = math.comb(len(items) - i - 1, k - len(chosen) - 1)  # those that take item next
        if rank < taking_it:
            chosen.append(item)
        else:
            rank -= taking_it
    return tuple(chosen)


def _omission_cell(
    k: int, combo_id: int, combo: tuple[str, ...], run: int, arm: str, test: Dataset, preds: np.ndarray
) -> OmissionCell:
    row = metric_row(confusion(test.y, preds))
    omitted_recall = None
    if combo:
        rows = np.isin(test.attack_type, combo)
        if rows.any():
            omitted_recall = 100.0 * float(np.mean(preds[rows] == 1))
    return OmissionCell(
        k=k, combination_id=combo_id, combination=combo, run=run, arm=arm,
        **{name: row[name] for name in OMISSION_METRICS}, omitted_recall=omitted_recall,
    )


def run_omission_experiment(
    data: Dataset, plan: OmissionPlan, rf_config: ForestConfig = ForestConfig(), workers: int = 1,
    occ: Callable[[int, Dataset, Dataset], np.ndarray] | None = None,
) -> OmissionResult:
    """Evaluate the forest over the full (k, combination, run, arm) grid.

    Splits depend only on (base_seed, run), so test folds are identical
    across combinations; omission removes rows from the training fold only.
    A training fold left with a single class (every attack omitted, plain
    arm) is scored through a constant all-normal predictor, which is what an
    attack-blind supervised model degenerates to. A grid cell is one (run,
    combination): it omits the combination once, then fits the plain and the
    noise forest. A withheld type that the stratified split put wholly in the
    test fold has no training row to omit; the cell omits the rest. Given
    `occ(run, train, test) -> predictions`, each run has one more cell, first
    among its run's, for the "occ" arm: the one-class model never sees an
    attack, so it calls `occ` once per run at any worker count and scores
    those predictions against every combination. The cells run on up to
    `workers` forked processes; `cells` comes in (k, combination_id, run,
    arm) order and does not depend on `workers`.
    """
    present = set(data.attack_tags())
    for tag in plan.attack_types:
        if tag not in present:
            raise ValueError(f"attack type {tag!r} not present in data")
    combos = [
        (k, combo_id, combo)
        for k in [0] + sorted(set(plan.k_values))
        for combo_id, combo in enumerate(_capped_combinations(plan, k))
    ]
    forest_arms = ["plain", "noise"] if plan.with_noise else ["plain"]
    arms = forest_arms + (["occ"] if occ is not None else [])

    @functools.lru_cache(maxsize=1)  # a process taking consecutive cells of one run splits it once
    def folds(run: int) -> tuple[Dataset, Dataset]:
        return stratified_split(data, plan.split, run)

    def cell(key: tuple[int, tuple[int, int, tuple[str, ...]] | None]) -> list[OmissionCell]:
        run, block = key
        train, test = folds(run)
        if block is None:
            preds = occ(run, train, test)
            return [_omission_cell(*combo, run, "occ", test, preds) for combo in combos]
        k, combo_id, combo = block
        held = set(train.attack_tags())
        omitted = omit_attack_types(train, [tag for tag in combo if tag in held])
        noise_seed = derive_seed(plan.split.base_seed, "noise", run)
        out = []
        for arm in forest_arms:
            fit_data = omitted if arm == "plain" else augment_with_noise(omitted, noise_seed)
            if np.count_nonzero(np.bincount(fit_data.y)) < 2:
                preds = np.zeros(test.n_rows, dtype=np.int64)
            else:
                seed = derive_seed(plan.split.base_seed, "rf", k, combo_id, run, arm)
                preds = rf_predict(rf_fit(fit_data.X, fit_data.y, rf_config, seed=seed), test.X)
            out.append(_omission_cell(k, combo_id, combo, run, arm, test, preds))
        return out

    blocks = ([None] if occ is not None else []) + combos  # the one-class cell first: with lof it is the heaviest
    keys = [(run, block) for run in range(plan.split.n_runs) for block in blocks]
    done = itertools.chain.from_iterable(map_cells(cell, keys, workers))
    cells = tuple(sorted(done, key=lambda c: (c.k, c.combination_id, c.run, arms.index(c.arm))))
    per_k = aggregate(map(vars, cells), operator.itemgetter("k", "arm"), "combination_id", OMISSION_METRICS)
    return OmissionResult(cells=cells, per_k=per_k)
