from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occkit.metrics import (
    ClassMetrics,
    ConfusionCounts,
    aggregate,
    class_metrics,
    confusion,
    macro_f1,
    mean_std,
)

PERCENT = st.floats(min_value=0.0, max_value=100.0)


def test_confusion_mixed():
    c = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 1)


def test_confusion_perfect():
    c = confusion([1, 0, 1], [1, 0, 1])
    assert c.fp == 0 and c.fn == 0
    assert c.tp == 2 and c.tn == 1


def test_confusion_all_predicted_attack():
    y_true = [1] * 3 + [0] * 7
    c = confusion(y_true, [1] * 10)
    assert (c.tp, c.fp, c.fn, c.tn) == (3, 7, 0, 0)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion([1, 0], [1])


def test_confusion_empty():
    with pytest.raises(ValueError):
        confusion([], [])


def test_class_metrics_worked_example():
    m = class_metrics(ConfusionCounts(tp=50, fp=10, fn=20, tn=120))
    assert m.accuracy == pytest.approx(85.0, abs=0.01)
    assert m.precision == pytest.approx(83.33, abs=0.01)
    assert m.recall == pytest.approx(71.43, abs=0.01)
    assert m.f1 == pytest.approx(76.92, abs=0.01)


def test_class_metrics_zero_denominators():
    m = class_metrics(ConfusionCounts(tp=0, fp=0, fn=5, tn=5))
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0
    assert m.accuracy == 50.0


def test_class_metrics_all_true_positive():
    m = class_metrics(ConfusionCounts(tp=17, fp=0, fn=0, tn=0))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (100.0, 100.0, 100.0, 100.0)


def test_class_metrics_rejects_empty_counts():
    with pytest.raises(ValueError):
        class_metrics(ConfusionCounts(0, 0, 0, 0))


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, fn=0, tn=1)


def test_f1_harmonic_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + fp + fn + tn == 0:
            continue
        m = class_metrics(ConfusionCounts(tp, fp, fn, tn))
        if m.precision + m.recall == 0:
            assert m.f1 == 0.0
        else:
            expect = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expect, abs=1e-9)


def test_accuracy_invariant_under_class_swap():
    rng = np.random.default_rng(6)
    for _ in range(100):
        counts = ConfusionCounts(*(int(v) for v in rng.integers(1, 30, size=4)))
        attack = class_metrics(counts)
        normal = class_metrics(counts.swapped())
        assert attack.accuracy == pytest.approx(normal.accuracy, abs=1e-12)
        # precision/recall swap roles with the positive class
        assert attack.precision == pytest.approx(
            100.0 * counts.tp / (counts.tp + counts.fp), abs=1e-12
        )
        assert normal.recall == pytest.approx(
            100.0 * counts.tn / (counts.tn + counts.fp), abs=1e-12
        )


def test_micro_accuracy_recomputed():
    rng = np.random.default_rng(7)
    for _ in range(100):
        counts = ConfusionCounts(*(int(v) for v in rng.integers(0, 30, size=4)))
        if counts.total == 0:
            continue
        m = class_metrics(counts)
        assert m.accuracy == pytest.approx(
            (counts.tp + counts.tn) / counts.total * 100.0, abs=1e-12
        )


def test_macro_f1_examples():
    both_90 = ClassMetrics(accuracy=90, precision=90, recall=90, f1=90)
    assert macro_f1(both_90, both_90) == 90
    hundred = ClassMetrics(accuracy=50, precision=100, recall=100, f1=100)
    zero = ClassMetrics(accuracy=50, precision=0, recall=0, f1=0)
    assert macro_f1(hundred, zero) == 50
    assert macro_f1(zero, hundred) == macro_f1(hundred, zero)


def test_macro_f1_against_label_swap_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        attack = class_metrics(confusion(y_true, y_pred))
        normal = class_metrics(confusion(1 - y_true, 1 - y_pred))
        got = macro_f1(attack, normal)
        # independent recomputation straight from Fractions of the raw counts
        def frac_f1(t, p):
            tp = sum(1 for a, b in zip(t, p) if a == 1 and b == 1)
            fp = sum(1 for a, b in zip(t, p) if a == 0 and b == 1)
            fn = sum(1 for a, b in zip(t, p) if a == 1 and b == 0)
            prec = Fraction(0) if tp + fp == 0 else Fraction(100 * tp, tp + fp)
            rec = Fraction(0) if tp + fn == 0 else Fraction(100 * tp, tp + fn)
            if prec + rec == 0:
                return 0.0
            return float(2 * prec * rec / (prec + rec))

        want = (frac_f1(y_true, y_pred) + frac_f1(1 - y_true, 1 - y_pred)) / 2
        assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(PERCENT, min_size=1, max_size=12), data=st.data())
def test_aggregate_over_one_row_per_group_is_mean_std_bit_for_bit(values, data):
    # the occ-eval shape: one row per run, metric cells as written to per_run.csv
    rows = [{"model": "m", "run": str(run), "accuracy": repr(v)} for run, v in enumerate(values)]
    rows = data.draw(st.permutations(rows))
    (stats,) = aggregate(rows, itemgetter("model"), "run", ("accuracy",)).values()
    assert [x.hex() for x in stats["accuracy"]] == [x.hex() for x in mean_std(values)]


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), PERCENT), min_size=1, max_size=40),
    data=st.data(),
)
def test_aggregate_averages_group_means_whatever_the_row_order(cells, data):
    # the omission shape: several rows per (k, combination), one per run
    rows = [{"k": k, "combination_id": combo, "recall": v} for k, combo, v in cells]
    shuffled = data.draw(st.permutations(rows))
    got = aggregate(shuffled, itemgetter("k"), "combination_id", ("recall",))
    assert got == aggregate(rows, itemgetter("k"), "combination_id", ("recall",))
    assert list(got) == list(dict.fromkeys(row["k"] for row in shuffled))
    for k, stats in got.items():
        by_combo = {}
        for kk, combo, v in cells:
            if kk == k:
                by_combo.setdefault(combo, []).append(Fraction(v))
        means = [sum(vs) / len(vs) for vs in by_combo.values()]
        mu = sum(means) / len(means)
        var = sum((m - mu) ** 2 for m in means) / len(means)
        mean, std = stats["recall"]
        assert abs(mean - float(mu)) <= 1e-12
        assert abs(std - float(var) ** 0.5) <= 1e-9
