import math
import random

import pytest

from minedetect.errors import (
    DegenerateLabelsError,
    EmptyInputError,
    EmptyMatrixError,
    LengthMismatchError,
    ZeroSupportError,
)
from minedetect.metrics import (
    CSV_HEADER,
    ClassMetrics,
    ConfusionMatrix,
    accuracy,
    class_metrics,
    confusion,
    metrics_to_obj,
    prc_auc,
    roc_auc,
    table_to_csv,
    weighted_average,
)

from oracles import prc_auc_all_thresholds, roc_auc_pair_counting

# counts taken from the published confusion matrix this detector family
# reports against (positive class: Miner)
REPORTED = ConfusionMatrix(tp=147, fp=882, fn=26, tn=355692)


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------

def test_confusion_all_positive_agreement():
    m = confusion(["m"] * 5, ["m"] * 5, positive="m")
    assert (m.tp, m.fp, m.fn, m.tn) == (5, 0, 0, 0)


def test_confusion_complement():
    y_true = ["m", "n", "m", "n"]
    y_pred = ["n", "m", "n", "m"]
    m = confusion(y_true, y_pred, positive="m")
    assert m.tp == 0 and m.tn == 0
    assert m.fp == 2 and m.fn == 2


def test_confusion_errors():
    with pytest.raises(LengthMismatchError):
        confusion(["m"], [], positive="m")
    with pytest.raises(EmptyInputError):
        confusion([], [], positive="m")


def test_reported_matrix_orientation_gives_low_precision():
    cm = class_metrics(REPORTED)
    assert cm.precision == pytest.approx(147 / 1029, abs=1e-12)
    assert cm.precision == pytest.approx(0.143, abs=5e-4)


# ---------------------------------------------------------------------------
# class metrics
# ---------------------------------------------------------------------------

def test_perfect_classifier():
    cm = class_metrics(ConfusionMatrix(tp=10, fp=0, fn=0, tn=90))
    assert cm.precision == cm.recall == cm.f_measure == 1.0
    assert cm.mcc == pytest.approx(1.0)
    assert cm.fp_rate == 0.0


def test_f_measure_from_reported_precision_recall():
    p, r = 0.143, 0.538
    f = 2 * p * r / (p + r)
    assert f == pytest.approx(0.226, abs=1e-3)


def test_mcc_from_reported_counts_differs_from_quoted_value():
    # straight formula evaluation of the printed counts: ~0.348, not the
    # 0.276 quoted alongside them (documented inconsistency, see README)
    cm = class_metrics(REPORTED)
    assert cm.mcc == pytest.approx(0.348, abs=2e-3)
    assert abs(cm.mcc - 0.276) > 0.05


def test_recall_is_tp_rate_and_zero_division_flags():
    cm = class_metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
    assert cm.recall == cm.tp_rate == 0.0
    assert "tp_rate" in cm.zero_division
    assert "precision" in cm.zero_division
    assert cm.mcc == 0.0

    with pytest.raises(EmptyMatrixError):
        class_metrics(ConfusionMatrix(0, 0, 0, 0))


def test_mcc_bounds_and_label_swap_invariance():
    rng = random.Random(123)
    for _ in range(300):
        m = ConfusionMatrix(
            tp=rng.randint(0, 50),
            fp=rng.randint(0, 50),
            fn=rng.randint(0, 50),
            tn=rng.randint(0, 50),
        )
        if m.total == 0:
            continue
        cm = class_metrics(m)
        assert -1.0 <= cm.mcc <= 1.0
        swapped = class_metrics(m.swapped())
        assert abs(cm.mcc) == pytest.approx(abs(swapped.mcc), abs=1e-12)


def test_accuracy():
    assert accuracy(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5)) == 1.0
    assert accuracy(ConfusionMatrix(tp=0, fp=4, fn=6, tn=0)) == 0.0
    assert accuracy(REPORTED) == pytest.approx(355839 / 356747, abs=1e-12)
    with pytest.raises(EmptyMatrixError):
        accuracy(ConfusionMatrix(0, 0, 0, 0))


# ---------------------------------------------------------------------------
# roc / prc
# ---------------------------------------------------------------------------

def test_roc_extremes_and_ties():
    labels = [True, True, False, False]
    assert roc_auc([0.9, 0.8, 0.2, 0.1], labels) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], labels) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], labels) == 0.5


def test_roc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        roc_auc([0.1, 0.2], [True, True])


def test_roc_matches_pair_counting_oracle():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(2, 60)
        labels = [rng.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            continue
        scores = [rng.choice([0.1, 0.3, 0.5, 0.7, rng.random()]) for _ in range(n)]
        assert roc_auc(scores, labels) == pytest.approx(
            roc_auc_pair_counting(scores, labels), abs=1e-12
        )


def test_roc_invariant_under_monotone_transform():
    rng = random.Random(66)
    labels = [rng.random() < 0.4 for _ in range(100)]
    labels[0], labels[1] = True, False
    scores = [rng.random() for _ in range(100)]
    base = roc_auc(scores, labels)
    for transform in (lambda x: 3 * x + 1, math.exp, lambda x: x ** 3):
        assert roc_auc([transform(s) for s in scores], labels) == pytest.approx(base, abs=1e-12)


def test_roc_label_inversion_complements():
    rng = random.Random(77)
    labels = [rng.random() < 0.5 for _ in range(50)]
    labels[0], labels[1] = True, False
    scores = [rng.random() for _ in range(50)]
    inverted = [not label for label in labels]
    assert roc_auc(scores, labels) + roc_auc(scores, inverted) == pytest.approx(1.0, abs=1e-12)


def test_prc_extremes():
    labels = [True, True, False, False]
    assert prc_auc([0.9, 0.8, 0.2, 0.1], labels) == 1.0
    # constant scores: the only attainable precision is the positive rate
    assert prc_auc([0.5] * 10, [True] * 3 + [False] * 7) == pytest.approx(0.3)


def test_metrics_rederive_from_raw_pairs_at_scale():
    # 10,000 (truth, score) pairs: confusion-based metrics re-counted
    # naively, roc re-derived by an independent threshold-sweep trapezoid
    rng = random.Random(99)
    n = 10_000
    labels = [rng.random() < 0.2 for _ in range(n)]
    labels[0], labels[1] = True, False
    scores = [round(rng.random(), 3) for _ in range(n)]  # rounded -> plenty of ties
    preds = [s >= 0.5 for s in scores]

    tp = sum(1 for t, p in zip(labels, preds) if t and p)
    fp = sum(1 for t, p in zip(labels, preds) if not t and p)
    fn = sum(1 for t, p in zip(labels, preds) if t and not p)
    tn = sum(1 for t, p in zip(labels, preds) if not t and not p)
    m = confusion(labels, preds, positive=True)
    assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)

    cm = class_metrics(m)
    assert cm.precision == pytest.approx(tp / (tp + fp), abs=1e-12)
    assert cm.tp_rate == pytest.approx(tp / (tp + fn), abs=1e-12)
    assert accuracy(m) == pytest.approx((tp + tn) / n, abs=1e-12)

    from oracles import roc_auc_threshold_sweep

    assert roc_auc(scores, labels) == pytest.approx(
        roc_auc_threshold_sweep(scores, labels), abs=1e-9
    )
    assert prc_auc(scores, labels) == pytest.approx(
        prc_auc_all_thresholds(scores, labels), abs=1e-9
    )


def test_prc_matches_all_threshold_oracle():
    rng = random.Random(88)
    for _ in range(30):
        n = rng.randint(5, 100)
        labels = [rng.random() < 0.3 for _ in range(n)]
        if all(labels) or not any(labels):
            continue
        scores = [rng.choice([round(rng.random(), 2), rng.random()]) for _ in range(n)]
        assert prc_auc(scores, labels) == pytest.approx(
            prc_auc_all_thresholds(scores, labels), abs=1e-9
        )


# ---------------------------------------------------------------------------
# weighted average
# ---------------------------------------------------------------------------

def flat(value, **overrides):
    base = dict(
        tp_rate=value,
        fp_rate=value,
        precision=value,
        recall=value,
        f_measure=value,
        mcc=value,
        roc_area=value,
        prc_area=value,
    )
    base.update(overrides)
    return ClassMetrics(**base)


def test_weighted_average_single_and_equal_supports():
    cm = flat(0.7)
    assert weighted_average([(cm, 10)]) == cm
    avg = weighted_average([(flat(0.2), 5), (flat(0.8), 5)])
    assert avg.precision == pytest.approx(0.5)


def test_weighted_average_of_reported_supports():
    avg = weighted_average([(flat(0.998), 355718), (flat(0.143), 1029)])
    assert avg.tp_rate == pytest.approx(0.9955, abs=5e-4)


def test_weighted_average_zero_support():
    with pytest.raises(ZeroSupportError):
        weighted_average([(flat(0.5), 0), (flat(0.6), 0)])


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_metrics_csv_column_order():
    table = {
        "per_class": {"NotMiner": metrics_to_obj(flat(0.25)), "Miner": metrics_to_obj(flat(0.5))},
        "avg": metrics_to_obj(flat(0.5)),
    }
    lines = table_to_csv(table).splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("Not Miner,0.25,")
    assert lines[2].startswith("Miner,0.5,")
    assert lines[3].startswith("Avg.,")


def test_metrics_csv_without_a_table_is_the_header_alone():
    assert table_to_csv(None) == ",".join(CSV_HEADER) + "\n"
