"""Binary classification quality metrics.

Confusion-matrix counts plus the usual derived quantities (TP/FP rate,
precision, recall, F-measure, MCC) and the two ranking areas (ROC via the
rank statistic, PRC via a descending-score threshold sweep with step-wise
interpolation). Any 0/0 cell maps to 0 and the affected metric names are
flagged on the result so reports can mark them as degenerate rather than
silently numeric.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .errors import (
    DegenerateLabelsError,
    EmptyInputError,
    EmptyMatrixError,
    LengthMismatchError,
    ZeroSupportError,
)

METRIC_COLUMNS = (
    "tp_rate",
    "fp_rate",
    "precision",
    "recall",
    "f_measure",
    "mcc",
    "roc_area",
    "prc_area",
)

CSV_HEADER = (
    "Class",
    "TP Rate",
    "FP Rate",
    "Precision",
    "Recall",
    "F Measure",
    "MCC",
    "ROC Area",
    "PRC Area",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with respect to one designated positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def swapped(self) -> "ConfusionMatrix":
        """The same matrix with the positive/negative roles exchanged."""
        return ConfusionMatrix(tp=self.tn, fp=self.fn, fn=self.fp, tn=self.tp)


@dataclass(frozen=True)
class ClassMetrics:
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f_measure: float
    mcc: float
    roc_area: float | None = None
    prc_area: float | None = None
    #: metric names whose denominator was zero (value reported as 0)
    zero_division: tuple[str, ...] = ()


def _check_equal_length(a, b, what: str) -> None:
    if len(a) != len(b):
        raise LengthMismatchError(f"{what}: {len(a)} vs {len(b)}")


def confusion(y_true: Sequence, y_pred: Sequence, positive) -> ConfusionMatrix:
    """Standard counts of prediction outcomes w.r.t. the positive class."""
    _check_equal_length(y_true, y_pred, "y_true / y_pred")
    if len(y_true) == 0:
        raise EmptyInputError("confusion() needs at least one instance")
    tp = fp = fn = tn = 0
    for truth, pred in zip(y_true, y_pred):
        if pred == positive:
            if truth == positive:
                tp += 1
            else:
                fp += 1
        else:
            if truth == positive:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num: float, den: float, name: str, flagged: list[str]) -> float:
    if den == 0:
        flagged.append(name)
        return 0.0
    return num / den


def class_metrics(m: ConfusionMatrix) -> ClassMetrics:
    """Derived rates from a confusion matrix (ranking areas left unset)."""
    if m.total < 1:
        raise EmptyMatrixError("confusion matrix has zero total count")
    flagged: list[str] = []
    tp_rate = _ratio(m.tp, m.tp + m.fn, "tp_rate", flagged)
    fp_rate = _ratio(m.fp, m.fp + m.tn, "fp_rate", flagged)
    precision = _ratio(m.tp, m.tp + m.fp, "precision", flagged)
    recall = tp_rate
    f_measure = _ratio(2.0 * precision * recall, precision + recall, "f_measure", flagged)
    mcc_den = math.sqrt(
        float(m.tp + m.fp) * float(m.tp + m.fn) * float(m.tn + m.fp) * float(m.tn + m.fn)
    )
    mcc = _ratio(float(m.tp) * m.tn - float(m.fp) * m.fn, mcc_den, "mcc", flagged)
    return ClassMetrics(
        tp_rate=tp_rate,
        fp_rate=fp_rate,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        mcc=mcc,
        zero_division=tuple(flagged),
    )


def accuracy(m: ConfusionMatrix) -> float:
    """Fraction of correctly classified instances."""
    if m.total < 1:
        raise EmptyMatrixError("confusion matrix has zero total count")
    return (m.tp + m.tn) / m.total


# ---------------------------------------------------------------------------
# ranking areas
# ---------------------------------------------------------------------------

def _check_ranking_input(scores, labels, positive) -> tuple[int, int]:
    _check_equal_length(scores, labels, "scores / labels")
    n_pos = sum(1 for label in labels if label == positive)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both classes present, got {n_pos} positive / {n_neg} negative"
        )
    return n_pos, n_neg


def roc_auc(scores: Sequence[float], labels: Sequence, positive=True) -> float:
    """Area under the ROC curve by the rank statistic.

    Equivalent to the normalized Mann-Whitney U; tied scores contribute
    half credit via midranks.
    """
    n_pos, n_neg = _check_ranking_input(scores, labels, positive)

    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0  # 1-based average rank of the tie group
        for pos in range(i, j + 1):
            ranks[order[pos]] = midrank
        i = j + 1

    rank_sum = sum(r for r, label in zip(ranks, labels) if label == positive)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def prc_auc(scores: Sequence[float], labels: Sequence, positive=True) -> float:
    """Area under the precision-recall curve.

    Thresholds sweep the distinct scores in descending order; each recall
    step contributes (delta recall) * (precision at that threshold), i.e.
    step-wise rather than linear interpolation. The segment from recall 0
    to the first attained recall uses the first attained precision.
    """
    n_pos, _ = _check_ranking_input(scores, labels, positive)

    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    area = 0.0
    recall_prev = 0.0
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for pos in range(i, j + 1):  # take the whole tie group at once
            if labels[order[pos]] == positive:
                tp += 1
            else:
                fp += 1
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - recall_prev) * precision
        recall_prev = recall
        i = j + 1
    return area


def weighted_average(per_class: Sequence[tuple[ClassMetrics, float]]) -> ClassMetrics:
    """Support-weighted mean of each metric across classes."""
    total = sum(support for _, support in per_class)
    if any(support < 0 for _, support in per_class):
        raise ValueError("supports must be >= 0")
    if total == 0:
        raise ZeroSupportError("weighted_average needs at least one nonzero support")

    def avg(name: str) -> float | None:
        values = [getattr(cm, name) for cm, _ in per_class]
        if any(v is None for v in values):
            return None
        return sum(v * s for v, s in zip(values, (s for _, s in per_class))) / total

    flagged = tuple(
        sorted({name for cm, _ in per_class for name in cm.zero_division})
    )
    return ClassMetrics(
        tp_rate=avg("tp_rate"),
        fp_rate=avg("fp_rate"),
        precision=avg("precision"),
        recall=avg("recall"),
        f_measure=avg("f_measure"),
        mcc=avg("mcc"),
        roc_area=avg("roc_area"),
        prc_area=avg("prc_area"),
        zero_division=flagged,
    )


def with_areas(cm: ClassMetrics, roc: float, prc: float) -> ClassMetrics:
    return replace(cm, roc_area=roc, prc_area=prc)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".6g")


def metrics_to_csv(rows: Sequence[tuple[str, ClassMetrics]], avg: ClassMetrics | None = None) -> str:
    """Metric table: one row per class plus an Avg. row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for name, cm in rows:
        writer.writerow([name, *(_fmt(getattr(cm, col)) for col in METRIC_COLUMNS)])
    if avg is not None:
        writer.writerow(["Avg.", *(_fmt(getattr(avg, col)) for col in METRIC_COLUMNS)])
    return out.getvalue()


def metrics_to_obj(cm: ClassMetrics) -> dict:
    """JSON-ready metric record."""
    record = {col: getattr(cm, col) for col in METRIC_COLUMNS}
    record["zero_division"] = list(cm.zero_division)
    return record


def metrics_from_obj(obj: dict) -> ClassMetrics:
    """Inverse of metrics_to_obj."""
    return ClassMetrics(
        **{col: obj[col] for col in METRIC_COLUMNS},
        zero_division=tuple(obj["zero_division"]),
    )


def table_to_csv(table: dict) -> str:
    """Metric CSV of one detector table shaped as in report.json."""
    rows = [
        (name, metrics_from_obj(table["per_class"][key]))
        for name, key in (("Not Miner", "NotMiner"), ("Miner", "Miner"))
    ]
    return metrics_to_csv(rows, avg=metrics_from_obj(table["avg"]))
