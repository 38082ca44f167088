"""Evaluation measures for binary outcome prediction.

Six measures are reported: accuracy, sensitivity, specificity, F1, mean
absolute error of the fused probability against the 0/1 outcome, and AUC.
The positive class is the poor outcome throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cohort import OutcomeLabel
from .errors import DegenerateDataError, ValidationError

MEASURES = ("accuracy", "sensitivity", "specificity", "f1", "mae", "auc")

POSITIVE_CLASS = OutcomeLabel.POOR


@dataclass(frozen=True)
class MetricReport:
    """The six measures for one prediction set."""

    accuracy: float
    sensitivity: float
    specificity: float
    f1: float
    mae: float
    auc: float
    n_patients: int
    positive_class: OutcomeLabel = POSITIVE_CLASS
    degenerate: tuple[str, ...] = ()

    def value(self, measure: str) -> float:
        if measure not in MEASURES:
            raise ValidationError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        return float(getattr(self, measure))


class ConfusionMetrics(NamedTuple):
    accuracy: float
    sensitivity: float
    specificity: float
    f1: float
    degenerate: tuple[str, ...] = ()


def _check_paired(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValidationError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValidationError("empty input")


def confusion_counts(
    predicted: Sequence[OutcomeLabel], truth: Sequence[OutcomeLabel]
) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) with poor as the positive class."""
    _check_paired(predicted, truth)
    pred = np.asarray(predicted) == POSITIVE_CLASS
    true = np.asarray(truth) == POSITIVE_CLASS
    tp = int(np.sum(pred & true))
    fn = int(np.sum(~pred & true))
    fp = int(np.sum(pred & ~true))
    return tp, fp, len(pred) - tp - fn - fp, fn


def confusion_metrics(
    predicted: Sequence[OutcomeLabel], truth: Sequence[OutcomeLabel]
) -> ConfusionMetrics:
    """Accuracy, sensitivity, specificity, F1; zero denominators yield 0 and a flag."""
    tp, fp, tn, fn = confusion_counts(predicted, truth)
    degenerate: list[str] = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    accuracy = (tp + tn) / (tp + fp + tn + fn)
    sensitivity = ratio(tp, tp + fn, "sensitivity")
    specificity = ratio(tn, tn + fp, "specificity")
    f1 = ratio(2 * tp, 2 * tp + fp + fn, "f1")
    return ConfusionMetrics(accuracy, sensitivity, specificity, f1, tuple(degenerate))


def mean_absolute_error(
    fused_probs: Sequence[float], truth: Sequence[OutcomeLabel]
) -> float:
    """Mean |fused probability - outcome| with good=0, poor=1."""
    _check_paired(fused_probs, truth)
    p = np.asarray(fused_probs, dtype=float)
    outside = ~((p >= 0.0) & (p <= 1.0))
    if outside.any():
        raise ValidationError(f"fused probability must be in [0, 1], got {float(p[outside][0])!r}")
    errors = np.abs(p - np.asarray(truth, dtype=float))
    # summed left to right, not pairwise as np.sum would, to keep the last bits
    return sum(errors.tolist()) / len(errors)


def auc(scores: Sequence[float], truth: Sequence[OutcomeLabel]) -> float:
    """Area under the ROC curve, trapezoidal over the distinct-score sweep.

    Equivalent to the pairwise ranking probability: over all (poor, good)
    pairs, a higher poor score counts 1 and a tie counts 0.5. Requires at
    least one patient of each class. Scores may be any finite reals; only
    their ordering matters.
    """
    _check_paired(scores, truth)
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")
    y = np.asarray(truth) == POSITIVE_CLASS
    n_poor = int(y.sum())
    n_good = int((~y).sum())
    if n_poor == 0 or n_good == 0:
        raise DegenerateDataError("AUC undefined for single-class truths")

    desc = np.argsort(-s, kind="stable")
    s_sorted = s[desc]
    y_sorted = y[desc]
    # group boundaries after the last element of each distinct score value
    boundary = np.r_[np.diff(s_sorted) != 0.0, True]
    tp = np.r_[0, np.cumsum(y_sorted)[boundary]]
    fp = np.r_[0, np.cumsum(~y_sorted)[boundary]]
    area = float(np.sum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1]) / 2.0))
    return area / (n_poor * n_good)


def report(
    predicted: Sequence[OutcomeLabel],
    fused_probs: Sequence[float],
    truth: Sequence[OutcomeLabel],
) -> MetricReport:
    """Assemble all six measures for one prediction set."""
    conf = confusion_metrics(predicted, truth)
    return MetricReport(
        accuracy=conf.accuracy,
        sensitivity=conf.sensitivity,
        specificity=conf.specificity,
        f1=conf.f1,
        mae=mean_absolute_error(fused_probs, truth),
        auc=auc(fused_probs, truth),
        n_patients=len(truth),
        degenerate=conf.degenerate,
    )
