"""Evaluation measures for binary outcome prediction.

Six measures are reported: accuracy, sensitivity, specificity, F1, mean
absolute error of the fused probability against the 0/1 outcome, and AUC.
The positive class is the poor outcome throughout. AUC is a rank statistic,
the Mann-Whitney U of the poor scores over n_poor * n_good, computed from
:func:`significance.average_ranks`, the rank rule of the signed-rank test.
:func:`report` counts the confusion matrix; AUC needs both classes, so no ratio divides by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cohort import OutcomeLabel, poor_mask
from .errors import DegenerateDataError, ValidationError, real_array
from .significance import average_ranks

MEASURES = ("accuracy", "sensitivity", "specificity", "f1", "mae", "auc")


@dataclass(frozen=True)
class MetricReport:
    """The six measures for one prediction set; ``degenerate`` is always empty
    from :func:`report` and stays because every ``cv`` summary carries it."""

    accuracy: float
    sensitivity: float
    specificity: float
    f1: float
    mae: float
    auc: float
    n_patients: int
    positive_class: OutcomeLabel = OutcomeLabel.POOR
    degenerate: tuple[str, ...] = ()

    def value(self, measure: str) -> float:
        if measure not in MEASURES:
            raise ValidationError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        return float(getattr(self, measure))


def _check_paired(a: np.ndarray, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValidationError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValidationError("empty input")


def mean_absolute_error(
    fused_probs: Sequence[float], truth: Sequence[OutcomeLabel]
) -> float:
    """Mean |fused probability - outcome| with good=0, poor=1."""
    p = real_array(fused_probs, "fused probability", unit=True, vector=True)
    y = poor_mask(truth, "truth")
    _check_paired(p, y)
    errors = np.abs(p - y)
    # summed left to right, not pairwise as np.sum would, to keep the last bits
    return sum(errors.tolist()) / len(errors)


def auc(scores: Sequence[float], truth: Sequence[OutcomeLabel]) -> float:
    """Area under the ROC curve, as the Mann-Whitney U over n_poor * n_good.

    U is the rank sum of the poor scores minus n_poor * (n_poor + 1) / 2,
    with tied scores sharing their average rank. That is the pairwise
    ranking probability (over all (poor, good) pairs, a higher poor score
    counts 1 and a tie counts 0.5), and equals the area under the
    empirical ROC curve with tied scores joined by straight segments.
    Rank sums are multiples of 0.5, so U is exact before the one division.
    Requires at least one patient of each class. Scores may be any finite
    reals; only their ordering matters.
    """
    s = real_array(scores, "scores", vector=True)
    y = poor_mask(truth, "truth")
    _check_paired(s, y)
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")
    n_poor = int(y.sum())
    n_good = int((~y).sum())
    if n_poor == 0 or n_good == 0:
        raise DegenerateDataError("AUC undefined for single-class truths")
    u = float(average_ranks(s)[y].sum()) - n_poor * (n_poor + 1) / 2
    return u / (n_poor * n_good)


def decision_measures(predicted: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Accuracy, sensitivity, specificity and F1 of poor masks, keyed as :class:`MetricReport`; needs both classes."""
    tp = int(np.sum(predicted & truth))
    fn = int(np.sum(~predicted & truth))
    fp = int(np.sum(predicted & ~truth))
    tn = len(predicted) - tp - fn - fp
    return {"accuracy": (tp + tn) / (tp + fp + tn + fn), "sensitivity": tp / (tp + fn),
            "specificity": tn / (tn + fp), "f1": 2 * tp / (2 * tp + fp + fn)}


def report(
    predicted: Sequence[OutcomeLabel],
    fused_probs: Sequence[float],
    truth: Sequence[OutcomeLabel],
) -> MetricReport:
    """Assemble all six measures for one prediction set; single-class truths fail in :func:`auc`."""
    pred = poor_mask(predicted, "predicted")
    true = poor_mask(truth, "truth")
    _check_paired(pred, true)
    return MetricReport(mae=mean_absolute_error(fused_probs, true),
                        auc=auc(fused_probs, true),  # raises on single-class truths, before a ratio divides by 0
                        **decision_measures(pred, true), n_patients=len(truth))
