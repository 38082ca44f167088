"""Covariate-weighted late fusion of per-module outcome probabilities.

The pipeline for one patient:

1. threshold each module probability into a preliminary good/poor vote
   (score <= threshold means good; the same cut makes the final decision),
2. weight each module by the normalized clinical covariate ``c``: modules
   voting poor receive raw weight ``c``, modules voting good receive
   ``1 - c``,
3. normalize the weights to sum to one (uniform if they are all zero),
4. fuse the module probabilities with those weights,
5. threshold the fused probability into the final label.

With the clinical variable set to ``none`` the weights are uniform and the
pipeline reduces to the plain averaging ensemble. :func:`fuse_matrix` runs
steps 1-4 for many patients at once and :func:`fuse_rows` adds step 5; the
public scalar functions are one-row calls of the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cohort import ClinicalNormalizer, Cohort, OutcomeLabel, PatientRecord, normalize_clinical
from .errors import ConfigError, DegenerateDataError, ValidationError

WEIGHT_SUM_TOL = 1e-9

THRESHOLD_STRATEGIES = ("youden", "max_accuracy", "fixed")
FUSION_VARIABLES = ("age", "nihss", "none")


@dataclass(frozen=True)
class FusionConfig:
    """Fusion settings.

    ``prelim_threshold`` cuts module probabilities into preliminary labels;
    ``final_threshold`` cuts the fused probability into the final label.
    Either may be None, meaning "search on training data" under the given
    strategy; the ``fixed`` strategy requires both to be explicit.
    The normalizer may be None for a searchable config; it is then derived
    from training-cohort bounds before fusing.
    """

    clinical_variable: str = "nihss"
    normalizer: ClinicalNormalizer | None = None
    prelim_threshold: float | None = None
    final_threshold: float | None = None
    strategy: str = "youden"

    def __post_init__(self) -> None:
        if self.clinical_variable not in FUSION_VARIABLES:
            raise ConfigError(f"unknown clinical variable {self.clinical_variable!r}")
        if self.strategy not in THRESHOLD_STRATEGIES:
            raise ConfigError(f"unknown threshold strategy {self.strategy!r}")
        if self.clinical_variable == "none" and self.normalizer is not None:
            raise ConfigError("clinical variable 'none' does not take a normalizer")
        if self.normalizer is not None and self.normalizer.variable != self.clinical_variable:
            raise ConfigError(
                f"normalizer is for {self.normalizer.variable!r}, "
                f"config uses {self.clinical_variable!r}"
            )
        for name, value in (("prelim_threshold", self.prelim_threshold),
                            ("final_threshold", self.final_threshold)):
            if value is not None and not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value!r}")
        if self.strategy == "fixed" and (self.prelim_threshold is None or self.final_threshold is None):
            raise ConfigError("strategy 'fixed' requires explicit prelim and final thresholds")

    def is_resolved(self) -> bool:
        """True when thresholds are concrete and the normalizer is present if needed."""
        return (
            self.prelim_threshold is not None
            and self.final_threshold is not None
            and (self.clinical_variable == "none" or self.normalizer is not None)
        )

    def with_thresholds(self, prelim: float, final: float) -> "FusionConfig":
        return replace(self, prelim_threshold=prelim, final_threshold=final)

    def with_normalizer(self, normalizer: ClinicalNormalizer | None) -> "FusionConfig":
        return replace(self, normalizer=normalizer)


@dataclass(frozen=True)
class FusionResult:
    """Per-patient fusion output: labels, weights, fused probability, decision."""

    preliminary_labels: tuple[OutcomeLabel, ...]
    weights: tuple[float, ...]
    fused_probability: float
    final_label: OutcomeLabel


def _check_unit(values: np.ndarray, what: str) -> None:
    """Raise unless every value is a finite number in [0, 1], naming the first (row-major) that is not."""
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        raise ValidationError(f"{what} must be in [0, 1], got {float(values[outside][0])!r}")


def _poor(scores: np.ndarray, threshold: float) -> np.ndarray:
    """The cut: a score at or below the threshold is good, any other (NaN included) poor."""
    return ~(scores <= threshold)


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    # column by column from 0, the order of the scalar ``sum`` over a row,
    # so every row sum matches it bit for bit
    total = np.zeros(matrix.shape[0])
    for j in range(matrix.shape[1]):
        total += matrix[:, j]
    return total


def _vote_weights(poor: np.ndarray, covariate: np.ndarray | None) -> np.ndarray:
    """Steps 2-3 for (n, m) poor votes and n covariates; uniform weights when ``covariate`` is None."""
    n, m = poor.shape
    if covariate is None:
        return np.full((n, m), 1.0 / m)
    c = np.asarray(covariate, dtype=float)
    if c.shape != (n,):
        raise ValidationError(f"length mismatch: {n} patients vs covariate shape {c.shape}")
    _check_unit(c, "covariate")
    c = c[:, None]
    raw = np.where(poor, c, 1.0 - c)
    total = _row_sums(raw)
    uniform = total == 0.0
    weights = raw / np.where(uniform, 1.0, total)[:, None]
    weights[uniform] = 1.0 / m
    return weights


def _weighted_sums(weights: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row sums of ``weights * probs``, after checking that every weight row sums to one."""
    sums = _row_sums(weights)
    off = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
    if off.any():
        raise ValidationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {float(sums[off][0])!r}")
    return _row_sums(weights * probs)


def fuse_matrix(
    probs: np.ndarray, covariate: np.ndarray | None, prelim_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poor votes (n, m), weights (n, m) and fused probabilities (n,) of n patients by m modules."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValidationError(f"probabilities must form an (n, m) matrix, got shape {p.shape}")
    if p.shape[1] == 0:
        raise ValidationError("cannot fuse an empty probability list")
    _check_unit(p, "module probability")
    votes = _poor(p, prelim_threshold)
    weights = _vote_weights(votes, covariate)
    return votes, weights, _weighted_sums(weights, p)


def derive_labels(probs: Sequence[float], threshold: float) -> tuple[OutcomeLabel, ...]:
    """Preliminary per-module labels: probability <= threshold means good."""
    p = np.array([probs], dtype=float)
    _check_unit(p, "module probability")
    return tuple(map(OutcomeLabel, _poor(p[0], threshold).tolist()))


def compute_weights(labels: Sequence[OutcomeLabel], covariate: float) -> tuple[float, ...]:
    """Normalized module weights of one patient's preliminary labels and covariate."""
    if len(labels) == 0:
        raise ValidationError("cannot weight an empty label list")
    poor = np.array([[label == OutcomeLabel.POOR for label in labels]])
    return tuple(_vote_weights(poor, np.array([covariate], dtype=float))[0].tolist())


def uniform_weights(n: int) -> tuple[float, ...]:
    if n <= 0:
        raise ValidationError("cannot weight an empty module list")
    return tuple(_vote_weights(np.zeros((1, n), dtype=bool), None)[0].tolist())


def fuse(probs: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted average of module probabilities; bounded by their min and max."""
    if len(probs) != len(weights):
        raise ValidationError(f"length mismatch: {len(probs)} probabilities vs {len(weights)} weights")
    if len(probs) == 0:
        raise ValidationError("cannot fuse an empty probability list")
    return float(_weighted_sums(np.array([weights], dtype=float), np.array([probs], dtype=float))[0])


def classify(fused_probability: float, threshold: float) -> OutcomeLabel:
    """Final decision; a fused probability at or below the threshold is good."""
    return OutcomeLabel(bool(_poor(np.float64(fused_probability), threshold)))


def normalized_covariate(rows: Cohort, config: FusionConfig) -> np.ndarray | None:
    """The config's clinical covariate of every row scaled onto [0, 1]; None when unweighted."""
    if config.clinical_variable == "none":
        return None
    return normalize_clinical(rows.covariate(config.clinical_variable), config.normalizer)


def fuse_rows(rows: Cohort, config: FusionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fuse_matrix` over every row under a resolved config, plus each row's final poor decision."""
    if not config.is_resolved():
        raise ConfigError("fusion config is not resolved: thresholds or normalizer missing")
    votes, weights, fused = fuse_matrix(rows.probs, normalized_covariate(rows, config), config.prelim_threshold)
    return votes, weights, fused, _poor(fused, config.final_threshold)


def search_threshold(
    scores: Sequence[float],
    truths: Sequence[OutcomeLabel],
    strategy: str = "youden",
) -> float:
    """Pick the cut maximizing Youden's J (or accuracy) over the candidate grid.

    Candidates are 0, 1 and the midpoints between consecutive distinct
    scores; a score at or below a cut votes good. One sort, then
    :func:`search_sorted_threshold`. Requires both classes in ``truths``
    and at least two distinct scores.
    """
    if strategy not in ("youden", "max_accuracy"):
        raise ConfigError(f"not a searchable strategy: {strategy!r}")
    if len(scores) != len(truths) or len(scores) == 0:
        raise ValidationError("scores and truths must be non-empty and equal length")
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="stable")
    return search_sorted_threshold(s[order], (np.asarray(truths) == OutcomeLabel.POOR)[order], strategy)


def search_sorted_threshold(scores: np.ndarray, poor: np.ndarray, strategy: str) -> float:
    """:func:`search_threshold` over scores in ascending order, ``poor`` marking their poor truths.

    An ROC sweep: the cumulative poor count gives every candidate's
    confusion counts, where ``searchsorted`` finds how many scores lie at or
    below it (a midpoint can round up onto the larger score, so it is not
    always a group end). The objective is compared exactly in integers:
    ``tp * n_good + tn * n_poor`` is Youden's J scaled by ``n_poor *
    n_good``, ``tp + tn`` is accuracy scaled by n. Ties break toward the
    smallest candidate.
    """
    n_poor = int(np.count_nonzero(poor))
    n_good = len(poor) - n_poor
    if n_poor == 0 or n_good == 0:
        raise DegenerateDataError("degenerate class distribution: need both good and poor truths")
    # group starts of the sorted scores; NaNs (sorted last) form one group, as in np.unique
    starts = np.concatenate(([True], (scores[1:] != scores[:-1]) & ~np.isnan(scores[:-1])))
    distinct = scores[starts]
    if len(distinct) < 2:
        raise DegenerateDataError("cannot search a threshold over identical scores")
    candidates = np.concatenate(([0.0], (distinct[:-1] + distinct[1:]) / 2.0, [1.0]))

    poor_at_or_below = np.concatenate(([0], np.cumsum(poor)))
    at_or_below = np.searchsorted(scores, candidates, side="right")
    fn = poor_at_or_below[at_or_below]
    tp = n_poor - fn
    tn = at_or_below - fn
    objective = tp * n_good + tn * n_poor if strategy == "youden" else tp + tn
    return float(candidates[int(np.argmax(objective))])


def fuse_patient(record: PatientRecord, config: FusionConfig) -> FusionResult:
    """Run the full fusion pipeline for one patient under a resolved config."""
    # as a one-row cohort; module names do not enter fusion
    votes, weights, fused, poor = fuse_rows(Cohort(("",) * len(record.module_probs), (record,)), config)
    return FusionResult(
        preliminary_labels=tuple(map(OutcomeLabel, votes[0].tolist())),
        weights=tuple(weights[0].tolist()),
        fused_probability=float(fused[0]),
        final_label=OutcomeLabel(bool(poor[0])),
    )


def normalizer_from_patients(cohort: Cohort, variable: str) -> ClinicalNormalizer:
    """Min-max normalizer with bounds taken from the cohort's patients."""
    values = cohort.covariate(variable)
    if len(values) == 0:
        raise ValidationError("cannot derive normalizer bounds from an empty patient list")
    lo, hi = float(values.min()), float(values.max())
    if not hi > lo:
        raise DegenerateDataError(
            f"cannot derive normalizer bounds: {variable} is constant at {lo}"
        )
    return ClinicalNormalizer(variable=variable, min=lo, max=hi)
