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
steps 1-4 for many patients at once; ``crossval.fuse_by_fold`` calls it on
cohorts, and the public scalar functions are one-row calls of the same pieces.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cohort import ClinicalNormalizer, Cohort, OutcomeLabel, PatientRecord, normalize_clinical, poor_mask
from .errors import (
    ConfigError, DegenerateDataError, ValidationError, as_float, is_number, real_array, require_real, require_tuple,
)

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
        for name, value, choices in (("clinical_variable", self.clinical_variable, FUSION_VARIABLES),
                                     ("strategy", self.strategy, THRESHOLD_STRATEGIES)):
            if value not in choices:
                raise ConfigError((name, f"must be one of {', '.join(choices)}", value))
        if not isinstance(self.normalizer, (ClinicalNormalizer, type(None))):
            raise ConfigError(("normalizer", "must be a ClinicalNormalizer or None", self.normalizer))
        if self.clinical_variable == "none" and self.normalizer is not None:
            raise ConfigError("clinical variable 'none' does not take a normalizer")
        if self.normalizer is not None and self.normalizer.variable != self.clinical_variable:
            raise ConfigError(
                f"normalizer is for {self.normalizer.variable!r}, "
                f"config uses {self.clinical_variable!r}"
            )
        for name in ("prelim_threshold", "final_threshold"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, require_real(name, value, 0, 1))
        if self.strategy == "fixed" and (self.prelim_threshold is None or self.final_threshold is None):
            raise ConfigError(("strategy", "must not be 'fixed' without explicit 'prelim_threshold' and 'final_threshold'",
                               self.strategy))


@dataclass(frozen=True)
class FusionResult:
    """Per-patient fusion output: labels, weights, fused probability, decision."""

    preliminary_labels: tuple[OutcomeLabel, ...]
    weights: tuple[float, ...]
    fused_probability: float
    final_label: OutcomeLabel


def _real(name: str, value: object) -> float:
    """A one-row argument as a float, unless it is no real number: text, a bool or an int beyond float range."""
    if (number := as_float(value)) is None:
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return number


def _row(name: str, values: Sequence) -> np.ndarray:
    """One row of real numbers as a (1, m) float array; element i is named ``name[i]``."""
    return np.array([[_real(f"{name}[{i}]", value) for i, value in enumerate(require_tuple(name, values))]])


def is_poor(scores: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    """The cut: a score at or below the threshold is good, any other (NaN included) poor."""
    return ~(scores <= threshold)


def _row_sums(matrix: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    # column by column from 0, the order of the scalar ``sum`` over a row, so every row sum matches it
    # bit for bit; with a factor, the sums of ``matrix * factor``, its products made a column at a time
    total = np.zeros(matrix.shape[0])
    for j in range(matrix.shape[1]):
        total += matrix[:, j] if factor is None else matrix[:, j] * factor[:, j]
    return total


def _vote_weights(poor: np.ndarray, covariate: np.ndarray | None) -> np.ndarray:
    """Steps 2-3 for (n, m) poor votes and n covariates; uniform weights, a read-only view of one 1/m, when
    ``covariate`` is None."""
    n, m = poor.shape
    if covariate is None:
        return np.broadcast_to(1.0 / m, (n, m))
    c = real_array(covariate, "covariate", unit=True)
    if c.shape != (n,):
        raise ValidationError(f"length mismatch: {n} patients vs covariate shape {c.shape}")
    c = c[:, None]
    weights = np.where(poor, c, 1.0 - c)
    total = _row_sums(weights)
    uniform = total == 0.0
    weights /= np.where(uniform, 1.0, total)[:, None]  # in place: no second (n, m) array
    weights[uniform] = 1.0 / m
    return weights


def _weighted_sums(weights: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row sums of ``weights * probs``, made one (n,) column at a time, once every weight row is checked to sum to 1."""
    sums = _row_sums(weights)
    off = ~(np.abs(sums - 1.0) <= WEIGHT_SUM_TOL)  # a NaN sum is off too
    if off.any():
        raise ValidationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {float(sums[off][0])!r}")
    return _row_sums(weights, probs)


def fuse_matrix(
    probs: np.ndarray, covariate: np.ndarray | None, prelim_threshold: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poor votes (n, m), weights (n, m) and fused probabilities (n,) of n patients by m modules.

    ``prelim_threshold`` is one cut for every patient (a float or a (1,) array), or an (n, 1) column of cuts.
    Uniform weights (``covariate`` None) come back as a read-only view of 1/m.
    """
    p = real_array(probs, "module probability", unit=True)
    if p.ndim != 2:
        raise ValidationError(f"probabilities must form an (n, m) matrix, got shape {p.shape}")
    if p.shape[1] == 0:
        raise ValidationError("cannot fuse an empty probability list")
    votes = is_poor(p, prelim_threshold)
    weights = _vote_weights(votes, covariate)
    return votes, weights, _weighted_sums(weights, p)


def derive_labels(probs: Sequence[float], threshold: float) -> tuple[OutcomeLabel, ...]:
    """Preliminary per-module labels: probability <= threshold means good."""
    p = real_array(_row("probs", probs), "module probability", unit=True)
    return tuple(map(OutcomeLabel, is_poor(p[0], _real("threshold", threshold)).tolist()))


def compute_weights(labels: Sequence[OutcomeLabel], covariate: float) -> tuple[float, ...]:
    """Normalized module weights of one patient's preliminary labels and covariate."""
    poor = poor_mask(labels, "labels")[None]
    if poor.size == 0:
        raise ValidationError("cannot weight an empty label list")
    return tuple(_vote_weights(poor, np.array([_real("covariate", covariate)]))[0].tolist())


def uniform_weights(n: int) -> tuple[float, ...]:
    if not is_number(n, numbers.Integral):
        raise ValidationError(f"module count must be an integer, got {n!r}")
    if n <= 0:
        raise ValidationError("cannot weight an empty module list")
    if n > np.iinfo(np.intp).max:  # more modules than an array can index
        raise ValidationError(f"module count must be at most {np.iinfo(np.intp).max}, got {n!r}")
    return tuple(_vote_weights(np.zeros((1, n), dtype=bool), None)[0].tolist())


def fuse(probs: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted average of module probabilities; bounded by their min and max.

    The weights must sum to one and each lie in [0, 1]; the probabilities may be any reals, unchecked.
    """
    w, p = _row("weights", weights), _row("probs", probs)
    if p.size != w.size:
        raise ValidationError(f"length mismatch: {p.size} probabilities vs {w.size} weights")
    if p.size == 0:
        raise ValidationError("cannot fuse an empty probability list")
    fused = _weighted_sums(w, p)  # checks the sum first
    real_array(w, "weight", unit=True)
    return float(fused[0])


def classify(fused_probability: float, threshold: float) -> OutcomeLabel:
    """Final decision; a fused probability at or below the threshold is good."""
    fused, cut = _real("fused_probability", fused_probability), _real("threshold", threshold)
    return OutcomeLabel(bool(is_poor(np.float64(fused), cut)))


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
    s, poor = real_array(scores, "scores", vector=True), poor_mask(truths, "truths")
    if len(s) != len(poor) or len(s) == 0:
        raise ValidationError("scores and truths must be non-empty and equal length")
    order = np.argsort(s, kind="stable")
    s, poor = s[order], poor[order]
    # a midpoint of scores past half the float range is inf (1e308 + 1.7e308) or NaN (-inf + inf), quietly
    with np.errstate(over="ignore", invalid="ignore"):
        return search_sorted_threshold(s, poor, strategy)


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
    row = Cohort(("",) * len(require_tuple("module_probs", record.module_probs)), (record,))  # names enter no fusion
    weighted = config.clinical_variable != "none"
    if config.prelim_threshold is None or config.final_threshold is None or (weighted and config.normalizer is None):
        raise ConfigError("fusion config is not resolved: thresholds or normalizer missing")
    covariate = normalize_clinical(row.covariate(config.clinical_variable), config.normalizer) if weighted else None
    votes, weights, fused = fuse_matrix(row.probs, covariate, config.prelim_threshold)
    return FusionResult(
        preliminary_labels=tuple(map(OutcomeLabel, votes[0].tolist())),
        weights=tuple(weights[0].tolist()),
        fused_probability=float(fused[0]),
        final_label=classify(fused[0], config.final_threshold),
    )
