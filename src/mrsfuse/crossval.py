"""Patient-level cross-validation with repeated seeded runs.

Each run reshuffles the fold assignment from a seed derived from
(base_seed, run_index); fusion itself is deterministic. A run's folds are
one array, ``fold_of``, each row's test fold, drawn once and shared by all
model variants; training fold f is the rows where ``fold_of != f``.
Thresholds and normalizer bounds are resolved on the training folds only;
module scores are sorted once per module set, and equal searches run once.
A :func:`fold_invariant` variant's scores are fused, sorted and scored for
AUC and MAE once per module set, when first read; any other variant fuses
a run's test rows in one :func:`fuse_by_fold` call, every row under its own
fold's resolution; ``cli fuse`` is the same call with the fold index 0 for
every row. Predictions are pooled over the test folds of a run, and per-run
reports are aggregated into means and standard deviations across runs.
Degenerate folds are recorded as run-level failures instead of aborting the
evaluation.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .cohort import ClinicalNormalizer, Cohort, as_plain, poor_mask, scale_clamped, validate_cohort
from .errors import ConfigError, DegenerateDataError, ValidationError, is_number, require_int, require_kind
from .fusion import (
    FusionConfig,
    fuse_matrix,
    is_poor,
    search_sorted_threshold,
    search_threshold,
)
from .metrics import MEASURES, MetricReport, auc, decision_measures, mean_absolute_error, report
from .significance import PairedSample, TestResult, wilcoxon_signed_rank

# the config each module is evaluated under alone: an unweighted ensemble of one, youden thresholds
MODULE_BASELINE = FusionConfig(clinical_variable="none", strategy="youden")


@dataclass(frozen=True)
class CvPlan:
    """Cross-validation protocol: fold count, repetitions, seeding, stratification."""

    k: int = 5
    n_runs: int = 10
    base_seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        require_int("k", self.k, 2)
        require_int("n_runs", self.n_runs, 1)
        require_int("base_seed", self.base_seed, 0)
        if not isinstance(self.stratified, bool):  # a truthy string such as "no" would stratify
            raise ConfigError(("stratified", "must be a bool", self.stratified))


@dataclass(frozen=True)
class FoldResolution:
    """Thresholds and normalizer bounds resolved on one training fold."""

    fold_index: int
    prelim_threshold: float
    final_threshold: float
    norm_min: float | None = None
    norm_max: float | None = None


@dataclass(frozen=True)
class RunResult:
    run_index: int
    metrics: MetricReport
    folds: tuple[FoldResolution, ...]


@dataclass(frozen=True)
class RunSummary:
    """Per-run reports plus cross-run aggregates for one model variant."""

    model: str
    plan: CvPlan
    config: FusionConfig
    runs: tuple[RunResult, ...]
    failures: tuple[str, ...] = ()

    def run_values(self, measure: str) -> tuple[float, ...]:
        return tuple(r.metrics.value(measure) for r in self.runs)

    def _completed_values(self, measure: str) -> tuple[float, ...]:
        values = self.run_values(measure)
        if not values:
            raise DegenerateDataError(f"no completed runs to average for {self.model!r}")
        return values

    def mean(self, measure: str) -> float:
        return float(np.mean(self._completed_values(measure)))

    def std(self, measure: str) -> float:
        return float(np.std(self._completed_values(measure)))

    def seed_schedule(self) -> dict:
        return {
            "base_seed": self.plan.base_seed,
            "run_indices": list(range(self.plan.n_runs)),
        }

    def as_dict(self) -> dict:
        """The summary as written to JSON: every field plus the seed schedule and aggregates."""
        if self.runs:
            measures = {
                name: {"mean": self.mean(name), "std": self.std(name)} for name in MEASURES
            }
        else:
            measures = {name: None for name in MEASURES}
        return {**as_plain(self), "seed_schedule": self.seed_schedule(), "measures": measures}


def make_folds(cohort: Cohort, plan: CvPlan, run_index: int) -> np.ndarray:
    """Each cohort row's test fold in 0..k-1 (an intp array), deterministic in (base_seed, run_index).

    Stratified assignment deals each class round-robin with a shared fold
    cursor, so per-class counts and total fold sizes both differ by at most
    one across folds. Every training fold must contain both outcome classes.
    """
    n = len(require_kind("cohort", cohort, Cohort, ValidationError))
    if n == 0:
        raise ValidationError("cannot fold an empty cohort")
    if require_kind("plan", plan, CvPlan).k > n:
        raise ValidationError(f"k={plan.k} exceeds cohort size {n}")

    rng = np.random.default_rng([plan.base_seed, run_index])
    poor = poor_mask(cohort.outcomes(), "outcomes")
    if plan.stratified:
        groups = [np.flatnonzero(~poor), np.flatnonzero(poor)]
    else:
        groups = [np.arange(n)]
    # deal the shuffled groups, one after the other, round-robin onto the folds
    dealt = np.concatenate([group[rng.permutation(len(group))] for group in groups])
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[dealt] = np.arange(n) % plan.k
    # each training fold's poor count against its size: all or none is a single class
    train_poor = np.count_nonzero(poor) - np.bincount(fold_of[poor], minlength=plan.k)
    if np.any((train_poor == 0) | (train_poor == n - np.bincount(fold_of, minlength=plan.k))):
        hint = "" if plan.stratified else "; enable stratification"
        raise DegenerateDataError(f"a training fold contains a single outcome class{hint}")
    return fold_of


def _searched(value: float, what: str) -> float:
    if not 0.0 < value < 1.0:
        raise DegenerateDataError(f"{what} search collapsed to the boundary ({value})")
    return value


def fold_invariant(config: FusionConfig, rows: Cohort) -> bool:
    """No fold can change the fused scores: uniform weights ignore votes, and one module's weight is always 1."""
    return config.clinical_variable == "none" or rows.probs.shape[1] == 1


def resolve_folds(
    rows: Cohort, train_rows: Sequence[np.ndarray | slice], config: FusionConfig,
    search: Callable[[int, str, bool], float],
) -> list[FoldResolution]:
    """Make thresholds and normalizer concrete per training fold, fold f being the rows ``train_rows[f]``.

    Folds are resolved one after another, each completely: its normalizer,
    its preliminary threshold, then its final threshold. So the error raised
    is the first one met fold by fold. Threshold searches need labeled
    training patients; a fully fixed config resolves without reading any
    outcome. ``search(f, strategy, fused)`` searches training fold f's
    module scores, or with ``fused`` the fused scores of a multi-module
    :func:`fold_invariant` config: its final search, as one module's is its
    module search. Any other config fuses the fold's training rows, then
    searches them.
    """
    resolutions: list[FoldResolution] = []
    covariate = None if config.clinical_variable == "none" else rows.covariate(config.clinical_variable)
    for fold_index, train in enumerate(train_rows):
        norm = config.normalizer
        if covariate is not None and norm is None:
            values = covariate[train]
            if len(values) == 0:
                raise ValidationError("cannot derive normalizer bounds from an empty patient list")
            lo, hi = float(values.min()), float(values.max())
            if not hi > lo:
                raise DegenerateDataError(
                    f"cannot derive normalizer bounds: {config.clinical_variable} is constant at {lo}"
                )
            norm = ClinicalNormalizer(variable=config.clinical_variable, min=lo, max=hi)
        prelim = config.prelim_threshold
        if prelim is None:
            prelim = _searched(search(fold_index, config.strategy, False), "preliminary threshold")
        bounds = (None, None) if norm is None else (norm.min, norm.max)
        final = config.final_threshold
        if final is None:
            if fold_invariant(config, rows):  # one module's fused scores are its module scores
                value = search(fold_index, config.strategy, rows.probs.shape[1] > 1)
            else:  # not fold_invariant, so weighted by the covariate
                fused = fuse_matrix(rows.probs[train], scale_clamped(covariate[train], *bounds), prelim)[2]
                value = search_threshold(fused, rows.outcomes()[train], config.strategy)
            final = _searched(value, "final threshold")
        resolutions.append(FoldResolution(fold_index, prelim, final, *bounds))
    return resolutions


def resolve_fold_config(train: Cohort, config: FusionConfig) -> tuple[FusionConfig, FoldResolution]:
    """:func:`resolve_folds` of one training fold, every row of ``train``: the resolved config, fold 0's resolution."""
    require_kind("train", train, Cohort, ValidationError)
    require_kind("config", config, FusionConfig)
    # every module score of every patient, patient by patient, or the fused scores
    search = functools.cache(lambda strategy, fused: search_threshold(
        *((fuse_matrix(train.probs, None, 0.0)[2], train.outcomes()) if fused else
          (train.probs.ravel(), np.repeat(train.outcomes(), train.probs.shape[1]))), strategy))
    (resolution,) = resolve_folds(train, [slice(None)], config, lambda _, strategy, fused: search(strategy, fused))
    norm = config.normalizer
    if norm is None and resolution.norm_min is not None:
        norm = ClinicalNormalizer(config.clinical_variable, resolution.norm_min, resolution.norm_max)
    resolved = replace(config, normalizer=norm, prelim_threshold=resolution.prelim_threshold,
                       final_threshold=resolution.final_threshold)
    return resolved, resolution


def fuse_by_fold(
    rows: Cohort, fold_of: np.ndarray | int, variable: str, resolutions: Sequence[FoldResolution],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fuse_matrix` of ``rows`` weighted by ``variable`` (or ``none``), the i-th fused as fold ``fold_of[i]``
    resolved it (threshold and bounds); an int ``fold_of`` is every row's fold."""
    prelim = np.array([r.prelim_threshold for r in resolutions])[fold_of, None]
    covariate = None
    if variable != "none":  # float bounds: an int64 span such as 2**62 - -2**62 would wrap
        bounds = zip(*((r.norm_min, r.norm_max) for r in resolutions))
        lo, hi = (np.array(column, dtype=float)[fold_of] for column in bounds)
        covariate = scale_clamped(rows.covariate(variable), lo, hi)
    return fuse_matrix(rows.probs, covariate, prelim)


def ensemble_name(config: FusionConfig) -> str:
    """``ensemble``, or ``ensemble_w_<variable>`` for a config that weights by a covariate."""
    if config.clinical_variable == "none":
        return "ensemble"
    return f"ensemble_w_{config.clinical_variable}"


def _presort(probs: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every module score (row-major) in ascending order, its row (in the smallest dtype holding n) and its truth."""
    scores = probs.ravel()
    order = np.argsort(scores, kind="stable")
    rows = (order // probs.shape[1]).astype(np.min_scalar_type(len(probs) - 1))
    return scores[order], rows, truth[rows]


def evaluate_variants(
    cohort: Cohort, plan: CvPlan, configs: Mapping[str, tuple[FusionConfig, str | None]]
) -> dict[str, RunSummary]:
    """Cross-validated evaluation of model variants, all on the same folds.

    ``configs`` maps each variant's name to its fusion config and the one
    module it reads alone, or None to fuse every module. Per run: folds are
    drawn once; each variant resolves thresholds per training fold, pools
    its test-fold predictions and computes the six measures on them. A search runs
    once per fold, score set and strategy; a module set's scores are fused (for a
    :func:`fold_invariant` variant), sorted and scored once, when first read. Runs that
    hit degenerate data are recorded under the variant's ``failures`` and skipped in its aggregates.
    """
    violations = validate_cohort(cohort)
    if violations:
        listing = "; ".join(str(v) for v in violations[:5])
        raise ValidationError(f"cohort failed validation ({len(violations)} violations): {listing}")

    for name, (config, _) in configs.items():
        require_kind(f"config of variant {name!r}", config, FusionConfig)
    truth = cohort.outcomes()
    poor = poor_mask(truth, "outcomes")
    views = {module: cohort if module is None else cohort.single_module_view(module)
             for _, module in configs.values()}
    by_modules = {view.module_names: view for view in views.values()}
    # each built once per module set, when a search or a run first reads it: a module set's fused
    # scores, every module score of it (or, with fused, its fused scores) presorted, their MAE and AUC
    invariant = functools.cache(lambda modules: fuse_matrix(by_modules[modules].probs, None, 0.0)[2])
    presorted = functools.cache(lambda modules, fused: _presort(
        invariant(modules)[:, None] if fused else by_modules[modules].probs, truth))
    # needed only by a run that resolved, so truths that hold both classes
    measured = functools.cache(lambda modules: {"mae": mean_absolute_error(invariant(modules), truth),
                                                "auc": auc(invariant(modules), truth)})
    runs: dict[str, list[RunResult]] = {name: [] for name in configs}
    failures: dict[str, list[str]] = {name: [] for name in configs}
    for run_index in range(require_kind("plan", plan, CvPlan).n_runs):
        try:
            fold_of = make_folds(cohort, plan, run_index)
        except DegenerateDataError as exc:
            for name in configs:
                failures[name].append(f"run {run_index}: {exc}")
            continue
        train_rows = [np.flatnonzero(fold_of != fold_index) for fold_index in range(plan.k)]
        folds = fold_of.astype(np.min_scalar_type(plan.k - 1))  # the smallest dtype that holds k
        sorted_folds = functools.cache(lambda modules, fused: folds[presorted(modules, fused)[1]])  # each score's fold

        @functools.cache
        def search(modules: tuple[str, ...], fold_index: int, strategy: str, fused: bool) -> float:
            # the training fold's scores, a masked subsequence of the presorted ones
            scores, _, truths = presorted(modules, fused)
            keep = sorted_folds(modules, fused) != fold_index
            return search_sorted_threshold(scores[keep], truths[keep], strategy)

        for name, (config, module) in configs.items():
            view = views[module]
            try:
                resolutions = resolve_folds(view, train_rows, config, functools.partial(search, view.module_names))
                finals = np.array([r.final_threshold for r in resolutions])[fold_of]
                if fold_invariant(config, view):
                    run_report = MetricReport(**measured(view.module_names), n_patients=len(truth),
                                              **decision_measures(is_poor(invariant(view.module_names), finals), poor))
                else:
                    fused = fuse_by_fold(view, fold_of, config.clinical_variable, resolutions)[2]
                    run_report = report(predicted=is_poor(fused, finals), fused_probs=fused, truth=truth)
                runs[name].append(RunResult(run_index=run_index, metrics=run_report, folds=tuple(resolutions)))
            except DegenerateDataError as exc:
                failures[name].append(f"run {run_index}: {exc}")

    return {
        name: RunSummary(name, plan, config, runs=tuple(runs[name]), failures=tuple(failures[name]))
        for name, (config, _) in configs.items()
    }


def evaluate_model(cohort: Cohort, plan: CvPlan, config: FusionConfig) -> RunSummary:
    """Cross-validated evaluation of one fusion configuration over every module."""
    name = ensemble_name(require_kind("config", config, FusionConfig))
    return evaluate_variants(cohort, plan, {name: (config, None)})[name]


def evaluate_per_module(cohort: Cohort, plan: CvPlan) -> dict[str, RunSummary]:
    """Evaluate each module's probabilities alone, as a single-module ensemble."""
    modules = require_kind("cohort", cohort, Cohort, ValidationError).module_names
    return evaluate_variants(cohort, plan, {name: (MODULE_BASELINE, name) for name in modules})


def _summary_value(record: dict, key: str, kind: type = numbers.Real) -> object:
    """``record[key]``, which must be a finite number of ``kind`` other than a bool."""
    value = record[key]
    if not is_number(value, kind):
        raise TypeError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def compare_summary_dicts(
    a: dict, b: dict, measure: str, names: tuple[str, str] = ("a", "b")
) -> TestResult:
    """Two-sided signed-rank comparison of per-run measure values, run by run.

    ``a`` and ``b`` are serialized summaries (:meth:`RunSummary.as_dict`);
    ``names`` label them in error messages. The runs share patients, so the
    p-value is optimistic (Nadeau & Bengio 2003; Bouckaert & Frank 2004).
    """
    if measure not in MEASURES:
        raise ConfigError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    schedules, pairs = [], []
    for summary, name in zip((a, b), names):
        if not isinstance(summary, dict):
            raise ValidationError(f"malformed summary: {name}: not a dict, got {type(summary).__name__}")
        if "seed_schedule" not in summary:
            raise ValidationError(f"malformed summary: {name}: missing seed_schedule")
        try:
            schedules.append(json.dumps(summary["seed_schedule"], sort_keys=True))  # as text: == on arrays is no bool
            pairs.append([(_summary_value(r, "run_index", int), float(_summary_value(r["metrics"], measure)))
                          for r in summary["runs"]])
        except (LookupError, TypeError, ValueError, OverflowError) as exc:  # an IndexError from an array's rows
            detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise ValidationError(f"malformed summary: {name}: {detail}") from exc

    if schedules[0] != schedules[1]:
        raise ConfigError(
            f"seed schedules differ: {schedules[0]} vs {schedules[1]}; models must share runs"
        )
    pairs_a, pairs_b = pairs
    if [i for i, _ in pairs_a] != [i for i, _ in pairs_b]:
        raise ConfigError("completed run indices differ; models must be compared run-by-run")
    if not pairs_a:
        raise DegenerateDataError("no completed runs to compare")
    return wilcoxon_signed_rank(PairedSample(a=[v for _, v in pairs_a], b=[v for _, v in pairs_b]))
