"""Patient-level cross-validation with repeated seeded runs.

Each run reshuffles the fold assignment from a seed derived from
(base_seed, run_index); fusion itself is deterministic. All model
variants share each run's folds, drawn once. Thresholds and normalizer
bounds are resolved on the training folds only; module scores are sorted
once per cohort, and equal searches run once. Predictions are pooled over
the test folds of a run, and per-run reports are aggregated into means and
standard deviations across runs. Degenerate folds are recorded as run-level
failures instead of aborting the evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .cohort import Cohort, OutcomeLabel, as_plain, validate_cohort
from .errors import ConfigError, DegenerateDataError, ValidationError
from .fusion import (
    FusionConfig,
    fuse_matrix,
    fuse_rows,
    normalized_covariate,
    normalizer_from_patients,
    search_sorted_threshold,
    search_threshold,
)
from .metrics import MEASURES, MetricReport, report
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
        if not isinstance(self.k, int) or self.k < 2:
            raise ConfigError(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.n_runs, int) or self.n_runs < 1:
            raise ConfigError(f"n_runs must be an integer >= 1, got {self.n_runs!r}")
        if not isinstance(self.base_seed, int) or self.base_seed < 0:
            raise ConfigError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")


@dataclass(frozen=True)
class Fold:
    """One fold's patient ids, and the cohort rows they sit at (in the same order)."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    train_rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    test_rows: np.ndarray | None = field(default=None, compare=False, repr=False)


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

    def mean(self, measure: str) -> float:
        values = self.run_values(measure)
        if not values:
            raise DegenerateDataError(f"no completed runs to average for {self.model!r}")
        return float(np.mean(values))

    def std(self, measure: str) -> float:
        values = self.run_values(measure)
        if not values:
            raise DegenerateDataError(f"no completed runs to average for {self.model!r}")
        return float(np.std(values))

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


def make_folds(cohort: Cohort, plan: CvPlan, run_index: int) -> list[Fold]:
    """Partition patient ids into k test folds, deterministic in (base_seed, run_index).

    Stratified assignment deals each class round-robin with a shared fold
    cursor, so per-class counts and total fold sizes both differ by at most
    one across folds. Every training fold must contain both outcome classes.
    Test ids are sorted; training ids keep the cohort order.
    """
    n = len(cohort)
    if n == 0:
        raise ValidationError("cannot fold an empty cohort")
    if not cohort.is_labeled():
        raise ValidationError("cross-validation requires mrs for every patient")
    if plan.k > n:
        raise ValidationError(f"k={plan.k} exceeds cohort size {n}")

    rng = np.random.default_rng([plan.base_seed, run_index])
    poor = cohort.outcomes() == OutcomeLabel.POOR
    if plan.stratified:
        groups = [np.flatnonzero(~poor), np.flatnonzero(poor)]
    else:
        groups = [np.arange(n)]
    # deal the shuffled groups, one after the other, round-robin onto the folds
    dealt = np.concatenate([group[rng.permutation(len(group))] for group in groups])
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[dealt] = np.arange(n) % plan.k

    ids = cohort.ids.tolist()
    folds = []
    for fold_index in range(plan.k):
        in_test = fold_of == fold_index
        train_poor = poor[~in_test]
        if train_poor.all() or not train_poor.any():
            hint = "" if plan.stratified else "; enable stratification"
            raise DegenerateDataError(f"a training fold contains a single outcome class{hint}")
        train = np.flatnonzero(~in_test)
        test = np.array(sorted(np.flatnonzero(in_test).tolist(), key=ids.__getitem__), dtype=np.intp)
        folds.append(Fold(tuple(cohort.ids[train].tolist()), tuple(cohort.ids[test].tolist()), train, test))
    return folds


def _searched(value: float, what: str) -> float:
    if not 0.0 < value < 1.0:
        raise DegenerateDataError(f"{what} search collapsed to the boundary ({value})")
    return value


def resolve_fold_config(
    train: Cohort, config: FusionConfig, fold_index: int = 0, search_modules: Callable[[str], float] | None = None
) -> tuple[FusionConfig, FoldResolution]:
    """Make thresholds and normalizer concrete using training patients only.

    Threshold searches need labeled training patients; a fully fixed config
    resolves without reading any outcome. ``search_modules(strategy)`` is the
    search over every training module score (by default run here, once per
    strategy). A single-module config reuses it as its final search: its
    fused scores are its module scores bit for bit (weight 1.0, row sum from 0).
    """
    if search_modules is None:
        # every module score of every patient, patient by patient
        search_modules = functools.cache(lambda strategy: search_threshold(
            train.probs.ravel(), np.repeat(train.outcomes(), train.probs.shape[1]), strategy))
    resolved = config
    if resolved.clinical_variable != "none" and resolved.normalizer is None:
        resolved = resolved.with_normalizer(
            normalizer_from_patients(train, resolved.clinical_variable)
        )

    prelim = resolved.prelim_threshold
    if prelim is None:
        prelim = _searched(search_modules(resolved.strategy), "preliminary threshold")

    final = resolved.final_threshold
    if final is None:
        if train.probs.shape[1] == 1:
            value = search_modules(resolved.strategy)
        else:
            _, _, fused_scores = fuse_matrix(train.probs, normalized_covariate(train, resolved), prelim)
            value = search_threshold(fused_scores, train.outcomes(), resolved.strategy)
        final = _searched(value, "final threshold")

    resolved = resolved.with_thresholds(prelim, final)
    norm = resolved.normalizer
    resolution = FoldResolution(
        fold_index=fold_index,
        prelim_threshold=prelim,
        final_threshold=final,
        norm_min=None if norm is None else norm.min,
        norm_max=None if norm is None else norm.max,
    )
    return resolved, resolution


def ensemble_name(config: FusionConfig) -> str:
    """``ensemble``, or ``ensemble_w_<variable>`` for a config that weights by a covariate."""
    if config.clinical_variable == "none":
        return "ensemble"
    return f"ensemble_w_{config.clinical_variable}"


def _presort(probs: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every module score (row-major) in ascending order, with its row and that row's truth."""
    scores = probs.ravel()
    order = np.argsort(scores, kind="stable")
    rows = order // probs.shape[1]
    return scores[order], rows, truth[rows]


def evaluate_variants(
    cohort: Cohort, plan: CvPlan, configs: Mapping[str, tuple[FusionConfig, str | None]]
) -> dict[str, RunSummary]:
    """Cross-validated evaluation of model variants, all on the same folds.

    ``configs`` maps each variant's name to its fusion config and the one
    module it reads alone, or None to fuse every module. Per run: folds are
    drawn once; each variant resolves thresholds per training fold, pools
    its test-fold predictions and computes the six measures once on them.
    A search over module scores runs once per fold, module set and strategy.
    Runs that hit degenerate data are recorded under the variant's
    ``failures`` and skipped in its aggregates.
    """
    violations = validate_cohort(cohort)
    if violations:
        listing = "; ".join(str(v) for v in violations[:5])
        raise ValidationError(f"cohort failed validation ({len(violations)} violations): {listing}")
    if not cohort.is_labeled():
        raise ValidationError("evaluation requires mrs for every patient")

    truth = cohort.outcomes()
    views = {module: cohort if module is None else cohort.single_module_view(module)
             for _, module in configs.values()}
    presorted = {view.module_names: _presort(view.probs, truth) for view in views.values()}
    runs: dict[str, list[RunResult]] = {name: [] for name in configs}
    failures: dict[str, list[str]] = {name: [] for name in configs}
    for run_index in range(plan.n_runs):
        try:
            folds = make_folds(cohort, plan, run_index)
        except DegenerateDataError as exc:
            for name in configs:
                failures[name].append(f"run {run_index}: {exc}")
            continue
        parts = [(cohort.take(fold.train_rows), cohort.take(fold.test_rows)) for fold in folds]
        in_train = [np.bincount(fold.train_rows, minlength=len(cohort)) > 0 for fold in folds]

        @functools.cache
        def search(fold_index: int, modules: tuple[str, ...], strategy: str) -> float:
            # the training fold's scores, a masked subsequence of the presorted ones
            scores, rows, truths = presorted[modules]
            keep = in_train[fold_index][rows]
            return search_sorted_threshold(scores[keep], truths[keep], strategy)

        for name, (config, module) in configs.items():
            try:
                resolutions: list[FoldResolution] = []
                fused = np.empty(len(cohort))
                predicted = np.empty(len(cohort), dtype=np.int8)
                for fold_index, (fold, (train, test)) in enumerate(zip(folds, parts)):
                    if module is not None:
                        train, test = train.single_module_view(module), test.single_module_view(module)
                    shared = functools.partial(search, fold_index, train.module_names)
                    resolved, resolution = resolve_fold_config(train, config, fold_index, shared)
                    resolutions.append(resolution)
                    fused[fold.test_rows], predicted[fold.test_rows] = fuse_rows(test, resolved)[2:]
                run_report = report(predicted=predicted, fused_probs=fused, truth=truth)
                runs[name].append(RunResult(run_index=run_index, metrics=run_report, folds=tuple(resolutions)))
            except DegenerateDataError as exc:
                failures[name].append(f"run {run_index}: {exc}")

    return {
        name: RunSummary(name, plan, config, runs=tuple(runs[name]), failures=tuple(failures[name]))
        for name, (config, _) in configs.items()
    }


def evaluate_model(
    cohort: Cohort,
    plan: CvPlan,
    config: FusionConfig,
    model_name: str | None = None,
) -> RunSummary:
    """Cross-validated evaluation of one fusion configuration over every module."""
    name = model_name or ensemble_name(config)
    return evaluate_variants(cohort, plan, {name: (config, None)})[name]


def evaluate_per_module(cohort: Cohort, plan: CvPlan) -> dict[str, RunSummary]:
    """Evaluate each module's probabilities alone, as a single-module ensemble."""
    return evaluate_variants(cohort, plan, {name: (MODULE_BASELINE, name) for name in cohort.module_names})


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
        if "seed_schedule" not in summary:
            raise ValidationError(f"malformed summary: {name}: missing seed_schedule")
        schedules.append(summary["seed_schedule"])
        try:
            pairs.append([(r["run_index"], float(r["metrics"][measure])) for r in summary["runs"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
