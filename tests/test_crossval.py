"""Cross-validation harness: folds, leakage, aggregation, model comparison."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrsfuse import (
    ClinicalNormalizer,
    Cohort,
    ConfigError,
    CvPlan,
    DegenerateDataError,
    FusionConfig,
    OutcomeLabel,
    PatientRecord,
    RunSummary,
    SyntheticSpec,
    ValidationError,
    compare_summary_dicts,
    evaluate_model,
    evaluate_per_module,
    evaluate_variants,
    generate_cohort,
    resolve_fold_config,
)
import mrsfuse.crossval
from mrsfuse.cohort import binarize_mrs, normalize_clinical
from mrsfuse.crossval import FoldResolution, RunResult, make_folds
from mrsfuse.fusion import fuse_matrix, search_threshold
from mrsfuse.metrics import MetricReport, report
from conftest import scalar_fusion, take

UNWEIGHTED = FusionConfig(clinical_variable="none")


@pytest.fixture(scope="module")
def cohort119():
    return generate_cohort(SyntheticSpec(n_patients=119, seed=42))


def small_cohort(n=12, seed=3, module_names=("ADC", "CBF")):
    rng = np.random.default_rng(seed)
    n_poor = max(2, n // 3)
    patients = []
    for i in range(n):
        poor = i < n_poor
        shift = 0.35 if poor else 0.0
        probs = tuple(float(np.clip(rng.random() * 0.55 + shift, 0.01, 0.99)) for _ in module_names)
        patients.append(
            PatientRecord(
                patient_id=f"q{i:02d}",
                age=float(rng.integers(30, 90)),
                nihss=int(rng.integers(0, 30)),
                module_probs=probs,
                mrs=int(rng.integers(3, 7)) if poor else int(rng.integers(0, 3)),
            )
        )
    return Cohort(module_names=module_names, patients=tuple(patients))


class TestMakeFolds:
    def test_partition_sizes_119(self, cohort119):
        fold_of = make_folds(cohort119, CvPlan(k=5, n_runs=1, base_seed=0), 0)
        assert sorted(np.bincount(fold_of).tolist()) == [23, 24, 24, 24, 24]

    def test_partition_is_exact(self, cohort119):
        # one test fold per patient, every fold in 0..k-1 used
        fold_of = make_folds(cohort119, CvPlan(k=5, n_runs=1, base_seed=0), 0)
        assert fold_of.dtype == np.intp and fold_of.shape == (len(cohort119),)
        assert set(fold_of.tolist()) == set(range(5))

    def test_stratified_class_balance(self, cohort119):
        poor = np.array([binarize_mrs(p.mrs) == OutcomeLabel.POOR for p in cohort119.patients])
        fold_of = make_folds(cohort119, CvPlan(k=5, n_runs=1, base_seed=7), 0)
        per_fold_poor = np.bincount(fold_of[poor], minlength=5)
        assert max(per_fold_poor) - min(per_fold_poor) <= 1
        assert sum(per_fold_poor) == poor.sum()

    def test_deterministic(self, cohort119):
        plan = CvPlan(k=5, n_runs=3, base_seed=11)
        assert np.array_equal(make_folds(cohort119, plan, 2), make_folds(cohort119, plan, 2))

    def test_runs_reshuffle(self, cohort119):
        plan = CvPlan(k=5, n_runs=3, base_seed=11)
        assert not np.array_equal(make_folds(cohort119, plan, 0), make_folds(cohort119, plan, 1))

    def test_leave_one_out_when_k_equals_n(self):
        cohort = small_cohort(n=6)
        fold_of = make_folds(cohort, CvPlan(k=6, n_runs=1, base_seed=0), 0)
        assert sorted(fold_of.tolist()) == list(range(6))

    def test_k_larger_than_n(self):
        with pytest.raises(ValidationError):
            make_folds(small_cohort(n=4), CvPlan(k=5, n_runs=1, base_seed=0), 0)

    def test_unlabeled_cohort_rejected(self):
        cohort = small_cohort(n=8)
        stripped = Cohort(
            module_names=cohort.module_names,
            patients=tuple(replace(p, mrs=None) for p in cohort.patients[:4])
            + cohort.patients[4:],
        )
        with pytest.raises(ValidationError, match="mrs"):
            make_folds(stripped, CvPlan(k=2, n_runs=1, base_seed=0), 0)

    def test_unlabeled_patient_is_named(self):
        # the outcome read names the first patient without an mrs
        patients = list(small_cohort(n=8).patients)
        patients[1] = replace(patients[1], mrs=None)
        unlabeled = Cohort(module_names=("ADC", "CBF"), patients=patients)
        with pytest.raises(ValidationError, match=r"^patient 'q01' has no recorded mrs$"):
            make_folds(unlabeled, CvPlan(k=2, n_runs=1, base_seed=0), 0)

    def test_lone_minority_patient_degenerate(self):
        # one poor patient: the fold testing it always trains on a single class
        cohort = small_cohort(n=6)
        patients = tuple(
            replace(p, mrs=5 if i == 0 else 1) for i, p in enumerate(cohort.patients)
        )
        lopsided = Cohort(module_names=cohort.module_names, patients=patients)
        with pytest.raises(DegenerateDataError, match="single outcome class"):
            make_folds(lopsided, CvPlan(k=3, n_runs=1, base_seed=0, stratified=True), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        n_good=st.integers(0, 40),
        n_poor=st.integers(0, 40),
        k=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        run_index=st.integers(0, 20),
        stratified=st.booleans(),
        shuffle_seed=st.integers(0, 1000),
    )
    def test_matches_seed_loop(self, n_good, n_poor, k, seed, run_index, stratified, shuffle_seed):
        mrs = [1] * n_good + [4] * n_poor
        np.random.default_rng(shuffle_seed).shuffle(mrs)
        patients = tuple(
            PatientRecord(f"id{(7 * i) % 97:02d}-{i}", 60.0, 5, (0.5,), m) for i, m in enumerate(mrs)
        )
        cohort = Cohort(module_names=("ADC",), patients=patients)
        plan = CvPlan(k=k, n_runs=1, base_seed=seed, stratified=stratified)
        try:
            expected = _seed_make_folds(cohort, plan, run_index)
        except (ValidationError, DegenerateDataError) as exc:
            with pytest.raises(type(exc), match=str(exc)):
                make_folds(cohort, plan, run_index)
        else:
            got = make_folds(cohort, plan, run_index)
            assert got.dtype == np.intp and np.array_equal(got, expected)

    def test_unstratified_error_advises_stratification(self):
        cohort = small_cohort(n=6)
        patients = tuple(
            replace(p, mrs=5 if i == 0 else 1) for i, p in enumerate(cohort.patients)
        )
        lopsided = Cohort(module_names=cohort.module_names, patients=patients)
        with pytest.raises(DegenerateDataError, match="stratification"):
            make_folds(lopsided, CvPlan(k=3, n_runs=1, base_seed=0, stratified=False), 0)

    @settings(max_examples=150, deadline=None)
    @given(
        mrs=st.lists(st.integers(0, 6), min_size=2, max_size=60),
        k=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        run_index=st.integers(0, 50),
        stratified=st.booleans(),
    )
    def test_partition_balance_and_rows_property(self, mrs, k, seed, run_index, stratified):
        cohort = Cohort(
            module_names=("ADC",),
            patients=tuple(PatientRecord(f"p{(31 * i) % 101:03d}-{i}", 60.0, 5, (0.5,), m) for i, m in enumerate(mrs)),
        )
        poor = np.array(mrs) > 2
        plan = CvPlan(k=k, n_runs=1, base_seed=seed, stratified=stratified)
        if k > len(mrs):
            with pytest.raises(ValidationError, match="exceeds cohort size"):
                make_folds(cohort, plan, run_index)
            return
        try:
            fold_of = make_folds(cohort, plan, run_index)
        except DegenerateDataError as exc:
            hint = "" if stratified else "; enable stratification"
            assert str(exc) == f"a training fold contains a single outcome class{hint}"
            if stratified:  # round-robin dealing isolates a class only when it has one patient
                assert min(poor.sum(), (~poor).sum()) <= 1
            return
        assert fold_of.dtype == np.intp and fold_of.shape == (len(mrs),)
        assert fold_of.min() >= 0 and fold_of.max() < k
        for fold_index in range(k):
            train = fold_of != fold_index
            assert poor[train].any() and not poor[train].all()
        sizes = np.bincount(fold_of, minlength=k)
        assert sizes.min() >= 1 and max(sizes) - min(sizes) <= 1
        if stratified:
            for label in (poor, ~poor):
                counts = np.bincount(fold_of[label], minlength=k)
                assert max(counts) - min(counts) <= 1


def _seed_make_folds(cohort, plan, run_index):
    """The original per-id dealing loop, kept as the oracle for make_folds: each row's test fold."""
    if not cohort.patients:
        raise ValidationError("cannot fold an empty cohort")
    n = len(cohort.patients)
    if plan.k > n:
        raise ValidationError(f"k={plan.k} exceeds cohort size {n}")
    rng = np.random.default_rng([plan.base_seed, run_index])
    assignments = [[] for _ in range(plan.k)]
    cursor = 0
    if plan.stratified:
        groups = [
            [p.patient_id for p in cohort.patients if binarize_mrs(p.mrs) == label]
            for label in (OutcomeLabel.GOOD, OutcomeLabel.POOR)
        ]
    else:
        groups = [[p.patient_id for p in cohort.patients]]
    for group in groups:
        for pos in rng.permutation(len(group)):
            assignments[cursor].append(group[int(pos)])
            cursor = (cursor + 1) % plan.k
    truth_by_id = {p.patient_id: binarize_mrs(p.mrs) for p in cohort.patients}
    row_of = {p.patient_id: row for row, p in enumerate(cohort.patients)}
    fold_of = np.empty(n, dtype=np.intp)
    for fold_index, test_ids in enumerate(assignments):
        test_set = set(test_ids)
        train_ids = tuple(p.patient_id for p in cohort.patients if p.patient_id not in test_set)
        if len({truth_by_id[pid] for pid in train_ids}) < 2:
            hint = "" if plan.stratified else "; enable stratification"
            raise DegenerateDataError(f"a training fold contains a single outcome class{hint}")
        fold_of[[row_of[pid] for pid in test_ids]] = fold_index
    return fold_of


class TestCvPlanValidation:
    @pytest.mark.parametrize("kwargs", [
        {"k": 1}, {"n_runs": 0}, {"base_seed": -2},
        {"stratified": "no"}, {"stratified": 1},  # a truthy string such as "no" would stratify
    ])
    def test_rejects_bad_plan(self, kwargs):
        with pytest.raises(ConfigError):
            CvPlan(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"k": True}, "k must be an integer >= 2, got True"),
            ({"n_runs": True}, "n_runs must be an integer >= 1, got True"),
            ({"base_seed": False}, "base_seed must be an integer >= 0, got False"),
        ],
    )
    def test_rejects_bools_as_integers(self, kwargs, message):
        # bool subclasses int; a plan holding True would serialize "n_runs": true
        with pytest.raises(ConfigError) as excinfo:
            CvPlan(**kwargs)
        assert str(excinfo.value) == message


class TestEvaluateModel:
    def test_deterministic_summaries(self, cohort119):
        plan = CvPlan(k=5, n_runs=3, base_seed=5)
        config = FusionConfig(clinical_variable="nihss")
        assert (
            evaluate_model(cohort119, plan, config).as_dict()
            == evaluate_model(cohort119, plan, config).as_dict()
        )

    def test_all_measures_in_range(self, cohort119):
        summary = evaluate_model(cohort119, CvPlan(k=5, n_runs=2, base_seed=1), UNWEIGHTED)
        for measure in ("accuracy", "sensitivity", "specificity", "f1", "mae", "auc"):
            assert 0.0 <= summary.mean(measure) <= 1.0
            assert summary.std(measure) >= 0.0
        assert len(summary.runs) == 2
        assert summary.failures == ()

    def test_thresholds_resolved_per_fold(self, cohort119):
        summary = evaluate_model(cohort119, CvPlan(k=5, n_runs=1, base_seed=1), UNWEIGHTED)
        folds = summary.runs[0].folds
        assert len(folds) == 5
        for resolution in folds:
            assert 0.0 < resolution.prelim_threshold < 1.0
            assert 0.0 < resolution.final_threshold < 1.0
            assert resolution.norm_min is None  # unweighted: no normalizer

    def test_normalizer_bounds_from_training_fold(self, cohort119):
        config = FusionConfig(clinical_variable="age")
        summary = evaluate_model(cohort119, CvPlan(k=5, n_runs=1, base_seed=1), config)
        ages = [p.age for p in cohort119.patients]
        for resolution in summary.runs[0].folds:
            assert min(ages) <= resolution.norm_min < resolution.norm_max <= max(ages)

    def test_no_leakage_from_test_fold_labels(self):
        # flipping test-fold mrs values in fold 0 must not move fold 0's thresholds
        cohort = small_cohort(n=20, seed=8)
        plan = CvPlan(k=2, n_runs=1, base_seed=13, stratified=False)
        to_flip = set(cohort.ids[make_folds(cohort, plan, 0) == 0][:2].tolist())
        flipped_patients = tuple(
            replace(p, mrs=(5 if binarize_mrs(p.mrs) == OutcomeLabel.GOOD else 1))
            if p.patient_id in to_flip
            else p
            for p in cohort.patients
        )
        flipped = Cohort(module_names=cohort.module_names, patients=flipped_patients)
        base = evaluate_model(cohort, plan, UNWEIGHTED)
        poisoned = evaluate_model(flipped, plan, UNWEIGHTED)
        assert poisoned.runs[0].folds[0] == base.runs[0].folds[0]

    def test_fixed_thresholds_skip_search(self, cohort119):
        config = FusionConfig(
            clinical_variable="none", prelim_threshold=0.4, final_threshold=0.4, strategy="fixed"
        )
        summary = evaluate_model(cohort119, CvPlan(k=5, n_runs=1, base_seed=1), config)
        for resolution in summary.runs[0].folds:
            assert resolution.prelim_threshold == 0.4
            assert resolution.final_threshold == 0.4

    def test_invalid_cohort_rejected(self):
        bad = Cohort(
            module_names=("ADC",),
            patients=(PatientRecord("a", 50.0, 3, (1.4,), 2),),
        )
        with pytest.raises(ValidationError):
            evaluate_model(bad, CvPlan(k=2, n_runs=1, base_seed=0), UNWEIGHTED)

    def test_model_names(self, cohort119):
        plan = CvPlan(k=5, n_runs=1, base_seed=0)
        assert evaluate_model(cohort119, plan, UNWEIGHTED).model == "ensemble"
        assert (
            evaluate_model(cohort119, plan, FusionConfig(clinical_variable="nihss")).model
            == "ensemble_w_nihss"
        )


def _seed_fused(rows, normalizer, prelim_threshold):
    """The rows' fused probabilities from the scalar oracle, the covariate scaled by ``normalize_clinical``."""
    covariate = None
    if normalizer is not None:
        covariate = normalize_clinical(rows.covariate(normalizer.variable), normalizer)
    return np.array(scalar_fusion(rows.probs, covariate, prelim_threshold)[2])


def _seed_searched(value, what):
    if not 0.0 < value < 1.0:
        raise DegenerateDataError(f"{what} threshold search collapsed to the boundary ({value})")
    return value


def _seed_resolve(train, fold_index, config):
    """One training fold resolved from its own rows, without the library's fold resolution: bounds from the
    covariate's min and max, the preliminary cut searched over every module score, then the final cut searched
    over the fused training scores, with the library's failure lines in that order."""
    truth = train.outcomes()
    normalizer = config.normalizer
    if config.clinical_variable != "none" and normalizer is None:
        values = train.covariate(config.clinical_variable)
        lo, hi = float(values.min()), float(values.max())
        if not hi > lo:
            raise DegenerateDataError(
                f"cannot derive normalizer bounds: {config.clinical_variable} is constant at {lo}")
        normalizer = ClinicalNormalizer(config.clinical_variable, lo, hi)
    prelim, final = config.prelim_threshold, config.final_threshold
    if prelim is None:
        scores, truths = train.probs.ravel(), np.repeat(truth, train.probs.shape[1])
        prelim = _seed_searched(search_threshold(scores, truths, config.strategy), "preliminary")
    if final is None:
        fused = _seed_fused(train, normalizer, prelim)
        final = _seed_searched(search_threshold(fused, truth, config.strategy), "final")
    bounds = (None, None) if normalizer is None else (normalizer.min, normalizer.max)
    return FoldResolution(fold_index, prelim, final, *bounds), normalizer


def _seed_evaluate_model(cohort, plan, config, model_name):
    """The per-variant loop that evaluate_variants replaced, kept as its oracle.

    Each call validates the cohort, draws its own folds every run, resolves
    every training fold itself and fuses with the scalar oracle.
    """
    truth = cohort.outcomes()
    runs, failures = [], []
    for run_index in range(plan.n_runs):
        try:
            resolutions = []
            fused = np.empty(len(cohort))
            predicted = np.empty(len(cohort), dtype=np.int8)
            fold_of = make_folds(cohort, plan, run_index)
            for fold_index in range(plan.k):
                resolution, normalizer = _seed_resolve(take(cohort, np.flatnonzero(fold_of != fold_index)),
                                                       fold_index, config)
                resolutions.append(resolution)
                test = np.flatnonzero(fold_of == fold_index)
                fused[test] = _seed_fused(take(cohort, test), normalizer, resolution.prelim_threshold)
                predicted[test] = fused[test] > resolution.final_threshold
            run_report = report(predicted=predicted, fused_probs=fused, truth=truth)
            runs.append(RunResult(run_index=run_index, metrics=run_report, folds=tuple(resolutions)))
        except DegenerateDataError as exc:
            failures.append(f"run {run_index}: {exc}")
    return RunSummary(model_name, plan, config, tuple(runs), tuple(failures))


class TestResolveFoldConfig:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
    def test_single_module_fused_scores_are_the_module_scores(self, seed, weighted):
        rng = np.random.default_rng(seed)
        n = 40
        edges = np.array([0.0, 1.0, 0.5, 5e-324, 1 - 2**-53, 0.5 + 2**-52])
        probs = np.where(rng.random(n) < 0.3, rng.choice(edges, n), rng.random(n))[:, None]
        covariate = np.where(rng.random(n) < 0.3, rng.choice([0.0, 1.0], n), rng.random(n)) if weighted else None
        prelim = float(rng.choice([0.5, float(rng.random())]))
        _, _, fused = fuse_matrix(probs, covariate, prelim)
        assert fused.tobytes() == probs[:, 0].tobytes()

    @pytest.mark.parametrize("module_names, searches", [(("ADC",), 1), (("ADC", "CBF"), 2)])
    @pytest.mark.parametrize("variable", ["none", "nihss"])
    def test_single_module_searches_once(self, monkeypatch, module_names, searches, variable):
        calls = []
        search = mrsfuse.crossval.search_threshold
        monkeypatch.setattr(mrsfuse.crossval, "search_threshold", lambda *a: calls.append(a) or search(*a))
        train = small_cohort(n=30, seed=4, module_names=module_names)
        resolve_fold_config(train, FusionConfig(variable))
        assert len(calls) == searches

    def test_normalizer_bounds_need_training_covariates_that_vary(self):
        train = small_cohort(n=12, seed=4)
        constant = Cohort.of_columns(train.module_names, train.ids, train.probs, train.age, np.full(12, 7), train.mrs)
        with pytest.raises(DegenerateDataError, match="^cannot derive normalizer bounds: nihss is constant at 7.0$"):
            resolve_fold_config(constant, FusionConfig("nihss"))
        fixed = FusionConfig("age", prelim_threshold=0.5, final_threshold=0.5, strategy="fixed")
        with pytest.raises(ValidationError, match="^cannot derive normalizer bounds from an empty patient list$"):
            mrsfuse.crossval.resolve_folds(train, [np.array([], dtype=np.int64)], fixed, None)


class TestFuseByFold:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), variable=st.sampled_from(["none", "nihss", "age"]),
           int_bounds=st.booleans())
    def test_a_fold_index_equals_a_fold_array_of_it(self, seed, variable, int_bounds):
        # fold 0 for every row, given as the index alone or as an array of zeros, fuses to the same bits
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        probs = np.where(rng.random((n, m)) < 0.3, rng.choice([0.0, 0.5, 1.0], (n, m)), rng.random((n, m)))
        ids = np.array([f"p{i}" for i in range(n)], dtype=object)
        cohort = Cohort.of_columns(tuple(f"M{j}" for j in range(m)), ids, probs, rng.uniform(20.0, 95.0, n),
                                   rng.integers(0, 43, n), rng.integers(0, 7, n))
        lo = int(rng.integers(0, 40))
        hi = lo + int(rng.integers(1, 60))
        bounds = (lo, hi) if int_bounds else (lo + float(rng.random()), hi + float(rng.random()))
        if variable == "none":
            bounds = (None, None)
        resolutions = [FoldResolution(0, float(rng.choice([0.5, rng.random()])), 0.5, *bounds)]
        one = mrsfuse.crossval.fuse_by_fold(cohort, 0, variable, resolutions)
        many = mrsfuse.crossval.fuse_by_fold(cohort, np.zeros(n, dtype=np.intp), variable, resolutions)
        for a, b in zip(one, many):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEvaluateVariants:
    @pytest.mark.parametrize("n", [12, 25, 60])
    @pytest.mark.parametrize("stratified", [True, False])
    def test_equals_the_per_variant_loop(self, n, stratified):
        failed = 0
        for case in range(12):
            rng = np.random.default_rng([n, case])
            m = int(rng.integers(1, 4))
            cohort = generate_cohort(SyntheticSpec(
                n_patients=n,
                prevalence_poor=float(rng.uniform(0.1, 0.5)),
                module_aucs=tuple(rng.uniform(0.5, 0.95, m)),
                module_names=tuple(f"M{j}" for j in range(m)),
                seed=case,
            ))
            if case % 3 == 0:  # coarse scores: heavy ties, some identical training folds
                cohort = Cohort.of_columns(cohort.module_names, cohort.ids, np.round(cohort.probs * 3) / 3,
                                           cohort.age, cohort.nihss, cohort.mrs)
            strategy = ("youden", "max_accuracy")[case % 2]
            weighted = FusionConfig(("nihss", "age")[case % 2], strategy=strategy,
                                    prelim_threshold=0.4 if case % 4 == 3 else None)
            unweighted = replace(weighted, clinical_variable="none")
            # the paths a fold-invariant variant must keep equal: a given final threshold, the fixed
            # strategy (weighted or not), and a weighted config that reads one module
            fixed = FusionConfig(("none", "age")[case // 2 % 2], prelim_threshold=0.4, final_threshold=0.45,
                                 strategy="fixed")
            plan = CvPlan(k=int(rng.integers(2, 6)), n_runs=4, base_seed=case, stratified=stratified)
            configs = {name: (UNWEIGHTED, name) for name in cohort.module_names}
            configs.update({"ensemble": (unweighted, None), "weighted": (weighted, None),
                            "final_given": (replace(unweighted, final_threshold=0.45), None),
                            "fixed": (fixed, None), "weighted_M0": (weighted, "M0")})
            summaries = evaluate_variants(cohort, plan, configs)
            assert all(run.metrics.degenerate == () for summary in summaries.values() for run in summary.runs)
            got = {name: summary.as_dict() for name, summary in summaries.items()}
            expected = {
                name: _seed_evaluate_model(cohort.single_module_view(name), plan, UNWEIGHTED, name).as_dict()
                for name in cohort.module_names
            }
            for name, (config, module) in list(configs.items())[m:]:
                rows = cohort if module is None else cohort.single_module_view(module)
                expected[name] = _seed_evaluate_model(rows, plan, config, name).as_dict()
            assert got == expected
            failed += sum(len(summary["failures"]) for summary in got.values())
        assert failed > 0

    def test_failures_stay_per_variant(self):
        cohort = small_cohort(n=16, seed=2, module_names=("ADC", "CBF"))
        flat = Cohort.of_columns(cohort.module_names, cohort.ids, cohort.probs.copy(), cohort.age, cohort.nihss,
                                 cohort.mrs)
        flat.probs[:, 0] = 0.5  # ADC alone cannot be searched
        plan = CvPlan(k=4, n_runs=2, base_seed=0)
        summaries = evaluate_variants(flat, plan, {"ADC": (UNWEIGHTED, "ADC"), "CBF": (UNWEIGHTED, "CBF")})
        assert summaries["ADC"].failures == (
            "run 0: cannot search a threshold over identical scores",
            "run 1: cannot search a threshold over identical scores",
        )
        assert summaries["CBF"].failures == () and len(summaries["CBF"].runs) == 2

    def test_earliest_fold_error_names_the_run(self):
        # fold 0 collapses in its final search, fold 1 already in its preliminary one;
        # the run reports fold 0's error, as resolving fold by fold meets it first
        probs = [(0.4, 0.6), (0.6, 0.2), (0.4, 0.8), (0.6, 0.2), (0.4, 0.4), (0.2, 0.4)]
        mrs = [6, 1, 1, 1, 4, 5]
        patients = [PatientRecord(f"p{i}", 60.0, 5, p, grade) for i, (p, grade) in enumerate(zip(probs, mrs))]
        cohort = Cohort(module_names=("A", "B"), patients=patients)
        plan = CvPlan(k=3, n_runs=1, base_seed=0)
        fold_of = make_folds(cohort, plan, 0)
        with pytest.raises(DegenerateDataError, match=r"^preliminary threshold search collapsed"):
            resolve_fold_config(take(cohort, np.flatnonzero(fold_of != 1)), UNWEIGHTED)
        summary = evaluate_variants(cohort, plan, {"ensemble": (UNWEIGHTED, None)})["ensemble"]
        assert summary.failures == ("run 0: final threshold search collapsed to the boundary (0.0)",)
        assert summary.as_dict() == _seed_evaluate_model(cohort, plan, UNWEIGHTED, "ensemble").as_dict()

    def test_one_fusion_per_variant_and_run(self, monkeypatch, cohort119):
        # rows fused per call, in call order: each fold-invariant variant, one-module ones included,
        # fuses all n rows once per cohort, before any run;
        # per run, a weighted variant that searches its final threshold fuses each training
        # fold's rows, fold by fold, and every weighted variant then fuses all n test rows
        sizes, aucs = [], []
        fuse, area = mrsfuse.crossval.fuse_matrix, mrsfuse.metrics.auc
        monkeypatch.setattr(mrsfuse.crossval, "fuse_matrix",
                            lambda probs, *args: sizes.append(len(probs)) or fuse(probs, *args))
        for module in (mrsfuse.crossval, mrsfuse.metrics):
            monkeypatch.setattr(module, "auc", lambda scores, *args: aucs.append(len(scores)) or area(scores, *args))
        views, of_columns = [], Cohort.of_columns

        def full_length(cls, module_names, ids, *columns):
            # a fold copy is a cohort of fewer rows; the module views keep every row
            if len(ids) < len(cohort119):
                pytest.fail("a fold was copied")
            views.append(module_names)
            return of_columns(module_names, ids, *columns)

        monkeypatch.setattr(Cohort, "of_columns", classmethod(full_length))
        plan = CvPlan(k=5, n_runs=3, base_seed=2)
        fixed_final = FusionConfig("nihss", prelim_threshold=0.4, final_threshold=0.45, strategy="fixed")
        configs = {name: (UNWEIGHTED, name) for name in cohort119.module_names}
        configs.update({"ensemble": (UNWEIGHTED, None), "weighted": (FusionConfig("age"), None),
                        "fixed": (fixed_final, None)})
        summaries = evaluate_variants(cohort119, plan, configs)
        assert all(not summary.failures for summary in summaries.values())
        assert views == [(name,) for name in cohort119.module_names]  # the guard saw every view built
        n = len(cohort119)
        invariant = [name for name in configs if name in cohort119.module_names or name == "ensemble"]
        expected = [n] * len(invariant)
        for run_index in range(plan.n_runs):
            expected += (n - np.bincount(make_folds(cohort119, plan, run_index))).tolist() + [n]  # weighted
            expected.append(n)  # fixed
        assert sizes == expected
        assert aucs == [n] * (len(invariant) + plan.n_runs * (len(configs) - len(invariant)))

    def test_integer_bounds_of_an_overflowing_span_equal_float_bounds(self, cohort119):
        # an int64 span 2**62 - -2**62 would wrap, so every covariate would scale to 0 instead of 0.5
        plan = CvPlan(k=5, n_runs=3, base_seed=1)
        summaries = [evaluate_model(cohort119, plan, FusionConfig("nihss", ClinicalNormalizer("nihss", -bound, bound)))
                     for bound in (2**62, 2.0**62)]
        assert summaries[0].runs and summaries[0].as_dict() == summaries[1].as_dict()

    def test_non_string_module_name_is_a_validation_error(self):
        cohort = Cohort(module_names=(3,), patients=[PatientRecord("a", 60.0, 5, (0.3,), 1)])
        with pytest.raises(ValidationError, match="module names must be strings, got 3"):
            evaluate_variants(cohort, CvPlan(k=2, n_runs=1), {"ensemble": (UNWEIGHTED, None)})

    def test_unknown_module(self, cohort119):
        with pytest.raises(ConfigError, match="unknown module"):
            evaluate_variants(cohort119, CvPlan(k=5, n_runs=1), {"x": (UNWEIGHTED, "XYZ")})


class TestEvaluatePerModule:
    def test_column_slice_equals_single_module_cohort(self, cohort119):
        plan = CvPlan(k=5, n_runs=2, base_seed=4)
        per_module = evaluate_per_module(cohort119, plan)
        for name in cohort119.module_names:
            view = evaluate_variants(cohort119.single_module_view(name), plan, {name: (UNWEIGHTED, None)})[name]
            assert per_module[name].as_dict() == view.as_dict()

    def test_single_module_equals_ensemble_of_one(self, cohort119):
        plan = CvPlan(k=5, n_runs=2, base_seed=9)
        view = cohort119.single_module_view("DWI")
        per_module = evaluate_per_module(view, plan)
        direct = evaluate_model(view, plan, UNWEIGHTED)
        assert set(per_module) == {"DWI"}
        assert per_module["DWI"].run_values("auc") == direct.run_values("auc")

    def test_perfect_module(self):
        cohort = small_cohort(n=16, seed=2, module_names=("ADC",))
        patients = tuple(
            replace(p, module_probs=(0.9 if binarize_mrs(p.mrs) == OutcomeLabel.POOR else 0.1,))
            for p in cohort.patients
        )
        perfect = Cohort(module_names=("ADC",), patients=patients)
        summary = evaluate_per_module(perfect, CvPlan(k=4, n_runs=2, base_seed=0))["ADC"]
        assert summary.mean("auc") == 1.0

    def test_constant_module_flagged(self):
        cohort = small_cohort(n=16, seed=2, module_names=("ADC",))
        patients = tuple(replace(p, module_probs=(0.5,)) for p in cohort.patients)
        constant = Cohort(module_names=("ADC",), patients=patients)
        summary = evaluate_per_module(constant, CvPlan(k=4, n_runs=2, base_seed=0))["ADC"]
        assert summary.runs == ()
        assert len(summary.failures) == 2
        assert "identical scores" in summary.failures[0]
        with pytest.raises(DegenerateDataError):
            summary.mean("auc")

    def test_per_module_auc_near_generator_target(self):
        cohort = generate_cohort(
            SyntheticSpec(n_patients=400, module_aucs=(0.75,), module_names=("DWI",), seed=17)
        )
        summary = evaluate_per_module(cohort, CvPlan(k=5, n_runs=10, base_seed=3))["DWI"]
        assert summary.mean("auc") == pytest.approx(0.75, abs=0.05)


def fabricate_summary(values_by_measure: dict, base_seed=0, model="m") -> RunSummary:
    n_runs = len(next(iter(values_by_measure.values())))
    runs = []
    for i in range(n_runs):
        metrics = MetricReport(
            accuracy=values_by_measure.get("accuracy", [0.5] * n_runs)[i],
            sensitivity=0.5,
            specificity=0.5,
            f1=0.5,
            mae=values_by_measure.get("mae", [0.5] * n_runs)[i],
            auc=values_by_measure.get("auc", [0.5] * n_runs)[i],
            n_patients=10,
        )
        runs.append(RunResult(run_index=i, metrics=metrics, folds=()))
    return RunSummary(
        model=model,
        plan=CvPlan(k=2, n_runs=n_runs, base_seed=base_seed),
        config=UNWEIGHTED,
        runs=tuple(runs),
    )


def compare(a: RunSummary, b: RunSummary, measure: str = "auc"):
    return compare_summary_dicts(a.as_dict(), b.as_dict(), measure)


class TestCompareModels:
    def test_identical_models_p_one(self):
        a = fabricate_summary({"auc": [0.7, 0.72, 0.68]})
        b = fabricate_summary({"auc": [0.7, 0.72, 0.68]})
        result = compare(a, b)
        assert result.p_value == 1.0
        assert result.degenerate

    def test_uniform_dominance_hits_floor(self):
        base = [0.70, 0.71, 0.72, 0.69, 0.73, 0.70, 0.71, 0.68, 0.72, 0.74]
        a = fabricate_summary({"auc": [v + 0.03 * (1 + i % 3) for i, v in enumerate(base)]})
        b = fabricate_summary({"auc": base})
        result = compare(a, b)
        assert result.p_value == pytest.approx(0.001953125, abs=1e-9)

    def test_run_count_mismatch(self):
        a = fabricate_summary({"auc": [0.7, 0.71, 0.72]})
        b = fabricate_summary({"auc": [0.7] * 10})
        with pytest.raises(ConfigError):
            compare(a, b)

    def test_completed_run_indices_mismatch(self):
        a = fabricate_summary({"auc": [0.7, 0.71, 0.72]})
        b = replace(a, runs=a.runs[:1] + a.runs[2:], failures=("run 1: degenerate",))
        with pytest.raises(ConfigError, match="run indices"):
            compare(a, b)

    def test_seed_schedule_mismatch(self):
        a = fabricate_summary({"auc": [0.7, 0.71]}, base_seed=1)
        b = fabricate_summary({"auc": [0.7, 0.72]}, base_seed=2)
        with pytest.raises(ConfigError, match="schedule"):
            compare(a, b)

    def test_unknown_measure(self):
        a = fabricate_summary({"auc": [0.7, 0.71]})
        with pytest.raises(ConfigError):
            compare(a, a, "brier")

    def test_no_completed_runs(self):
        a = replace(fabricate_summary({"auc": [0.7, 0.71]}), runs=(), failures=("run 0: x", "run 1: x"))
        with pytest.raises(DegenerateDataError, match="no completed runs"):
            compare(a, a)


class TestWeightedVersusUnweighted:
    def test_weighted_wins_with_informative_covariate(self, cohort119):
        plan = CvPlan(k=5, n_runs=10, base_seed=20)
        weighted = evaluate_model(cohort119, plan, FusionConfig(clinical_variable="nihss"))
        unweighted = evaluate_model(cohort119, plan, UNWEIGHTED)
        wins = sum(
            w > u for w, u in zip(weighted.run_values("auc"), unweighted.run_values("auc"))
        )
        assert wins >= 8
