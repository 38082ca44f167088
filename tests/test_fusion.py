"""Fusion engine: labels, weights, fused score, thresholds, full pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mrsfuse import (
    ClinicalNormalizer,
    ConfigError,
    DegenerateDataError,
    FusionConfig,
    OutcomeLabel,
    PatientRecord,
    ValidationError,
    classify,
    compute_weights,
    derive_labels,
    fuse,
    fuse_patient,
    uniform_weights,
)
from mrsfuse.cohort import normalize_clinical
from mrsfuse.crossval import _presort
from mrsfuse.fusion import (
    FUSE_BLOCK_ROWS, WEIGHT_SUM_TOL, FusionResult, fuse_matrix, search_sorted_threshold, search_threshold,
)
from conftest import (
    REFERENCE_PRELIM_THRESHOLD,
    TABLE_CONSISTENT_FINAL_THRESHOLD,
    ReferenceRow,
    REFERENCE_ROWS,
    panel_bounds,
    transient_peak,
)

GOOD = OutcomeLabel.GOOD
POOR = OutcomeLabel.POOR


def labels(text: str) -> list[OutcomeLabel]:
    return [POOR if ch == "p" else GOOD for ch in text]


def reference_config(panel: str, final_threshold: float = TABLE_CONSISTENT_FINAL_THRESHOLD) -> FusionConfig:
    lo, hi = panel_bounds(panel)
    return FusionConfig(
        clinical_variable=panel,
        normalizer=ClinicalNormalizer(variable=panel, min=lo, max=hi),
        prelim_threshold=REFERENCE_PRELIM_THRESHOLD,
        final_threshold=final_threshold,
        strategy="fixed",
    )


def reference_patient(row: ReferenceRow) -> PatientRecord:
    return PatientRecord(
        patient_id=row.patient_id,
        age=row.covariate if row.panel == "age" else 70.0,
        nihss=int(row.covariate) if row.panel == "nihss" else 10,
        module_probs=row.probs,
        mrs=row.mrs,
    )


class TestDeriveLabels:
    def test_reference_pattern(self):
        assert derive_labels((0.68, 0.75, 0.74, 0.07, 0.24), 0.40) == tuple(labels("pppgg"))

    def test_boundary_is_good(self):
        assert derive_labels((0.40,), 0.40) == (GOOD,)

    def test_single_poor_module(self):
        assert derive_labels((0.58, 0.39, 0.24, 0.38, 0.22), 0.40) == tuple(labels("pgggg"))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            derive_labels((0.2, 1.4), 0.5)


class TestComputeWeights:
    def test_reference_row_023(self):
        w = compute_weights(labels("pppgg"), 8 / 26)
        assert w == pytest.approx((2 / 15, 2 / 15, 2 / 15, 0.3, 0.3), abs=1e-12)
        assert max(abs(a - b) for a, b in zip(w, (0.13, 0.13, 0.13, 0.30, 0.30))) < 0.01

    def test_saturated_covariate(self):
        assert compute_weights(labels("pgggg"), 1.0) == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_neutral_covariate_is_uniform(self):
        assert compute_weights(labels("pgpgp"), 0.5) == uniform_weights(5)

    @pytest.mark.parametrize(("text", "covariate"), [("ppppp", 0.0), ("ggggg", 1.0)])
    def test_zero_sum_falls_back_to_uniform(self, text, covariate):
        assert compute_weights(labels(text), covariate) == uniform_weights(5)

    def test_homogeneous_labels_uniform_for_any_covariate(self):
        for covariate in (0.1, 0.4, 0.9):
            assert compute_weights(labels("ppppp"), covariate) == pytest.approx(uniform_weights(5))
            assert compute_weights(labels("ggggg"), covariate) == pytest.approx(uniform_weights(5))

    def test_empty_labels(self):
        with pytest.raises(ValidationError):
            compute_weights([], 0.5)

    def test_covariate_out_of_range(self):
        with pytest.raises(ValidationError):
            compute_weights(labels("pg"), 1.5)

    @pytest.mark.parametrize(("n", "shown"), [(True, "True"), (2.0, "2.0"), ("3", "'3'")])
    def test_uniform_weights_needs_an_integer_count(self, n, shown):
        with pytest.raises(ValidationError) as caught:
            uniform_weights(n)
        assert str(caught.value) == f"module count must be an integer, got {shown}"


class TestFuse:
    def test_uniform_average(self):
        probs = (0.68, 0.75, 0.74, 0.07, 0.24)
        assert fuse(probs, uniform_weights(5)) == pytest.approx(0.496, abs=1e-12)

    def test_weighted_dot_product(self):
        probs = (0.68, 0.75, 0.74, 0.07, 0.24)
        weights = (2 / 15, 2 / 15, 2 / 15, 0.3, 0.3)
        assert fuse(probs, weights) == pytest.approx(0.3823333333333, abs=1e-10)

    def test_constant_probs_fuse_to_constant(self):
        weights = compute_weights(labels("pgpgp"), 0.7)
        assert fuse((0.3,) * 5, weights) == pytest.approx(0.3, abs=1e-12)

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValidationError):
            fuse((0.5, 0.5), (0.6, 0.399))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            fuse((0.5, 0.5), (1.0,))

    @pytest.mark.parametrize(("weights", "message"), [
        ((math.nan, math.nan), "weights must sum to 1 within 1e-09, got nan"),
        ((0.5, math.nan), "weights must sum to 1 within 1e-09, got nan"),
        ((1.5, -0.5), "weight must be in [0, 1], got 1.5"),
        ((-0.25, 1.25), "weight must be in [0, 1], got -0.25"),
    ])
    def test_rejects_nan_and_out_of_unit_weights(self, weights, message):
        # [1.5, -0.5] sums to one but would fuse 0.2 and 0.8 to -0.1, outside their range
        with pytest.raises(ValidationError) as raised:
            fuse((0.2, 0.8), weights)
        assert str(raised.value) == message


class TestClassify:
    def test_boundary_is_good(self):
        assert classify(0.40, 0.40) == GOOD

    def test_above_is_poor(self):
        assert classify(0.496, 0.40) == POOR

    def test_below_is_good(self):
        assert classify(0.3823, 0.40) == GOOD

    def test_numpy_scalars_are_numbers(self):
        assert classify(np.float32(0.5), np.float64(0.4)) == POOR


@pytest.mark.parametrize(("call", "message"), [
    (lambda: classify(0.5, "x"), "threshold must be a real number, got 'x'"),
    (lambda: classify("x", 0.5), "fused_probability must be a real number, got 'x'"),
    (lambda: classify(0.5, 10**400), f"threshold must be a real number, got {10**400!r}"),
    (lambda: derive_labels([0.5], "x"), "threshold must be a real number, got 'x'"),
    (lambda: derive_labels(["0.5"], 0.4), "probs[0] must be a real number, got '0.5'"),
    (lambda: derive_labels([0.5, True], 0.4), "probs[1] must be a real number, got True"),
    (lambda: compute_weights([GOOD], "x"), "covariate must be a real number, got 'x'"),
    (lambda: compute_weights([GOOD, POOR], True), "covariate must be a real number, got True"),
    (lambda: fuse(["0.5"], [1.0]), "probs[0] must be a real number, got '0.5'"),
    (lambda: fuse([0.5], [True]), "weights[0] must be a real number, got True"),
    (lambda: fuse([None], [1.0]), "probs[0] must be a real number, got None"),
], ids=["classify_text_threshold", "classify_text_probability", "classify_huge_int", "labels_text_threshold",
        "labels_text_prob", "labels_bool_prob", "weights_text_covariate", "weights_bool_covariate", "fuse_text_prob",
        "fuse_bool_weight", "fuse_none_prob"])
def test_one_row_functions_name_an_argument_that_is_no_number(call, message):
    # text, bools, None and ints beyond float range were read as numbers, or escaped as numpy or Python errors
    with pytest.raises(ValidationError) as raised:
        call()
    assert str(raised.value) == message


class TestSearchThreshold:
    def test_perfect_separation(self):
        t = search_threshold([0.1, 0.2, 0.8, 0.9], labels("ggpp"))
        assert t == 0.5

    def test_four_point_case_frozen(self):
        # brute-force scan over the 5 candidates picks 0.25 (tied with 0.75,
        # resolved toward the smaller candidate) for both criteria
        scores, truths = [0.1, 0.6, 0.4, 0.9], labels("ggpp")
        assert search_threshold(scores, truths, "youden") == 0.25
        assert search_threshold(scores, truths, "max_accuracy") == 0.25

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(404)
        checked = 0
        for case in range(240):
            n = int(rng.integers(4, 25)) if case < 200 else int(rng.integers(25, 2001))
            # coarse rounding makes heavy ties; the ends of [0, 1] are always possible
            decimals = int(rng.integers(1, 4))
            scores = np.round(rng.random(n), decimals)
            scores[rng.random(n) < 0.05] = 0.0
            scores[rng.random(n) < 0.05] = 1.0
            scores = scores.tolist()
            truths = [POOR if poor else GOOD for poor in rng.random(n) < rng.uniform(0.1, 0.9)]
            if len(set(truths)) < 2 or len(set(scores)) < 2:
                continue
            checked += 1
            for strategy in ("youden", "max_accuracy"):
                got = search_threshold(scores, truths, strategy)
                assert got == pytest.approx(_oracle_search(scores, truths, strategy), abs=0.0)
        assert checked > 200

    def test_presorted_training_folds_match_bruteforce_oracle(self):
        # cross-validation searches a training fold as a masked subsequence of
        # scores sorted once per cohort: every column alone, and all raveled
        rng = np.random.default_rng(405)
        checked = 0
        for case in range(120):
            n, m = int(rng.integers(4, 40)), int(rng.integers(1, 6))
            probs = np.round(rng.random((n, m)), int(rng.integers(1, 3)))
            probs[rng.random((n, m)) < 0.08] = 0.0
            probs[rng.random((n, m)) < 0.08] = 1.0
            truth = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int8)
            in_train = rng.random(n) < rng.uniform(0.5, 0.9)
            for columns in [slice(None)] + [slice(j, j + 1) for j in range(m)]:
                view = probs[:, columns]
                scores, rows, truths = _presort(view, truth)
                keep = in_train[rows]
                train_scores = view[in_train].ravel().tolist()
                train_truths = [POOR if t else GOOD for t in np.repeat(truth[in_train], view.shape[1])]
                for strategy in ("youden", "max_accuracy"):
                    try:
                        expected = search_threshold(train_scores, train_truths, strategy)
                    except DegenerateDataError as exc:
                        with pytest.raises(DegenerateDataError, match=str(exc)):
                            search_sorted_threshold(scores[keep], truths[keep], strategy)
                        continue
                    checked += 1
                    got = search_sorted_threshold(scores[keep], truths[keep], strategy)
                    assert got == expected == _oracle_search(train_scores, train_truths, strategy)
        assert checked > 500

    def test_midpoint_rounding_onto_the_larger_score(self):
        # (a + b) / 2 rounds to b for adjacent doubles, so the midpoint cut
        # keeps both scores at or below it; counting by group ends would not
        a, b = 0.5 + 2**-53, 0.5 + 2**-52
        assert (a + b) / 2 == b
        truths = labels("gp")
        for strategy in ("youden", "max_accuracy"):
            assert _oracle_search([a, b], truths, strategy) == 0.0
            assert search_threshold([a, b], truths, strategy) == 0.0
            scores, _, poor = _presort(np.array([[b], [a]]), np.array([1, 0], dtype=np.int8))
            assert search_sorted_threshold(scores, poor, strategy) == 0.0

    def test_accepts_arrays(self):
        scores = np.array([0.1, 0.6, 0.4, 0.9])
        assert search_threshold(scores, np.array([0, 0, 1, 1], dtype=np.int8)) == 0.25

    def test_single_class_error(self):
        with pytest.raises(DegenerateDataError, match="class"):
            search_threshold([0.1, 0.9], [GOOD, GOOD])

    def test_identical_scores_error(self):
        with pytest.raises(DegenerateDataError, match="identical"):
            search_threshold([0.5, 0.5, 0.5], labels("pgg"))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            search_threshold([0.1, 0.9], labels("gp"), "fixed")

    def test_midpoints_beyond_float_range_do_not_warn(self):
        # the sum of two neighbours overflows to inf, or is NaN for -inf and inf; the warnings are errors here
        assert search_threshold([1e308, 1.7e308], [POOR, GOOD]) == 0.0
        assert math.isnan(search_threshold([-math.inf, math.inf], [POOR, GOOD]))


def _oracle_search(scores, truths, strategy):
    distinct = sorted(set(scores))
    candidates = [0.0] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])] + [1.0]
    s = np.asarray(scores)
    poor = np.asarray([y == POOR for y in truths])
    best_t, best_v = None, None
    for t in candidates:
        tp = int(np.sum(poor & (s > t)))
        fn = int(np.sum(poor & (s <= t)))
        tn = int(np.sum(~poor & (s <= t)))
        fp = int(np.sum(~poor & (s > t)))
        if strategy == "youden":
            v = tp / (tp + fn) + tn / (tn + fp) - 1
        else:
            v = (tp + tn) / len(scores)
        if best_v is None or v > best_v + 1e-15:
            best_t, best_v = t, v
    return best_t


class TestFusionConfig:
    def test_fixed_requires_thresholds(self):
        with pytest.raises(ConfigError):
            FusionConfig(strategy="fixed")

    def test_none_variable_rejects_normalizer(self):
        with pytest.raises(ConfigError):
            FusionConfig(
                clinical_variable="none",
                normalizer=ClinicalNormalizer(variable="age", min=0, max=1),
            )

    def test_normalizer_variable_must_match(self):
        with pytest.raises(ConfigError):
            FusionConfig(
                clinical_variable="age",
                normalizer=ClinicalNormalizer(variable="nihss", min=0, max=26),
            )

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.7, float("nan"), True, "0.4"])
    def test_thresholds_must_be_interior(self, value):
        with pytest.raises(ConfigError):
            FusionConfig(prelim_threshold=value)

    @pytest.mark.parametrize("config", [
        FusionConfig(clinical_variable="none"),
        FusionConfig(clinical_variable="none", final_threshold=0.4),
        FusionConfig(clinical_variable="none", prelim_threshold=0.4),
        # both thresholds, but a weighted config needs its normalizer too
        FusionConfig(clinical_variable="nihss", prelim_threshold=0.4, final_threshold=0.4),
    ], ids=["none", "prelim_missing", "final_missing", "normalizer_missing"])
    def test_unresolved_config_rejected_by_fuse_patient(self, config):
        record = reference_patient(REFERENCE_ROWS[0])
        with pytest.raises(ConfigError, match=r"^fusion config is not resolved: thresholds or normalizer missing$"):
            fuse_patient(record, config)


class TestFusePatient:
    @pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: f"{r.panel}-{r.patient_id}")
    def test_reference_rows_reproduce(self, row: ReferenceRow):
        result = fuse_patient(reference_patient(row), reference_config(row.panel))
        assert max(abs(a - b) for a, b in zip(result.weights, row.printed_weights)) < 0.01
        assert result.fused_probability == pytest.approx(row.fused_expected, abs=1e-9)
        assert str(result.final_label) == row.label_weighted
        assert row.label_weighted == row.gs_outcome  # every printed row is a corrected one

    @pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: f"{r.panel}-{r.patient_id}")
    def test_reference_rows_unweighted_column(self, row: ReferenceRow):
        config = FusionConfig(
            clinical_variable="none",
            prelim_threshold=REFERENCE_PRELIM_THRESHOLD,
            final_threshold=REFERENCE_PRELIM_THRESHOLD,
            strategy="fixed",
        )
        result = fuse_patient(reference_patient(row), config)
        assert result.weights == uniform_weights(5)
        assert str(result.final_label) == row.label_unweighted

    def test_patient_046_age_panel_poor_at_standard_threshold(self):
        row = next(r for r in REFERENCE_ROWS if r.panel == "age" and r.patient_id == "046")
        result = fuse_patient(reference_patient(row), reference_config("age", final_threshold=0.40))
        assert result.weights == pytest.approx((0.0878, 0.0878, 0.3683, 0.3683, 0.0878), abs=5e-4)
        assert str(result.final_label) == "poor"

    def test_neutral_covariate_equals_unweighted(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            probs = tuple(np.round(rng.random(5), 3))
            record = PatientRecord("x", age=55.0, nihss=13, module_probs=probs, mrs=1)
            weighted = fuse_patient(
                record,
                FusionConfig(
                    clinical_variable="nihss",
                    normalizer=ClinicalNormalizer(variable="nihss", min=0, max=26),
                    prelim_threshold=0.4,
                    final_threshold=0.4,
                    strategy="fixed",
                ),
            )
            unweighted = fuse_patient(
                record,
                FusionConfig(
                    clinical_variable="none",
                    prelim_threshold=0.4,
                    final_threshold=0.4,
                    strategy="fixed",
                ),
            )
            # nihss 13 normalizes to exactly 0.5, so the two pipelines coincide
            assert weighted.weights == unweighted.weights
            assert weighted.fused_probability == unweighted.fused_probability

    @pytest.mark.parametrize("nihss, clamps_like, fused", [(10**400, 43, 0.6), (-10**400, -1, 0.3)],
                             ids=["above", "below"])
    def test_nihss_beyond_float_range_clamps(self, nihss, clamps_like, fused):
        # an int too large for a float clamps like any grade outside the bounds instead of overflowing
        config = FusionConfig("nihss", ClinicalNormalizer("nihss", 0, 42), 0.4, 0.4, "fixed")
        got, expected = (fuse_patient(PatientRecord("a", 50.0, grade, (0.3, 0.6), 2), config)
                         for grade in (nihss, clamps_like))
        assert got == expected and got.fused_probability == fused

    @pytest.mark.parametrize("age", [10**400, -10**400], ids=["above", "below"])
    def test_age_beyond_float_range_is_rejected(self, age):
        config = FusionConfig("age", ClinicalNormalizer("age", 0, 100), 0.4, 0.4, "fixed")
        with pytest.raises(ValidationError) as caught:
            fuse_patient(PatientRecord("a", age, 5, (0.3, 0.6), 2), config)
        assert str(caught.value) == f"a: age: age must be a finite value >= 0, got {age!r}"

    def test_uniform_average_of_constant_probs(self):
        record = PatientRecord("x", age=50.0, nihss=5, module_probs=(0.5,) * 5, mrs=None)
        config = FusionConfig(
            clinical_variable="none", prelim_threshold=0.4, final_threshold=0.4, strategy="fixed"
        )
        assert fuse_patient(record, config).fused_probability == pytest.approx(0.5, abs=1e-12)


class TestWeightInvariants:
    def test_randomized_invariants(self):
        rng = np.random.default_rng(2718)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            label_vec = [POOR if rng.random() < 0.5 else GOOD for _ in range(n)]
            covariate = float(rng.random())
            weights = compute_weights(label_vec, covariate)
            assert abs(sum(weights) - 1.0) <= 1e-9
            assert all(w >= 0.0 for w in weights)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            probs = rng.random(6)
            covariate = float(rng.random())
            threshold = float(rng.random())
            perm = rng.permutation(6)
            base_labels = derive_labels(probs, threshold)
            base_weights = compute_weights(base_labels, covariate)
            perm_labels = derive_labels(probs[perm], threshold)
            perm_weights = compute_weights(perm_labels, covariate)
            assert perm_labels == tuple(base_labels[i] for i in perm)
            assert perm_weights == pytest.approx(
                tuple(base_weights[i] for i in perm), abs=1e-12
            )
            assert fuse(probs[perm], perm_weights) == pytest.approx(
                fuse(probs, base_weights), abs=1e-12
            )

    def test_fused_score_monotone_in_covariate(self):
        rng = np.random.default_rng(97)
        for _ in range(500):
            probs = rng.random(5)
            threshold = float(rng.random())
            label_vec = derive_labels(probs, threshold)
            if len(set(label_vec)) < 2:
                continue
            c1, c2 = sorted(rng.random(2))
            f1 = fuse(probs, compute_weights(label_vec, c1))
            f2 = fuse(probs, compute_weights(label_vec, c2))
            assert f2 >= f1 - 1e-12

    def test_fused_bounded_by_prob_range(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            probs = rng.random(5)
            weights = compute_weights(derive_labels(probs, 0.5), float(rng.random()))
            fused = fuse(probs, weights)
            assert probs.min() - 1e-12 <= fused <= probs.max() + 1e-12


# The scalar pipeline as it stood before the public functions became one-row
# calls of the fusion kernel, kept unchanged as the kernel's independent oracle.

def _oracle_derive_labels(probs, threshold):
    for p in probs:
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValidationError(f"module probability must be in [0, 1], got {p!r}")
    return tuple(OutcomeLabel.GOOD if p <= threshold else OutcomeLabel.POOR for p in probs)


def _oracle_compute_weights(labels, covariate):
    if len(labels) == 0:
        raise ValidationError("cannot weight an empty label list")
    if not (math.isfinite(covariate) and 0.0 <= covariate <= 1.0):
        raise ValidationError(f"covariate must be in [0, 1], got {covariate!r}")
    raw = [covariate if label == OutcomeLabel.POOR else 1.0 - covariate for label in labels]
    total = sum(raw)
    if total == 0.0:
        return _oracle_uniform_weights(len(labels))
    return tuple(value / total for value in raw)


def _oracle_uniform_weights(n):
    if n <= 0:
        raise ValidationError("cannot weight an empty module list")
    return (1.0 / n,) * n


def _oracle_fuse(probs, weights):
    if len(probs) != len(weights):
        raise ValidationError(f"length mismatch: {len(probs)} probabilities vs {len(weights)} weights")
    if len(probs) == 0:
        raise ValidationError("cannot fuse an empty probability list")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {sum(weights)!r}")
    return float(sum(w * p for w, p in zip(weights, probs)))


def _oracle_classify(fused_probability, threshold):
    return OutcomeLabel.GOOD if fused_probability <= threshold else OutcomeLabel.POOR


def _scalar_fusion(probs, covariate, threshold):
    """Row-by-row oracle for fuse_matrix: the scalar label, weight and fuse steps."""
    votes, weights, fused = [], [], []
    for i, row in enumerate(probs.tolist()):
        labels = _oracle_derive_labels(row, threshold)
        w = _oracle_uniform_weights(len(row)) if covariate is None else _oracle_compute_weights(labels, covariate[i])
        votes.append([label == POOR for label in labels])
        weights.append(w)
        fused.append(_oracle_fuse(row, w))
    return votes, weights, fused


def _raised(call, *args):
    """The (type, message) a call raises, or its result."""
    try:
        return call(*args)
    except (ValidationError, ConfigError) as exc:
        return type(exc), str(exc)


def _random_rows(rng, count):
    """Probability rows of 1 to 8 modules with 0/1 entries and homogeneous votes, and covariates."""
    for case in range(count):
        m = int(rng.integers(1, 9))
        probs = np.round(rng.random(m), int(rng.integers(1, 4)))
        probs[rng.random(m) < 0.15] = 0.0
        probs[rng.random(m) < 0.15] = 1.0
        if case % 5 == 0:
            probs = np.full(m, rng.choice([0.0, 0.1, 0.9, 1.0]))
        covariate = float(rng.choice([0.0, 0.5, 1.0, rng.random(), rng.random() * 1e-3]))
        threshold = float(rng.choice([0.5, np.round(rng.random(), 2)]))
        yield probs.tolist(), covariate, threshold


class TestOneRowCallsMatchOracle:
    """The public scalar functions are one-row calls of the kernel; the old scalar code is their oracle."""

    def test_randomized_rows_bit_for_bit(self):
        rng = np.random.default_rng(8080)
        for probs, covariate, threshold in _random_rows(rng, 3000):
            labels = derive_labels(probs, threshold)
            assert labels == _oracle_derive_labels(probs, threshold)
            weights = compute_weights(labels, covariate)
            assert weights == _oracle_compute_weights(labels, covariate)
            assert uniform_weights(len(probs)) == _oracle_uniform_weights(len(probs))
            fused = fuse(probs, weights)
            assert fused == _oracle_fuse(probs, weights)
            assert classify(fused, threshold) == _oracle_classify(fused, threshold)
            assert classify(threshold, threshold) == _oracle_classify(threshold, threshold)

    def test_fuse_patient_matches_the_oracle_pipeline(self):
        rng = np.random.default_rng(8081)
        normalizer = ClinicalNormalizer(variable="nihss", min=4, max=20)
        for probs, _, threshold in _random_rows(rng, 600):
            nihss = int(rng.integers(0, 27))
            prelim = threshold if 0.0 < threshold < 1.0 else 0.5
            final = float(rng.choice([prelim, np.round(rng.uniform(0.01, 0.99), 2)]))
            record = PatientRecord("x", age=60.0, nihss=nihss, module_probs=tuple(probs), mrs=None)
            for variable in ("nihss", "none"):
                config = FusionConfig(
                    clinical_variable=variable,
                    normalizer=normalizer if variable == "nihss" else None,
                    prelim_threshold=prelim,
                    final_threshold=final,
                    strategy="fixed",
                )
                labels = _oracle_derive_labels(probs, prelim)
                if variable == "none":
                    weights = _oracle_uniform_weights(len(probs))
                else:
                    weights = _oracle_compute_weights(labels, normalize_clinical(float(nihss), normalizer))
                fused = _oracle_fuse(probs, weights)
                assert fuse_patient(record, config) == FusionResult(
                    labels, weights, fused, _oracle_classify(fused, final)
                )

    @pytest.mark.parametrize(
        ("public", "oracle", "args"),
        [
            (derive_labels, _oracle_derive_labels, ((0.2, 1.4), 0.5)),
            (derive_labels, _oracle_derive_labels, ((-0.0, -1e-300, 0.3), 0.5)),
            (derive_labels, _oracle_derive_labels, ((float("nan"),), 0.5)),
            (derive_labels, _oracle_derive_labels, ((0.1, float("inf")), 0.5)),
            (compute_weights, _oracle_compute_weights, ([POOR, GOOD], 1.5)),
            (compute_weights, _oracle_compute_weights, ([POOR], -0.25)),
            (compute_weights, _oracle_compute_weights, ([GOOD], float("nan"))),
            (compute_weights, _oracle_compute_weights, ([], 0.5)),
            (compute_weights, _oracle_compute_weights, ([], 7.0)),
            (uniform_weights, _oracle_uniform_weights, (0,)),
            (uniform_weights, _oracle_uniform_weights, (-3,)),
            (fuse, _oracle_fuse, ((0.5, 0.5), (0.6, 0.399))),
            (fuse, _oracle_fuse, ((0.5, 0.5), (1.0,))),
            (fuse, _oracle_fuse, ((), ())),
            (fuse, _oracle_fuse, ((0.5,), (float("inf"),))),
            (fuse, _oracle_fuse, ((0.5, 1.5), (0.5, 0.5))),
            (classify, _oracle_classify, (float("nan"), 0.4)),
            (derive_labels, _oracle_derive_labels, ((0.4, 0.6), float("nan"))),
        ],
    )
    def test_edge_inputs_raise_or_return_alike(self, public, oracle, args):
        assert _raised(public, *args) == _raised(oracle, *args)


class TestFuseMatrix:
    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_scalar_pipeline_exactly(self, m, weighted):
        rng = np.random.default_rng(1000 * m + weighted)
        n = 400
        probs = np.round(rng.random((n, m)), 2)
        probs[rng.random((n, m)) < 0.05] = 0.0
        probs[rng.random((n, m)) < 0.05] = 1.0
        # covariates from a normalizer with clamping at both ends, plus exact 0, 0.5 and 1
        normalizer = ClinicalNormalizer(variable="nihss", min=4, max=20)
        covariate = normalize_clinical(rng.integers(0, 27, n).astype(float), normalizer)
        covariate[:30] = 0.0
        covariate[30:60] = 1.0
        covariate[60:70] = 0.5
        # homogeneous votes at c in {0, 1}: the raw sum is zero, so the weights fall back to uniform
        probs[:10] = 0.9
        probs[30:40] = 0.1
        c = covariate if weighted else None
        threshold = float(np.round(rng.random(), 2))
        votes, weights, fused = fuse_matrix(probs, c, threshold)
        oracle_votes, oracle_weights, oracle_fused = _scalar_fusion(probs, c, threshold)
        assert votes.tolist() == oracle_votes
        assert weights.tolist() == [list(w) for w in oracle_weights]
        assert fused.tolist() == oracle_fused
        if weighted:
            assert weights[:10].tolist() == [list(uniform_weights(m))] * 10
            assert weights[30:40].tolist() == [list(uniform_weights(m))] * 10

    @pytest.mark.parametrize("n", [FUSE_BLOCK_ROWS - 1, FUSE_BLOCK_ROWS, FUSE_BLOCK_ROWS + 1, 2 * FUSE_BLOCK_ROWS + 3])
    def test_fused_rows_match_the_scalar_sum_across_product_blocks(self, n):
        # each side of a block boundary: every fused value is the scalar sum, from 0, of its row's products
        rng = np.random.default_rng(n)
        probs = rng.random((n, 5))
        _, weights, fused = fuse_matrix(probs, rng.random(n), 0.5)
        assert fused.tolist() == [sum(w * p for w, p in zip(*row)) for row in zip(weights.tolist(), probs.tolist())]

    @pytest.mark.parametrize("weighted", [True, False])
    def test_peak_is_under_one_matrix_above_the_result(self, weighted):
        # weights are normalized and products summed in place: no (n, m) array beyond the weights returned
        rng = np.random.default_rng(5)
        probs, covariate = rng.random((50_000, 5)), rng.random(50_000)
        _, peak = transient_peak(lambda: fuse_matrix(probs, covariate if weighted else None, 0.5))
        assert peak < probs.nbytes

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValidationError, match="module probability"):
            fuse_matrix(np.array([[0.2, 0.3], [0.4, 1.5]]), None, 0.5)
        with pytest.raises(ValidationError, match="module probability"):
            fuse_matrix(np.array([[0.2, np.nan]]), np.array([0.5]), 0.5)

    def test_rejects_covariate_outside_unit_interval(self):
        with pytest.raises(ValidationError, match="covariate"):
            fuse_matrix(np.array([[0.2, 0.3]]), np.array([1.5]), 0.5)

    def test_rejects_empty_module_list(self):
        with pytest.raises(ValidationError):
            fuse_matrix(np.empty((3, 0)), None, 0.5)

    @pytest.mark.parametrize(("call", "message"), [
        (lambda: fuse_matrix([[0.2, 0.3]], [0.5, 0.5], 0.5), "length mismatch: 1 patients vs covariate shape (2,)"),
        (lambda: fuse_matrix([[0.2, 0.3]], [1.5, 0.5], 0.5), "covariate must be in [0, 1], got 1.5"),
        (lambda: fuse_matrix([0.2, 0.3], None, 0.5), "probabilities must form an (n, m) matrix, got shape (2,)"),
        (lambda: fuse_matrix(0.5, None, 0.5), "probabilities must form an (n, m) matrix, got shape ()"),
        (lambda: fuse_matrix([["0.2"]], None, 0.5), "module probability must be real numbers, got str96 values"),
        (lambda: fuse_matrix([[0.2]], [None], 0.5), "covariate must be real numbers, got object values"),
    ], ids=["covariate_length", "covariate_range_before_length", "one_dimensional", "scalar", "text", "none"])
    def test_rejected_shapes_and_values_are_named(self, call, message):
        # the range is checked with the type, before the shape: a long out-of-range covariate reports the range
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize(("scores", "truths"), [([], []), ([0.1], labels("gp")), ([0.1, 0.9], labels("g"))],
                         ids=["empty", "fewer_scores", "fewer_truths"])
def test_search_threshold_rejects_empty_or_unequal_inputs(scores, truths):
    with pytest.raises(ValidationError, match=r"^scores and truths must be non-empty and equal length$"):
        search_threshold(scores, truths)
