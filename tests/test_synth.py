"""Synthetic cohort generator: determinism, analytic AUC, copula behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mrsfuse import (
    ConfigError,
    OutcomeLabel,
    SyntheticSpec,
    as_plain,
    auc,
    generate_cohort,
    validate_cohort,
    write_cohort_csv,
)
from mrsfuse.cohort import binarize_mrs

from conftest import transient_peak

DEFAULT_TARGETS = (0.69, 0.64, 0.56, 0.71, 0.58)


def module_auc(cohort, index: int) -> float:
    return auc(cohort.probs[:, index], cohort.outcomes())


class TestDeterminism:
    def test_same_spec_same_cohort(self):
        spec = SyntheticSpec(n_patients=60, seed=314)
        assert generate_cohort(spec) == generate_cohort(spec)

    def test_different_seeds_differ(self):
        a = generate_cohort(SyntheticSpec(n_patients=60, seed=1))
        b = generate_cohort(SyntheticSpec(n_patients=60, seed=2))
        assert a != b

    def test_byte_identical_csv(self, tmp_path):
        spec = SyntheticSpec(n_patients=40, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cohort_csv(generate_cohort(spec), p1)
        write_cohort_csv(generate_cohort(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidity:
    def test_generated_cohort_is_valid(self):
        cohort = generate_cohort(SyntheticSpec(n_patients=200, seed=4))
        assert validate_cohort(cohort) == []
        assert len(cohort.patients) == 200
        for p in cohort.patients:
            assert 20.0 <= p.age <= 95.0
            assert 0 <= p.nihss <= 42
            assert all(0.0 < prob < 1.0 for prob in p.module_probs)

    def test_mrs_consistent_with_outcome(self):
        cohort = generate_cohort(SyntheticSpec(n_patients=300, seed=5))
        for p, outcome in zip(cohort.patients, cohort.outcomes()):
            assert binarize_mrs(p.mrs) == outcome
            if outcome == OutcomeLabel.POOR:
                assert 3 <= p.mrs <= 6
            else:
                assert 0 <= p.mrs <= 2

    def test_unique_ids(self):
        cohort = generate_cohort(SyntheticSpec(n_patients=500, seed=6))
        ids = [p.patient_id for p in cohort.patients]
        assert len(set(ids)) == len(ids)


class TestMemory:
    def test_peak_is_under_one_matrix_above_the_cohort(self):
        # the (n, m) scores are squashed in place, so no second (n, m) array outlives the squash
        cohort, peak = transient_peak(lambda: generate_cohort(SyntheticSpec(n_patients=50_000)))
        assert peak < cohort.probs.nbytes


class TestPrevalence:
    @pytest.mark.parametrize("n", [119, 5000])
    def test_within_binomial_99_bounds(self, n):
        spec = SyntheticSpec(n_patients=n, prevalence_poor=0.34, seed=21)
        cohort = generate_cohort(spec)
        poor = int(np.count_nonzero(cohort.outcomes() == OutcomeLabel.POOR))
        margin = 2.576 * math.sqrt(0.34 * 0.66 / n)
        assert abs(poor / n - 0.34) <= margin


class TestAnalyticAuc:
    def test_large_sample_hits_targets(self):
        # binormal construction: true per-module AUC equals the target
        cohort = generate_cohort(
            SyntheticSpec(n_patients=40000, module_aucs=DEFAULT_TARGETS, seed=123)
        )
        for index, target in enumerate(DEFAULT_TARGETS):
            assert module_auc(cohort, index) == pytest.approx(target, abs=0.01)

    def test_cohort_scale_mean_over_ten_seeds(self):
        measured = np.zeros(len(DEFAULT_TARGETS))
        for seed in range(10):
            cohort = generate_cohort(
                SyntheticSpec(n_patients=119, module_aucs=DEFAULT_TARGETS, seed=seed)
            )
            measured += [module_auc(cohort, i) for i in range(len(DEFAULT_TARGETS))]
        measured /= 10
        assert np.max(np.abs(measured - DEFAULT_TARGETS)) <= 0.06

    def test_near_chance_limit(self):
        cohort = generate_cohort(
            SyntheticSpec(n_patients=8000, module_aucs=(0.501,), module_names=("ADC",), seed=9)
        )
        assert module_auc(cohort, 0) == pytest.approx(0.5, abs=0.03)


class TestCopula:
    def test_full_correlation_separates_classes(self):
        cohort = generate_cohort(SyntheticSpec(n_patients=500, rho_nihss=1.0, seed=5))
        poor_scores = [p.nihss for p in cohort.patients if binarize_mrs(p.mrs) == OutcomeLabel.POOR]
        good_scores = [p.nihss for p in cohort.patients if binarize_mrs(p.mrs) == OutcomeLabel.GOOD]
        assert min(poor_scores) >= max(good_scores)  # equality only through integer ties

    def test_zero_correlation_is_uninformative(self):
        cohort = generate_cohort(SyntheticSpec(n_patients=8000, rho_age=0.0, seed=61))
        age_auc = auc(cohort.age, cohort.outcomes())
        assert age_auc == pytest.approx(0.5, abs=0.03)

    def test_positive_correlation_is_informative(self):
        cohort = generate_cohort(SyntheticSpec(n_patients=2000, rho_nihss=0.6, seed=62))
        nihss_auc = auc(cohort.nihss, cohort.outcomes())
        assert nihss_auc > 0.65


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_patients": 0},
            {"n_patients": 10, "prevalence_poor": 0.0},
            {"n_patients": 10, "prevalence_poor": 1.0},
            {"n_patients": 10, "module_aucs": (0.5,) * 5},
            {"n_patients": 10, "module_aucs": (1.0,) * 5},
            {"n_patients": 10, "module_aucs": (0.7,)},  # count mismatch
            {"n_patients": 10, "rho_age": 1.2},
            {"n_patients": 10, "rho_nihss": -0.1},
            {"n_patients": 10, "seed": -1},
            {"n_patients": 10, "rho_age": True},  # would serialize as true
            {"n_patients": 10, "rho_nihss": "0.5"},
            {"n_patients": 10, "prevalence_poor": "0.3"},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_patients": True}, "n_patients must be a positive integer, got True"),
            ({"n_patients": 10, "seed": True}, "seed must be a non-negative integer, got True"),
            ({"n_patients": 10, "seed": False}, "seed must be a non-negative integer, got False"),
        ],
    )
    def test_rejects_bools_as_integers(self, kwargs, message):
        # bool subclasses int; a spec holding True would serialize "n_patients": true
        with pytest.raises(ConfigError) as excinfo:
            SyntheticSpec(**kwargs)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"module_aucs": ("0.7", " 0.8 "), "module_names": ("A", "B")},
             "module AUC targets must lie in (0.5, 1), got '0.7'"),
            ({"module_aucs": (0.7, True), "module_names": ("A", "B")},
             "module AUC targets must lie in (0.5, 1), got True"),
            ({"module_aucs": (0.7,) * 3, "module_names": "ADC"},
             "module_names must be a sequence of strings, not a string, got 'ADC'"),
            ({"module_aucs": (0.7,), "module_names": (3,)}, "module names must be strings, got 3"),
        ],
        ids=["text_aucs", "bool_auc", "bare_string_names", "number_name"],
    )
    def test_module_lists_are_not_coerced(self, kwargs, message):
        # float("0.7") used to accept text AUCs, and tuple("ADC") made the modules A, D and C
        with pytest.raises(ConfigError) as excinfo:
            SyntheticSpec(n_patients=5, **kwargs)
        assert str(excinfo.value) == message

    def test_round_trip_dict(self):
        spec = SyntheticSpec(n_patients=10, seed=3)
        assert SyntheticSpec(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in as_plain(spec).items()}
        ) == spec
