"""Cohort model: outcome binarization, normalization, validation, CSV schema."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from mrsfuse import (
    ClinicalNormalizer,
    Cohort,
    ConfigError,
    FusionConfig,
    MetricReport,
    OutcomeLabel,
    PatientRecord,
    ValidationError,
    as_plain,
    binarize_mrs,
    normalize_clinical,
    read_cohort_csv,
    validate_cohort,
    write_cohort_csv,
)
from mrsfuse.cohort import atomic_output


def make_patient(pid="p1", age=60.0, nihss=10, probs=(0.1, 0.2, 0.3, 0.4, 0.5), mrs=2):
    return PatientRecord(patient_id=pid, age=age, nihss=nihss, module_probs=probs, mrs=mrs)


class TestBinarizeMrs:
    @pytest.mark.parametrize(
        ("mrs", "expected"),
        [(0, OutcomeLabel.GOOD), (1, OutcomeLabel.GOOD), (2, OutcomeLabel.GOOD),
         (3, OutcomeLabel.POOR), (4, OutcomeLabel.POOR), (5, OutcomeLabel.POOR),
         (6, OutcomeLabel.POOR)],
    )
    def test_cutoff(self, mrs, expected):
        assert binarize_mrs(mrs) == expected

    def test_monotone(self):
        labels = [binarize_mrs(m) for m in range(7)]
        assert labels == sorted(labels)

    @pytest.mark.parametrize("bad", [-1, 7, 2.5, "3", None])
    def test_out_of_range_names_patient(self, bad):
        with pytest.raises(ValidationError, match="pat-9"):
            binarize_mrs(bad, patient_id="pat-9")

    def test_labels_order(self):
        assert OutcomeLabel.GOOD < OutcomeLabel.POOR
        assert str(OutcomeLabel.GOOD) == "good"
        assert OutcomeLabel.parse("POOR") == OutcomeLabel.POOR


class TestNormalizeClinical:
    def test_reference_nihss_bounds(self):
        norm = ClinicalNormalizer(variable="nihss", min=0, max=26)
        assert normalize_clinical(8, norm) == pytest.approx(8 / 26, abs=1e-12)
        assert round(normalize_clinical(8, norm), 4) == 0.3077
        assert normalize_clinical(26, norm) == 1.0
        assert normalize_clinical(0, norm) == 0.0

    def test_clamping(self):
        norm = ClinicalNormalizer(variable="age", min=20, max=90)
        assert normalize_clinical(10, norm) == 0.0
        assert normalize_clinical(120, norm) == 1.0

    def test_affine_between_bounds(self):
        norm = ClinicalNormalizer(variable="age", min=10, max=50)
        v1, v2, v3 = (normalize_clinical(v, norm) for v in (15, 30, 45))
        assert v3 - v2 == pytest.approx(v2 - v1, abs=1e-12)

    def test_non_decreasing(self):
        norm = ClinicalNormalizer(variable="nihss", min=3, max=17)
        values = [normalize_clinical(v, norm) for v in range(-2, 25)]
        assert values == sorted(values)

    def test_idempotent_on_unit_bounds(self):
        norm = ClinicalNormalizer(variable="nihss", min=0, max=1)
        for v in (0.0, 0.25, 0.8, 1.0):
            once = normalize_clinical(v, norm)
            assert normalize_clinical(once, norm) == once

    @pytest.mark.parametrize(("lo", "hi"), [(5, 5), (6, 5)])
    def test_bad_bounds(self, lo, hi):
        with pytest.raises(ConfigError):
            ClinicalNormalizer(variable="age", min=lo, max=hi)

    def test_unknown_variable(self):
        with pytest.raises(ConfigError):
            ClinicalNormalizer(variable="height", min=0, max=1)


class TestAsPlain:
    def test_fields_tuples_and_labels(self):
        report = MetricReport(
            accuracy=0.5, sensitivity=0.25, specificity=0.75, f1=0.3, mae=0.4, auc=0.6,
            n_patients=8, degenerate=("f1",),
        )
        assert as_plain(report) == {
            "accuracy": 0.5, "sensitivity": 0.25, "specificity": 0.75, "f1": 0.3, "mae": 0.4,
            "auc": 0.6, "n_patients": 8, "positive_class": "poor", "degenerate": ["f1"],
        }
        assert type(as_plain(report)["positive_class"]) is str

    def test_nested_dataclass_and_none(self):
        weighted = FusionConfig(
            clinical_variable="age", normalizer=ClinicalNormalizer(variable="age", min=20, max=90)
        )
        assert as_plain(weighted)["normalizer"] == {"variable": "age", "min": 20, "max": 90}
        assert as_plain(FusionConfig(clinical_variable="none")) == {
            "clinical_variable": "none", "normalizer": None, "prelim_threshold": None,
            "final_threshold": None, "strategy": "youden",
        }


class TestValidateCohort:
    def test_clean_cohort(self):
        cohort = Cohort(patients=(make_patient(), make_patient(pid="p2", mrs=None)))
        assert validate_cohort(cohort) == []

    def test_probability_out_of_range_names_module(self):
        patient = make_patient(probs=(0.1, 0.2, 1.3, 0.4, 0.5))
        violations = validate_cohort(Cohort(patients=(patient,)))
        assert len(violations) == 1
        assert violations[0].field == "p_cbv"

    def test_empty_cohort(self):
        violations = validate_cohort(Cohort(patients=()))
        assert any("empty cohort" in v.reason for v in violations)

    def test_nihss_out_of_range(self):
        violations = validate_cohort(Cohort(patients=(make_patient(nihss=43),)))
        assert [v.field for v in violations] == ["nihss"]

    def test_probs_length_mismatch(self):
        violations = validate_cohort(Cohort(patients=(make_patient(probs=(0.1, 0.2)),)))
        assert [v.field for v in violations] == ["module_probs"]

    def test_duplicate_ids_and_bad_age(self):
        cohort = Cohort(patients=(make_patient(), make_patient(age=-4.0)))
        fields = {v.field for v in validate_cohort(cohort)}
        assert fields == {"patient_id", "age"}

    def test_missing_mrs_allowed_but_outcome_raises(self):
        patient = make_patient(mrs=None)
        assert validate_cohort(Cohort(patients=(patient,))) == []
        with pytest.raises(ValidationError, match="p1"):
            patient.outcome()


class TestCohortCsv:
    def test_round_trip(self, tmp_path: Path):
        cohort = Cohort(patients=(make_patient(), make_patient(pid="p2", mrs=None, age=81.5)))
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path)
        loaded = read_cohort_csv(path)
        assert loaded == cohort

    def test_module_order_follows_header(self, tmp_path: Path):
        path = tmp_path / "c.csv"
        path.write_text(
            "patient_id,age,nihss,mrs,p_tmax,p_adc\n"
            "a,60,5,1,0.2,0.7\n",
            encoding="utf-8",
        )
        cohort = read_cohort_csv(path)
        assert cohort.module_names == ("Tmax", "ADC")
        assert cohort.patients[0].module_probs == (0.2, 0.7)

    def test_unknown_module_suffix_uppercased(self, tmp_path: Path):
        path = tmp_path / "c.csv"
        path.write_text("patient_id,age,nihss,mrs,p_flair\na,60,5,1,0.2\n", encoding="utf-8")
        assert read_cohort_csv(path).module_names == ("FLAIR",)

    def test_empty_mrs_cell_reads_as_none(self, tmp_path: Path):
        path = tmp_path / "c.csv"
        path.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,,0.2\n", encoding="utf-8")
        assert read_cohort_csv(path).patients[0].mrs is None

    def test_missing_required_column(self, tmp_path: Path):
        path = tmp_path / "c.csv"
        path.write_text("patient_id,age,nihss,p_adc\na,60,5,0.2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="mrs"):
            read_cohort_csv(path)

    def test_no_module_columns(self, tmp_path: Path):
        path = tmp_path / "c.csv"
        path.write_text("patient_id,age,nihss,mrs\na,60,5,1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="module"):
            read_cohort_csv(path)

    def test_unparseable_row_reports_line(self, tmp_path: Path):
        path = tmp_path / "c.csv"
        path.write_text("patient_id,age,nihss,mrs,p_adc\na,sixty,5,1,0.2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":2"):
            read_cohort_csv(path)


class TestAtomicOutput:
    def test_replaces_target_with_default_mode(self, tmp_path: Path):
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        with atomic_output(target) as handle:
            handle.write("new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_keeps_target_and_removes_temp(self, tmp_path: Path):
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_output(target) as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")
        assert target.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_temp_names_are_unique(self, tmp_path: Path):
        target = tmp_path / "out.txt"
        with atomic_output(target) as first, atomic_output(target) as second:
            first.write("a")
            second.write("b")
            assert len(list(tmp_path.iterdir())) == 2
        assert target.read_text(encoding="utf-8") == "a"


class TestSingleModuleView:
    def test_projection(self):
        cohort = Cohort(patients=(make_patient(),))
        view = cohort.single_module_view("DWI")
        assert view.module_names == ("DWI",)
        assert view.patients[0].module_probs == (0.4,)
        assert view.patients[0].patient_id == "p1"

    def test_unknown_module(self):
        with pytest.raises(ConfigError):
            Cohort(patients=(make_patient(),)).single_module_view("XYZ")
