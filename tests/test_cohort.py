"""Cohort model: outcome binarization, normalization, validation, CSV schema."""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mrsfuse import (
    ClinicalNormalizer,
    Cohort,
    ConfigError,
    FusionConfig,
    OutcomeLabel,
    PatientRecord,
    SyntheticSpec,
    ValidationError,
    as_plain,
    generate_cohort,
    read_cohort_csv,
    validate_cohort,
    write_cohort_csv,
)
from conftest import (
    CHUNK_EDGE_ROWS, WRITER_IDS, WRITER_MODULE_NAMES, csv_writer_bytes, cycled, take, transient_peak,
)
from mrsfuse.cohort import (
    CSV_CHUNK_ROWS,
    CSV_REQUIRED_COLUMNS,
    DEFAULT_MODULE_NAMES,
    MRS_MAX,
    NIHSS_MAX,
    Violation,
    atomic_output,
    binarize_mrs,
    module_column,
    normalize_clinical,
    poor_mask,
    write_csv_columns,
)
from mrsfuse.crossval import CvPlan, make_folds
from mrsfuse.fusion import fuse_matrix
from mrsfuse.metrics import MetricReport


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


class TestPoorMask:
    @pytest.mark.parametrize("labels", [
        [OutcomeLabel.POOR, OutcomeLabel.GOOD], np.array([1, 0], dtype=np.int8), [True, False], [1.0, 0.0],
        [np.int8(1), 0], np.array([1, 0], dtype=np.uint64), np.array([1.0, -0.0], dtype=np.float32),
    ])
    def test_every_real_zero_or_one_is_a_label(self, labels):
        mask = poor_mask(labels, "truth")
        assert mask.dtype == bool and mask.tolist() == [True, False]

    def test_a_bool_array_is_returned_as_it_is(self):
        mask = np.array([True, False])
        assert poor_mask(mask, "truth") is mask

    @pytest.mark.parametrize(("labels", "shape"), [
        ([[0], [1]], (2, 1)), (np.array([[True, False]]), (1, 2)), (1, ()), ([[OutcomeLabel.POOR, "good"]], (1, 2)),
    ])
    def test_labels_not_in_one_dimension_are_named(self, labels, shape):
        with pytest.raises(ValidationError) as raised:
            poor_mask(labels, "truth")
        assert str(raised.value) == f"truth must be a one-dimensional sequence of outcome labels, got shape {shape}"

    @pytest.mark.parametrize(("labels", "got"), [
        ([0, [1]], "[1]"), ([np.array([0]), np.array([1, 0])], "array([0])"),
    ])
    def test_the_containers_of_a_ragged_nesting_are_the_values_named(self, labels, got):
        with pytest.raises(ValidationError) as raised:
            poor_mask(labels, "truth")
        assert str(raised.value) == f"truth must be outcome labels, 0 (good) or 1 (poor), got {got}"

    @pytest.mark.parametrize(("labels", "got"), [
        (["good", "poor"], "'good'"),
        ([1, "good"], "'good'"),  # the value as given, not numpy's '1'
        (np.array([0, 1, 2], dtype=np.int8), "2"),
        ([OutcomeLabel.GOOD, math.nan], "nan"),
        ([0, 1 + 0j], "(1+0j)"),
        ([None, 1], "None"),
        (np.array([0, 1], dtype=object), "object values"),  # no value at fault: the dtype is
    ])
    def test_any_other_value_is_named(self, labels, got):
        with pytest.raises(ValidationError) as raised:
            poor_mask(labels, "truth")
        assert str(raised.value) == f"truth must be outcome labels, 0 (good) or 1 (poor), got {got}"


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

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (True, 3, "min must be a finite number, got True"),
            ("a", 3, "min must be a finite number, got 'a'"),
            (float("nan"), 3, "min must be a finite number, got nan"),
            (0, float("inf"), "max must be a finite number, got inf"),
            (0, 10**400, f"max must be a finite number, got {10**400!r}"),
        ],
        ids=["bool", "string", "nan", "infinite", "int_beyond_float"],
    )
    def test_each_bound_must_be_a_finite_number(self, lo, hi, message):
        # the bound at fault is named alone, though order and span would also reject most of these
        with pytest.raises(ConfigError) as excinfo:
            ClinicalNormalizer(variable="age", min=lo, max=hi)
        assert str(excinfo.value) == message
        assert len(excinfo.value.blame) == 1

    def test_float32_bounds_build(self):
        # a float32 bound is range-checked as a float, not against a float64 bound cast down to float32
        norm = ClinicalNormalizer(variable="age", min=np.float32(1), max=np.float32(2))
        assert normalize_clinical(np.array([0.5, 1.5, 3.0]), norm).tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ConfigError) as excinfo:
            ClinicalNormalizer(variable="age", min=np.float32(1), max=np.float32("inf"))
        assert excinfo.value.blame == [("max", "must be a finite number", np.float32("inf"))]

    @pytest.mark.parametrize(
        "lo, hi, problems",
        [
            (5, 1, ("must be greater than 'min' (5)", "must be less than 'max' (1)")),
            (-1e308, 1e308, ("must lie within a finite span of 'min' (-1e+308)",
                             "must lie within a finite span of 'max' (1e+308)")),
        ],
        ids=["order", "span"],
    )
    def test_two_bound_rules_blame_max_then_min(self, lo, hi, problems):
        with pytest.raises(ConfigError) as excinfo:
            ClinicalNormalizer(variable="age", min=lo, max=hi)
        assert excinfo.value.blame == [("max", problems[0], hi), ("min", problems[1], lo)]

    def test_infinite_span_rejected(self):
        # finite bounds whose span max - min overflows would scale every covariate to 0
        with pytest.raises(ConfigError, match=r"^max must lie within a finite span of 'min' \(-1e\+308\), got 1e\+308"):
            ClinicalNormalizer(variable="age", min=-1e308, max=1e308)

    def test_value_far_above_finite_span_clamps_without_overflow(self):
        norm = ClinicalNormalizer(variable="age", min=-1e308, max=0.0)
        assert normalize_clinical(1e308, norm) == 1.0
        assert normalize_clinical(np.array([1e308, -1.7e308, -5e307]), norm).tolist() == [1.0, 0.0, 0.5]

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(),
    )
    def test_matches_the_unclipped_formula_on_finite_spans(self, lo, hi, value):
        assume(hi > lo and math.isfinite(hi - lo))
        norm = ClinicalNormalizer(variable="age", min=lo, max=hi)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = (np.float64(value) - lo) / (hi - lo)
        expected = float(np.where(scaled > 0.0, np.minimum(scaled, 1.0), 0.0))
        assert repr(normalize_clinical(value, norm)) == repr(expected)


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
        # the columns cannot hold a short probability tuple, so construction rejects it
        with pytest.raises(ValidationError, match="^p1: module_probs: expected 5 probabilities, got 2$"):
            Cohort(patients=(make_patient(probs=(0.1, 0.2)),))

    def test_duplicate_ids_and_bad_age(self):
        cohort = Cohort(patients=(make_patient(), make_patient(age=-4.0)))
        fields = {v.field for v in validate_cohort(cohort)}
        assert fields == {"patient_id", "age"}

    @pytest.mark.parametrize("module_names, shown", [((3,), "3"), (("ADC", None), "None"), (([1],), "[1]")])
    def test_non_string_module_name_is_a_cohort_violation(self, module_names, shown):
        patient = make_patient(probs=(0.3,) * len(module_names))
        violations = validate_cohort(Cohort(module_names=module_names, patients=(patient,)))
        assert violations == [Violation(None, "module_names", f"module names must be strings, got {shown}")]

    def test_non_string_module_name_keeps_the_patient_findings(self):
        cohort = Cohort(module_names=(3,), patients=(make_patient(probs=(1.3,), nihss=43),))
        assert [str(v) for v in validate_cohort(cohort)] == [
            "<cohort>: module_names: module names must be strings, got 3",
            "p1: nihss: nihss must be an integer in 0..42, got 43",
            "p1: p_3: probability must be in [0, 1], got 1.3",
        ]

    def test_missing_mrs_allowed(self):
        assert validate_cohort(Cohort(patients=(make_patient(mrs=None),))) == []

    def test_peak_per_patient_at_50_000(self):
        # repeated ids are marked in one pass over a set, with no map of each id to its first row;
        # tracemalloc counts 63 bytes a patient here, 96 with that map
        cohort = generate_cohort(SyntheticSpec(n_patients=50_000))
        violations, transient, held = transient_peak(lambda: validate_cohort(cohort))
        assert violations == []
        assert (transient + held) / len(cohort) < 72


class TestCohortCsv:
    def test_round_trip(self, tmp_path: Path):
        cohort = Cohort(patients=(make_patient(), make_patient(pid="p2", mrs=None, age=81.5)))
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path)
        loaded = read_cohort_csv(path)
        assert loaded == cohort

    def test_non_string_module_name_is_not_written(self, tmp_path: Path):
        cohort = Cohort(module_names=(3,), patients=(make_patient(probs=(0.3,)),))
        path = tmp_path / "cohort.csv"
        with pytest.raises(ValidationError) as excinfo:
            write_cohort_csv(cohort, path)
        assert str(excinfo.value) == f"{path}: module names must be strings, got 3"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="opens a pipe by its /dev/fd path")
    @pytest.mark.parametrize("body", [
        "a,60,5,1,0.3\nb,70,9,4,0.8\n",  # plain: the np.loadtxt pass
        '"a",60,5,1,0.3\nb,70,9,4,0.8\n',  # a quoted id: the row loop, from the body's start
        "a,60,5,1,0.3\rb,70,9,4,0.8\r",  # bare \r row ends
        '"a,1",60,5,1,0.3\nb,70,9,4,0.8\n',  # a quoted comma
    ])
    def test_a_pipe_reads_like_a_file(self, tmp_path: Path, body: str):
        text = "patient_id,age,nihss,mrs,p_adc\n" + body
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        try:
            piped = read_cohort_csv(f"/dev/fd/{read}")
        finally:
            os.close(read)
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        assert piped == read_cohort_csv(path) and len(piped) == 2


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

    def test_a_symlink_stays_and_its_target_gets_the_bytes(self, tmp_path: Path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.txt"
        target.write_text("old", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(Path("real") / "out.txt")  # relative, as ln -s makes it
        with atomic_output(link) as handle:
            handle.write("new\n")
        assert link.is_symlink() and os.readlink(link) == os.path.join("real", "out.txt")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.txt", "out.txt", "real"]

    def test_a_dangling_symlink_gets_its_target_made(self, tmp_path: Path):
        link = tmp_path / "link.txt"
        link.symlink_to(tmp_path / "made.txt")
        with atomic_output(link) as handle:
            handle.write("new\n")
        assert link.is_symlink() and (tmp_path / "made.txt").read_text(encoding="utf-8") == "new\n"

    def test_a_failed_write_through_a_symlink_keeps_its_target(self, tmp_path: Path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.txt"
        target.write_text("old", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with pytest.raises(RuntimeError):
            with atomic_output(link) as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")
        assert link.is_symlink() and target.read_text(encoding="utf-8") == "old"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.txt", "out.txt", "real"]

    def test_a_fifo_is_written_in_place(self, tmp_path: Path):
        # a FIFO has nothing to replace: its reader gets the bytes and the FIFO stays
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with atomic_output(fifo) as handle:
            handle.write("a,b\r\n")
        reader.join(timeout=10)  # a reader left waiting on a replaced FIFO fails the test instead of hanging it
        assert not reader.is_alive() and got == [b"a,b\r\n"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode) and [p.name for p in tmp_path.iterdir()] == ["fifo"]


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


class TestColumns:
    def test_records_become_columns_and_convert_back(self):
        patients = (make_patient(), make_patient(pid="p2", nihss=3, mrs=None, age=81.5))
        cohort = Cohort(patients=patients)
        assert cohort.ids.tolist() == ["p1", "p2"]
        assert cohort.probs.shape == (2, 5) and cohort.probs.dtype == float
        assert cohort.age.tolist() == [60.0, 81.5]
        assert cohort.nihss.dtype == np.int64 and cohort.nihss.tolist() == [10, 3]
        assert cohort.mrs.dtype == object and cohort.mrs.tolist() == [2, None]  # None marks a missing mrs
        assert cohort.patients == patients
        assert len(cohort) == 2 and np.equal(cohort.mrs, None).any()

    def test_integers_beyond_int64_stay_exact(self):
        big = 2**63
        cohort = Cohort(patients=(make_patient(nihss=big, mrs=-big - 1),))
        assert cohort.nihss.tolist() == [big] and cohort.mrs.tolist() == [-big - 1]
        assert [str(v) for v in validate_cohort(cohort)] == [
            f"p1: nihss: nihss must be an integer in 0..{NIHSS_MAX}, got {big}",
            f"p1: mrs: mrs must be an integer in 0..{MRS_MAX} or absent, got {-big - 1}",
        ]

    def test_a_cohort_equals_no_other_type(self):
        cohort = Cohort(patients=(make_patient(),))
        assert cohort.__eq__("x") is NotImplemented
        assert (cohort == "x") is False and cohort != "x"

    def test_folding_an_unvalidated_cohort_names_an_out_of_range_mrs(self):
        cohort = Cohort(patients=(make_patient(pid="p0", mrs=0), make_patient(pid="a", mrs=7)))
        with pytest.raises(ValidationError, match=r"^mrs must be an integer in 0\.\.6 for patient 'a', got 7$"):
            make_folds(cohort, CvPlan(k=2, n_runs=1), 0)

    def test_covariate_of_an_unknown_variable(self):
        with pytest.raises(ConfigError, match=r"^unknown clinical variable 'height'$"):
            Cohort(patients=(make_patient(),)).covariate("height")

    def test_view_slices_the_columns(self):
        cohort = Cohort(patients=tuple(make_patient(pid=f"p{i}", nihss=i) for i in range(4)))
        view = cohort.single_module_view("CBV")
        assert view.module_names == ("CBV",)
        assert view.probs.tolist() == [[0.3]] * 4
        assert np.shares_memory(view.probs, cohort.probs)

    def test_outcomes_name_the_patient_without_a_grade(self):
        cohort = Cohort(patients=(make_patient(), make_patient(pid="p2", mrs=None)))
        with pytest.raises(ValidationError, match="^patient 'p2' has no recorded mrs$"):
            cohort.outcomes()
        assert take(cohort, np.array([0])).outcomes().tolist() == [0]


def _record_violations(module_names, patients):
    """The per-record validate_cohort loop that the column masks replaced, kept as their oracle."""
    violations = []
    if not module_names:
        violations.append(Violation(None, "module_names", "empty module list"))
    if len(set(module_names)) != len(module_names):
        violations.append(Violation(None, "module_names", "duplicate module names"))
    if not patients:
        violations.append(Violation(None, "patients", "empty cohort"))
        return violations
    seen_ids = set()
    for p in patients:
        pid = p.patient_id
        if not pid:
            violations.append(Violation(pid, "patient_id", "empty patient id"))
        elif pid in seen_ids:
            violations.append(Violation(pid, "patient_id", "duplicate patient id"))
        seen_ids.add(pid)
        if not (isinstance(p.age, (int, float)) and math.isfinite(p.age) and p.age >= 0):
            violations.append(Violation(pid, "age", f"age must be a finite value >= 0, got {p.age!r}"))
        if not isinstance(p.nihss, int) or isinstance(p.nihss, bool) or not 0 <= p.nihss <= NIHSS_MAX:
            violations.append(
                Violation(pid, "nihss", f"nihss must be an integer in 0..{NIHSS_MAX}, got {p.nihss!r}")
            )
        if p.mrs is not None and (
            not isinstance(p.mrs, int) or isinstance(p.mrs, bool) or not 0 <= p.mrs <= MRS_MAX
        ):
            violations.append(
                Violation(pid, "mrs", f"mrs must be an integer in 0..{MRS_MAX} or absent, got {p.mrs!r}")
            )
        if len(p.module_probs) != len(module_names):
            violations.append(Violation(
                pid, "module_probs", f"expected {len(module_names)} probabilities, got {len(p.module_probs)}"
            ))
            continue
        for name, prob in zip(module_names, p.module_probs):
            if not (isinstance(prob, (int, float)) and math.isfinite(prob) and 0.0 <= prob <= 1.0):
                violations.append(
                    Violation(pid, f"p_{name.lower()}", f"probability must be in [0, 1], got {prob!r}")
                )
    return violations


_GRADES = st.one_of(st.integers(-3, 50), st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**23]))
_FAULTY_FLOATS = st.one_of(
    st.floats(-0.5, 1.5), st.floats(), st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf])
)


@st.composite
def _faulty_cohorts(draw):
    module_names = draw(st.sampled_from(
        [(), ("ADC",), ("ADC", "DWI"), ("ADC", "ADC"), ("Tmax", "DWI", "CBF")]
    ))
    patients = draw(st.lists(st.builds(
        PatientRecord,
        patient_id=st.sampled_from(["a", "b", "c", "", "d e"]),
        age=st.one_of(st.floats(0, 100), _FAULTY_FLOATS),
        nihss=_GRADES,
        module_probs=st.tuples(*[_FAULTY_FLOATS] * len(module_names)),
        mrs=st.one_of(st.none(), _GRADES),
    ), max_size=8))
    return module_names, tuple(patients)


class TestValidationOracle:
    @settings(max_examples=400, deadline=None)
    @given(_faulty_cohorts())
    def test_column_masks_match_the_record_loop(self, drawn):
        module_names, patients = drawn
        cohort = Cohort(module_names=module_names, patients=patients)
        assert validate_cohort(cohort) == _record_violations(module_names, patients)

    @pytest.mark.parametrize(("changes", "line"), [
        ({"age": "60"}, "age: age must be a finite value >= 0, got '60'"),
        ({"age": None}, "age: age must be a finite value >= 0, got None"),
        ({"age": True}, "age: age must be a finite value >= 0, got True"),
        ({"nihss": 2.5}, "nihss: nihss must be an integer in 0..42, got 2.5"),
        ({"nihss": 10.0}, "nihss: nihss must be an integer in 0..42, got 10.0"),
        ({"nihss": False}, "nihss: nihss must be an integer in 0..42, got False"),
        ({"mrs": 1.5}, "mrs: mrs must be an integer in 0..6 or absent, got 1.5"),
        ({"mrs": "3"}, "mrs: mrs must be an integer in 0..6 or absent, got '3'"),
        ({"probs": (0.1, "0.2", 0.3, 0.4, 0.5)}, "p_cbf: probability must be in [0, 1], got '0.2'"),
        ({"probs": (0.1, 0.2, True, 0.4, 0.5)}, "p_cbv: probability must be in [0, 1], got True"),
        ({"probs": (0.1,) * 6}, "module_probs: expected 5 probabilities, got 6"),
    ], ids=["age_text", "age_none", "age_bool", "nihss_fraction", "nihss_float", "nihss_bool",
            "mrs_fraction", "mrs_text", "prob_text", "prob_bool", "prob_count"])
    def test_records_the_columns_cannot_hold_are_rejected(self, changes, line):
        bad = make_patient(pid="p2", **changes)
        with pytest.raises(ValidationError) as caught:
            Cohort(patients=(make_patient(), bad))
        assert str(caught.value) == f"p2: {line}"
        # the record loop flagged the same line, except that it took a bool age or
        # probability for a number
        flagged = [str(v) for v in _record_violations(DEFAULT_MODULE_NAMES, (bad,))]
        assert flagged == ([] if line.endswith("got True") else [f"p2: {line}"])

    @pytest.mark.parametrize(("pid", "line"), [
        (["a"], "['a']: patient_id: patient id must be a string, got list"),
        (0, "0: patient_id: patient id must be a string, got int"),
        (None, "None: patient_id: patient id must be a string, got NoneType"),
    ], ids=["list", "zero", "none"])
    def test_a_patient_id_that_is_not_a_string_is_rejected(self, pid, line):
        with pytest.raises(ValidationError) as caught:
            Cohort(patients=(make_patient(), make_patient(pid=pid)))
        assert str(caught.value) == line

    @pytest.mark.parametrize(("field", "value"), [("age", 10**400), ("age", -10**400),
                                                  ("p_cbf", 10**400), ("p_tmax", -10**400)],
                             ids=["age_above", "age_below", "prob_above", "prob_below"])
    def test_ints_beyond_float_range_are_rejected(self, field, value):
        # float() overflows on them, so the float columns cannot hold them
        if field == "age":
            bad, reason = make_patient(pid="p2", age=value), "age must be a finite value >= 0"
        else:
            probs = tuple(value if module_column(name) == field else 0.5 for name in DEFAULT_MODULE_NAMES)
            bad, reason = make_patient(pid="p2", probs=probs), "probability must be in [0, 1]"
        with pytest.raises(ValidationError) as caught:
            Cohort(patients=(make_patient(), bad))
        assert str(caught.value) == f"p2: {field}: {reason}, got {value!r}"


def _module_name(column):
    suffix = column[2:]
    return {name.lower(): name for name in DEFAULT_MODULE_NAMES}.get(suffix.lower(), suffix.upper())


def _dictreader_parse(path):
    """The csv.DictReader parser that read_cohort_csv replaced, kept as its oracle."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise ValidationError(f"{path}: missing header row")
        missing = [col for col in CSV_REQUIRED_COLUMNS if col not in header]
        if missing:
            raise ValidationError(f"{path}: missing required columns: {', '.join(missing)}")
        module_columns = [col for col in header if col.startswith("p_")]
        if not module_columns:
            raise ValidationError(f"{path}: no module probability columns (prefix 'p_')")
        patients = []
        for line_no, row in enumerate(reader, start=2):
            try:
                mrs_text = (row["mrs"] or "").strip()
                patients.append(PatientRecord(
                    patient_id=(row["patient_id"] or "").strip(),
                    age=float(row["age"]),
                    nihss=int(row["nihss"]),
                    module_probs=tuple(float(row[col]) for col in module_columns),
                    mrs=int(mrs_text) if mrs_text else None,
                ))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{line_no}: unparseable row: {exc}") from exc
    return Cohort(module_names=tuple(_module_name(col) for col in module_columns), patients=patients)


_CELL_POOLS = {
    "patient_id": ["a", "b", "a,b", 'q"x', " c ", ""],
    "age": ["60", "-0", " 71.5 ", "1e3", "nan", "-4", "inf"],
    "nihss": ["0", "5", " 42", "43", "-1", "+7", "1_0", "9223372036854775808", "-9223372036854775809"],
    "mrs": ["", " ", "0", "3", "6", "7", "99999999999999999999999"],
    "p_": ["0", "0.5", "1", "1.0000001", "nan", "-0.0", " 0.25 "],
}
_JUNK_CELLS = ["x", "", " ", "1.5", "3.0", "a b", 'say "hi"', "1,2"]


@st.composite
def _csv_texts(draw):
    required = list(CSV_REQUIRED_COLUMNS)
    if draw(st.integers(0, 9)) == 0:
        required.remove(draw(st.sampled_from(required)))
    modules = draw(st.lists(st.sampled_from(["p_adc", "p_dwi", "p_Tmax", "p_x"]), max_size=3))
    repeats = draw(st.lists(st.sampled_from(["note", "age", "nihss", "p_adc", "mrs", ""]), max_size=2))
    header = draw(st.permutations(required + modules + repeats))

    def cell(column):
        pool = _CELL_POOLS.get(column, _CELL_POOLS["p_"] if column.startswith("p_") else _JUNK_CELLS)
        return draw(st.sampled_from(pool if draw(st.integers(0, 19)) else _JUNK_CELLS))

    rows = []
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([len(header)] * 4 + [max(0, len(header) - 2), len(header) + 1, 0]))
        rows.append([cell(header[j] if j < len(header) else "") for j in range(width)])
        rows += [[]] * draw(st.sampled_from([0, 0, 0, 1, 2]))  # blank lines

    def field(text):
        if draw(st.integers(0, 4)) == 0 or any(ch in text for ch in ',"'):
            return '"' + text.replace('"', '""') + '"'
        return text

    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(field(text) for text in row) + terminator for row in [header] + rows)


def _parse_outcome(parse, path):
    try:
        cohort = parse(path)
    except ValidationError as exc:
        return "error", str(exc)
    dtypes = [column.dtype for column in (cohort.ids, cohort.probs, cohort.age, cohort.nihss, cohort.mrs)]
    return cohort.module_names, cohort.probs.shape, dtypes, [repr(row) for row in cohort.iter_rows()]


class TestParserOracle:
    @settings(max_examples=400, deadline=None)
    @given(_csv_texts())
    def test_columns_match_the_dictreader_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _parse_outcome(read_cohort_csv, path) == _parse_outcome(_dictreader_parse, path)

    @pytest.mark.parametrize("text", [
        "",
        "\npatient_id,age,nihss,mrs,p_adc\n",
        "patient_id,age,nihss,mrs,p_adc\na,60,5\n",
        "patient_id,age,nihss,mrs,p_adc,age\na,60,5,1,0.3\n",
        "patient_id,age,nihss,mrs,p_adc\n\n\na,60,x,1,0.3\n",
        "patient_id,age,nihss,mrs,p_adc,p_adc\n a ,60,5,,0.3,0.4,extra\n",
    ], ids=["empty", "blank_header", "short_row", "repeated_name", "blank_lines", "padded_long_row"])
    def test_edge_cases_match_the_dictreader_parser(self, tmp_path, text):
        path = tmp_path / "cohort.csv"
        path.write_text(text, encoding="utf-8")
        assert _parse_outcome(read_cohort_csv, path) == _parse_outcome(_dictreader_parse, path)


def _row_loop_parse(path):
    """read_cohort_csv with the plain read failing, so the row loop reads every body."""
    with mock.patch("mrsfuse.cohort.np.loadtxt", side_effect=ValueError):
        return read_cohort_csv(path)


def _no_row_loop(*args):
    raise AssertionError("the row loop read a plain body")


_ODD_NUMBERS = ["1_0", "\u0661", "\u0660.5", "1e3", "+7", " 42", "-0", "5 ", "\t3", "7.0", "9223372036854775807",
                "9223372036854775808", "-9223372036854775809", "99999999999999999999", "0.5\u3000", "\x1c2",
                "\u01fe2"]
_PLAIN_POOLS = {
    "patient_id": ["a", "b", "a#1", "#", " c ", "", "d\t", "e\u3000", "f\x00", "\ufeffg"],
    "age": ["60", "71.5", " 0.25 ", "nan", "NaN", "-nan", "inf", "-Infinity", "INFINITY", "1e400", "-1e400", "1e-400",
            ".5", "5.", "+.5", "-0.0", ""] + _ODD_NUMBERS,
    "nihss": ["0", "5", "42", "43", "-1", ""] + _ODD_NUMBERS,
    "mrs": ["0", "3", "6", "7", "", " "] + _ODD_NUMBERS,
}
_PLAIN_POOLS["p_"] = _PLAIN_POOLS["age"]


@st.composite
def _plain_csv_texts(draw):
    """Texts in the quote-free shape synth writes, with the odd cells and lines a plain read must hand on."""
    modules = draw(st.lists(st.sampled_from(["p_adc", "p_dwi", "p_Tmax", "p_x"]), min_size=1, max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(["note", "age", "p_adc", ""]), max_size=1 if draw(st.integers(0, 4)) else 0))
    header = draw(st.permutations(list(CSV_REQUIRED_COLUMNS) + modules + extra))

    odd_every = draw(st.sampled_from([3, 12, 60]))  # one cell or line in so many is odd

    def cell(column):
        if column == "patient_id":  # most odd ids are plain too
            return draw(st.sampled_from(_PLAIN_POOLS[column] + [f"id{draw(st.integers(0, 9))}"] * 8))
        pool = _PLAIN_POOLS.get(column, _PLAIN_POOLS["p_"] if column.startswith("p_") else ["x", "", "1"])
        return draw(st.sampled_from(pool if draw(st.integers(0, odd_every)) == 0 else pool[:3]))

    lines = []
    for _ in range(draw(st.integers(0, 6))):
        odd_width = draw(st.integers(0, odd_every)) == 0
        width = draw(st.sampled_from([len(header) - 1, len(header) + 1])) if odd_width else len(header)
        lines.append(",".join(cell(header[j] if j < len(header) else "") for j in range(width)))
        if draw(st.integers(0, odd_every)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    if lines and draw(st.integers(0, 19)) == 0:  # one cell over the csv field limit
        lines[0] = "x" * (csv.field_size_limit() + 1) + lines[0]
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(line + terminator for line in [",".join(header)] + lines)


class TestPlainReadOracle:
    @settings(max_examples=400, deadline=None)
    @given(_plain_csv_texts())
    def test_plain_texts_read_as_the_row_loop_reads_them(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _parse_outcome(read_cohort_csv, path) == _parse_outcome(_row_loop_parse, path)

    def test_a_synth_cohort_takes_the_plain_read(self, tmp_path, monkeypatch):
        cohort = generate_cohort(SyntheticSpec(n_patients=300, seed=16))
        write_cohort_csv(cohort, tmp_path / "cohort.csv")
        monkeypatch.setattr("mrsfuse.cohort._read_rows", _no_row_loop)
        loaded = read_cohort_csv(tmp_path / "cohort.csv")
        assert loaded == cohort and loaded.probs.flags.c_contiguous
        assert [column.dtype for column in loaded._columns()] == [column.dtype for column in cohort._columns()]

    def test_a_repeated_header_name_takes_the_plain_read(self, tmp_path, monkeypatch):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,age,nihss,mrs,p_adc,age\na,60,5,1,0.3,71.5\nb,61,4,2,0.4,72\n", encoding="utf-8")
        monkeypatch.setattr("mrsfuse.cohort._read_rows", _no_row_loop)
        assert read_cohort_csv(path).age.tolist() == [71.5, 72.0]

    def test_the_row_loop_resumes_after_whole_plain_blocks(self, tmp_path):
        # about 250 kB, four 64 kB blocks: the plain read meets the quote or the bad cell in its third or fourth
        path = tmp_path / "cohort.csv"
        write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=2000, seed=22)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 2001 and path.stat().st_size > 3 * (1 << 16)
        quoted = lines[:1500] + [lines[1500].replace("S1499,", '"S,1499",')] + lines[1501:]
        path.write_text("".join(quoted), encoding="utf-8")
        loaded = read_cohort_csv(path)
        assert loaded.ids[1499] == "S,1499" and len(loaded) == 2000
        assert _parse_outcome(read_cohort_csv, path) == _parse_outcome(_row_loop_parse, path)

        last = lines[-1].split(",")  # numpy fails on this cell after it has read every block
        path.write_text("".join(lines[:-1] + [",".join(last[:2] + ["x"] + last[3:])]), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^.*cohort\.csv:2001: unparseable row: invalid literal for int"):
            read_cohort_csv(path)


_ROUND_TRIP_IDS = st.text(alphabet='ab ,"\'xy', max_size=6).filter(lambda text: text == text.strip())
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(module_names=st.sampled_from([("ADC",), ("ADC", "DWI", "Tmax")]), data=st.data())
    def test_write_then_read_round_trips(self, module_names, data):
        patients = data.draw(st.lists(st.builds(
            PatientRecord,
            patient_id=_ROUND_TRIP_IDS,
            age=_FINITE,
            nihss=st.integers(-2**80, 2**80),
            module_probs=st.tuples(*[_FINITE] * len(module_names)),
            mrs=st.one_of(st.none(), st.integers(-2**80, 2**80)),
        ), max_size=8))
        cohort = Cohort(module_names=module_names, patients=patients)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            write_cohort_csv(cohort, path)
            loaded = read_cohort_csv(path)
        assert loaded == cohort
        assert [repr(row) for row in loaded.iter_rows()] == [repr(row) for row in cohort.iter_rows()]


def _csv_writer_cohort_bytes(cohort):
    """The csv.writer row path that write_cohort_csv replaced, kept as its oracle."""
    header = list(CSV_REQUIRED_COLUMNS) + [module_column(name) for name in cohort.module_names]
    return csv_writer_bytes([header] + [
        [pid, repr(age), nihss, "" if mrs is None else mrs, *map(repr, probs)]
        for pid, age, nihss, probs, mrs in cohort.iter_rows()
    ])


def _int_array(values: list, as_objects: bool) -> np.ndarray:
    fits = all(v is not None and -2**63 <= v < 2**63 for v in values)
    return np.array(values, dtype=np.int64 if fits and not as_objects else object)


@st.composite
def _writer_cohorts(draw):
    module_names = draw(WRITER_MODULE_NAMES)
    n = draw(st.sampled_from([0] + CHUNK_EDGE_ROWS))
    probs = cycled(draw, st.tuples(*[st.floats()] * len(module_names)), n)  # NaN, infinities and -0.0 too
    # int64 columns, or Python ints beyond int64 and missing grades as objects
    as_objects = draw(st.booleans())
    nihss = _int_array(cycled(draw, st.integers(-2**70, 2**70), n), as_objects)
    mrs = _int_array(cycled(draw, st.none() | st.integers(-2**70, 2**70), n), as_objects)
    return Cohort.of_columns(module_names, np.array(cycled(draw, WRITER_IDS, n), dtype=object),
                             np.array(probs, dtype=float).reshape(n, len(module_names)),
                             np.array(cycled(draw, st.floats(), n), dtype=float), nihss, mrs)


# specials a block must format apart: signed zeros and subnormals, infinities, and NaNs of either sign
_BLOCK_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan, -math.nan])


@st.composite
def _writer_blocks(draw):
    """Text, int and float columns around a float block whose cells take a few drawn values in turn."""
    n = draw(st.sampled_from([0, *CHUNK_EDGE_ROWS, 2 * CSV_CHUNK_ROWS + 1]))
    width = draw(st.integers(1, 5))
    pool = draw(st.lists(_BLOCK_VALUES | st.floats(), min_size=1, max_size=4))
    picks = cycled(draw, st.tuples(*[st.integers(0, len(pool) - 1)] * width), n)
    block = np.array(pool)[np.array(picks, dtype=np.intp).reshape(n, width)]
    if draw(st.booleans()):  # column-major, as a transposed array is
        block = np.asfortranarray(block)
    ids = np.array(cycled(draw, WRITER_IDS, n), dtype=object)
    ints = _int_array(cycled(draw, st.integers(-2**70, 2**70), n), draw(st.booleans()))
    return [ids, block, ints, block[:, 0].copy()]


class TestCsvWriterOracle:
    @settings(max_examples=80, deadline=None)
    @given(_writer_cohorts())
    def test_cohort_bytes_match_the_csv_writer(self, cohort):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            write_cohort_csv(cohort, path)
            assert path.read_bytes() == _csv_writer_cohort_bytes(cohort)

    def test_every_column_kind_matches_the_csv_writer(self):
        # kinds no cohort column has: bools, fixed-width text, and object cells of mixed types
        columns = [
            np.array([True, False, True]),
            np.array(["x", 'say "y"', "a\r\nb"]),
            np.array([np.float64(0.5), None, 10**30], dtype=object),
            np.array([0.1, np.nan, -0.0], dtype=np.float32),
            np.array([-1, 0, 2**40], dtype=np.int64),
        ]
        header = ["flag", "note,", 'q"', "line\nbreak", ""]
        buffer = io.StringIO(newline="")
        write_csv_columns(buffer, header, columns)
        assert buffer.getvalue().encode("utf-8") == csv_writer_bytes([header, *zip(*(c.tolist() for c in columns))])

    @settings(max_examples=60, deadline=None)
    @given(_writer_blocks())
    def test_block_bytes_match_the_csv_writer(self, columns):
        # a 2-D block stands for its columns: the oracle gets them one by one
        flat = [c for column in columns for c in (column.T if column.ndim == 2 else [column])]
        header = [f"c{j}" for j in range(len(flat))]
        buffer = io.StringIO(newline="")
        write_csv_columns(buffer, header, columns)
        assert buffer.getvalue().encode("utf-8") == csv_writer_bytes([header, *zip(*(c.tolist() for c in flat))])

    def test_a_block_keeps_signed_zeros_nans_and_subnormals_apart(self):
        # equal under np.unique's float compare, or printed alike, but keyed on their bits
        values = [0.0, -0.0, 5e-324, -5e-324, math.nan, -math.nan, 0.0, -0.0]
        block = np.array([values, values[::-1]])
        buffer = io.StringIO(newline="")
        write_csv_columns(buffer, [f"c{j}" for j in range(len(values))], [block])
        assert buffer.getvalue().splitlines()[1:] == [
            "0.0,-0.0,5e-324,-5e-324,nan,nan,0.0,-0.0", "-0.0,0.0,nan,nan,-5e-324,5e-324,-0.0,0.0",
        ]

    def test_a_fuse_table_is_written_in_bounded_memory(self):
        # the 14 columns of a fuse table of 50 000 patients: only a chunk's cells are alive at a time
        cohort = generate_cohort(SyntheticSpec(n_patients=50_000))
        covariate = normalize_clinical(cohort.age, ClinicalNormalizer("age", 20, 95))
        _, weights, fused = fuse_matrix(cohort.probs, covariate, 0.5)
        labels = [np.array(["good", "poor"], dtype=object)[(fused > cut).astype(np.intp)] for cut in (0.4, 0.5)]
        columns = [cohort.ids, *cohort.probs.T, *weights.T, fused, *labels]
        header = [f"c{j}" for j in range(len(columns))]
        with open(os.devnull, "w", newline="", encoding="utf-8") as handle:
            _, peak, _ = transient_peak(lambda: write_csv_columns(handle, header, columns))
        assert peak < 1_000_000  # about 0.6-0.7 MB with 512-row chunks, 1.2-1.4 MB with 1 024

    def test_a_fuse_table_with_a_weight_block_is_written_in_bounded_memory(self):
        # the same table with its weights as one block: each chunk's distinct values are alive for that chunk only
        cohort = generate_cohort(SyntheticSpec(n_patients=50_000))
        covariate = normalize_clinical(cohort.age, ClinicalNormalizer("age", 20, 95))
        _, weights, fused = fuse_matrix(cohort.probs, covariate, 0.5)
        labels = [np.array(["good", "poor"], dtype=object)[(fused > cut).astype(np.intp)] for cut in (0.4, 0.5)]
        columns = [cohort.ids, *cohort.probs.T, weights, fused, *labels]
        header = [f"c{j}" for j in range(len(columns) + weights.shape[1] - 1)]
        with open(os.devnull, "w", newline="", encoding="utf-8") as handle:
            _, peak, _ = transient_peak(lambda: write_csv_columns(handle, header, columns))
        assert peak < 1_000_000  # about 0.6-0.7 MB with 512-row chunks, 1.2-1.4 MB with 1 024

    def test_a_synth_cohort_is_written_in_bounded_memory(self, tmp_path: Path):
        # synth's table of 50 000 patients, through the file write and rename
        cohort = generate_cohort(SyntheticSpec(n_patients=50_000))
        _, peak, _ = transient_peak(lambda: write_cohort_csv(cohort, tmp_path / "c.csv"))
        assert peak < 700_000  # about 0.46 MB with 512-row chunks, 0.92 MB with 1 024
