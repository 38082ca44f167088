"""Command-line interface: commands, exit codes, config-file handling."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mrsfuse.cli
import mrsfuse.cohort
import mrsfuse.crossval
from conftest import (
    CHUNK_EDGE_ROWS,
    REFERENCE_PRELIM_THRESHOLD,
    SRC_DIR,
    TABLE_CONSISTENT_FINAL_THRESHOLD,
    WRITER_IDS,
    WRITER_MODULE_NAMES,
    csv_writer_bytes,
    cycled,
    fuse_rows,
    panel_rows,
    run_cli,
    transient_peak,
)
from mrsfuse import (
    ClinicalNormalizer,
    Cohort,
    FusionConfig,
    OutcomeLabel,
    SyntheticSpec,
    generate_cohort,
    read_cohort_csv,
    write_cohort_csv,
)
from mrsfuse.cohort import CSV_CHUNK_ROWS, module_column
from mrsfuse.metrics import MEASURES

NIHSS_FLAGS = (
    "--variable", "nihss", "--norm-min", "0", "--norm-max", "26",
    "--tau", str(REFERENCE_PRELIM_THRESHOLD),
    "--tau-star", str(TABLE_CONSISTENT_FINAL_THRESHOLD),
    "--strategy", "fixed",
)


def read_csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


def write_thirty_run_summaries(directory: Path, shift: int, step: int) -> list[str]:
    """Two 30-run summaries, ``a.json`` and ``b.json``, for the normal approximation.

    The auc values lie on a 1/64 grid, so the differences are exact: some are
    zero and equal magnitudes tie exactly.
    """
    values = {
        "a": [(32 + (7 * i) % 23) / 64 for i in range(30)],
        "b": [(32 + (7 * i) % 23 + (step * i) % 9 - shift) / 64 for i in range(30)],
    }
    paths = []
    for name, aucs in values.items():
        runs = [{"run_index": i, "metrics": {"auc": v}} for i, v in enumerate(aucs)]
        document = {"model": name, "seed_schedule": list(range(30)), "runs": runs}
        path = directory / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        paths.append(str(path))
    return paths


def write_tiny_cohort(path: Path, n: int = 12, seed: int = 5) -> Path:
    result = run_cli(
        "synth", "--n-patients", str(n), "--seed", str(seed),
        "--module-aucs", "0.75,0.65", "--module-names", "ADC,DWI",
        "--out", str(path),
    )
    assert result.returncode == 0, result.stderr
    return path


class TestFuse:
    def test_reference_panel_weights_and_labels(self, nihss_panel_csv):
        result = run_cli("fuse", "--cohort", str(nihss_panel_csv), *NIHSS_FLAGS)
        assert result.returncode == 0, result.stderr
        rows = read_csv_rows(result.stdout)
        by_id = {row["patient_id"]: row for row in rows}
        for ref in panel_rows("nihss"):
            row = by_id[ref.patient_id]
            for module, printed in zip(("adc", "cbf", "cbv", "dwi", "tmax"), ref.printed_weights):
                assert abs(float(row[f"w_{module}"]) - printed) < 0.01
            assert row["label_weighted"] == ref.label_weighted
            assert float(row["fused_prob"]) == pytest.approx(ref.fused_expected, abs=1e-9)

    def test_unweighted_labels_at_published_threshold(self, nihss_panel_csv):
        result = run_cli(
            "fuse", "--cohort", str(nihss_panel_csv),
            "--variable", "none", "--tau", "0.40", "--tau-star", "0.40", "--strategy", "fixed",
        )
        assert result.returncode == 0, result.stderr
        by_id = {row["patient_id"]: row for row in read_csv_rows(result.stdout)}
        for ref in panel_rows("nihss"):
            assert by_id[ref.patient_id]["label_unweighted"] == ref.label_unweighted
            assert by_id[ref.patient_id]["label_weighted"] == ref.label_unweighted

    def test_json_format(self, nihss_panel_csv, tmp_path):
        out = tmp_path / "fused.json"
        result = run_cli(
            "fuse", "--cohort", str(nihss_panel_csv), *NIHSS_FLAGS,
            "--format", "json", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(out.read_text())
        assert len(document["patients"]) == 5
        assert document["config"]["final_threshold"] == TABLE_CONSISTENT_FINAL_THRESHOLD

    def test_searches_thresholds_on_labeled_cohort(self, tmp_path):
        cohort = write_tiny_cohort(tmp_path / "tiny.csv", n=30)
        result = run_cli("fuse", "--cohort", str(cohort), "--variable", "nihss")
        assert result.returncode == 0, result.stderr
        assert len(read_csv_rows(result.stdout)) == 30

    def test_empty_cohort_exit_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("patient_id,age,nihss,mrs,p_adc\n", encoding="utf-8")
        result = run_cli("fuse", "--cohort", str(path), "--variable", "none",
                         "--tau", "0.4", "--tau-star", "0.4", "--strategy", "fixed")
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_missing_cohort_file_exit_3(self, tmp_path):
        result = run_cli("fuse", "--cohort", str(tmp_path / "nope.csv"), "--variable", "none")
        assert result.returncode == 3
        assert "error: io" in result.stderr

    @pytest.mark.parametrize("flags", [
        ["--variable", "none"],
        ["--variable", "none", "--strategy", "fixed", "--tau", "0.4", "--tau-star", "0.45"],
        ["--variable", "nihss"],
        ["--variable", "age", "--strategy", "fixed", "--tau", "0.4", "--tau-star", "0.45",
         "--norm-min", "20", "--norm-max", "95"],
    ], ids=["none_youden", "none_fixed", "nihss_youden", "age_fixed"])
    def test_one_kernel_call_per_weighting_and_searched_final_threshold(self, flags, tmp_path, monkeypatch, capsys):
        # every call fuses all n rows: one per distinct weighting (the command's and the unweighted labels'),
        # plus one for the training scores of a searched final threshold
        n = 40
        path = tmp_path / "cohort.csv"
        write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=n, seed=3)), path)
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        sizes, fuse = [], mrsfuse.crossval.fuse_matrix
        monkeypatch.setattr(mrsfuse.crossval, "fuse_matrix",
                            lambda probs, *args: sizes.append(len(probs)) or fuse(probs, *args))
        assert mrsfuse.cli.main(["fuse", "--cohort", str(path), *flags]) == 0
        args = mrsfuse.cli.build_parser().parse_args(["fuse", *flags])
        assert sizes == [n] * (len({args.variable, "none"}) + (args.tau_star is None))


def _fuse_table(cohort_path: Path, config: FusionConfig) -> tuple[FusionConfig, list[str], list[list]]:
    """The resolved config, the header and the rows of the table that fuse writes, built row by row."""
    cohort = read_cohort_csv(cohort_path)
    resolved, _ = mrsfuse.crossval.resolve_fold_config(cohort, config)
    _, weights, fused, poor = fuse_rows(cohort, resolved)
    poor_unweighted = fuse_rows(cohort, replace(resolved, clinical_variable="none", normalizer=None))[3]
    label_names = [str(label) for label in OutcomeLabel]
    header = (
        ["patient_id"] + [module_column(name) for name in cohort.module_names]
        + [f"w_{name.lower()}" for name in cohort.module_names]
        + ["fused_prob", "label_unweighted", "label_weighted"]
    )
    table = [
        [pid, *probs, *w, f, label_names[unweighted], label_names[weighted]]
        for pid, probs, w, f, unweighted, weighted in zip(
            cohort.ids.tolist(), cohort.probs.tolist(), weights.tolist(), fused.tolist(),
            poor_unweighted.tolist(), poor.tolist(),
        )
    ]
    return resolved, header, table


def _csv_writer_fuse_bytes(cohort_path: Path, config: FusionConfig) -> bytes:
    """The table fuse built row by row for csv.writer before it streamed its columns, kept as its oracle."""
    _, header, table = _fuse_table(cohort_path, config)
    return csv_writer_bytes([header, *table])


def _whole_json_fuse_bytes(cohort_path: Path, config: FusionConfig) -> bytes:
    """The document fuse built whole for one json.dumps before it streamed its patients by chunk, kept as its
    oracle."""
    resolved, header, table = _fuse_table(cohort_path, config)
    document = {
        "config": {
            "clinical_variable": resolved.clinical_variable,
            "prelim_threshold": resolved.prelim_threshold,
            "final_threshold": resolved.final_threshold,
        },
        "patients": [dict(zip(header, row)) for row in table],
    }
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


_FIXED = ["--strategy", "fixed"]
FUSE_SETTINGS = [
    (["--variable", "age", "--norm-min", "20", "--norm-max", "95", "--tau", "0.5", "--tau-star", "0.5", *_FIXED],
     FusionConfig("age", ClinicalNormalizer("age", 20.0, 95.0), 0.5, 0.5, "fixed")),
    (["--variable", "nihss", "--norm-min", "0", "--norm-max", "26", "--tau", "0.4", "--tau-star", "0.45", *_FIXED],
     FusionConfig("nihss", ClinicalNormalizer("nihss", 0.0, 26.0), 0.4, 0.45, "fixed")),
    (["--variable", "none", "--tau", "0.3", "--tau-star", "0.6", *_FIXED],
     FusionConfig("none", None, 0.3, 0.6, "fixed")),
]


# ids json must escape (a quote, a backslash, line breaks, U+2028) or writes as they are (non-ASCII, "null")
JSON_IDS = st.text(alphabet=['"', ",", "\\", "\r", "\n", "\u2028", "é", "a"], max_size=5) | st.just("null")


@st.composite
def valid_cohorts(draw, ids=WRITER_IDS, sizes=CHUNK_EDGE_ROWS):
    """Cohorts that pass validation, with ids and module names that csv must quote."""
    module_names = draw(WRITER_MODULE_NAMES)
    n = draw(st.sampled_from(sizes))  # an empty cohort fails validation
    unit = st.floats(0.0, 1.0)
    # the "#i" suffix keeps ids unique and non-empty once the reader strips them
    ids = [f"{text}#{i}" for i, text in enumerate(cycled(draw, ids, n))]
    probs = np.array(cycled(draw, st.tuples(*[unit] * len(module_names)), n)).reshape(n, len(module_names))
    return Cohort.of_columns(
        module_names, np.array(ids, dtype=object), probs, np.array(cycled(draw, st.floats(0.0, 120.0), n)),
        np.array(cycled(draw, st.integers(0, 42), n), dtype=np.int64),
        np.array(cycled(draw, st.none() | st.integers(0, 6), n), dtype=object),
    )


class TestFuseCsvOracle:
    @settings(max_examples=30, deadline=None)
    @given(valid_cohorts(), st.sampled_from(FUSE_SETTINGS))
    def test_stdout_and_out_bytes_match_the_csv_writer(self, cohort, fuse_settings):
        flags, config = fuse_settings
        with tempfile.TemporaryDirectory() as tmp:
            cohort_path, out, empty = Path(tmp) / "cohort.csv", Path(tmp) / "fused.csv", Path(tmp) / "empty.json"
            write_cohort_csv(cohort, cohort_path)
            empty.write_text("{}", encoding="utf-8")  # shadows any MRSFUSE_CONFIG
            argv = ["fuse", "--cohort", str(cohort_path), "--config", str(empty), *flags]
            stdout = io.StringIO(newline="")
            with contextlib.redirect_stdout(stdout):
                assert mrsfuse.cli.main(argv) == 0
            assert mrsfuse.cli.main([*argv, "--out", str(out)]) == 0
            expected = _csv_writer_fuse_bytes(cohort_path, config)
            assert stdout.getvalue().encode("utf-8") == expected
            assert out.read_bytes() == expected

    @settings(max_examples=20, deadline=None)
    @given(valid_cohorts(JSON_IDS, [*CHUNK_EDGE_ROWS, 2 * CSV_CHUNK_ROWS + 1]), st.sampled_from(FUSE_SETTINGS))
    def test_stdout_and_out_json_match_the_whole_document(self, cohort, fuse_settings):
        # the patients go out by chunk, each re-indented to sit in the document: the bytes of one json.dumps
        flags, config = fuse_settings
        with tempfile.TemporaryDirectory() as tmp:
            cohort_path, out, empty = Path(tmp) / "cohort.csv", Path(tmp) / "fused.json", Path(tmp) / "empty.json"
            write_cohort_csv(cohort, cohort_path)
            empty.write_text("{}", encoding="utf-8")  # shadows any MRSFUSE_CONFIG
            argv = ["fuse", "--cohort", str(cohort_path), "--config", str(empty), *flags, "--format", "json"]
            stdout = io.StringIO(newline="")
            with contextlib.redirect_stdout(stdout):
                assert mrsfuse.cli.main(argv) == 0
            assert mrsfuse.cli.main([*argv, "--out", str(out)]) == 0
            expected = _whole_json_fuse_bytes(cohort_path, config)
            assert stdout.getvalue().encode("utf-8") == expected
            assert out.read_bytes() == expected

    @pytest.mark.parametrize("source", ["nihss_panel", "synth_1030", "synth_1030_unweighted"])
    def test_json_patients_equal_the_csv_rows(self, source, nihss_panel_csv, tmp_path, monkeypatch):
        # the CSV writes the weights as one block and the JSON as columns: the same keys, the JSON's sorted,
        # and read in header order the same cells, each float's repr equal to its CSV cell; unweighted, the
        # weights are a read-only view of one value
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        if source == "nihss_panel":
            cohort_path, flags = nihss_panel_csv, NIHSS_FLAGS
        else:  # a chunk and a few rows more, the thresholds searched
            variable = "none" if source.endswith("unweighted") else "age"
            cohort_path, flags = tmp_path / "synth.csv", ("--variable", variable)
            write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=1030, seed=2)), cohort_path)
        tables = {}
        for fmt in ("csv", "json"):
            tables[fmt] = tmp_path / f"fused.{fmt}"
            argv = ["fuse", "--cohort", str(cohort_path), *flags, "--format", fmt, "--out", str(tables[fmt])]
            assert mrsfuse.cli.main(argv) == 0
        header, *rows = csv.reader(io.StringIO(tables["csv"].read_text(encoding="utf-8"), newline=""))
        patients = json.loads(tables["json"].read_text(encoding="utf-8"))["patients"]
        assert len(patients) == len(rows) == (5 if source == "nihss_panel" else 1030)
        for patient, row in zip(patients, rows):
            assert list(patient) == sorted(header)
            assert [repr(v) if isinstance(v, float) else v for v in map(patient.get, header)] == row

    def test_integer_bounds_of_an_overflowing_span_fuse_as_float_bounds(self, tmp_path):
        # an int64 span 2**62 - -2**62 would wrap and scale every nihss to 0 instead of the neutral 0.5
        cohort_path, config_path, out = tmp_path / "cohort.csv", tmp_path / "config.json", tmp_path / "fused.csv"
        write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=60, seed=1)), cohort_path)
        tables = []
        for bound in (2**62, 2.0**62):
            config_path.write_text(json.dumps({"cohort": str(cohort_path), "variable": "nihss", "norm_min": -bound,
                                               "norm_max": bound, "tau": 0.4, "tau_star": 0.4, "strategy": "fixed"}))
            assert mrsfuse.cli.main(["fuse", "--config", str(config_path), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        config = FusionConfig("nihss", ClinicalNormalizer("nihss", -2**62, 2**62), 0.4, 0.4, "fixed")
        assert tables[0] == tables[1] == _csv_writer_fuse_bytes(cohort_path, config)


class TestValidate:
    def test_clean_cohort(self, tmp_path):
        cohort = write_tiny_cohort(tmp_path / "ok.csv")
        result = run_cli("validate", "--cohort", str(cohort))
        assert result.returncode == 0
        assert result.stdout.startswith("ok:")

    def test_bom_prefixed_cohort(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte order mark
        cohort = write_tiny_cohort(tmp_path / "ok.csv")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + cohort.read_bytes())
        result = run_cli("validate", "--cohort", str(bom))
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("ok: 12 patients")

    def test_violations_exit_2_with_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "patient_id,age,nihss,mrs,p_adc\n"
            "a,60,5,1,1.3\n"
            "b,60,50,2,0.4\n",
            encoding="utf-8",
        )
        result = run_cli("validate", "--cohort", str(path))
        assert result.returncode == 2
        assert "p_adc" in result.stdout
        assert "nihss" in result.stdout
        assert "error: validation" in result.stderr

    @pytest.mark.parametrize("flag, value", [("--out", "x.json"), ("--format", "json")])
    def test_output_flags_are_rejected(self, tmp_path, capsys, flag, value):
        # validate writes nothing, so it takes neither flag
        assert mrsfuse.cli.main(["validate", "--cohort", str(tmp_path / "c.csv"), flag, value]) == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        assert not (tmp_path / value).exists()

    def test_integer_and_nan_cells_keep_their_error_lines(self, tmp_path, capsys):
        # int64 overflow, an integer beyond any fixed width, and nan each print as parsed
        path = tmp_path / "odd.csv"
        path.write_text(
            "patient_id,age,nihss,mrs,p_adc\n"
            "a,60,9223372036854775808,1,0.3\n"
            "b,61,4,99999999999999999999999,0.4\n"
            "c,-0,5,2,nan\n",
            encoding="utf-8",
        )
        lines = [
            "a: nihss: nihss must be an integer in 0..42, got 9223372036854775808",
            "b: mrs: mrs must be an integer in 0..6 or absent, got 99999999999999999999999",
            "c: p_adc: probability must be in [0, 1], got nan",
        ]
        assert mrsfuse.cli.main(["validate", "--cohort", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.out.splitlines() == lines
        assert printed.err == "error: validation: 3 violations\n"
        assert mrsfuse.cli.main(["cv", "--cohort", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.err.splitlines() == [f"error: validation: {line}" for line in lines] + [
            f"error: {path}: 3 validation violations"
        ]

    @pytest.mark.parametrize("command", ["validate", "fuse", "cv"])
    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_the_line(self, tmp_path, capsys, command, line):
        # a cell beyond the csv module's field size limit, in the header or a row
        rows = ["patient_id,age,nihss,mrs,p_adc", "a,60,5,1,0.3", "b,61,4,2,0.4"]
        rows[line - 1] += "," + "x" * 131_073
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert mrsfuse.cli.main([command, "--cohort", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.err == f"error: {path}:{line}: unparseable row: field larger than field limit (131072)\n"

    def test_non_utf8_cohort_exit_2(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"patient_id,age,nihss,mrs,p_adc\nJos\xe9,60,5,1,0.3\n\xff,61,4,2,0.4\n")
        result = run_cli("validate", "--cohort", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {path}: not UTF-8")


class TestSynth:
    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 17, "seed": 3}), encoding="utf-8")
        out = tmp_path / "cohort.csv"
        result = run_cli("synth", "--spec", str(spec), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert len(read_csv_rows(out.read_text())) == 17

    def test_byte_identical_reruns(self, tmp_path):
        a = write_tiny_cohort(tmp_path / "a.csv", n=25, seed=8)
        b = write_tiny_cohort(tmp_path / "b.csv", n=25, seed=8)
        assert a.read_bytes() == b.read_bytes()

    def test_out_succeeds_beside_stale_tmp_directory(self, tmp_path):
        # a leftover "<out>.tmp" must not block the write: temp names are unique
        out = tmp_path / "c.csv"
        (tmp_path / "c.csv.tmp").mkdir()
        result = run_cli("synth", "--n-patients", "12", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert len(read_csv_rows(out.read_text())) == 12
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.tmp"]

    def test_module_names_colliding_ignoring_case_exit_2(self, tmp_path, capsys):
        # both would write the column p_adc, which validate then rejects
        out = tmp_path / "c.csv"
        argv = ["synth", "--n-patients", "12", "--module-names", "adc,ADC", "--module-aucs", "0.7,0.7"]
        assert mrsfuse.cli.main([*argv, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.err == (
            f"error: {out}: duplicate column 'p_adc': module names must differ ignoring case\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_zero_prevalence_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 10, "prevalence_poor": 0.0}), encoding="utf-8")
        result = run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "c.csv"))
        assert result.returncode == 2

    def test_unknown_spec_key_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 10, "n_modules": 5}), encoding="utf-8")
        result = run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "c.csv"))
        assert result.returncode == 2
        assert "n_modules" in result.stderr

    def test_non_utf8_spec_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b"\xff{}")
        result = run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "c.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {spec}: not UTF-8")

    def test_non_string_module_name_in_spec_exit_2(self, tmp_path, monkeypatch, capsys):
        # a number among the names used to escape as an AttributeError from the CSV header
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 5, "module_names": [3], "module_aucs": [0.7]}), encoding="utf-8")
        assert mrsfuse.cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == "error: invalid synthetic spec: module names must be strings, got 3\n"
        assert not (tmp_path / "c.csv").exists()

    def test_non_numeric_module_aucs_exit_2(self, tmp_path):
        result = run_cli("synth", "--n-patients", "10", "--module-aucs", "a,b",
                         "--out", str(tmp_path / "c.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith("error: --module-aucs")

    def test_non_numeric_spec_aucs_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 10, "module_aucs": ["a", "b"]}), encoding="utf-8")
        result = run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "c.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith("error: invalid synthetic spec")

    def test_prevalence_flag_sets_the_spec_key(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 30, "seed": 4, "prevalence_poor": 0.4}), encoding="utf-8")
        from_spec, from_flag = tmp_path / "spec.csv", tmp_path / "flag.csv"
        assert mrsfuse.cli.main(["synth", "--spec", str(spec), "--out", str(from_spec)]) == 0
        argv = ["synth", "--n-patients", "30", "--seed", "4", "--prevalence", "0.4", "--out", str(from_flag)]
        assert mrsfuse.cli.main(argv) == 0
        assert from_flag.read_bytes() == from_spec.read_bytes()

    def test_flags_override_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_patients": 10, "seed": 3}), encoding="utf-8")
        out = tmp_path / "c.csv"
        result = run_cli("synth", "--spec", str(spec), "--n-patients", "6", "--out", str(out))
        assert result.returncode == 0
        assert len(read_csv_rows(out.read_text())) == 6


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    return write_tiny_cohort(tmp_path_factory.mktemp("cv") / "cohort.csv", n=40, seed=12)


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cmp")
    cohort = write_tiny_cohort(tmp / "cohort.csv", n=40, seed=12)
    out_a = tmp / "a.json"
    out_b = tmp / "b.json"
    for out in (out_a, out_b):
        result = run_cli(
            "cv", "--cohort", str(cohort), "--variable", "nihss",
            "--k", "4", "--runs", "4", "--seed", "7", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
    return out_a, out_b


def cv_fusions(monkeypatch, cohort: Cohort, path: Path, *flags: str) -> tuple[list[np.ndarray], dict]:
    """The probability blocks that ``crossval.fuse_matrix`` fuses in ``cv`` of ``cohort`` (written to ``path``),
    in call order, and the summary ``cv`` writes."""
    write_cohort_csv(cohort, path)
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    blocks, fuse = [], mrsfuse.crossval.fuse_matrix
    monkeypatch.setattr(mrsfuse.crossval, "fuse_matrix",
                        lambda probs, *args: blocks.append(probs) or fuse(probs, *args))
    out = path.with_suffix(".json")
    assert mrsfuse.cli.main(["cv", "--cohort", str(path), *flags, "--out", str(out)]) == 0
    return blocks, json.loads(out.read_text(encoding="utf-8"))


class TestCv:
    def test_summary_json_structure(self, cohort_csv, tmp_path):
        out = tmp_path / "summary.json"
        result = run_cli(
            "cv", "--cohort", str(cohort_csv), "--variable", "nihss",
            "--k", "4", "--runs", "3", "--seed", "7", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(out.read_text())
        assert document["primary"] == "ensemble_w_nihss"
        assert set(document["variants"]) == {"ADC", "DWI", "ensemble", "ensemble_w_nihss"}
        for variant in document["variants"].values():
            assert set(variant["measures"]) == {
                "accuracy", "sensitivity", "specificity", "f1", "mae", "auc"
            }
            for stats in variant["measures"].values():
                assert stats is not None and 0.0 <= stats["mean"] <= 1.0
        assert "measure" in result.stdout  # human-readable table printed

    def test_single_run_has_zero_std(self, cohort_csv, tmp_path):
        out = tmp_path / "summary.json"
        result = run_cli(
            "cv", "--cohort", str(cohort_csv), "--variable", "none",
            "--k", "4", "--runs", "1", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(out.read_text())
        for variant in document["variants"].values():
            for stats in variant["measures"].values():
                assert stats["std"] == 0.0

    def test_out_succeeds_beside_stale_tmp_directory(self, cohort_csv, tmp_path):
        out = tmp_path / "summary.json"
        (tmp_path / "summary.json.tmp").mkdir()
        result = run_cli(
            "cv", "--cohort", str(cohort_csv), "--variable", "none",
            "--k", "3", "--runs", "1", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["primary"] == "ensemble"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json", "summary.json.tmp"]

    def test_missing_mrs_column_exit_2(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("patient_id,age,nihss,p_adc\na,60,5,0.2\n", encoding="utf-8")
        result = run_cli("cv", "--cohort", str(path))
        assert result.returncode == 2
        assert "mrs" in result.stderr

    def test_unlabeled_patient_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\nb,61,4,,0.4\nc,70,9,4,0.7\n",
                        encoding="utf-8")
        assert mrsfuse.cli.main(["cv", "--cohort", str(path), "--k", "2", "--runs", "1"]) == 2
        assert capsys.readouterr() == ("", "error: patient 'b' has no recorded mrs\n")

    def test_csv_format(self, cohort_csv, tmp_path):
        out = tmp_path / "summary.csv"
        result = run_cli(
            "cv", "--cohort", str(cohort_csv), "--variable", "none",
            "--k", "4", "--runs", "2", "--format", "csv", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        rows = read_csv_rows(out.read_text())
        assert [row["model"] for row in rows] == ["ADC", "DWI", "ensemble"]
        assert all("auc_mean" in row for row in rows)

    def test_csv_bytes_match_the_csv_writer(self, cohort_csv, monkeypatch, capsys):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        argv = ["cv", "--cohort", str(cohort_csv), "--variable", "age", "--k", "3", "--runs", "2"]
        assert mrsfuse.cli.main(argv) == 0
        variants = json.loads(capsys.readouterr().out)["variants"]
        assert mrsfuse.cli.main([*argv, "--format", "csv"]) == 0
        header = ["model"] + [f"{m}_{s}" for m in MEASURES for s in ("mean", "std")]
        rows = [[name] + [(variant["measures"][m] or {"mean": "", "std": ""})[s] for m in MEASURES
                          for s in ("mean", "std")] for name, variant in variants.items()]
        assert capsys.readouterr().out.encode("utf-8") == csv_writer_bytes([header, *rows])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_is_the_document_without_out(self, cohort_csv, tmp_path, monkeypatch, capsys, fmt):
        # the measures table is printed only beside a file, so `cv > summary` is usable
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        out = tmp_path / f"summary.{fmt}"
        argv = ["cv", "--cohort", str(cohort_csv), "--k", "3", "--runs", "2", "--format", fmt]
        assert mrsfuse.cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("measure")
        assert mrsfuse.cli.main(argv) == 0
        assert capsys.readouterr().out == out.read_bytes().decode("utf-8")


    def test_a_one_module_cohort_fuses_its_rows_once(self, tmp_path, monkeypatch):
        # the module alone, ensemble and ensemble_w_nihss all read the one module set, so they share one fusion
        cohort = generate_cohort(SyntheticSpec(n_patients=200, module_names=("ADC",), module_aucs=(0.7,)))
        blocks, summary = cv_fusions(monkeypatch, cohort, tmp_path / "cohort.csv", "--runs", "3")
        assert [block.shape for block in blocks] == [(200, 1)]
        assert list(summary["variants"]) == ["ADC", "ensemble", "ensemble_w_nihss"]
        assert all(len(variant["runs"]) == 3 for variant in summary["variants"].values())

    def test_a_single_class_cohort_fuses_nothing(self, tmp_path, monkeypatch):
        # every run fails in make_folds, before any variant reads a score set
        base = generate_cohort(SyntheticSpec(n_patients=40, seed=12))
        cohort = Cohort.of_columns(base.module_names, base.ids, base.probs, base.age, base.nihss,
                                   np.maximum(base.mrs, 3))
        blocks, summary = cv_fusions(monkeypatch, cohort, tmp_path / "cohort.csv", "--runs", "3")
        assert blocks == []
        failed = [f"run {i}: a training fold contains a single outcome class" for i in range(3)]
        assert len(summary["variants"]) == len(base.module_names) + 2
        for variant in summary["variants"].values():
            assert (variant["runs"], variant["failures"], variant["measures"]["auc"]) == ([], failed, None)

    def test_a_constant_module_is_never_fused(self, tmp_path, monkeypatch):
        # the constant module's every search fails, so its fused scores are never asked for; the other
        # modules and ensemble fuse n rows once, and per run ensemble_w_nihss fuses each training fold and its
        # n test rows
        base = generate_cohort(SyntheticSpec(n_patients=60, seed=5))
        probs = base.probs.copy()
        probs[:, 2] = 0.5
        cohort = Cohort.of_columns(base.module_names, base.ids, probs, base.age, base.nihss, base.mrs)
        blocks, summary = cv_fusions(monkeypatch, cohort, tmp_path / "cohort.csv", "--k", "3", "--runs", "2")
        assert len(blocks) == (len(base.module_names) - 1) + 1 + 2 * (3 + 1) == 13
        assert not any(block.shape[1] == 1 and (block == 0.5).all() for block in blocks)
        constant = summary["variants"][base.module_names[2]]
        assert (constant["runs"], len(constant["failures"])) == ([], 2)

    def test_defaults_come_from_the_library(self, cohort_csv, monkeypatch, capsys):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        assert mrsfuse.cli.main(["cv", "--cohort", str(cohort_csv)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["plan"] == mrsfuse.cohort.as_plain(mrsfuse.crossval.CvPlan())
        assert document["primary"] == "ensemble_w_nihss"
        assert all(variant["config"]["strategy"] == "youden" for variant in document["variants"].values())


class TestConfigFile:
    def test_config_file_supplies_options(self, tmp_path):
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"cohort": str(cohort), "variable": "none", "k": 3, "runs": 2}),
            encoding="utf-8",
        )
        out = tmp_path / "summary.json"
        result = run_cli("cv", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        document = json.loads(out.read_text())
        assert document["plan"]["k"] == 3
        assert document["plan"]["n_runs"] == 2

    def test_flags_override_config_file(self, tmp_path):
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"cohort": str(cohort), "variable": "none", "k": 3, "runs": 2}),
            encoding="utf-8",
        )
        out = tmp_path / "summary.json"
        result = run_cli("cv", "--config", str(config), "--k", "4", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["plan"]["k"] == 4

    def test_unknown_config_key_exit_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cohort": "x.csv", "folds": 3}), encoding="utf-8")
        result = run_cli("cv", "--config", str(config))
        assert result.returncode == 2
        assert "folds" in result.stderr

    def test_non_utf8_config_exit_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"cohort": "\xff.csv"}')
        result = run_cli("cv", "--config", str(config))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {config}: not UTF-8")

    @pytest.mark.parametrize("document, key", [
        ({"norm_min": "a", "norm_max": 3}, "norm_min"),
        ({"tau": "0.4"}, "tau"),
        ({"cohort": 5}, "cohort"),
        ({"seed": True}, "seed"),
        ({"stratified": "false"}, "stratified"),
    ])
    def test_wrongly_typed_value_exit_2(self, tmp_path, document, key):
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        result = run_cli("fuse", "--cohort", str(cohort), "--config", str(config))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {config}: config key {key!r} must be")

    @pytest.mark.parametrize("document, flags, problem", [
        ({"variable": "height"}, [], "config key 'variable' must be one of age, nihss, none, got 'height'"),
        ({"strategy": "median"}, [],
         "config key 'strategy' must be one of youden, max_accuracy, fixed, got 'median'"),
        ({"k": 1}, [], "config key 'k' must be an integer >= 2, got 1"),
        ({"runs": 0}, [], "config key 'runs' must be an integer >= 1, got 0"),
        ({"seed": -1}, [], "config key 'seed' must be an integer >= 0, got -1"),
        ({"tau": 1.5}, [], "config key 'tau' must lie in (0, 1), got 1.5"),
        ({"tau_star": 0}, [], "config key 'tau_star' must lie in (0, 1), got 0"),
        ({"norm_min": 5, "norm_max": 1}, [], "config key 'norm_max' must be greater than 'norm_min' (5), got 1"),
        ({"norm_max": 1}, ["--norm-min", "5"], "config key 'norm_max' must be greater than 'norm_min' (5.0), got 1"),
        ({"norm_min": 5}, ["--norm-max", "1"], "config key 'norm_min' must be less than 'norm_max' (1.0), got 5"),
        # each bound has its own finite rule; an int too large for a float is not finite
        ({"norm_min": 0, "norm_max": float("inf")}, [], "config key 'norm_max' must be a finite number, got inf"),
        ({"norm_min": float("nan"), "norm_max": 5}, [], "config key 'norm_min' must be a finite number, got nan"),
        ({"norm_min": 0, "norm_max": 10**400}, [], f"config key 'norm_max' must be a finite number, got {10**400!r}"),
    ], ids=["variable", "strategy", "k", "runs", "seed", "tau", "tau_star", "norm_max", "norm_max_beside_flag",
            "norm_min_beside_flag", "infinite_max", "nan_min", "int_beyond_float"])
    def test_out_of_range_value_names_file_and_key(self, tmp_path, capsys, monkeypatch, document, flags, problem):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert mrsfuse.cli.main(["cv", "--cohort", str(cohort), "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == f"error: {config}: {problem}\n"

    @pytest.mark.parametrize("key, flag, document, flags", [
        ("k", "--k", {"k": 1}, ["--k", "1"]),
        ("runs", "--runs", {"runs": 0}, ["--runs", "0"]),
        ("seed", "--seed", {"seed": -1}, ["--seed", "-1"]),
        ("tau", "--tau", {"tau": 1.5}, ["--tau", "1.5"]),
        ("tau_star", "--tau-star", {"tau_star": 0.0}, ["--tau-star", "0"]),
        ("norm_max", "--norm-max", {"norm_min": 5.0, "norm_max": 1.0}, ["--norm-min", "5", "--norm-max", "1"]),
    ], ids=["k", "runs", "seed", "tau", "tau_star", "reversed_bounds"])
    def test_one_rule_reads_alike_from_flag_and_file(self, tmp_path, capsys, monkeypatch, key, flag, document, flags):
        # the file line is the flag line with the config key in place of each flag
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert mrsfuse.cli.main(["cv", "--cohort", str(cohort), "--variable", "age", *flags]) == 2
        flag_line = capsys.readouterr().err
        assert flag_line.startswith(f"error: {flag} ")
        rest = flag_line.removeprefix(f"error: {flag}").replace("--norm-min", "'norm_min'")
        assert mrsfuse.cli.main(["cv", "--cohort", str(cohort), "--variable", "age", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}: config key {key!r}{rest}"

    @pytest.mark.parametrize("document, flags, line", [
        ({"norm_min": 0}, [], "{config}: config key 'norm_min' must be given together with 'norm_max', got 0"),
        ({"norm_max": 26}, [], "{config}: config key 'norm_max' must be given together with 'norm_min', got 26"),
        ({"norm_min": 0}, ["--norm-min", "1"], "--norm-min must be given together with --norm-max, got 1.0"),
        ({}, ["--norm-max", "26"], "--norm-max must be given together with --norm-min, got 26.0"),
    ], ids=["file_min", "file_max", "flag_over_file", "flag"])
    def test_lone_bound_names_its_source(self, tmp_path, capsys, monkeypatch, document, flags, line):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert mrsfuse.cli.main(["fuse", "--cohort", str(cohort), "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == "error: " + line.format(config=config) + "\n"

    @pytest.mark.parametrize("argv, document, line", [
        (["validate", "--tau", "1.5"], {}, "--tau must lie in (0, 1), got 1.5"),
        (["validate"], {"strategy": "fixed"},
         "{config}: config key 'strategy' must not be 'fixed' without explicit 'tau' and 'tau_star', got 'fixed'"),
        (["fuse", "--tau", "1.5"], {"cohort": "missing.csv"}, "--tau must lie in (0, 1), got 1.5"),
    ], ids=["validate_flag", "validate_file", "fuse_missing_cohort"])
    def test_settings_are_built_before_the_cohort_is_read(self, tmp_path, capsys, monkeypatch, argv, document, line):
        # a bad setting stops every command before the cohort is read, validate included
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cohort": str(cohort), **document}), encoding="utf-8")
        assert mrsfuse.cli.main([*argv, "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {line.format(config=config)}\n")

    @pytest.mark.parametrize("flags, line", [
        (["--variable", "none", "--norm-min", "0", "--norm-max", "26"],
         "--variable must not be 'none' when --norm-min and --norm-max are given, got 'none'"),
        (["--norm-min", "inf", "--norm-max", "3"], "--norm-min must be a finite number, got inf"),
        (["--norm-min", "5", "--norm-max", "1"], "--norm-max must be greater than --norm-min (5.0), got 1.0"),
        (["--tau", "1.5"], "--tau must lie in (0, 1), got 1.5"),
        (["--tau-star", "0"], "--tau-star must lie in (0, 1), got 0.0"),
        (["--runs", "0"], "--runs must be an integer >= 1, got 0"),
        (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["--k", "1"], "--k must be an integer >= 2, got 1"),
        (["--strategy", "fixed", "--tau", "0.4"],
         "--strategy must not be 'fixed' without explicit --tau and --tau-star, got 'fixed'"),
    ], ids=["variable", "norm_min", "norm_max", "tau", "tau_star", "runs", "seed", "k", "strategy"])
    def test_flag_lines_name_the_flag(self, tmp_path, capsys, monkeypatch, flags, line):
        # the fields the library names otherwise (max, base_seed, ...) are reported by the flag that set them
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        assert mrsfuse.cli.main(["cv", "--cohort", str(tmp_path / "missing.csv"), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize("document, flags, line", [
        ({"strategy": "fixed"}, [], "config key 'strategy' must not be 'fixed' without explicit 'tau' and 'tau_star', "
                                    "got 'fixed'"),
        ({"variable": "none", "norm_min": 0, "norm_max": 26}, [],
         "config key 'variable' must not be 'none' when 'norm_min' and 'norm_max' are given, got 'none'"),
        ({"norm_min": 0, "norm_max": 26}, ["--variable", "none"],
         "config key 'norm_min' needs a 'variable' other than 'none', got 0"),
        ({"variable": "none"}, ["--norm-min", "0", "--norm-max", "26"],
         "config key 'variable' must not be 'none' when 'norm_min' and 'norm_max' are given, got 'none'"),
    ], ids=["fixed_without_thresholds", "bounds_without_variable", "file_bounds_flag_none", "file_none_flag_bounds"])
    def test_cross_field_rules_name_file_and_key(self, tmp_path, capsys, monkeypatch, document, flags, line):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        argv = ["fuse", "--cohort", str(tmp_path / "missing.csv"), "--config", str(config), *flags]
        assert mrsfuse.cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {config}: {line}\n")

    @pytest.mark.parametrize("document, flags", [
        ({"k": 1}, ["--k", "2"]), ({"tau": 1.5}, ["--tau", "0.4"]), ({"variable": "height"}, ["--variable", "none"]),
    ], ids=["k", "tau", "variable"])
    def test_flag_replaces_out_of_range_file_value(self, tmp_path, monkeypatch, document, flags):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert mrsfuse.cli.main(["validate", "--cohort", str(cohort), "--config", str(config), *flags]) == 0

    @pytest.mark.parametrize("flags", [["--norm-min", "0"], ["--norm-max", "10"]])
    def test_flag_replaces_reversed_norm_bound(self, tmp_path, monkeypatch, flags):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"norm_min": 5, "norm_max": 1}), encoding="utf-8")
        assert mrsfuse.cli.main(["fuse", "--cohort", str(cohort), "--config", str(config), *flags]) == 0

    def test_normalizer_span_beyond_largest_float_exit_2(self, tmp_path, monkeypatch, capsys):
        # such bounds scaled every covariate to 0: ages 60 and 70 both weighted as c = 0
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc,p_dwi\na,60,5,1,0.3,0.6\nb,70,9,4,0.7,0.2\n",
                          encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"norm_min": -1e308, "norm_max": 1e308}), encoding="utf-8")
        argv = ["fuse", "--cohort", str(cohort), "--config", str(config), "--variable", "age",
                "--tau", "0.5", "--tau-star", "0.5", "--strategy", "fixed"]
        assert mrsfuse.cli.main(argv) == 2
        problem = "must lie within a finite span of 'norm_min' (-1e+308), got 1e+308"
        assert capsys.readouterr() == ("", f"error: {config}: config key 'norm_max' {problem}\n")

    @pytest.mark.parametrize("command", ["fuse", "cv"])
    def test_unknown_format_exit_2(self, tmp_path, command):
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"cohort": str(cohort), "format": "xml", "k": 3, "runs": 1}), encoding="utf-8"
        )
        out = tmp_path / "out.txt"
        result = run_cli(command, "--config", str(config), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {config}: config key 'format'")
        assert not out.exists()

    def test_missing_cohort_everywhere_exit_2(self):
        result = run_cli("cv")
        assert result.returncode == 2
        assert "cohort" in result.stderr

    def test_env_var_names_default_config(self, tmp_path):
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=20)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"cohort": str(cohort), "variable": "none", "k": 2, "runs": 1}),
            encoding="utf-8",
        )
        out = tmp_path / "summary.json"
        result = run_cli("cv", "--out", str(out), env_config=str(config))
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["plan"]["k"] == 2


# each config key with a flag and a library field: an accepted value, where a cv summary shows it, and the flags
# that the value needs beside it in both runs
TABLE_CASES = {
    "variable": ("age", ("config", "clinical_variable"), ()),
    "norm_min": (1.0, ("config", "normalizer", "min"), ("--norm-max", "30")),
    "norm_max": (30.0, ("config", "normalizer", "max"), ("--norm-min", "1")),
    "tau": (0.45, ("config", "prelim_threshold"), ()),
    "tau_star": (0.55, ("config", "final_threshold"), ()),
    "strategy": ("max_accuracy", ("config", "strategy"), ()),
    "k": (3, ("plan", "k"), ()),
    "runs": (2, ("plan", "n_runs"), ()),
    "seed": (7, ("plan", "base_seed"), ()),
}


def _help_flags(command: str, capsys) -> list[str]:
    with pytest.raises(SystemExit):
        mrsfuse.cli.main([command, "--help"])
    # an option's line starts with two spaces, a usage line's flags sit in brackets
    return [flag for flag in re.findall(r"^ {2}(?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
            if flag != "--help"]


class TestSettingsTable:
    def test_the_cases_cover_every_key_with_a_flag_and_a_field(self):
        assert list(TABLE_CASES) == [key for key, (_, help_text, field) in mrsfuse.cli.CONFIG_FILE_KEYS.items()
                                     if help_text and field]

    @pytest.mark.parametrize("key", list(TABLE_CASES))
    def test_a_key_set_by_flag_or_by_file_gives_the_same_summary(self, key, cohort_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        value, shown_at, beside = TABLE_CASES[key]
        base = [flag for name, flag in (("k", ["--k", "2"]), ("runs", ["--runs", "1"])) if name != key]
        argv = ["cv", "--cohort", str(cohort_csv), *sum(base, []), *beside]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        blocks = []
        for extra in (["--" + key.replace("_", "-"), str(value)], ["--config", str(config)]):
            assert mrsfuse.cli.main([*argv, *extra]) == 0
            document = json.loads(capsys.readouterr().out)
            blocks.append((document["plan"], document["variants"][document["primary"]]["config"]))
            shown = {"plan": document["plan"], "config": blocks[-1][1]}
            for step in shown_at:
                shown = shown[step]
            assert shown == value
        assert blocks[0] == blocks[1]

    def test_integer_bounds_from_a_file_write_the_bytes_of_the_flags(self, cohort_csv, tmp_path, monkeypatch):
        # a bound stored as the float a flag gives: the summary bytes do not depend on where the bound came from
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"norm_min": 1, "norm_max": 30}), encoding="utf-8")
        outs = [tmp_path / "flags.json", tmp_path / "file.json"]
        for out, extra in zip(outs, (["--norm-min", "1", "--norm-max", "30"], ["--config", str(config)])):
            argv = ["cv", "--cohort", str(cohort_csv), "--variable", "age", "--k", "2", "--runs", "1", *extra]
            assert mrsfuse.cli.main([*argv, "--out", str(out)]) == 0
        assert '"norm_min": 1.0' in outs[0].read_text(encoding="utf-8")
        assert outs[1].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize("command", ["fuse", "cv", "validate", "synth"])
    def test_help_lists_the_table_flags_and_the_explicit_ones(self, command, capsys):
        flag = mrsfuse.cli._flag
        if command == "synth":
            rows = [flag(key) for key in mrsfuse.cli.SYNTH_SPEC_KEYS if key != "prevalence_poor"]
            explicit = ["--spec", "--prevalence", "--out"]
        else:
            skip = ("out", "format") if command == "validate" else ()
            rows = [flag(key) for key, (_, help_text, _) in mrsfuse.cli.CONFIG_FILE_KEYS.items()
                    if help_text and key not in skip]
            explicit = ["--config"]
        listed = _help_flags(command, capsys)
        assert sorted(listed) == sorted(rows + explicit)
        assert len(listed) == {"fuse": 13, "cv": 13, "validate": 11, "synth": 9}[command]

    def test_flags_parse_as_their_json_type_or_choices(self):
        parser = mrsfuse.cli.build_parser()
        args = parser.parse_args(["cv", "--norm-min", "1", "--seed", "3", "--strategy", "fixed", "--format", "csv"])
        assert [(type(value), value) for value in (args.norm_min, args.seed, args.strategy, args.format)] == [
            (float, 1.0), (int, 3), (str, "fixed"), (str, "csv")]
        for flag in ("--variable", "--strategy", "--format"):
            with pytest.raises(mrsfuse.cli.ConfigError, match=f"^argument {flag}: invalid choice: 'x'"):
                parser.parse_args(["cv", flag, "x"])

    def test_readme_lists_the_config_keys_in_table_order(self):
        readme = (SRC_DIR.parent / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Recognized\s+keys:(.*?)\.\s", readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", sentence) == list(mrsfuse.cli.CONFIG_FILE_KEYS)


class TestCompare:
    def test_identical_files_p_one(self, summaries):
        out_a, out_b = summaries
        result = run_cli("compare", str(out_a), str(out_b), "--measure", "auc")
        assert result.returncode == 0, result.stderr
        document = json.loads(result.stdout)
        assert document["p_value"] == 1.0
        assert document["degenerate"] is True

    def test_variant_selection(self, summaries):
        out_a, out_b = summaries
        result = run_cli(
            "compare", str(out_a), str(out_b), "--measure", "auc",
            "--variant-a", "ensemble_w_nihss", "--variant-b", "ensemble",
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(result.stdout)
        assert document["a"]["model"] == "ensemble_w_nihss"
        assert document["b"]["model"] == "ensemble"
        assert 0.0 < document["p_value"] <= 1.0

    def test_unknown_measure_exit_2(self, summaries):
        out_a, out_b = summaries
        result = run_cli("compare", str(out_a), str(out_b), "--measure", "brier")
        assert result.returncode == 2
        assert result.stderr.startswith("error: argument --measure: invalid choice: 'brier' (choose from ")

    def test_unknown_measure_exits_2_before_a_missing_summary_is_read(self, summaries, tmp_path, capsys):
        # the parser rejects the measure, so the missing file is never opened: exit 2, not the I/O exit 3
        code = mrsfuse.cli.main(["compare", str(summaries[0]), str(tmp_path / "nope.json"), "--measure", "brier"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: argument --measure: invalid choice: 'brier'")

    def test_unknown_variant_exit_2(self, summaries):
        out_a, out_b = summaries
        result = run_cli("compare", str(out_a), str(out_b), "--measure", "auc",
                         "--variant-a", "nope")
        assert result.returncode == 2

    def test_unknown_variant_of_bare_summary_exit_2(self, summaries, tmp_path):
        out_a, _ = summaries
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(out_a.read_text())["variants"]["ensemble"]), encoding="utf-8")
        result = run_cli("compare", str(bare), str(out_a), "--measure", "auc", "--variant-a", "nope")
        assert result.returncode == 2
        assert result.stderr == f"error: {bare}: variant 'nope' not present\n"
        named = run_cli("compare", str(bare), str(out_a), "--measure", "auc", "--variant-a", "ensemble")
        assert named.returncode == 0, named.stderr
        assert json.loads(named.stdout)["a"]["model"] == "ensemble"

    def test_empty_variant_name_of_cv_summary_exit_2(self, summaries, capsys):
        # an empty name is a name: it is not present, as for a bare summary, and the primary is not read instead
        out_a, out_b = summaries
        assert mrsfuse.cli.main(["compare", str(out_a), str(out_b), "--measure", "auc", "--variant-a", ""]) == 2
        assert capsys.readouterr() == ("", f"error: {out_a}: variant '' not present\n")

    def test_non_utf8_summary_exit_2(self, summaries, tmp_path):
        out_a, _ = summaries
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + out_a.read_bytes())
        result = run_cli("compare", str(out_a), str(bad), "--measure", "auc")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {bad}: not UTF-8")

    @pytest.mark.parametrize("document", [5, {"variants": {"x": 1}, "primary": "x"}])
    def test_malformed_summary_exit_2(self, summaries, tmp_path, document):
        out_a, _ = summaries
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = run_cli("compare", str(bad), str(out_a), "--measure", "auc")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {bad}: ")

    def test_non_numeric_run_measure_exit_2(self, summaries, tmp_path):
        out_a, _ = summaries
        document = json.loads(out_a.read_text())
        document["variants"]["ensemble_w_nihss"]["runs"][0]["metrics"]["auc"] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = run_cli("compare", str(bad), str(out_a), "--measure", "auc")
        assert result.returncode == 2
        assert result.stderr.startswith("error: malformed summary")

    @pytest.mark.parametrize(
        "damage", ["non_numeric_measure", "missing_seed_schedule", "missing_runs", "missing_metrics",
                   "bool_measure", "text_measure", "float_run_index", "nan_measure", "inf_measure"]
    )
    def test_malformed_summary_names_the_bad_file(self, summaries, tmp_path, damage):
        out_a, _ = summaries
        document = json.loads(out_a.read_text())
        variant = document["variants"]["ensemble_w_nihss"]
        problem = None  # what the error line names after the file, where this test pins it
        if damage == "non_numeric_measure":
            variant["runs"][0]["metrics"]["auc"] = "x"
        elif damage == "bool_measure":  # compare takes no value that needs coercing
            variant["runs"][0]["metrics"]["auc"] = True
            problem = "auc must be a number, got True"
        elif damage == "text_measure":
            variant["runs"][0]["metrics"]["auc"] = " 0.5 "
            problem = "auc must be a number, got ' 0.5 '"
        elif damage == "nan_measure":  # json reads NaN and Infinity
            variant["runs"][0]["metrics"]["auc"] = float("nan")
            problem = "auc must be finite, got nan"
        elif damage == "inf_measure":
            variant["runs"][0]["metrics"]["auc"] = float("inf")
            problem = "auc must be finite, got inf"
        elif damage == "float_run_index":
            variant["runs"][0]["run_index"] = 0.0
            problem = "run_index must be an integer, got 0.0"
        elif damage == "missing_seed_schedule":
            del variant["seed_schedule"]
        elif damage == "missing_runs":
            del variant["runs"]
            problem = "missing key 'runs'"
        else:
            del variant["runs"][0]["metrics"]
            problem = "missing key 'metrics'"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = run_cli("compare", str(out_a), str(bad), "--measure", "auc")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: malformed summary: {bad}: ")
        assert str(out_a) not in result.stderr
        if problem:
            assert result.stderr == f"error: malformed summary: {bad}: {problem}\n"

    def test_overflowing_run_differences_leave_stderr_empty(self, tmp_path):
        # 1.7e308 - (-1.7e308) exceeds the largest float; numpy's overflow warning reached stderr
        paths = []
        for name, values in (("a", (1.7e308, 0.5, 0.2)), ("b", (-1.7e308, 0.1, 0.3))):
            runs = [{"run_index": i, "metrics": {"auc": v}} for i, v in enumerate(values)]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"model": name, "seed_schedule": [0, 1, 2], "runs": runs}), encoding="utf-8")
            paths.append(str(path))
        result = run_cli("compare", *paths, "--measure", "auc")
        assert (result.returncode, result.stderr) == (0, "")
        document = json.loads(result.stdout)
        assert (document["statistic"], document["p_value"]) == (5.0, 0.5)

    # (shift, step) of write_thirty_run_summaries -> n_effective, statistic, p_value as
    # printed. The cases put |z|/sqrt(2) of the normal approximation in each band of
    # the normal CDF: below sqrt(1/2) (erf), in [sqrt(1/2), 1) (erfc as 1 - erf), at
    # about 1.1 and in the far tail (erfc's rational form). Recorded while the CDF
    # still came from scipy.special.ndtr.
    THIRTY_RUN_CASES = {
        (4, 2): (26, "192.0", "0.6822589114669371"),
        (3, 1): (27, "132.0", "0.17190321778411088"),
        (3, 2): (27, "124.5", "0.12165783790534414"),
        (0, 2): (26, "0.0", "8.485589774178978e-06"),
    }

    @pytest.mark.parametrize("case", sorted(THIRTY_RUN_CASES))
    def test_thirty_runs_normal_approximation_bytes(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        paths = write_thirty_run_summaries(Path("."), *case)
        assert mrsfuse.cli.main(["compare", *paths, "--measure", "auc"]) == 0
        n_effective, statistic, p_value = self.THIRTY_RUN_CASES[case]
        assert capsys.readouterr() == (
            "{\n"
            '  "a": {\n    "model": "a",\n    "path": "a.json"\n  },\n'
            '  "b": {\n    "model": "b",\n    "path": "b.json"\n  },\n'
            '  "degenerate": false,\n'
            '  "measure": "auc",\n'
            '  "method": "normal_approx",\n'
            f'  "n_effective": {n_effective},\n'
            f'  "p_value": {p_value},\n'
            f'  "statistic": {statistic}\n'
            "}\n",
            "",
        )

    def test_schedule_mismatch_exit_2(self, summaries, tmp_path):
        out_a, _ = summaries
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=40, seed=12)
        other = tmp_path / "other.json"
        result = run_cli(
            "cv", "--cohort", str(cohort), "--variable", "nihss",
            "--k", "4", "--runs", "4", "--seed", "8", "--out", str(other),
        )
        assert result.returncode == 0
        result = run_cli("compare", str(out_a), str(other), "--measure", "auc")
        assert result.returncode == 2
        assert "schedule" in result.stderr


@pytest.mark.parametrize("argv, files, line", [
    (["compare", "{d}/a.json", "{d}/a.json", "--measure", "auc"], {"a.json": "[]"},
     "{d}/a.json: not a recognizable summary file"),
    (["compare", "{d}/a.json", "{d}/a.json", "--measure", "auc"],
     {"a.json": '{"primary": "x", "variants": {"x": 1}}'}, "{d}/a.json: variant 'x' is not a summary object"),
    (["compare", "{d}/a.json", "{d}/a.json", "--measure", "auc"], {"a.json": '{"runs": []}'},
     "malformed summary: {d}/a.json: missing seed_schedule"),
    (["cv", "--config", "{d}/run.json"], {"run.json": "[]"}, "{d}/run.json: config must be a JSON object"),
    (["synth", "--spec", "{d}/spec.json", "--out", "{d}/c.csv"],
     {"spec.json": '{"n_patients": 12, "module_aucs": [], "module_names": []}'},
     "invalid synthetic spec: module list must not be empty"),
    (["synth", "--module-aucs", "x", "--out", "{d}/c.csv"], {},
     "--module-aucs must be comma-separated numbers: could not convert string to float: 'x'"),
    (["cv"], {}, "a cohort CSV is required (--cohort or config file)"),
], ids=["summary_list", "variant_not_object", "no_seed_schedule", "config_list", "empty_module_lists",
        "module_aucs_text", "no_cohort"])
def test_error_lines(tmp_path, monkeypatch, capsys, argv, files, line):
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert mrsfuse.cli.main([arg.replace("{d}", str(tmp_path)) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line.replace('{d}', str(tmp_path))}\n")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv", [
    ["fuse", "--cohort", "cohort.csv"],
    ["cv", "--cohort", "cohort.csv", "--k", "2", "--runs", "1"],
    ["compare", "a.json", "b.json", "--measure", "auc"],
    ["synth", "--n-patients", "12"],
], ids=lambda argv: argv[0])
def test_out_dot_is_an_io_error(tmp_path, argv):
    # "." is the working directory, which has no name to put a temp file beside: it is written in place and fails
    write_tiny_cohort(tmp_path / "cohort.csv")
    write_thirty_run_summaries(tmp_path, 0, 1)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    result = run_cli(*argv, "--out", ".", cwd=tmp_path)
    assert result.returncode == 3
    assert result.stderr.startswith("error: io: ") and result.stderr.count("\n") == 1, result.stderr
    assert result.stdout == ""
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command, work", [
    ("fuse", "resolve_fold_config"), ("cv", "evaluate_variants"), ("synth", "generate_cohort"),
])
def test_an_output_that_cannot_be_opened_stops_the_command_before_its_work(command, work, tmp_path, monkeypatch,
                                                                            capsys):
    cohort = tmp_path / "cohort.csv"
    write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=40, seed=3)), cohort)
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    calls = []  # the names of the CLI's calls to the work
    for name in ("resolve_fold_config", "evaluate_variants", "generate_cohort"):
        def counted(*args, _name=name, _call=getattr(mrsfuse.cli, name)):
            calls.append(_name)
            return _call(*args)

        monkeypatch.setattr(mrsfuse.cli, name, counted)
    argv = ([command, "--n-patients", "40", "--seed", "3"] if command == "synth"
            else [command, "--cohort", str(cohort), "--variable", "nihss", "--k", "2", "--runs", "2"])
    assert mrsfuse.cli.main([*argv, "--out", str(tmp_path)]) == 3  # a directory: the open fails with EISDIR
    out, err = capsys.readouterr()
    assert (out, calls) == ("", [])
    assert err.startswith("error: io: [Errno 21] Is a directory") and err.count("\n") == 1, err
    assert mrsfuse.cli.main([*argv, "--out", str(tmp_path / "out")]) == 0  # the counters pass the calls on
    assert calls == [work]


@pytest.mark.parametrize("command", ["fuse", "cv", "synth", "compare", "config"])
def test_an_empty_out_fails_at_the_open_before_any_work(command, tmp_path, monkeypatch, capsys):
    # an empty path names no file: the open fails as open("", "w") does, never beside the working directory
    cohort, summary, config = tmp_path / "cohort.csv", tmp_path / "summary.json", tmp_path / "run.json"
    write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=40, seed=3)), cohort)
    config.write_text(json.dumps({"out": ""}), encoding="utf-8")
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    cv = ["cv", "--cohort", str(cohort), "--k", "2", "--runs", "2"]
    assert mrsfuse.cli.main([*cv, "--out", str(summary)]) == 0
    capsys.readouterr()
    argv = {
        "fuse": ["fuse", "--cohort", str(cohort), "--out", ""],
        "cv": [*cv, "--out", ""],
        "synth": ["synth", "--n-patients", "40", "--out", ""],
        "compare": ["compare", str(summary), str(summary), "--measure", "auc", "--variant-a", "ADC", "--out", ""],
        "config": [*cv, "--config", str(config)],
    }[command]
    for name in ("resolve_fold_config", "evaluate_variants", "generate_cohort"):
        monkeypatch.setattr(mrsfuse.cli, name, lambda *args, _name=name: pytest.fail(f"{_name} ran before the open"))
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    before = sorted(tmp_path.rglob("*"))
    assert mrsfuse.cli.main(argv) == 3
    assert capsys.readouterr() == ("", "error: io: [Errno 2] No such file or directory: ''\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flags, valid, line", [
    (["--variable", "nihss"], True, "error: io: "),  # the work would fail on the constant covariate
    (["--variable", "nihss", "--tau", "2"], True, "error: --tau "),
    (["--variable", "age", "--strategy", "fixed", "--tau", "0.4", "--tau-star", "0.4"], False, "error: validation: "),
], ids=["work", "settings", "validation"])
def test_the_output_is_opened_after_the_settings_and_the_cohort(flags, valid, line, tmp_path, monkeypatch, capsys):
    # each case fails with exit 2 on a writable output; on an unopenable one only the work's failure gives way
    base = generate_cohort(SyntheticSpec(n_patients=40, seed=3))
    age = base.age if valid else np.concatenate([[-1.0], base.age[1:]])
    cohort = Cohort.of_columns(base.module_names, base.ids, base.probs, age, np.full(len(base), 7), base.mrs)
    write_cohort_csv(cohort, tmp_path / "cohort.csv")
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    argv = ["fuse", "--cohort", str(tmp_path / "cohort.csv"), *flags]
    assert mrsfuse.cli.main(argv) == 2
    capsys.readouterr()
    assert mrsfuse.cli.main([*argv, "--out", str(tmp_path)]) == (3 if line == "error: io: " else 2)
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[0].startswith(line), err


@pytest.mark.parametrize("argv", [
    ["validate", "--cohort", "cohort.csv"],
    ["synth", "--n-patients", "12", "--out", "new.csv"],
    ["fuse", "--cohort", "cohort.csv"],
    ["cv", "--cohort", "cohort.csv", "--k", "2", "--runs", "1", "--out", "summary.json"],
    ["compare", "a.json", "b.json", "--measure", "auc"],
], ids=lambda argv: argv[0])
def test_a_reader_that_has_gone_away_is_one_io_error(tmp_path, argv):
    # stdout is the write end of a pipe whose read end is closed; CPython ignores SIGPIPE, so the write fails with
    # EPIPE: as the command writes, or when main flushes what stdout still buffers
    write_tiny_cohort(tmp_path / "cohort.csv", n=40)
    write_thirty_run_summaries(tmp_path, 0, 1)
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_cli(*argv, cwd=tmp_path, stdout=write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (3, "error: io: [Errno 32] Broken pipe\n")
    if argv[0] == "synth":  # its file is written before it reports it
        assert len(read_cohort_csv(tmp_path / "new.csv")) == 12


# Run in a fresh interpreter: the test process itself has scipy loaded.
SCIPY_FREE_COMMANDS = """
import contextlib, io, json, sys
import mrsfuse.cli
cohort, summary, thirty_a, thirty_b = sys.argv[1:]
commands = [
    ["synth", "--n-patients", "30", "--seed", "5", "--module-aucs", "0.75,0.65",
     "--module-names", "ADC,DWI", "--out", cohort],
    ["validate", "--cohort", cohort],
    ["fuse", "--cohort", cohort, "--variable", "nihss"],
    ["cv", "--cohort", cohort, "--variable", "nihss", "--k", "2", "--runs", "2", "--out", summary],
    ["compare", summary, summary, "--measure", "auc", "--variant-b", "ensemble"],
    ["compare", thirty_a, thirty_b, "--measure", "auc"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [mrsfuse.cli.main(argv) for argv in commands]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_no_command_loads_scipy(tmp_path):
    thirty = write_thirty_run_summaries(tmp_path, 3, 2)
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_COMMANDS,
         str(tmp_path / "cohort.csv"), str(tmp_path / "summary.json"), *thirty],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert result.returncode == 0, result.stderr
    codes, scipy_modules = json.loads(result.stdout)
    assert codes == [0] * 6
    assert scipy_modules == []


# Run in a fresh interpreter: the test process itself has numpy.random loaded.
DRAW_FREE_COMMANDS = """
import contextlib, io, json, sys
import mrsfuse.cli
cohort, thirty_a, thirty_b = sys.argv[1:]
commands = [
    ["validate", "--cohort", cohort],
    ["fuse", "--cohort", cohort, "--variable", "nihss"],
    ["fuse", "--cohort", cohort, "--variable", "age", "--strategy", "fixed", "--tau", "0.4", "--tau-star", "0.45"],
    ["compare", thirty_a, thirty_b, "--measure", "auc"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [mrsfuse.cli.main(argv) for argv in commands]
print(json.dumps([codes, "numpy.random" in sys.modules]))
"""


def test_draw_free_commands_leave_numpy_random_unloaded(tmp_path):
    # importing numpy.random costs a command about 10 ms: secrets, through hmac, loads OpenSSL
    cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
    thirty = write_thirty_run_summaries(tmp_path, 3, 2)
    result = subprocess.run(
        [sys.executable, "-c", DRAW_FREE_COMMANDS, str(cohort), *thirty],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0] * 4, False]


def test_commands_build_no_patient_records(tmp_path, monkeypatch, capsys):
    # the CLI reads and writes cohort columns; records are only a library conversion
    def refuse(*args, **kwargs):
        raise AssertionError("a PatientRecord was built")

    monkeypatch.setattr(mrsfuse.cohort, "PatientRecord", refuse)
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    cohort = str(tmp_path / "cohort.csv")
    commands = [
        ["synth", "--n-patients", "60", "--seed", "2", "--out", cohort],
        ["validate", "--cohort", cohort],
        ["fuse", "--cohort", cohort, "--variable", "age"],
        ["cv", "--cohort", cohort, "--variable", "nihss", "--k", "3", "--runs", "2"],
    ]
    assert [mrsfuse.cli.main(argv) for argv in commands] == [0, 0, 0, 0]
    assert capsys.readouterr().err == ""


def test_cv_validates_the_cohort_at_most_twice(tmp_path, monkeypatch, capsys):
    # once when the CLI reads the cohort, once in evaluate_variants; not per variant
    calls = []
    for module in (mrsfuse.cli, mrsfuse.crossval):
        def counted(cohort, _validate=module.validate_cohort):
            calls.append(len(cohort))
            return _validate(cohort)

        monkeypatch.setattr(module, "validate_cohort", counted)
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    cohort = str(tmp_path / "cohort.csv")
    assert mrsfuse.cli.main(["synth", "--n-patients", "40", "--seed", "4", "--out", cohort]) == 0
    assert mrsfuse.cli.main(["cv", "--cohort", cohort, "--variable", "age", "--k", "3", "--runs", "2"]) == 0
    assert calls == [40, 40]
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def json_argv(tmp_path_factory):
    """The argv, without ``--out``, of each command that writes JSON, on a paper-scale synth cohort (119 patients,
    five modules, seven cv variants); ``compare`` reads two cv summaries written under the protocol (k = 5, 10 runs)."""
    tmp = tmp_path_factory.mktemp("json")
    cohort = str(tmp / "cohort.csv")
    write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=119, seed=1)), cohort)
    cv = ["cv", "--cohort", cohort, "--k", "5", "--runs", "10", "--seed", "4"]
    summaries = [str(tmp / "nihss.json"), str(tmp / "age.json")]
    with contextlib.redirect_stdout(io.StringIO()):  # the measures table
        for variable, summary in zip(("nihss", "age"), summaries):
            assert mrsfuse.cli.main([*cv, "--variable", variable, "--out", summary]) == 0
    return {
        "cv": [*cv, "--variable", "nihss"],
        "compare": ["compare", *summaries, "--measure", "auc"],
        "fuse": ["fuse", "--cohort", cohort, "--variable", "age", "--format", "json"],
    }


def indented_sorted(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestJsonOutputs:
    @pytest.mark.parametrize("command", ["cv", "compare", "fuse"])
    def test_file_and_stdout_hold_the_indented_sorted_text(self, json_argv, command, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        argv, out = json_argv[command], tmp_path / "out.json"
        assert mrsfuse.cli.main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert mrsfuse.cli.main(argv) == 0
        text = out.read_bytes().decode("utf-8")
        assert text == indented_sorted(text)
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_a_cv_summary_is_written_in_bounded_memory(self, json_argv, tmp_path, monkeypatch, capsys):
        # the whole traced peak of cv at paper scale: 0.30 MB; 0.88 MB while the summary's text was built whole
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        argv = [*json_argv["cv"], "--out", str(tmp_path / "summary.json")]
        code, transient, held = transient_peak(lambda: mrsfuse.cli.main(argv))
        assert code == 0
        assert transient + held <= 500_000

    def test_fuse_json_peak_per_patient_at_5_000(self, tmp_path, monkeypatch):
        # whole traced peak: 1 055 bytes a patient, the rows' dicts most of it; 3 832 while the text was built whole
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=5_000, seed=3)), cohort)
        argv = ["fuse", "--cohort", str(cohort), "--format", "json", "--out", str(tmp_path / "fused.json")]
        code, transient, held = transient_peak(lambda: mrsfuse.cli.main(argv))
        assert code == 0
        assert transient + held <= 1_500 * 5_000

    def test_fuse_json_peak_per_patient_at_20_000(self, tmp_path, monkeypatch):
        # whole traced peak: about 314 bytes a patient, near the CSV table's 270, since the rows' dicts and text
        # are made one chunk at a time; 1 055 while every row's dict was built before json.dump
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        write_cohort_csv(generate_cohort(SyntheticSpec(n_patients=20_000, seed=3)), cohort)
        argv = ["fuse", "--cohort", str(cohort), "--variable", "age", "--norm-min", "20", "--norm-max", "95",
                "--tau", "0.5", "--tau-star", "0.5", "--strategy", "fixed", "--format", "json",
                "--out", str(tmp_path / "fused.json")]
        code, transient, held = transient_peak(lambda: mrsfuse.cli.main(argv))
        assert code == 0
        assert transient + held <= 400 * 20_000
