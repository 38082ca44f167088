"""Command-line interface: commands, exit codes, config-file handling."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrsfuse.cli
import mrsfuse.cohort
import mrsfuse.crossval
from conftest import (
    REFERENCE_PRELIM_THRESHOLD,
    SRC_DIR,
    TABLE_CONSISTENT_FINAL_THRESHOLD,
    panel_rows,
    run_cli,
)

NIHSS_FLAGS = (
    "--variable", "nihss", "--norm-min", "0", "--norm-max", "26",
    "--tau", str(REFERENCE_PRELIM_THRESHOLD),
    "--tau-star", str(TABLE_CONSISTENT_FINAL_THRESHOLD),
    "--strategy", "fixed",
)


def read_csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


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
        with pytest.raises(SystemExit) as exited:
            mrsfuse.cli.main(["validate", "--cohort", str(tmp_path / "c.csv"), flag, value])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
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
    ], ids=["variable", "strategy", "k", "runs", "seed", "tau", "tau_star", "norm_max", "norm_max_beside_flag",
            "norm_min_beside_flag"])
    def test_out_of_range_value_names_file_and_key(self, tmp_path, capsys, monkeypatch, document, flags, problem):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,age,nihss,mrs,p_adc\na,60,5,1,0.3\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert mrsfuse.cli.main(["cv", "--cohort", str(cohort), "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == f"error: {config}: {problem}\n"

    @pytest.mark.parametrize("flags", [["--norm-min", "0"], ["--norm-max", "10"]])
    def test_flag_replaces_reversed_norm_bound(self, tmp_path, monkeypatch, flags):
        monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
        cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"norm_min": 5, "norm_max": 1}), encoding="utf-8")
        assert mrsfuse.cli.main(["fuse", "--cohort", str(cohort), "--config", str(config), *flags]) == 0

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

    def test_unknown_variant_exit_2(self, summaries):
        out_a, out_b = summaries
        result = run_cli("compare", str(out_a), str(out_b), "--measure", "auc",
                         "--variant-a", "nope")
        assert result.returncode == 2

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
        "damage", ["non_numeric_measure", "missing_seed_schedule", "missing_runs", "missing_metrics"]
    )
    def test_malformed_summary_names_the_bad_file(self, summaries, tmp_path, damage):
        out_a, _ = summaries
        document = json.loads(out_a.read_text())
        variant = document["variants"]["ensemble_w_nihss"]
        if damage == "non_numeric_measure":
            variant["runs"][0]["metrics"]["auc"] = "x"
        elif damage == "missing_seed_schedule":
            del variant["seed_schedule"]
        elif damage == "missing_runs":
            del variant["runs"]
        else:
            del variant["runs"][0]["metrics"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = run_cli("compare", str(out_a), str(bad), "--measure", "auc")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: malformed summary: {bad}: ")
        assert str(out_a) not in result.stderr
        missing = {"missing_runs": "runs", "missing_metrics": "metrics"}.get(damage)
        if missing:
            assert result.stderr == f"error: malformed summary: {bad}: missing key {missing!r}\n"

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


# Run in a fresh interpreter: the test process itself has scipy loaded.
SCIPY_FREE_COMMANDS = """
import contextlib, io, json, sys
import mrsfuse.cli
cohort, summary = sys.argv[1], sys.argv[2]
commands = [
    ["validate", "--cohort", cohort],
    ["fuse", "--cohort", cohort, "--variable", "nihss"],
    ["cv", "--cohort", cohort, "--variable", "nihss", "--k", "2", "--runs", "2", "--out", summary],
    ["compare", summary, summary, "--measure", "auc", "--variant-b", "ensemble"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [mrsfuse.cli.main(argv) for argv in commands]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_commands_other_than_synth_load_no_scipy(tmp_path):
    cohort = write_tiny_cohort(tmp_path / "cohort.csv", n=30)
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_COMMANDS, str(cohort), str(tmp_path / "summary.json")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert result.returncode == 0, result.stderr
    codes, scipy_modules = json.loads(result.stdout)
    assert codes == [0, 0, 0, 0]
    assert scipy_modules == []


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
