"""Byte-identity gate for the CLI outputs that the benchmark's command lines do not reach.

``tests/test_golden.py`` replays only perfbench's commands. This gate replays, on one seeded 119-patient
synthetic cohort, ``cv`` (JSON and CSV) and ``fuse`` (CSV and JSON) for every clinical variable under both
searched strategies, plus ``fuse --strategy fixed`` unweighted and weighted by age with bounds 20-95. Two
more seeded cohorts make variants fail: one whose module M1 is constant, so that module's every run fails,
and one where every patient is poor, so every run of every variant fails; ``cv`` (JSON and CSV) on each
writes the table's ``n/a`` cells and ``note:`` lines, the CSV's empty cells and the JSON's ``null`` measures.
A seeded cohort of two chunks and one row more (``CHUNKED``) replays ``fuse`` in both formats, searched (nihss,
youden) and fixed (age 20-95), each to a file and to stdout, so the tables span the writers' chunk boundaries.
It compares each call's exit code and the SHA-256 of its stdout, its stderr and its output file with the digests
in ``output_digests.json``. After an intended output change, re-record them by running this file as a script:
``PYTHONPATH=src python tests/test_output_digests.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

import mrsfuse.cli
from mrsfuse import Cohort, SyntheticSpec, generate_cohort, write_cohort_csv
from mrsfuse.cohort import CSV_CHUNK_ROWS

DIGESTS = Path(__file__).with_name("output_digests.json")
COHORT = "cohort.csv"
SPEC = SyntheticSpec(n_patients=119, seed=11)
FAILING = ("constant-module", "all-poor")  # the cohorts whose variants fail, each written to <name>.csv
FIXED = {"none": ["--variable", "none"], "age": ["--variable", "age", "--norm-min", "20", "--norm-max", "95"]}
CHUNKED = SyntheticSpec(n_patients=2 * CSV_CHUNK_ROWS + 1, seed=13)  # written to chunked.csv
CHUNKED_FLAGS = {"nihss-youden": ["--variable", "nihss", "--strategy", "youden"],
                 "age-fixed": [*FIXED["age"], "--strategy", "fixed", "--tau", "0.4", "--tau-star", "0.45"]}


def commands() -> dict[str, list[str]]:
    """Each call's name and argv, relative to the work directory that holds the cohort."""
    argvs = {}
    for variable in ("nihss", "age", "none"):
        for strategy in ("youden", "max_accuracy"):
            for command in ("cv", "fuse"):
                for fmt in ("json", "csv"):
                    argvs[f"{command}-{variable}-{strategy}-{fmt}"] = [
                        command, "--cohort", COHORT, "--variable", variable, "--strategy", strategy,
                        "--format", fmt, "--out", f"out.{fmt}"]
    for name, flags in FIXED.items():
        for fmt in ("csv", "json"):
            argvs[f"fuse-fixed-{name}-{fmt}"] = ["fuse", "--cohort", COHORT, *flags, "--strategy", "fixed",
                                                 "--tau", "0.4", "--tau-star", "0.45", "--format", fmt,
                                                 "--out", f"out.{fmt}"]
    for name in FAILING:
        for fmt in ("json", "csv"):
            argvs[f"cv-{name}-{fmt}"] = ["cv", "--cohort", f"{name}.csv", "--variable", "nihss", "--strategy", "youden",
                                         "--format", fmt, "--out", f"out.{fmt}"]
    for name, flags in CHUNKED_FLAGS.items():
        for fmt in ("json", "csv"):
            argv = ["fuse", "--cohort", "chunked.csv", *flags, "--format", fmt]
            argvs[f"fuse-chunked-{name}-{fmt}-out"] = [*argv, "--out", f"out.{fmt}"]
            argvs[f"fuse-chunked-{name}-{fmt}-stdout"] = argv
    return argvs


def failing_cohorts() -> tuple[Cohort, Cohort]:
    """The cohorts ``FAILING`` names: a 60-patient synth cohort with module M1 set to 0.5, and the same cohort
    with every mRS grade raised to at least 3."""
    base = generate_cohort(SyntheticSpec(n_patients=60, seed=5, module_names=("M0", "M1", "M2"),
                                         module_aucs=(0.7, 0.65, 0.6)))
    probs = base.probs.copy()
    probs[:, 1] = 0.5
    constant = Cohort.of_columns(base.module_names, base.ids, probs, base.age, base.nihss, base.mrs)
    poor = Cohort.of_columns(base.module_names, base.ids, base.probs, base.age, base.nihss, np.maximum(base.mrs, 3))
    return constant, poor


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(workdir: Path) -> dict:
    """The cohort's digest and every call's exit code and output digests, run in ``workdir``."""
    write_cohort_csv(generate_cohort(SPEC), workdir / COHORT)
    digests: dict = {"cohort": _sha256((workdir / COHORT).read_bytes())}
    for name, cohort in zip(FAILING, failing_cohorts()):
        write_cohort_csv(cohort, workdir / f"{name}.csv")
        digests[f"cohort-{name}"] = _sha256((workdir / f"{name}.csv").read_bytes())
    write_cohort_csv(generate_cohort(CHUNKED), workdir / "chunked.csv")
    digests["cohort-chunked"] = _sha256((workdir / "chunked.csv").read_bytes())
    for name, argv in commands().items():
        out = workdir / argv[-1] if "--out" in argv else None  # None: the call writes to stdout
        if out:
            out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = mrsfuse.cli.main(argv)
        digests[name] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "stderr": _sha256(stderr.getvalue().encode("utf-8")),
            "out": _sha256(out.read_bytes()) if out and out.is_file() else None,
        }
    return digests


def test_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the cv summary records the cohort path as given
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    assert replay(tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    os.environ.pop(mrsfuse.cli.CONFIG_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        recorded = replay(Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded) - 2 - len(FAILING)} calls into {DIGESTS}")
