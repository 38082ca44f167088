"""Byte-identity gate for the CLI outputs that the benchmark's command lines do not reach.

``tests/test_golden.py`` replays only perfbench's commands. This gate replays, on one seeded 119-patient
synthetic cohort, ``cv`` (JSON and CSV) and ``fuse`` (CSV and JSON) for every clinical variable under both
searched strategies, plus ``fuse --strategy fixed`` unweighted and weighted by age with bounds 20-95. It
compares each call's exit code and the SHA-256 of its stdout, its stderr and its output file with the digests
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

import mrsfuse.cli
from mrsfuse import SyntheticSpec, generate_cohort, write_cohort_csv

DIGESTS = Path(__file__).with_name("output_digests.json")
COHORT = "cohort.csv"
SPEC = SyntheticSpec(n_patients=119, seed=11)
FIXED = {"none": ["--variable", "none"], "age": ["--variable", "age", "--norm-min", "20", "--norm-max", "95"]}


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
    return argvs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(workdir: Path) -> dict:
    """The cohort's digest and every call's exit code and output digests, run in ``workdir``."""
    write_cohort_csv(generate_cohort(SPEC), workdir / COHORT)
    digests: dict = {"cohort": _sha256((workdir / COHORT).read_bytes())}
    for name, argv in commands().items():
        out = workdir / argv[-1]
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = mrsfuse.cli.main(argv)
        digests[name] = {
            "exit": code,
            "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "stderr": _sha256(stderr.getvalue().encode("utf-8")),
            "out": _sha256(out.read_bytes()) if out.is_file() else None,
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
    print(f"recorded {len(recorded) - 1} calls into {DIGESTS}")
