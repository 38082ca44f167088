"""Shared fixtures: the published worked-example rows, a CLI runner, the CSV writer's and the fusion kernel's
oracles and a peak-memory probe."""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

from mrsfuse.cohort import CSV_CHUNK_ROWS, Cohort, OutcomeLabel, normalize_clinical
from mrsfuse.errors import ValidationError
from mrsfuse.fusion import WEIGHT_SUM_TOL, fuse_matrix, is_poor

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

MODULE_NAMES = ("ADC", "CBF", "CBV", "DWI", "Tmax")

# Operating points for the reference table. The preliminary threshold 0.40
# is consistent with every printed weight pattern. The printed final labels
# (both columns) are jointly consistent only with a final threshold in
# [0.4199, 0.428); 0.425 is used as the table-consistent operating point.
REFERENCE_PRELIM_THRESHOLD = 0.40
TABLE_CONSISTENT_FINAL_THRESHOLD = 0.425

AGE_BOUNDS = (21.3, 94.0)
NIHSS_BOUNDS = (0.0, 26.0)


@dataclass(frozen=True)
class ReferenceRow:
    """One row of the published fusion worked-example table."""

    panel: str  # which covariate the panel weights by: "age" or "nihss"
    patient_id: str
    covariate: float
    probs: tuple[float, ...]
    printed_weights: tuple[float, ...]
    label_unweighted: str
    label_weighted: str
    gs_outcome: str
    mrs: int
    fused_expected: float  # recomputed exactly from the panel's bounds


REFERENCE_ROWS = (
    ReferenceRow("age", "033", 45, (0.45, 0.42, 0.46, 0.27, 0.64),
                 (0.16, 0.16, 0.16, 0.34, 0.16), "poor", "good", "good", 2, 0.416682892907),
    ReferenceRow("age", "046", 80, (0.14, 0.27, 0.55, 0.59, 0.36),
                 (0.08, 0.08, 0.37, 0.37, 0.08), "good", "poor", "poor", 3, 0.487440401506),
    ReferenceRow("age", "162", 55, (0.50, 0.48, 0.46, 0.54, 0.16),
                 (0.19, 0.19, 0.19, 0.19, 0.23), "poor", "good", "good", 0, 0.419827387802),
    ReferenceRow("age", "198", 88, (0.24, 0.56, 0.31, 0.14, 0.35),
                 (0.06, 0.73, 0.06, 0.06, 0.06), "good", "poor", "poor", 5, 0.480617420066),
    ReferenceRow("age", "213", 94, (0.58, 0.39, 0.24, 0.38, 0.22),
                 (1.0, 0.0, 0.0, 0.0, 0.0), "good", "poor", "poor", 4, 0.580000000000),
    ReferenceRow("nihss", "023", 8, (0.68, 0.75, 0.74, 0.07, 0.24),
                 (0.13, 0.13, 0.13, 0.30, 0.30), "poor", "good", "good", 2, 0.382333333333),
    ReferenceRow("nihss", "024", 11, (0.48, 0.33, 0.59, 0.46, 0.31),
                 (0.17, 0.24, 0.17, 0.17, 0.24), "poor", "good", "good", 2, 0.419523809524),
    ReferenceRow("nihss", "027", 26, (0.31, 0.46, 0.17, 0.17, 0.20),
                 (0.0, 1.0, 0.0, 0.0, 0.0), "good", "poor", "poor", 3, 0.460000000000),
    ReferenceRow("nihss", "033", 5, (0.45, 0.42, 0.46, 0.27, 0.64),
                 (0.12, 0.12, 0.12, 0.51, 0.12), "poor", "good", "good", 2, 0.378536585366),
    ReferenceRow("nihss", "046", 23, (0.14, 0.27, 0.55, 0.59, 0.36),
                 (0.05, 0.05, 0.42, 0.42, 0.05), "good", "poor", "poor", 3, 0.518727272727),
)


def panel_rows(panel: str) -> tuple[ReferenceRow, ...]:
    return tuple(row for row in REFERENCE_ROWS if row.panel == panel)


def panel_bounds(panel: str) -> tuple[float, float]:
    return AGE_BOUNDS if panel == "age" else NIHSS_BOUNDS


def write_panel_csv(panel: str, path: Path) -> Path:
    """Write one panel of the reference table in the standard cohort schema."""
    rows = panel_rows(panel)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["patient_id", "age", "nihss", "mrs"] + [f"p_{m.lower()}" for m in MODULE_NAMES])
        for row in rows:
            age = row.covariate if panel == "age" else 70
            nihss = int(row.covariate) if panel == "nihss" else 10
            writer.writerow([row.patient_id, age, nihss, row.mrs] + list(row.probs))
    return path


@pytest.fixture
def nihss_panel_csv(tmp_path: Path) -> Path:
    return write_panel_csv("nihss", tmp_path / "nihss_panel.csv")


@pytest.fixture
def age_panel_csv(tmp_path: Path) -> Path:
    return write_panel_csv("age", tmp_path / "age_panel.csv")


def run_cli(
    *args: str, cwd: Path | None = None, env_config: str | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess against the in-repo sources, with stdout buffered as it is by default, and
    stderr captured; stdout is captured too unless ``stdout`` names another file descriptor."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("MRSFUSE_CONFIG", None)
    env.pop("PYTHONUNBUFFERED", None)
    if env_config is not None:
        env["MRSFUSE_CONFIG"] = env_config
    return subprocess.run(
        [sys.executable, "-m", "mrsfuse.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env=env,
    )


def transient_peak(call) -> tuple:
    """``call()``, the bytes its peak held beyond what is still held on return, and those held bytes (its result),
    as tracemalloc counts them; their sum is the call's whole peak. numpy reports its buffers to tracemalloc, so the
    counts do not depend on the host."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held, held


def csv_writer_bytes(rows) -> bytes:
    """The rows as ``csv.writer`` writes them, UTF-8 encoded: the oracle of the column-wise writer."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def fuse_rows(rows: Cohort, config) -> tuple:
    """Every row fused under a resolved config, through ``normalize_clinical``, plus each row's final poor
    decision: the cohort fusion that ``fuse`` ran before it became one fold of ``fuse_by_fold``, kept as its oracle."""
    covariate = None
    if config.clinical_variable != "none":
        covariate = normalize_clinical(rows.covariate(config.clinical_variable), config.normalizer)
    votes, weights, fused = fuse_matrix(rows.probs, covariate, config.prelim_threshold)
    return votes, weights, fused, is_poor(fused, config.final_threshold)


# The scalar pipeline as it stood before the public functions became one-row
# calls of the fusion kernel, kept unchanged as the kernel's independent oracle.

def oracle_derive_labels(probs, threshold):
    for p in probs:
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValidationError(f"module probability must be in [0, 1], got {p!r}")
    return tuple(OutcomeLabel.GOOD if p <= threshold else OutcomeLabel.POOR for p in probs)


def oracle_compute_weights(labels, covariate):
    if len(labels) == 0:
        raise ValidationError("cannot weight an empty label list")
    if not (math.isfinite(covariate) and 0.0 <= covariate <= 1.0):
        raise ValidationError(f"covariate must be in [0, 1], got {covariate!r}")
    raw = [covariate if label == OutcomeLabel.POOR else 1.0 - covariate for label in labels]
    total = sum(raw)
    if total == 0.0:
        return oracle_uniform_weights(len(labels))
    return tuple(value / total for value in raw)


def oracle_uniform_weights(n):
    if n <= 0:
        raise ValidationError("cannot weight an empty module list")
    return (1.0 / n,) * n


def oracle_fuse(probs, weights):
    if len(probs) != len(weights):
        raise ValidationError(f"length mismatch: {len(probs)} probabilities vs {len(weights)} weights")
    if len(probs) == 0:
        raise ValidationError("cannot fuse an empty probability list")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {sum(weights)!r}")
    return float(sum(w * p for w, p in zip(weights, probs)))


def oracle_classify(fused_probability, threshold):
    return OutcomeLabel.GOOD if fused_probability <= threshold else OutcomeLabel.POOR


def scalar_fusion(probs, covariate, threshold):
    """Row-by-row oracle for fuse_matrix: the scalar label, weight and fuse steps."""
    votes, weights, fused = [], [], []
    for i, row in enumerate(probs.tolist()):
        labels = oracle_derive_labels(row, threshold)
        w = oracle_uniform_weights(len(row)) if covariate is None else oracle_compute_weights(labels, covariate[i])
        votes.append([label == OutcomeLabel.POOR for label in labels])
        weights.append(w)
        fused.append(oracle_fuse(row, w))
    return votes, weights, fused


def take(cohort: Cohort, rows) -> Cohort:
    """The cohort's rows at the indices ``rows``, in that order, as a cohort of indexed columns."""
    columns = (cohort.ids, cohort.probs, cohort.age, cohort.nihss, cohort.mrs)
    return Cohort.of_columns(cohort.module_names, *(column[rows] for column in columns))


# cells csv quotes (a comma, a quote, a line break) beside ones it leaves bare (NUL, spaces, non-ASCII, empty)
WRITER_IDS = st.text(alphabet=[",", '"', "\r", "\n", "\x00", " ", "é", "a"], max_size=5)
# module names holding a quote or a comma; names equal ignoring case would share a column
WRITER_MODULE_NAMES = st.lists(st.text(alphabet='a,"é ', min_size=1, max_size=4), min_size=1, max_size=3,
                               unique_by=str.lower).map(tuple)
# each side of a chunk boundary
CHUNK_EDGE_ROWS = [1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]


def cycled(draw, strategy, n: int) -> list:
    """n values taking a few drawn ones in turn, so that a table of thousands of rows costs a few draws."""
    drawn = draw(st.lists(strategy, min_size=1, max_size=5))
    return [drawn[i % len(drawn)] for i in range(n)]

