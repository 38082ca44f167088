"""Patient cohort domain model.

Holds the record and cohort types, the binary outcome scale, min-max
normalization of clinical covariates, cohort validation, and the CSV
cohort schema used by the command-line tools.
"""

from __future__ import annotations

import csv
import enum
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ConfigError, ValidationError

DEFAULT_MODULE_NAMES = ("ADC", "CBF", "CBV", "DWI", "Tmax")

# Canonical spellings for the standard MR modules; unknown CSV columns
# keep their suffix upper-cased.
_CANONICAL_MODULES = {name.lower(): name for name in DEFAULT_MODULE_NAMES}

CLINICAL_VARIABLES = ("age", "nihss")

NIHSS_MAX = 42
MRS_MAX = 6
GOOD_MRS_MAX = 2  # disability grades 0-2 count as good outcome, 3-6 as poor

CSV_REQUIRED_COLUMNS = ("patient_id", "age", "nihss", "mrs")
CSV_MODULE_PREFIX = "p_"


class OutcomeLabel(enum.IntEnum):
    """Binary clinical outcome. GOOD sorts below POOR."""

    GOOD = 0
    POOR = 1

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "OutcomeLabel":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValidationError(f"unknown outcome label {text!r}") from None


def as_plain(value: object) -> object:
    """A dataclass instance as JSON-ready data: fields become keys, tuples lists, labels names."""
    if is_dataclass(value):
        return {f.name: as_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [as_plain(item) for item in value]
    if isinstance(value, OutcomeLabel):
        return str(value)
    return value


def binarize_mrs(mrs: int, patient_id: str | None = None) -> OutcomeLabel:
    """Collapse a 0-6 disability grade to the binary outcome (0-2 good, else poor)."""
    if not isinstance(mrs, int) or isinstance(mrs, bool) or not 0 <= mrs <= MRS_MAX:
        who = f" for patient {patient_id!r}" if patient_id is not None else ""
        raise ValidationError(f"mrs must be an integer in 0..{MRS_MAX}{who}, got {mrs!r}")
    return OutcomeLabel.GOOD if mrs <= GOOD_MRS_MAX else OutcomeLabel.POOR


@dataclass(frozen=True)
class ClinicalNormalizer:
    """Min-max scaling of one clinical variable onto [0, 1], clamped at the bounds."""

    variable: str
    min: float
    max: float

    def __post_init__(self) -> None:
        if self.variable not in CLINICAL_VARIABLES:
            raise ConfigError(f"unknown clinical variable {self.variable!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ConfigError("normalizer bounds must be finite")
        if not self.max > self.min:
            raise ConfigError(
                f"normalizer requires max > min, got [{self.min}, {self.max}]"
            )


def normalize_clinical(value: float | np.ndarray, normalizer: ClinicalNormalizer) -> float | np.ndarray:
    """Scale a covariate (a float or an array) onto [0, 1]; out-of-bounds values clamp to 0 or 1.

    Values at or below the lower bound, NaN and -0.0 included, map to +0.0.
    """
    scaled = np.asarray((value - normalizer.min) / (normalizer.max - normalizer.min), dtype=float)
    clamped = np.where(scaled > 0.0, np.minimum(scaled, 1.0), 0.0)
    return clamped if clamped.ndim else float(clamped)


@dataclass(frozen=True)
class PatientRecord:
    """One patient: covariates, optional true mRS, and per-module probabilities.

    ``module_probs`` is ordered like the owning cohort's ``module_names``.
    ``mrs`` may be None for inference-only records; evaluation rejects those.
    Construction is permissive -- range checks live in :func:`validate_cohort`.
    """

    patient_id: str
    age: float
    nihss: int
    module_probs: tuple[float, ...]
    mrs: int | None = None

    def covariate(self, variable: str) -> float:
        if variable == "age":
            return float(self.age)
        if variable == "nihss":
            return float(self.nihss)
        raise ConfigError(f"unknown clinical variable {variable!r}")

    def outcome(self) -> OutcomeLabel:
        if self.mrs is None:
            raise ValidationError(f"patient {self.patient_id!r} has no recorded mrs")
        return binarize_mrs(self.mrs, self.patient_id)


@dataclass(frozen=True)
class Cohort:
    """An ordered module list plus the patients scored against it."""

    module_names: tuple[str, ...] = DEFAULT_MODULE_NAMES
    patients: tuple[PatientRecord, ...] = ()

    @property
    def n_modules(self) -> int:
        return len(self.module_names)

    def is_labeled(self) -> bool:
        return bool(self.patients) and all(p.mrs is not None for p in self.patients)

    def truths(self) -> tuple[OutcomeLabel, ...]:
        return tuple(p.outcome() for p in self.patients)

    def module_index(self, name: str) -> int:
        try:
            return self.module_names.index(name)
        except ValueError:
            raise ConfigError(f"unknown module {name!r}") from None

    def single_module_view(self, name: str) -> "Cohort":
        """Project the cohort onto one module, keeping ids, covariates, and mrs."""
        idx = self.module_index(name)
        patients = tuple(
            PatientRecord(
                patient_id=p.patient_id,
                age=p.age,
                nihss=p.nihss,
                module_probs=(p.module_probs[idx],),
                mrs=p.mrs,
            )
            for p in self.patients
        )
        return Cohort(module_names=(name,), patients=patients)


@dataclass(frozen=True, eq=False)
class CohortArrays:
    """Row-aligned numpy columns of a patient sequence, as fusion and threshold search read them.

    ``probs`` is (n, m), possibly a column subset of the records' modules
    (see :meth:`column`); ``age`` and ``nihss`` are float covariates.
    ``outcome`` holds the :class:`OutcomeLabel` values (good 0, poor 1) when
    built with ``labeled=True``, and None otherwise. Iterating yields the
    source records.
    """

    patients: tuple[PatientRecord, ...]
    probs: np.ndarray
    age: np.ndarray
    nihss: np.ndarray
    outcome: np.ndarray | None = None

    @classmethod
    def from_patients(cls, patients: Iterable[PatientRecord], labeled: bool = False) -> "CohortArrays":
        """Columns of ``patients``; ``labeled`` reads every outcome (raising on a missing mrs)."""
        patients = tuple(patients)
        if patients:
            probs = np.array([p.module_probs for p in patients], dtype=float)
        else:
            probs = np.empty((0, 0))
        return cls(
            patients=patients,
            probs=probs,
            age=np.array([float(p.age) for p in patients]),
            nihss=np.array([float(p.nihss) for p in patients]),
            outcome=_outcomes(patients) if labeled else None,
        )

    def __len__(self) -> int:
        return len(self.patients)

    def __iter__(self) -> Iterator[PatientRecord]:
        return iter(self.patients)

    def covariate(self, variable: str) -> np.ndarray:
        if variable == "age":
            return self.age
        if variable == "nihss":
            return self.nihss
        raise ConfigError(f"unknown clinical variable {variable!r}")

    def outcomes(self) -> np.ndarray:
        """Outcome labels as an int array, read from the records if not built labeled."""
        return _outcomes(self.patients) if self.outcome is None else self.outcome

    def take(self, rows: np.ndarray) -> "CohortArrays":
        """The rows at the given indices, in that order."""
        return CohortArrays(
            patients=tuple(self.patients[i] for i in rows.tolist()),
            probs=self.probs[rows],
            age=self.age[rows],
            nihss=self.nihss[rows],
            outcome=None if self.outcome is None else self.outcome[rows],
        )

    def column(self, index: int) -> "CohortArrays":
        """The same rows with only module ``index``'s probabilities."""
        return CohortArrays(self.patients, self.probs[:, index:index + 1], self.age, self.nihss, self.outcome)


def _outcomes(patients: Iterable[PatientRecord]) -> np.ndarray:
    return np.array([p.outcome() for p in patients], dtype=np.int8)


def as_arrays(patients: Iterable[PatientRecord] | CohortArrays) -> CohortArrays:
    """``patients`` as columns, converting records and passing arrays through."""
    return patients if isinstance(patients, CohortArrays) else CohortArrays.from_patients(patients)


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``patient_id`` is None for cohort-level findings."""

    patient_id: str | None
    field: str
    reason: str

    def __str__(self) -> str:
        who = self.patient_id if self.patient_id is not None else "<cohort>"
        return f"{who}: {self.field}: {self.reason}"


def _is_prob(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def validate_cohort(cohort: Cohort) -> list[Violation]:
    """Check every record invariant; violations are returned, never raised."""
    violations: list[Violation] = []
    if not cohort.module_names:
        violations.append(Violation(None, "module_names", "empty module list"))
    if len(set(cohort.module_names)) != len(cohort.module_names):
        violations.append(Violation(None, "module_names", "duplicate module names"))
    if not cohort.patients:
        violations.append(Violation(None, "patients", "empty cohort"))
        return violations

    seen_ids: set[str] = set()
    for p in cohort.patients:
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
        if len(p.module_probs) != cohort.n_modules:
            violations.append(
                Violation(
                    pid,
                    "module_probs",
                    f"expected {cohort.n_modules} probabilities, got {len(p.module_probs)}",
                )
            )
            continue
        for name, prob in zip(cohort.module_names, p.module_probs):
            if not _is_prob(prob):
                violations.append(
                    Violation(pid, f"p_{name.lower()}", f"probability must be in [0, 1], got {prob!r}")
                )
    return violations


def _module_name_from_column(column: str) -> str:
    suffix = column[len(CSV_MODULE_PREFIX):]
    return _CANONICAL_MODULES.get(suffix.lower(), suffix.upper())


def _module_column(name: str) -> str:
    return CSV_MODULE_PREFIX + name.lower()


def read_cohort_csv(path: str | Path) -> Cohort:
    """Read a cohort from CSV.

    Required columns: patient_id, age, nihss, mrs (value may be empty).
    Module probabilities are discovered by the ``p_`` column prefix and
    their header order defines the cohort's module ordering.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            return _parse_cohort_csv(handle, path)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {not_utf8_reason(exc)}") from exc


def not_utf8_reason(exc: UnicodeDecodeError) -> str:
    """Describe a decoding failure; the codec's position is chunk-relative, so omit it."""
    return f"not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x} ({exc.reason})"


def _parse_cohort_csv(handle: TextIO, path: Path) -> Cohort:
    reader = csv.DictReader(handle)
    header = reader.fieldnames
    if header is None:
        raise ValidationError(f"{path}: missing header row")
    missing = [col for col in CSV_REQUIRED_COLUMNS if col not in header]
    if missing:
        raise ValidationError(f"{path}: missing required columns: {', '.join(missing)}")
    module_columns = [col for col in header if col.startswith(CSV_MODULE_PREFIX)]
    if not module_columns:
        raise ValidationError(f"{path}: no module probability columns (prefix {CSV_MODULE_PREFIX!r})")
    module_names = tuple(_module_name_from_column(col) for col in module_columns)

    patients: list[PatientRecord] = []
    for line_no, row in enumerate(reader, start=2):
        try:
            mrs_text = (row["mrs"] or "").strip()
            patients.append(
                PatientRecord(
                    patient_id=(row["patient_id"] or "").strip(),
                    age=float(row["age"]),
                    nihss=int(row["nihss"]),
                    module_probs=tuple(float(row[col]) for col in module_columns),
                    mrs=int(mrs_text) if mrs_text else None,
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{line_no}: unparseable row: {exc}") from exc
    return Cohort(module_names=module_names, patients=tuple(patients))


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Write a cohort in the standard CSV schema (atomically: temp file + rename)."""
    header = list(CSV_REQUIRED_COLUMNS) + [_module_column(name) for name in cohort.module_names]
    with atomic_output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for p in cohort.patients:
            writer.writerow(
                [p.patient_id, repr(float(p.age)), p.nihss, "" if p.mrs is None else p.mrs]
                + [repr(float(prob)) for prob in p.module_probs]
            )


@contextmanager
def atomic_output(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces ``path`` only if the block succeeds.

    It writes to a temp file beside ``path`` with a name unique to the call,
    so concurrent writers never share it, and removes that file on failure.
    The file is created like ``open(path, "w")`` would: mode 0o666 less the umask.
    """
    path = Path(path)
    tmp_path = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
