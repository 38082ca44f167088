"""Patient cohort domain model.

Holds the record and the columnar cohort types, the binary outcome scale,
min-max normalization of clinical covariates, cohort validation, and the
CSV cohort schema used by the command-line tools.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import numbers
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ConfigError, ValidationError, as_array, as_float, as_tuple, is_number, real_array, require_tuple

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
CSV_CHUNK_ROWS = 512  # rows that write_csv_columns formats and holds at a time; 256 saves no more and costs time

_CSV_QUOTED = re.compile('[,"\r\n]')  # a cell holding one of these is quoted, as csv.QUOTE_MINIMAL does

# Violation reasons by field, formatted with the offending value.
_REASONS = {
    "age": "age must be a finite value >= 0, got {!r}",
    "nihss": f"nihss must be an integer in 0..{NIHSS_MAX}, got {{!r}}",
    "mrs": f"mrs must be an integer in 0..{MRS_MAX} or absent, got {{!r}}",
    "probability": "probability must be in [0, 1], got {!r}",
}


class OutcomeLabel(enum.IntEnum):
    """Binary clinical outcome. GOOD sorts below POOR."""

    GOOD = 0
    POOR = 1

    def __str__(self) -> str:
        return self.name.lower()


def poor_mask(labels: object, what: str) -> np.ndarray:
    """``labels`` as a one-dimensional bool array, True where poor: each value must be a bool, int or float equal
    to 0 or 1. A bool array is returned as it is."""
    array = as_array(labels, what, "outcome labels")  # a ragged nesting: its containers are the values at fault
    if array.dtype == bool:
        return array
    if array.dtype.kind in "iuf" and ((poor := array == 1) | (array == 0)).all():  # ints: an IntEnum is 5x slower
        return poor
    got = next((repr(v) for v in np.asarray(labels, dtype=object).flat  # each value as given, before numpy casts it
                if np.ndim(v) or np.asarray(v).dtype.kind not in "biuf" or v not in (0, 1)),
               f"{array.dtype.name} values")
    raise ValidationError(f"{what} must be outcome labels, 0 (good) or 1 (poor), got {got}")


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
            raise ConfigError(("variable", f"must be one of {', '.join(CLINICAL_VARIABLES)}", self.variable))
        # order and span imply this rule, but it names the bound at fault; an int too large for a float fails it
        lo, hi = as_float(self.min), as_float(self.max)
        for name, bound, value in (("min", self.min, lo), ("max", self.max, hi)):
            if value is None or not math.isfinite(value):
                raise ConfigError((name, "must be a finite number", bound))
        if not hi > lo:
            raise ConfigError(("max", f"must be greater than 'min' ({self.min!r})", self.max),
                              ("min", f"must be less than 'max' ({self.max!r})", self.min))
        if not math.isfinite(hi - lo):
            raise ConfigError(("max", f"must lie within a finite span of 'min' ({self.min!r})", self.max),
                              ("min", f"must lie within a finite span of 'max' ({self.max!r})", self.min))
        self.__dict__.update(min=lo, max=hi)  # floats, as a flag gives them; the rules above show the bounds as given


def normalize_clinical(value: float | np.ndarray, normalizer: ClinicalNormalizer) -> float | np.ndarray:
    """Scale a covariate (a float or an array) onto [0, 1]; out-of-bounds values clamp to 0 or 1.

    Values at or below the lower bound, NaN and -0.0 included, map to +0.0. The value is
    clipped into the bounds before the subtraction, so a value far outside them cannot overflow.
    """
    return scale_clamped(value, normalizer.min, normalizer.max)


def scale_clamped(value: float | np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray) -> float | np.ndarray:
    """:func:`normalize_clinical` between bounds ``lo`` < ``hi``, which may be arrays aligned with ``value``."""
    clipped = np.clip(real_array(value, "value"), lo, hi)
    scaled = (clipped - lo) / (hi - lo)
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


def _int_column(values: list) -> np.ndarray:
    """Python ints (None for a missing mrs) as int64, or as objects if one is None or does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except (TypeError, OverflowError):
        return np.array(values, dtype=object)


def _outside(column: np.ndarray, high: int) -> np.ndarray:
    """Rows of an integer column outside 0..high, a missing value (None) included."""
    if column.dtype == object:
        return np.array([v is None or not 0 <= v <= high for v in column.tolist()], dtype=bool)
    return (column < 0) | (column > high)


@dataclass(frozen=True, eq=False, init=False)
class Cohort:
    """An ordered module list plus its patients, stored as row-aligned columns.

    ``ids`` holds the patient ids (an object array), ``probs`` the (n, m)
    module probabilities ordered like ``module_names``, ``age`` the float
    ages, ``nihss`` and ``mrs`` the integer grades: int64, or Python ints
    when a value does not fit or an mrs is missing (None).

    ``Cohort(module_names=..., patients=...)`` builds the columns from
    records and ``.patients`` converts them back. A record the columns
    cannot hold (a wrong probability count, a non-number or a bool, a
    non-integer nihss or mrs) raises :class:`ValidationError` naming the
    patient and field; range checks live in :func:`validate_cohort`.
    """

    module_names: tuple[str, ...]
    ids: np.ndarray
    probs: np.ndarray
    age: np.ndarray
    nihss: np.ndarray
    mrs: np.ndarray

    def __init__(
        self, module_names: Iterable[str] = DEFAULT_MODULE_NAMES, patients: Iterable[PatientRecord] = ()
    ):
        module_names, patients = require_tuple("module_names", module_names), require_tuple("patients", patients)
        for fault in filter(None, (_record_fault(p, module_names) for p in patients)):
            raise ValidationError(str(fault))
        ids = np.fromiter((p.patient_id for p in patients), dtype=object, count=len(patients))
        probs = np.array([tuple(p.module_probs) for p in patients], dtype=float).reshape(len(ids), len(module_names))
        age = np.array([float(p.age) for p in patients])
        nihss = _int_column([int(p.nihss) for p in patients])
        mrs = _int_column([None if p.mrs is None else int(p.mrs) for p in patients])
        self._assign(module_names, ids, probs, age, nihss, mrs)

    @classmethod
    def of_columns(cls, module_names: Iterable[str], *columns: np.ndarray) -> "Cohort":
        """A cohort of ready columns, given in field order: ids, probs, age, nihss, mrs."""
        cohort = cls.__new__(cls)
        cohort._assign(tuple(module_names), *columns)
        return cohort

    def _assign(self, *values) -> None:
        self.__dict__.update(zip(self.__dataclass_fields__, values, strict=True))

    def _columns(self) -> list[np.ndarray]:
        return [self.ids, self.probs, self.age, self.nihss, self.mrs]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cohort):
            return NotImplemented
        return self.module_names == other.module_names and all(
            np.array_equal(a, b) for a, b in zip(self._columns(), other._columns())
        )

    def iter_rows(self) -> Iterator[tuple]:
        """(id, age, nihss, probs, mrs) per patient as Python values, mrs None when missing."""
        return zip(*(column.tolist() for column in (self.ids, self.age, self.nihss, self.probs, self.mrs)))

    @property
    def patients(self) -> tuple[PatientRecord, ...]:
        """The patients as records, converted from the columns."""
        rows = self.iter_rows()
        return tuple(PatientRecord(pid, age, nihss, tuple(p), mrs) for pid, age, nihss, p, mrs in rows)

    def __iter__(self) -> Iterator[PatientRecord]:
        return iter(self.patients)

    def outcomes(self) -> np.ndarray:
        """Outcome labels (good 0, poor 1) as int8; raises on a missing or out-of-range mrs."""
        bad = np.flatnonzero(_outside(self.mrs, MRS_MAX))
        if len(bad):
            pid, mrs = self.ids[bad[0]], self.mrs[bad[0]]
            if mrs is None:
                raise ValidationError(f"patient {pid!r} has no recorded mrs")
            binarize_mrs(int(mrs), pid)
        return (self.mrs > GOOD_MRS_MAX).astype(np.int8)

    def covariate(self, variable: str) -> np.ndarray:
        if variable == "age":
            return self.age
        if variable == "nihss":
            return np.clip(self.nihss, -sys.float_info.max, sys.float_info.max).astype(float)  # a huge int clamps
        raise ConfigError(f"unknown clinical variable {variable!r}")

    def single_module_view(self, name: str) -> "Cohort":
        """Project the cohort onto one module, keeping ids, covariates, and mrs."""
        if name not in self.module_names:
            raise ConfigError(f"unknown module {name!r}")
        j = self.module_names.index(name)
        return Cohort.of_columns((name,), self.ids, self.probs[:, j:j + 1], self.age, self.nihss, self.mrs)


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``patient_id`` is None for cohort-level findings."""

    patient_id: str | None
    field: str
    reason: str

    def __str__(self) -> str:
        who = self.patient_id if self.patient_id is not None else "<cohort>"
        return f"{who}: {self.field}: {self.reason}"


def _fits(value: object, kind: type) -> bool:
    """True for a number of ``kind``, not a bool, that its column holds: a real one must convert to a float."""
    if kind is numbers.Integral:  # an int beyond int64 goes to an object column
        return is_number(value, kind)
    return as_float(value) is not None


def _record_fault(p: PatientRecord, module_names: tuple[str, ...]) -> Violation | None:
    """Why the cohort columns cannot hold this record, or None."""
    pid = p.patient_id
    if not isinstance(pid, str):
        return Violation(repr(pid), "patient_id", f"patient id must be a string, got {type(pid).__name__}")
    for field, value, kind in (("age", p.age, numbers.Real), ("nihss", p.nihss, numbers.Integral),
                               ("mrs", 0 if p.mrs is None else p.mrs, numbers.Integral)):
        if not _fits(value, kind):
            return Violation(pid, field, _REASONS[field].format(value))
    if (probs := as_tuple(p.module_probs)) is None or len(probs) != len(module_names):
        reason = f"expected {len(module_names)} probabilities, got {p.module_probs if probs is None else len(probs)!r}"
        return Violation(pid, "module_probs", reason)
    for name, prob in zip(module_names, probs):
        if not _fits(prob, numbers.Real):
            return Violation(pid, module_column(str(name)), _REASONS["probability"].format(prob))
    return None


def validate_cohort(cohort: Cohort) -> list[Violation]:
    """Check every column invariant; violations are returned, never raised.

    Cohort-level findings come first, then each patient's in cohort order,
    field by field: id, age, nihss, mrs, then the modules.
    """
    violations: list[Violation] = []
    if not cohort.module_names:
        violations.append(Violation(None, "module_names", "empty module list"))
    unnamed = non_string_module_name(cohort.module_names)
    if unnamed:
        violations.append(Violation(None, "module_names", unnamed))
    elif len(set(cohort.module_names)) != len(cohort.module_names):
        violations.append(Violation(None, "module_names", "duplicate module names"))
    if len(cohort) == 0:
        violations.append(Violation(None, "patients", "empty cohort"))
        return violations

    ids = cohort.ids.tolist()
    n = len(ids)
    empty = np.array([not pid for pid in ids], dtype=bool)
    seen: set = set()
    repeated = np.fromiter((pid in seen or seen.add(pid) for pid in ids), dtype=bool, count=n)  # add: None, False
    # (field, rows at fault, the values shown in the reason or None, reason)
    checks = [
        ("patient_id", empty, None, "empty patient id"),
        ("patient_id", repeated & ~empty, None, "duplicate patient id"),
        ("age", ~(np.isfinite(cohort.age) & (cohort.age >= 0)), cohort.age, _REASONS["age"]),
        ("nihss", _outside(cohort.nihss, NIHSS_MAX), cohort.nihss, _REASONS["nihss"]),
        ("mrs", _outside(cohort.mrs, MRS_MAX) & ~np.equal(cohort.mrs, None), cohort.mrs, _REASONS["mrs"]),
    ] + [
        (module_column(str(name)), ~((column >= 0.0) & (column <= 1.0)), column, _REASONS["probability"])
        for name, column in zip(cohort.module_names, cohort.probs.T)
    ]
    found: list[tuple[int, Violation]] = []
    for field, at_fault, values, reason in checks:
        rows = np.flatnonzero(at_fault).tolist()
        shown = [None] * len(rows) if values is None else values[rows].tolist()
        found += [(row, Violation(ids[row], field, reason.format(v))) for row, v in zip(rows, shown)]
    found.sort(key=lambda item: item[0])  # stable: each patient's findings keep the field order
    return violations + [violation for _, violation in found]


def _module_name_from_column(column: str) -> str:
    suffix = column[len(CSV_MODULE_PREFIX):]
    return _CANONICAL_MODULES.get(suffix.lower(), suffix.upper())


def non_string_module_name(module_names: tuple[str, ...]) -> str | None:
    """Why the first module name that is not a string cannot name a column, or None."""
    for name in module_names:
        if not isinstance(name, str):
            return f"module names must be strings, got {name!r}"
    return None


def module_column(name: str) -> str:
    """The CSV header of a module's probability column."""
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
            return _read_cohort(handle, path)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {not_utf8_reason(exc)}") from exc


def not_utf8_reason(exc: UnicodeDecodeError) -> str:
    """Describe a decoding failure; the codec's position is chunk-relative, so omit it."""
    return f"not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x} ({exc.reason})"


def _read_cohort(handle: TextIO, path: Path) -> Cohort:
    """Parse the header, where a repeated name reads its last column, then read the body in one streamed
    ``np.loadtxt`` pass if it is plain, as ``synth`` writes it, else by :func:`_read_rows` from its start.

    Plain: ASCII without quotes or \\x1c-\\x1f, no line over the csv field limit, cells that parse (an empty
    mrs does not).
    """
    try:  # a readline iterator, unlike the handle's own, leaves handle.tell() working
        header = next(csv.reader(iter(handle.readline, "")), None)
    except csv.Error as exc:
        raise ValidationError(f"{path}:1: unparseable row: {exc}") from exc
    if header is None:
        raise ValidationError(f"{path}: missing header row")
    missing = [col for col in CSV_REQUIRED_COLUMNS if col not in header]
    if missing:
        raise ValidationError(f"{path}: missing required columns: {', '.join(missing)}")
    module_columns = [col for col in header if col.startswith(CSV_MODULE_PREFIX)]
    if not module_columns:
        raise ValidationError(f"{path}: no module probability columns (prefix {CSV_MODULE_PREFIX!r})")
    module_names = tuple(map(_module_name_from_column, module_columns))
    column_of = {name: i for i, name in enumerate(header)}
    cols = [column_of[col] for col in (*CSV_REQUIRED_COLUMNS, *module_columns)]
    if not handle.seekable():  # a pipe: hold its body, so that the row loop can go back to the start
        handle = io.StringIO(handle.read(), newline="")  # newline="" as the file is opened: a bare \r ends a row
    body = handle.tell()
    limit = csv.field_size_limit()

    def plain() -> Iterator[str]:
        while block := handle.readlines(1 << 16):
            text = "".join(block)  # numpy reads "\x1c2" as 2 and "\u01fe2" as 4622, where int() fails
            if not text.isascii() or any(ch in text for ch in '"\x1c\x1d\x1e\x1f') or max(map(len, block)) > limit:
                raise ValueError("not a plain block")
            yield from block

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 warns where it parses an int64 cell such as "7.0" as a float
            dtype = [("id", "O"), ("age", "f8"), ("nihss", "i8"), ("mrs", "i8"), ("probs", "f8", (len(module_names),))]
            table = np.loadtxt(plain(), dtype=dtype, delimiter=",", comments=None, usecols=cols, ndmin=1)
    except Exception:
        handle.seek(body)
        return _read_rows(handle, path, len(header), cols, module_names)
    ids = np.array([pid.strip() for pid in table["id"].tolist()], dtype=object)
    columns = (np.ascontiguousarray(table[name]) for name in ("probs", "age", "nihss", "mrs"))
    return Cohort.of_columns(module_names, ids, *columns)


def _read_rows(handle: TextIO, path: Path, width: int, cols: list[int], module_names: tuple[str, ...]) -> Cohort:
    """Parse the body into columns, reading rows as ``csv.DictReader`` does: blank lines are skipped and not
    numbered (the first row is 2), short rows are padded with None to ``width``. ``cols`` gives the column of each
    required column, then of each module.
    """
    id_col, age_col, nihss_col, mrs_col, *module_cols = cols
    line_no = 1  # the last row read whole; the header is row 1
    ids, age, nihss, mrs, probs = [], [], [], [], []  # probs row-major, flat
    try:
        for line_no, row in enumerate(filter(None, csv.reader(handle)), start=2):
            if len(row) < width:
                row += [None] * (width - len(row))
            try:
                ids.append((row[id_col] or "").strip())
                age.append(float(row[age_col]))
                nihss.append(int(row[nihss_col]))
                probs += [float(row[col]) for col in module_cols]
                mrs_text = (row[mrs_col] or "").strip()
                mrs.append(int(mrs_text) if mrs_text else None)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{line_no}: unparseable row: {exc}") from exc
    except csv.Error as exc:  # raised while reading the row after the last one counted
        raise ValidationError(f"{path}:{line_no + 1}: unparseable row: {exc}") from exc
    probs = np.array(probs, dtype=float).reshape(len(ids), len(module_cols))
    ids, age = np.array(ids, dtype=object), np.array(age, dtype=float)
    return Cohort.of_columns(module_names, ids, probs, age, _int_column(nihss), _int_column(mrs))


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Write a cohort in the standard CSV schema (atomically: temp file + rename)."""
    if unnamed := non_string_module_name(cohort.module_names):
        raise ValidationError(f"{path}: {unnamed}")
    header = list(CSV_REQUIRED_COLUMNS) + [module_column(name) for name in cohort.module_names]
    repeated = [column for i, column in enumerate(header) if column in header[:i]]
    if repeated:  # module names equal ignoring case
        raise ValidationError(f"{path}: duplicate column {repeated[0]!r}: module names must differ ignoring case")
    with atomic_output(path) as handle:
        write_csv_columns(handle, header, [cohort.ids, cohort.age, cohort.nihss, cohort.mrs, *cohort.probs.T])


def write_csv_columns(handle: TextIO, header: list[str], columns: list[np.ndarray]) -> None:
    """Write a table of two or more row-aligned columns, byte for byte as the csv module writes its rows.

    A column of numbers (float, integer or bool) is formatted by ``str`` in one pass; any other
    column cell by cell: None empty, anything else by ``str``, quoted when it holds a comma, a
    quote or a line break. A 2-D float64 block stands for its columns in order, and they count
    towards the two or more. Per chunk it formats each distinct value once, keyed on its bits so
    that -0.0 and 0.0 stay apart, which pays where values repeat. Rows end in ``\\r\\n`` and go out
    ``CSV_CHUNK_ROWS`` at a time, so only one chunk's cells and text are alive, never the table's.
    """
    handle.write(",".join(map(_csv_quote, header)) + "\r\n")
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        cells = []
        for column in columns:
            part = column[start:start + CSV_CHUNK_ROWS]
            cells += _csv_block_cells(part) if part.ndim == 2 else [_csv_cells(part)]
        handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _csv_block_cells(part: np.ndarray) -> list[list[str]]:
    """The cells of a float64 block's columns, each distinct value formatted once."""
    bits, inverse = np.unique(part.view(np.int64), return_inverse=True)
    text = np.array(list(map(str, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse.reshape(part.shape)].T.tolist()  # the inverse's shape differs across numpy versions


def _csv_cells(column: np.ndarray) -> list[str]:
    values = column.tolist()
    if column.dtype.kind in "biuf":  # the text of a number never needs quotes
        return list(map(str, values))
    cells = ["" if v is None else str(v) for v in values]
    return list(map(_csv_quote, cells)) if _CSV_QUOTED.search("".join(cells)) else cells


def _csv_quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


@contextmanager
def atomic_output(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces ``path`` only if the block succeeds.

    It writes to a temp file beside the file ``path`` resolves to, so a symlink stays and its target
    gets the bytes, with a name unique to the call, so concurrent writers never share it, and removes
    that file on failure. The file is created like ``open(path, "w")`` would: mode 0o666 less the umask.
    An existing ``path`` that is no regular file (a FIFO, a device, a pipe at ``/dev/fd/N``) has nothing
    to replace and is written in place.
    """
    in_place = os.path.exists(path) and not os.path.isfile(path)  # both follow links; a pipe has no realpath
    path = Path(path if in_place else os.path.realpath(path))
    tmp_path = None if in_place else path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")  # "." has no name
    flags = os.O_TRUNC if in_place else os.O_CREAT | os.O_EXCL
    fd = os.open(tmp_path or path, os.O_WRONLY | flags, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as handle:
            yield handle
        if tmp_path:
            os.replace(tmp_path, path)
    except BaseException:
        if tmp_path:
            tmp_path.unlink(missing_ok=True)
        raise
