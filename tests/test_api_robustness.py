"""Array arguments of the numeric library functions: each reads as float64 or is rejected by name.

Hypothesis draws lists and arrays of numbers of every real dtype, mixed with what is no real number: text,
bools, None, complex numbers and ints beyond int64. A call either gives what the same values cast to float64
give, or raises ValidationError or DegenerateDataError. An argument whose dtype is not real is never read.
Values are drawn flat or with some or all of them in one-element lists: a score or probability argument that is
not one-dimensional is rejected by its shape, and a ragged nesting reads as an array of objects, no real numbers.
Outcome label arguments are drawn the same way from labels (``OutcomeLabel`` members, 0 and 1 as ints, int8,
bools and floats) mixed with what is none, some or all of them nested in one-element lists: a call whose labels
are all labels, flat, gives what their bool masks give, and any other raises ValidationError. A value error begins
with the name of the argument at fault. Nothing else escapes, and no warning is raised.

Cohorts that no check has seen, built from ready columns, are drawn for ``validate_cohort``, which returns its
violations and raises nothing, and for ``resolve_fold_config`` under four configs, which resolves every threshold
in (0, 1) or raises ValidationError, ConfigError or DegenerateDataError.

The public dataclass constructors (``FusionConfig``, ``CvPlan``, ``ClinicalNormalizer``, ``SyntheticSpec``,
``PairedSample``, and ``Cohort`` with its ``module_names``, its ``patients`` and a ``PatientRecord``) get values of
every JSON type, bools, numpy scalars, NaN, infinities, subnormals, ints beyond int64 and numeric strings in any
field. Each either stores in every field the kind its annotation names (a Python float, never a numpy scalar, where
a float is due) or raises ValidationError or ConfigError with a message that names a field; no warning is raised.

The one-row functions (``derive_labels``, ``compute_weights``, ``uniform_weights``, ``fuse``, ``classify``,
``fuse_patient`` of such a record) and ``compare_summary_dicts`` of summaries with any value, bytes or a 2-D array
in one or two places, one of them possibly nested below a run's metrics, get the same values in any argument,
scalars where a sequence is due too. Each returns the kind its annotation names or raises a library error whose
message names an argument, or states which lengths or runs differ; no warning is raised.

``wilcoxon_signed_rank`` gets paired samples of every length 1-40 with ties, zero differences, differences beyond
the largest float and subnormal ones. Its p-value lies in [0, 1], it is exact for at most 25 nonzero differences,
swapping the sides keeps the p-value and turns the statistic W into n(n+1)/2 - W, and up to 12 nonzero differences
the p-value equals an enumeration of every sign pattern.

``read_cohort_csv`` and ``write_cohort_csv`` get targets that are no text path (bytes and the other values of any
type that the constructors get), from an empty working directory: each raises ValidationError naming ``path`` and
writes nothing there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import tempfile
import types
import warnings
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrsfuse.cohort import (
    ClinicalNormalizer, Cohort, OutcomeLabel, PatientRecord, Violation, as_plain, normalize_clinical, read_cohort_csv,
    validate_cohort, write_cohort_csv,
)
from mrsfuse.crossval import CvPlan, compare_summary_dicts, evaluate_model, resolve_fold_config
from mrsfuse.errors import ConfigError, DegenerateDataError, ValidationError, as_array
from mrsfuse.fusion import (
    FusionConfig, classify, compute_weights, derive_labels, fuse, fuse_matrix, fuse_patient, search_threshold,
    uniform_weights,
)
from mrsfuse.metrics import auc, mean_absolute_error, report
from mrsfuse.significance import EXACT_MAX_N, PairedSample, wilcoxon_signed_rank
from mrsfuse.synth import SyntheticSpec, generate_cohort

UNIT = st.one_of(st.floats(0, 1), st.floats(0, 1, width=32).map(np.float32), st.integers(0, 1).map(np.int8),
                 st.integers(0, 1))
REAL = st.one_of(UNIT, st.floats(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-3, 3))
NOT_REAL = st.one_of(
    st.booleans(), st.none(), st.complex_numbers(), st.integers(2**64, 10**400), st.integers(-10**400, -2**63 - 1),
    st.floats().map(str), st.text(max_size=3),
)
LABEL = st.sampled_from([OutcomeLabel.GOOD, OutcomeLabel.POOR])
LABELS = (OutcomeLabel.GOOD, OutcomeLabel.POOR, 0, 1, np.int8(0), np.int8(1), False, True, 0.0, 1.0)
NOT_LABELS = (2, -1, 0.5, math.nan, None, "good", "poor", "1", 1j, 1 + 0j)

# errors on the lengths or the shape of the arguments, which name none of them
SHAPE = re.compile(r"length mismatch: |empty input$|scores and truths must be non-empty|probabilities must form|"
                   r"cannot fuse an empty|cannot weight an empty")

NORMALIZER = ClinicalNormalizer("age", 20, 95)
EDGE_FLOATS = (0.0, 1.0, 0.5, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0, 2.0, -1.0)
FOLD_CONFIGS = (FusionConfig("none"), FusionConfig("nihss"), FusionConfig("age", strategy="max_accuracy"),
                FusionConfig("age", prelim_threshold=0.4, final_threshold=0.45, strategy="fixed"))
SETTINGS = settings(max_examples=150, deadline=None)


def nested(draw, items: list) -> tuple[list, bool]:
    """``items`` flat, or with some or all in one-element lists; and whether numpy can make an array of them."""
    nest = draw(st.sampled_from(["flat", "flat", "flat", "all", "some"]))
    wrap = [nest == "all" or (nest == "some" and draw(st.booleans())) for _ in items]
    return [[item] if wrapped else item for item, wrapped in zip(items, wrap)], len(set(wrap)) < 2


@st.composite
def values(draw, size: int, real=REAL):
    """``size`` values, all ``real`` or some not, nested as ``nested`` draws them, as a list or as the array numpy
    makes of them."""
    items = draw(st.lists(draw(st.sampled_from([real, st.one_of(real, NOT_REAL)])), min_size=size, max_size=size))
    items, even = nested(draw, items)
    return np.array(items) if even and draw(st.booleans()) else items


@st.composite
def with_truths(draw):
    """Values (probabilities half the time) and truths of the same length, or, one draw in five, lengths one apart."""
    n = draw(st.integers(0, 8))
    m = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return draw(values(n, draw(st.sampled_from([UNIT, REAL])))), draw(st.lists(LABEL, min_size=m, max_size=m))


@st.composite
def outcome_labels(draw, size: int) -> tuple:
    """``size`` labels, all outcome labels or some not, flat or with some or all in one-element lists, as a list or
    as the array numpy makes of them; and whether all are flat outcome labels."""
    pool = draw(st.sampled_from([LABELS, LABELS + NOT_LABELS]))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    items, even = nested(draw, [pool[i] for i in picks])
    flat = not any(isinstance(item, list) for item in items)
    return (np.array(items) if even and draw(st.booleans()) else items), all(i < len(LABELS) for i in picks) and flat


@st.composite
def with_labels(draw):
    """As ``with_truths``, with the truths drawn by ``outcome_labels``: values, truths and whether those are labels."""
    n = draw(st.integers(0, 8))
    m = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return draw(values(n, draw(st.sampled_from([UNIT, REAL])))), *draw(outcome_labels(m))


def outcome(call, *args) -> tuple:
    """What ``call(*args)`` returned, or the type and text of the library error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "returned", call(*args)
        except (ValidationError, DegenerateDataError) as exc:
            return type(exc).__name__, str(exc)


def same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return repr(a) == repr(b)  # NaN and -0.0 as well


def check(call, args: list, named: dict[int, str], labels: dict[int, tuple[str, bool]] | None = None,
          vectors: tuple[int, ...] = ()) -> None:
    """``named`` gives the position of each numeric argument and the name that its errors give it; ``labels`` gives
    the position of each label argument, its name and whether all its values are outcome labels; ``vectors`` the
    positions of the numeric arguments that must be one-dimensional."""
    labels = labels or {}
    got = outcome(call, *args)
    arrays = {i: as_array(args[i], named[i]) for i in named}
    unreal = {f"{named[i]} must be real numbers, got {array.dtype.name} values"
              for i, array in arrays.items() if array.dtype.kind not in "iuf"}
    not_flat = {f"{named[i]} must be a one-dimensional sequence of real numbers, got shape {arrays[i].shape}"
                for i in vectors if arrays[i].ndim != 1}
    not_labels = {name for name, valid in labels.values() if not valid}
    if unreal or not_flat or not_labels:
        assert got[0] == "ValidationError", got
    else:
        floats = [np.asarray(arg, dtype=float) if i in named else
                  np.array([value == 1 for value in arg], dtype=bool) if i in labels else arg
                  for i, arg in enumerate(args)]
        assert same(got, outcome(call, *floats)), got
    if got[0] == "ValidationError" and not SHAPE.match(got[1]):
        assert any(got[1].startswith(f"{name} must ") for name in {*named.values(), *not_labels}), got[1]
        assert "must be real numbers" not in got[1] or got[1] in unreal, got[1]
        assert "sequence of real numbers" not in got[1] or got[1] in not_flat, got[1]


@SETTINGS
@given(with_truths())
def test_auc(pair):
    check(auc, list(pair), {0: "scores"}, vectors=(0,))


@SETTINGS
@given(with_truths())
def test_mean_absolute_error(pair):
    check(mean_absolute_error, list(pair), {0: "fused probability"}, vectors=(0,))


@SETTINGS
@given(with_truths(), st.data())
def test_report(pair, data):
    probs, truth = pair
    predicted = data.draw(st.lists(LABEL, min_size=len(truth), max_size=len(truth)))
    check(report, [predicted, probs, truth], {1: "fused probability"}, vectors=(1,))


@SETTINGS
@given(with_truths(), st.sampled_from(["youden", "max_accuracy"]))
def test_search_threshold(pair, strategy):
    check(search_threshold, [*pair, strategy], {0: "scores"}, vectors=(0,))


@settings(SETTINGS, max_examples=300)
@given(st.integers(0, 4), st.integers(0, 3), st.sampled_from([None, 0, 0, 0, -1, 1]), st.floats(0, 1), st.data())
def test_fuse_matrix(n, m, covariate_shift, threshold, data):
    cells = data.draw(values(n * m, data.draw(st.sampled_from([UNIT, UNIT, REAL]))))  # unit cells reach the covariate
    probs = np.reshape(cells, (n, m)) if isinstance(cells, np.ndarray) else [cells[i * m:(i + 1) * m] for i in range(n)]
    named = {0: "module probability"}
    covariate = None
    if covariate_shift is not None:
        covariate, named[1] = data.draw(values(max(0, n + covariate_shift))), "covariate"
    check(fuse_matrix, [probs, covariate, threshold], named)


@SETTINGS
@given(st.one_of(REAL, NOT_REAL, st.integers(0, 8).flatmap(values)))
def test_normalize_clinical(value):
    check(normalize_clinical, [value, NORMALIZER], {0: "value"})


@SETTINGS
@given(with_labels())
def test_auc_labels(case):
    scores, truth, valid = case
    check(auc, [scores, truth], {0: "scores"}, {1: ("truth", valid)}, vectors=(0,))


@SETTINGS
@given(with_labels())
def test_mean_absolute_error_labels(case):
    probs, truth, valid = case
    check(mean_absolute_error, [probs, truth], {0: "fused probability"}, {1: ("truth", valid)}, vectors=(0,))


@SETTINGS
@given(with_labels(), st.data())
def test_report_labels(case, data):
    probs, truth, valid = case
    predicted, predicted_valid = data.draw(outcome_labels(len(truth)))
    check(report, [predicted, probs, truth], {1: "fused probability"},
          {0: ("predicted", predicted_valid), 2: ("truth", valid)}, vectors=(1,))


@SETTINGS
@given(with_labels(), st.sampled_from(["youden", "max_accuracy"]))
def test_search_threshold_labels(case, strategy):
    scores, truths, valid = case
    check(search_threshold, [scores, truths, strategy], {0: "scores"}, {1: ("truths", valid)}, vectors=(0,))


@SETTINGS
@given(st.integers(0, 8).flatmap(outcome_labels), st.floats(0, 1))
def test_compute_weights_labels(case, covariate):
    labels, valid = case
    check(compute_weights, [labels, covariate], {}, {0: ("labels", valid)})


@st.composite
def unvalidated_cohorts(draw) -> Cohort:
    """0-5 rows of 1-3 modules: probabilities and ages all edge floats or all uniform per column, nihss as int64 or
    as Python ints that may be +-10**30, mrs as int64 in -1..7 or as Python ints that may be None."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(1, 3))

    def column(size: int, element, dtype) -> np.ndarray:
        return np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=dtype)

    def reals(size: int) -> np.ndarray:
        return column(size, draw(st.sampled_from([st.sampled_from(EDGE_FLOATS), st.floats(0, 1)])), float)

    grades = draw(st.sampled_from([(st.integers(-2, 45), np.int64),
                                   (st.one_of(st.integers(0, 42), st.sampled_from([-10**30, 10**30])), object)]))
    outcomes = draw(st.sampled_from([(st.integers(-1, 7), np.int64),
                                     (st.one_of(st.none(), st.integers(-1, 7)), object)]))
    ids = np.array([f"p{i}" for i in range(n)], dtype=object)
    return Cohort.of_columns([f"M{j}" for j in range(m)], ids, reals(n * m).reshape(n, m), reals(n),
                             column(n, *grades), column(n, *outcomes))


@settings(SETTINGS, max_examples=400)
@given(unvalidated_cohorts(), st.sampled_from(FOLD_CONFIGS))
def test_validate_cohort_and_resolve_fold_config(cohort, config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(isinstance(violation, Violation) for violation in validate_cohort(cohort))
        try:
            resolved, resolution = resolve_fold_config(cohort, config)
        except (ValidationError, ConfigError, DegenerateDataError):
            return
    thresholds = (resolved.prelim_threshold, resolved.final_threshold)
    assert thresholds == (resolution.prelim_threshold, resolution.final_threshold)
    assert all(isinstance(value, float) and 0.0 < value < 1.0 for value in thresholds), thresholds
    assert (resolved.normalizer is None) == (config.clinical_variable == "none")


# what any field of a public constructor may be given
ANY_VALUE = st.sampled_from([
    None, True, False, 0, 1, 2, 5, -1, 10**30, -10**30, 2**63, 0.0, -0.0, 0.3, 0.45, 0.7, 1.0, 2.5, 20.0, 95.0,
    5e-324, 1e308, math.nan, math.inf, -math.inf, "", "0.5", "3", "age", "nihss", "none", "fixed", "A", [], [0.7],
    [0.6, 0.8], ["A", "B"], {}, {"k": 1}, np.float32(0.4), np.float32(math.inf), np.float64(0.6), np.int64(3),
    np.int8(1), np.bool_(True), np.float16(0.5),
])
# per constructor: values each field may take that pass alone, and a pattern of the field's names in a message
FIELDS = {
    FusionConfig: {
        "clinical_variable": (["age", "nihss", "none"], r"clinical[_ ]variable|config uses"),
        "normalizer": ([None, ClinicalNormalizer("age", 20, 95), ClinicalNormalizer("nihss", 0, 42)], "normalizer"),
        "prelim_threshold": ([None, 0.4], "prelim_threshold"),
        "final_threshold": ([None, 0.5], "final_threshold"),
        "strategy": (["youden", "max_accuracy", "fixed"], "strategy"),
    },
    CvPlan: {"k": ([2, 5], r"^k "), "n_runs": ([1, 3], "n_runs"), "base_seed": ([0, 7], "base_seed"),
             "stratified": ([True, False], "stratified")},
    ClinicalNormalizer: {"variable": (["age", "nihss"], "variable"), "min": ([0, 20.0], r"\bmin\b"),
                         "max": ([42, 95.0], r"\bmax\b")},
    SyntheticSpec: {
        "n_patients": ([10], "n_patients"), "prevalence_poor": ([0.34], "prevalence_poor"),
        "module_aucs": ([(0.6, 0.8)], r"module_aucs|AUC targets"),
        "module_names": ([("A", "B")], r"module_names|module names|modules|module list"),
        "rho_age": ([0.6, 1], "rho_age"), "rho_nihss": ([0, 0.6], "rho_nihss"), "seed": ([0, 3], "seed"),
    },
    PairedSample: {"a": ([(0.1, 0.2)], "paired sample"), "b": ([(0.3, 0.1)], "paired sample")},
}
RECORD_FIELDS = {"patient_id": (["p"], "patient_id"), "age": ([60.0, 70], "age"), "nihss": ([5], "nihss"),
                 "module_probs": ([(0.2, 0.7)], "module_probs|p_[ab]"), "mrs": ([None, 1], "mrs")}


def holds(value: object, hint: object) -> bool:
    """Whether ``value`` is of the kind an annotation names: a float, int or bool exactly, not a numpy scalar."""
    if isinstance(hint, types.UnionType):
        return any(holds(value, option) for option in get_args(hint))
    if get_origin(hint) is tuple:
        return type(value) is tuple and all(holds(item, get_args(hint)[0]) for item in value)
    return type(value) is hint if hint in (float, int, bool) else isinstance(value, hint)


@st.composite
def arguments(draw, fields: dict) -> dict:
    """Each field a value that passes alone, or, half the time, any value."""
    return {name: draw(st.sampled_from(ok) | ANY_VALUE if draw(st.booleans()) else st.sampled_from(ok))
            for name, (ok, _) in fields.items()}


def construct(cls, kwargs: dict, fields: dict):
    """``cls(**kwargs)``, or None when it raised a library error whose message names a field."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return cls(**kwargs)
        except (ValidationError, ConfigError, DegenerateDataError) as exc:
            assert re.search("|".join(pattern for _, pattern in fields.values()), str(exc)), str(exc)
            return None


@settings(SETTINGS, max_examples=200)
@given(st.sampled_from(list(FIELDS)).flatmap(lambda cls: st.tuples(st.just(cls), arguments(FIELDS[cls]))))
def test_public_constructors_store_their_annotated_kinds(case):
    cls, kwargs = case
    if (made := construct(cls, kwargs, FIELDS[cls])) is not None:
        for name, hint in get_type_hints(cls).items():
            assert holds(getattr(made, name), hint), (name, getattr(made, name))
        json.dumps(as_plain(made))


# what a sequence argument may be given besides a sequence: no container of other kinds, which is out of scope
NOT_SEQUENCE = ANY_VALUE.filter(lambda value: not isinstance(value, (list, dict)))


@settings(SETTINGS, max_examples=200)
@given(arguments(RECORD_FIELDS), st.data())
def test_a_cohort_of_a_record_holds_its_columns_kinds(kwargs, data):
    record = PatientRecord(**kwargs)
    cohort_fields = {"module_names": ([("A", "B")], "module_names"), "patients": ([(record,)], "patients")}
    given = {name: data.draw(st.sampled_from(ok) | (ANY_VALUE if name == "module_names" else NOT_SEQUENCE)
                             if data.draw(st.booleans()) else st.sampled_from(ok))
             for name, (ok, _) in cohort_fields.items()}
    if (cohort := construct(Cohort, given, {**RECORD_FIELDS, **cohort_fields})) is not None:
        n = len(given["patients"])
        assert type(cohort.module_names) is tuple and cohort.probs.shape == (n, len(cohort.module_names))
        assert (cohort.ids.dtype, cohort.probs.dtype, cohort.age.dtype) == (object, float, float)
        assert all(type(v) is str for v in cohort.ids.tolist()) and cohort.nihss.dtype in (np.int64, object)
        assert all(type(v) is int for v in cohort.nihss.tolist()), cohort.nihss
        assert all(v is None or type(v) is int for v in cohort.mrs.tolist()), cohort.mrs


@st.composite
def summaries(draw) -> object:
    """The keys ``compare_summary_dicts`` reads of a three-run summary as ``RunSummary.as_dict`` writes it, or, seven
    times in ten, that summary with one or two of these replaced by any value, bytes or a 2-D array: the summary, its
    seed schedule, its runs, a run, a run's index, its metrics, its auc, or, nested below the last run's metrics, the
    auc's one item."""
    aucs = draw(st.lists(st.sampled_from([0.5, 0.6, 0.75]), min_size=3, max_size=3))
    summary = {"seed_schedule": {"base_seed": 0, "run_indices": [0, 1, 2]},
               "runs": [{"run_index": i, "metrics": {"auc": value}} for i, value in enumerate(aucs)]}
    owners = {"seed_schedule": summary, "runs": summary, "run": summary["runs"], "run_index": summary["runs"][0],
              "metrics": summary["runs"][0], "auc": summary["runs"][0]["metrics"],
              "nested": summary["runs"][2]["metrics"]}
    count = draw(st.sampled_from([0, 0, 0, 1, 1, 1, 1, 2, 2, 2]))
    for place in draw(st.lists(st.sampled_from(["summary", *owners]), min_size=count, max_size=count, unique=True)):
        value = draw(ANY_VALUE | st.sampled_from([b"x", np.zeros((2, 2))]))
        if place == "summary":
            return value
        owners[place][{"run": 0, "nested": "auc"}.get(place, place)] = [value] if place == "nested" else value
    return summary


GOOD, POOR = OutcomeLabel.GOOD, OutcomeLabel.POOR
# per function: values each argument may take that pass alone, and a pattern of the argument names in a message,
# or of the lengths or runs that differ
FUNCTION_ARGUMENTS = {
    derive_labels: {"probs": ([(0.2, 0.7), [0.9]], "probs|module probability"), "threshold": ([0.5], "threshold")},
    compute_weights: {"labels": ([(GOOD, POOR), [1, 0, 1]], "labels|empty label list"),
                      "covariate": ([0.3], "covariate")},
    uniform_weights: {"n": ([1, 3], "module count|empty module list")},
    fuse: {"probs": ([(0.2, 0.7)], "probs|length mismatch|empty probability list"),
           "weights": ([(0.5, 0.5), (1.0, 0.0)], "weights?")},
    classify: {"fused_probability": ([0.3], "fused_probability"), "threshold": ([0.5], "threshold")},
    # a and b are drawn by summaries(); the other errors state which schedules, runs or values differ
    compare_summary_dicts: {"a": ([None], "malformed summary: a"), "b": ([None], "malformed summary: b"),
                            "measure": (["auc"], "measure|seed schedules|run indices|no completed runs|paired sample")},
}
RESOLVED = (FusionConfig("none", None, 0.4, 0.5, "fixed"),
            FusionConfig("age", ClinicalNormalizer("age", 20, 95), 0.4, 0.5, "fixed"))


@settings(SETTINGS, max_examples=200)
@given(st.sampled_from(list(FUNCTION_ARGUMENTS)), st.data())
def test_public_functions_return_their_annotated_kinds(function, data):
    kwargs = data.draw(arguments(FUNCTION_ARGUMENTS[function]))
    if function is compare_summary_dicts:
        kwargs["a"], kwargs["b"] = data.draw(summaries()), data.draw(summaries())
    if (made := construct(function, kwargs, FUNCTION_ARGUMENTS[function])) is not None:
        assert holds(made, get_type_hints(function)["return"]), made


@settings(SETTINGS, max_examples=100)
@given(arguments(RECORD_FIELDS), st.sampled_from(RESOLVED))
def test_fuse_patient_of_a_record(kwargs, config):
    fields = {**RECORD_FIELDS, "module_probs": ([], "module_probs|p_:|empty probability list")}  # its modules are ""
    if (made := construct(fuse_patient, {"record": PatientRecord(**kwargs), "config": config}, fields)):
        assert type(made.fused_probability) is float and 0.0 <= made.fused_probability <= 1.0
        assert all(type(w) is float for w in made.weights) and len(made.weights) == len(kwargs["module_probs"])


@pytest.mark.parametrize("make, error, message", [
    (lambda: SyntheticSpec(n_patients=10, module_aucs=None), ConfigError, "module_aucs must be a sequence, got None"),
    (lambda: SyntheticSpec(n_patients=10, module_names=None), ConfigError,
     "module_names must be a sequence, got None"),
    (lambda: PairedSample(a=None, b=(1.0,)), ValidationError,
     "paired sample a must hold real numbers within float range"),
    (lambda: Cohort(("A",), (PatientRecord("p", 60.0, 5, None, 1),)), ValidationError,
     "p: module_probs: expected 1 probabilities, got None"),
    (lambda: FusionConfig("age", normalizer=True), ConfigError,
     "normalizer must be a ClinicalNormalizer or None, got True"),
    (lambda: Cohort(module_names=None), ValidationError, "module_names must be a sequence, got None"),
    (lambda: Cohort(("A",), None), ValidationError, "patients must be a sequence, got None"),
    (lambda: Cohort(("A",), 5), ValidationError, "patients must be a sequence, got 5"),
    (lambda: Cohort("AB"), ValidationError, "module_names must be a sequence, got 'AB'"),  # not one module a letter
])
def test_a_constructor_names_the_field_it_cannot_take(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


SUMMARY = {"seed_schedule": [0], "runs": [{"run_index": 0, "metrics": {"auc": 0.7}}]}


@pytest.mark.parametrize("call, message", [
    (lambda: derive_labels(0.5, 0.5), "probs must be a sequence, got 0.5"),
    (lambda: fuse(0.5, (0.5, 0.5)), "probs must be a sequence, got 0.5"),
    (lambda: fuse((0.2, 0.7), 0.5), "weights must be a sequence, got 0.5"),
    (lambda: compute_weights(0.5, 0.5), "labels must be a one-dimensional sequence of outcome labels, got shape ()"),
    (lambda: uniform_weights(10**400), f"module count must be at most {np.iinfo(np.intp).max}, got {10**400!r}"),
    (lambda: compare_summary_dicts(None, None, "auc"), "malformed summary: a: not a dict, got NoneType"),
    (lambda: compare_summary_dicts(b"x", SUMMARY, "auc"), "malformed summary: a: not a dict, got bytes"),
    (lambda: compare_summary_dicts(SUMMARY, 0.5, "auc"), "malformed summary: b: not a dict, got float"),
    (lambda: compare_summary_dicts({**SUMMARY, "runs": np.zeros((1, 2))}, SUMMARY, "auc"),
     "malformed summary: a: only integers"),  # numpy's IndexError, worded on by numpy
    (lambda: compare_summary_dicts({**SUMMARY, "seed_schedule": np.zeros((2, 2))}, SUMMARY, "auc"),
     "malformed summary: a: Object of type ndarray is not JSON serializable"),
    (lambda: fuse_patient(PatientRecord("p", 60.0, 5, None, 1), FusionConfig("none", None, 0.4, 0.5, "fixed")),
     "module_probs must be a sequence, got None"),
], ids=["derive_labels-scalar-probs", "fuse-scalar-probs", "fuse-scalar-weights", "compute_weights-scalar-labels",
        "uniform_weights-beyond-intp", "compare-none", "compare-bytes", "compare-float", "compare-2d-runs",
        "compare-2d-seed-schedule", "fuse_patient-no-probs"])
def test_a_function_names_the_argument_it_cannot_take(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value).startswith(message)


# what a file path argument may be given that is no text path
NOT_PATH = (ANY_VALUE | st.sampled_from([b"c.csv", b""])).filter(lambda value: not isinstance(value, str))


@SETTINGS
@given(NOT_PATH, st.booleans())
def test_cohort_files_name_a_target_that_is_no_path(target, writing):
    cohort = Cohort(("A",), (PatientRecord("p", 60.0, 5, (0.2,), 1),))
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^path must be a file path"):
            write_cohort_csv(cohort, target) if writing else read_cohort_csv(target)
        assert os.listdir(tmp) == []


def test_a_handle_is_no_path_in_a_header_error():
    with pytest.raises(ValidationError) as caught:
        write_cohort_csv(Cohort(("a", "A")), io.StringIO())
    assert str(caught.value) == "duplicate column 'p_a': module names must differ ignoring case"


# paired values with ties, zero differences, differences beyond the largest float and subnormal ones
PAIRED = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 0.1, 0.3, 1e308, -1e308, 5e-324, -5e-324, 1e-310])


@st.composite
def paired_samples(draw) -> PairedSample:
    """Of every length 1-40; each b is its a, so a zero difference, or a drawn value."""
    a = draw(st.lists(PAIRED, min_size=1, max_size=40))
    b = draw(st.lists(st.none() | PAIRED, min_size=len(a), max_size=len(a)))
    return PairedSample(tuple(a), tuple(x if y is None else y for x, y in zip(a, b)))


def enumerated_p(sample: PairedSample) -> float:
    """The two-sided p of the rank sum of the positive differences over all 2^n sign patterns, n the nonzero
    differences: each ranked by magnitude with tied ones sharing their mean rank, those beyond the largest float
    above every other and among themselves by a/2 - b/2."""
    keys = []
    for a, b in zip(sample.a, sample.b):
        diff = a - b
        if diff != 0.0:
            keys.append(((0, abs(diff)) if math.isfinite(diff) else (1, abs(a / 2 - b / 2)), diff > 0))
    order = sorted(key for key, _ in keys)
    ranks = np.array([(order.index(key) + 1 + len(order) - order[::-1].index(key)) / 2 for key, _ in keys])
    observed = ranks[[positive for _, positive in keys]].sum()
    signs = (np.arange(2 ** len(ranks))[:, None] >> np.arange(len(ranks))) & 1
    sums = signs @ ranks
    return min(1.0, 2.0 * min(np.count_nonzero(sums <= observed), np.count_nonzero(sums >= observed)) / len(sums))


@settings(SETTINGS, max_examples=200)
@given(paired_samples())
@example(PairedSample((1.0,) * EXACT_MAX_N, (0.0,) * EXACT_MAX_N))  # each side of the exact method's limit
@example(PairedSample((1.0,) * (EXACT_MAX_N + 1), (0.0,) * (EXACT_MAX_N + 1)))
def test_wilcoxon_signed_rank(sample):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = wilcoxon_signed_rank(sample)
        swapped = wilcoxon_signed_rank(PairedSample(sample.b, sample.a))
    n = result.n_effective
    assert 0.0 <= result.p_value <= 1.0
    assert (result.method == "exact") == (n <= EXACT_MAX_N)
    assert (swapped.p_value, swapped.n_effective) == (result.p_value, n)
    assert swapped.statistic == n * (n + 1) / 2 - result.statistic
    if n <= 12:
        assert result.p_value == enumerated_p(sample)


def test_numpy_scalars_are_stored_as_floats():
    config = FusionConfig("none", prelim_threshold=np.float32(0.4), final_threshold=np.float32(0.5), strategy="fixed")
    assert (type(config.prelim_threshold), type(config.final_threshold)) == (float, float)
    assert config.prelim_threshold == float(np.float32(0.4))  # the value as given, widened
    summary = evaluate_model(generate_cohort(SyntheticSpec(n_patients=40, seed=2)), CvPlan(k=2, n_runs=1), config)
    json.dumps(summary.as_dict())
    spec = SyntheticSpec(n_patients=10, rho_age=np.float32(0.3))
    assert type(spec.rho_age) is float and generate_cohort(spec) == generate_cohort(
        SyntheticSpec(n_patients=10, rho_age=float(np.float32(0.3))))
