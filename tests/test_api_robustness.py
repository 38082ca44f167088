"""Array arguments of the numeric library functions: each reads as float64 or is rejected by name.

Hypothesis draws lists and arrays of numbers of every real dtype, mixed with what is no real number: text,
bools, None, complex numbers and ints beyond int64. A call either gives what the same values cast to float64
give, or raises ValidationError or DegenerateDataError. An argument whose dtype is not real is never read.
Outcome label arguments are drawn the same way from labels (``OutcomeLabel`` members, 0 and 1 as ints, int8,
bools and floats) mixed with what is none: a call whose labels are all labels gives what their bool masks give,
and any other raises ValidationError. A value error begins with the name of the argument at fault. Nothing else
escapes, and no warning is raised. Ragged containers are left out: they are the wrong container, not wrong values.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from mrsfuse.cohort import ClinicalNormalizer, OutcomeLabel, normalize_clinical
from mrsfuse.errors import DegenerateDataError, ValidationError
from mrsfuse.fusion import compute_weights, fuse_matrix, search_threshold
from mrsfuse.metrics import auc, mean_absolute_error, report

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
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def values(draw, size: int, real=REAL):
    """``size`` values, all ``real`` or some not, as a list or as the array numpy makes of them."""
    items = draw(st.lists(draw(st.sampled_from([real, st.one_of(real, NOT_REAL)])), min_size=size, max_size=size))
    return np.array(items) if draw(st.booleans()) else items


@st.composite
def with_truths(draw):
    """Values (probabilities half the time) and truths of the same length, or, one draw in five, lengths one apart."""
    n = draw(st.integers(0, 8))
    m = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return draw(values(n, draw(st.sampled_from([UNIT, REAL])))), draw(st.lists(LABEL, min_size=m, max_size=m))


@st.composite
def outcome_labels(draw, size: int) -> tuple:
    """``size`` labels, all outcome labels or some not, as a list or as the array numpy makes of them; and whether
    all are outcome labels."""
    pool = draw(st.sampled_from([LABELS, LABELS + NOT_LABELS]))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    items = [pool[i] for i in picks]
    return (np.array(items) if draw(st.booleans()) else items), all(i < len(LABELS) for i in picks)


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


def check(call, args: list, named: dict[int, str], labels: dict[int, tuple[str, bool]] | None = None) -> None:
    """``named`` gives the position of each numeric argument and the name that its errors give it; ``labels`` gives
    the position of each label argument, its name and whether all its values are outcome labels."""
    labels = labels or {}
    got = outcome(call, *args)
    dtypes = {i: np.asarray(args[i]).dtype for i in named}
    unreal = {f"{named[i]} must be real numbers, got {dtype.name} values"
              for i, dtype in dtypes.items() if dtype.kind not in "iuf"}
    not_labels = {name for name, valid in labels.values() if not valid}
    if unreal or not_labels:
        assert got[0] == "ValidationError", got
    else:
        floats = [np.asarray(arg, dtype=float) if i in named else
                  np.array([value == 1 for value in arg], dtype=bool) if i in labels else arg
                  for i, arg in enumerate(args)]
        assert same(got, outcome(call, *floats)), got
    if got[0] == "ValidationError" and not SHAPE.match(got[1]):
        assert any(got[1].startswith(f"{name} must ") for name in {*named.values(), *not_labels}), got[1]
        assert "must be real numbers" not in got[1] or got[1] in unreal, got[1]


@SETTINGS
@given(with_truths())
def test_auc(pair):
    check(auc, list(pair), {0: "scores"})


@SETTINGS
@given(with_truths())
def test_mean_absolute_error(pair):
    check(mean_absolute_error, list(pair), {0: "fused probability"})


@SETTINGS
@given(with_truths(), st.data())
def test_report(pair, data):
    probs, truth = pair
    predicted = data.draw(st.lists(LABEL, min_size=len(truth), max_size=len(truth)))
    check(report, [predicted, probs, truth], {1: "fused probability"})


@SETTINGS
@given(with_truths(), st.sampled_from(["youden", "max_accuracy"]))
def test_search_threshold(pair, strategy):
    check(search_threshold, [*pair, strategy], {0: "scores"})


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
    check(auc, [scores, truth], {0: "scores"}, {1: ("truth", valid)})


@SETTINGS
@given(with_labels())
def test_mean_absolute_error_labels(case):
    probs, truth, valid = case
    check(mean_absolute_error, [probs, truth], {0: "fused probability"}, {1: ("truth", valid)})


@SETTINGS
@given(with_labels(), st.data())
def test_report_labels(case, data):
    probs, truth, valid = case
    predicted, predicted_valid = data.draw(outcome_labels(len(truth)))
    check(report, [predicted, probs, truth], {1: "fused probability"},
          {0: ("predicted", predicted_valid), 2: ("truth", valid)})


@SETTINGS
@given(with_labels(), st.sampled_from(["youden", "max_accuracy"]))
def test_search_threshold_labels(case, strategy):
    scores, truths, valid = case
    check(search_threshold, [scores, truths, strategy], {0: "scores"}, {1: ("truths", valid)})


@SETTINGS
@given(st.integers(0, 8).flatmap(outcome_labels), st.floats(0, 1))
def test_compute_weights_labels(case, covariate):
    labels, valid = case
    check(compute_weights, [labels, covariate], {}, {0: ("labels", valid)})
