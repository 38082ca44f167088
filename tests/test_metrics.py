"""Evaluation measures: report's confusion measures, probability MAE, Mann-Whitney AUC."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrsfuse import DegenerateDataError, OutcomeLabel, ValidationError, auc
from mrsfuse.fusion import compute_weights, search_threshold
from mrsfuse.metrics import mean_absolute_error, report

GOOD = OutcomeLabel.GOOD
POOR = OutcomeLabel.POOR


def labels(text: str) -> list[OutcomeLabel]:
    return [POOR if ch == "p" else GOOD for ch in text]


def pairwise_auc_oracle(scores, truth) -> float:
    """Exhaustive (poor, good) pair enumeration; ties count one half."""
    poor = [s for s, t in zip(scores, truth) if t == POOR]
    good = [s for s, t in zip(scores, truth) if t == GOOD]
    wins = sum(
        1.0 if sp > sg else (0.5 if sp == sg else 0.0) for sp in poor for sg in good
    )
    return wins / (len(poor) * len(good))


def _oracle_auc(scores, truth) -> float:
    """The ROC sweep: trapezoids between the distinct scores taken in descending order."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth) == POOR
    desc = np.argsort(-s, kind="stable")
    s_sorted = s[desc]
    y_sorted = y[desc]
    # group boundaries after the last element of each distinct score value;
    # a difference of huge scores overflows to inf, which still marks a boundary
    with np.errstate(over="ignore"):
        boundary = np.r_[np.diff(s_sorted) != 0.0, True]
    tp = np.r_[0, np.cumsum(y_sorted)[boundary]]
    fp = np.r_[0, np.cumsum(~y_sorted)[boundary]]
    area = float(np.sum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1]) / 2.0))
    return area / (int(y.sum()) * int((~y).sum()))


def confusion_measures(predicted, truth) -> tuple[float, float, float, float]:
    """Accuracy, sensitivity, specificity and F1 from :func:`report`, every fused probability 0.5."""
    rep = report(predicted, [0.5] * len(truth), truth)
    return rep.accuracy, rep.sensitivity, rep.specificity, rep.f1


class TestReportConfusionMeasures:
    def test_perfect_prediction(self):
        truth = labels("ppgg")
        assert confusion_measures(truth, truth) == (1.0, 1.0, 1.0, 1.0)

    def test_total_error(self):
        truth = labels("ppgg")
        flipped = labels("ggpp")
        assert confusion_measures(flipped, truth) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_counted_matrix(self):
        # tp=2, fn=1, tn=3, fp=0
        truth = labels("pppggg")
        predicted = labels("ppgggg")
        assert confusion_measures(predicted, truth) == (5 / 6, 2 / 3, 1.0, 4 / 5)
        assert report(predicted, [0.5] * 6, truth).degenerate == ()

    @pytest.mark.parametrize("truth", ["pppp", "gggg"])
    def test_single_class_truths_raise(self, truth):
        with pytest.raises(DegenerateDataError, match="single-class"):
            report(labels("pgpg"), [0.9, 0.1, 0.8, 0.2], labels(truth))

    def test_checks_run_in_order(self):
        # the pairing of predicted and truth first, then the probabilities, then both classes
        with pytest.raises(ValidationError, match="^length mismatch: 2 vs 1$"):
            report(labels("pg"), [1.5], labels("p"))
        with pytest.raises(ValidationError, match="must be in"):
            report(labels("pg"), [1.5, 0.5], labels("pp"))

    def test_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            report([], [], [])

    def test_sensitivity_specificity_swap_under_class_flip(self):
        rng = np.random.default_rng(7)
        flip = {POOR: GOOD, GOOD: POOR}
        for _ in range(100):
            n = int(rng.integers(4, 30))
            truth = [POOR, GOOD] + [POOR if rng.random() < 0.4 else GOOD for _ in range(n - 2)]
            predicted = [POOR if rng.random() < 0.5 else GOOD for _ in range(n)]
            _, sensitivity, specificity, _ = confusion_measures(predicted, truth)
            flipped = confusion_measures([flip[x] for x in predicted], [flip[x] for x in truth])
            assert flipped[1:3] == (specificity, sensitivity)

    def test_accuracy_equals_one_minus_binarized_mae(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            truth = [POOR, GOOD] + [POOR if rng.random() < 0.4 else GOOD for _ in range(n - 2)]
            predicted = [POOR if rng.random() < 0.5 else GOOD for _ in range(n)]
            rep = report(predicted, [float(int(x)) for x in predicted], truth)
            assert rep.accuracy == pytest.approx(1.0 - rep.mae, abs=1e-12)


class TestMeanAbsoluteError:
    def test_exact_probabilities(self):
        assert mean_absolute_error([0.0, 1.0], labels("gp")) == 0.0

    def test_maximal_uncertainty(self):
        assert mean_absolute_error([0.5, 0.5], labels("pg")) == 0.5

    def test_single_element(self):
        assert mean_absolute_error([0.371], labels("g")) == pytest.approx(0.371)

    def test_empty(self):
        with pytest.raises(ValidationError):
            mean_absolute_error([], [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            mean_absolute_error([1.2], labels("p"))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], labels("ppgg")) == 1.0

    @pytest.mark.parametrize(("scores", "kind"), [
        (["a", "b"], r"str\d+"), (["0.1", "0.2"], r"str\d+"), ([True, False], "bool"), ([10**400, 1], "object"),
    ])
    def test_scores_that_are_no_numbers_are_named(self, scores, kind):
        # the text "0.1" and "0.2" used to give 0.0, bools 1.0; numbers of any real dtype still rank
        with pytest.raises(ValidationError, match=f"^scores must be real numbers, got {kind} values$"):
            auc(scores, labels("pg"))
        assert auc(np.array([1, 2], dtype=np.int8), labels("gp")) == auc(np.float32([0.1, 0.2]), labels("gp")) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5], labels("pg")) == 0.5

    @pytest.mark.parametrize(
        ("scores", "truth", "expected"),
        [
            ([0.9, 0.4, 0.6, 0.1], "pgpg", 1.0),
            ([0.4, 0.9, 0.6, 0.1], "pgpg", 0.5),
            ([0.4, 0.9, 0.6, 0.1], "ppgg", 0.75),
        ],
    )
    def test_frozen_pairwise_values(self, scores, truth, expected):
        assert auc(scores, labels(truth)) == expected
        assert pairwise_auc_oracle(scores, labels(truth)) == expected

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            scores = np.round(rng.random(n), 2).tolist()  # coarse grid forces ties
            truth = [POOR if rng.random() < 0.5 else GOOD for _ in range(n)]
            if len(set(truth)) < 2:
                continue
            assert auc(scores, truth) == pytest.approx(
                pairwise_auc_oracle(scores, truth), abs=1e-12
            )

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            scores = rng.random(n).tolist()
            truth = [POOR if rng.random() < 0.5 else GOOD for _ in range(n)]
            if len(set(truth)) < 2:
                continue
            base = auc(scores, truth)
            assert auc([math.exp(s) for s in scores], truth) == pytest.approx(base, abs=1e-12)
            assert auc([3.0 * s + 7.0 for s in scores], truth) == pytest.approx(base, abs=1e-12)

    def test_complement_under_score_negation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            scores = rng.random(n).tolist()  # continuous draws: ties have measure zero
            truth = [POOR if rng.random() < 0.5 else GOOD for _ in range(n)]
            if len(set(truth)) < 2:
                continue
            assert auc(scores, truth) + auc([-s for s in scores], truth) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_single_class_error(self):
        with pytest.raises(DegenerateDataError, match="undefined"):
            auc([0.2, 0.8], labels("pp"))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError):
            auc([0.2, float("nan")], labels("pg"))


# finite scores where a rank rule could slip: exact 0 and 1, -0.0 beside
# 0.0, subnormals, the neighbours of 0 and 1, and values outside [0, 1]
EDGE_SCORES = (
    0.0, -0.0, 1.0, 0.5, 2.0**-53, 1.0 - 2.0**-53, 5e-324, 2.2250738585072014e-308,
    -2.5, 3.0, -1.7976931348623157e308, 1.7976931348623157e308,
)


@st.composite
def _scored_truths(draw):
    """Scores and truths with both classes; long inputs come from a drawn numpy seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        score = st.one_of(st.sampled_from(EDGE_SCORES), st.floats(allow_nan=False, allow_infinity=False))
        scores = draw(st.lists(score, min_size=2, max_size=40))
    else:
        n = draw(st.integers(2, 4000))
        kind = draw(st.sampled_from(("grid", "edges", "mixed")))
        if kind == "grid":  # heavy ties on k / levels, exact 0 and 1 included
            levels = draw(st.sampled_from((1, 2, 10, 100)))
            scores = rng.integers(0, levels + 1, n) / levels
        elif kind == "edges":
            scores = rng.choice(EDGE_SCORES, n)
        else:
            scores = np.where(rng.random(n) < 0.3, rng.choice(EDGE_SCORES, n), rng.random(n))
        scores = scores.tolist()
    n = len(scores)
    if draw(st.booleans()):  # a single poor patient
        poor = np.zeros(n, dtype=bool)
        poor[rng.integers(n)] = True
    else:
        poor = rng.random(n) < draw(st.floats(0.05, 0.95))
        poor[0], poor[-1] = True, False
    return scores, [POOR if p else GOOD for p in poor]


@settings(max_examples=300, deadline=None)
@given(_scored_truths())
@example(([0.0, -0.0, 0.0, 1.0], labels("pgpg")))
@example(([5e-324, 0.0, 2.2250738585072014e-308, 1.0 - 2.0**-53, 1.0], labels("gpgpg")))
def test_auc_matches_sweep_oracle_bit_for_bit(case):
    scores, truth = case
    assert repr(auc(scores, truth)) == repr(_oracle_auc(scores, truth))


class TestReport:
    def test_assembles_all_measures(self):
        truth = labels("ppgg")
        predicted = labels("pggg")
        fused = [0.9, 0.3, 0.2, 0.1]
        rep = report(predicted, fused, truth)
        assert rep.n_patients == 4
        assert str(rep.positive_class) == "poor"
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.auc == pytest.approx(pairwise_auc_oracle(fused, truth))
        assert rep.mae == pytest.approx(np.mean([0.1, 0.7, 0.2, 0.1]))
        assert rep.value("f1") == rep.f1
        with pytest.raises(ValidationError):
            rep.value("brier")


class TestArrayInputs:
    def test_numpy_inputs_match_lists(self):
        truth = labels("ppggpg")
        predicted = labels("pgggpp")
        scores = [0.9, 0.3, 0.2, 0.1, 0.7, 0.7]
        truth_arr = np.array(truth, dtype=np.int8)
        predicted_arr = np.array(predicted, dtype=np.int8)
        scores_arr = np.array(scores)
        assert report(predicted_arr, scores_arr, truth_arr) == report(predicted, scores, truth)
        assert mean_absolute_error(scores_arr, truth_arr) == mean_absolute_error(scores, truth)
        assert auc(scores_arr, truth_arr) == auc(scores, truth)

    def test_empty_numpy_inputs_rejected(self):
        empty = np.array([])
        for measure in (mean_absolute_error, auc, lambda s, t: report(t, s, t)):
            with pytest.raises(ValidationError, match="empty"):
                measure(empty, empty)


class TestOutcomeLabelArguments:
    @pytest.mark.parametrize(("call", "name", "got"), [
        (lambda: mean_absolute_error([0.1, 0.9], ["good", "poor"]), "truth", "'good'"),
        (lambda: auc([0.1, 0.9], ["good", "poor"]), "truth", "'good'"),  # once a DegenerateDataError
        (lambda: search_threshold([0.1, 0.9], [None, 1]), "truths", "None"),
        (lambda: report(["poor", "good"], [0.1, 0.9], [GOOD, POOR]), "predicted", "'poor'"),
        (lambda: compute_weights(["poor", "good"], 0.9), "labels", "'poor'"),
    ])
    def test_labels_that_are_no_outcomes_are_named(self, call, name, got):
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == f"{name} must be outcome labels, 0 (good) or 1 (poor), got {got}"

    @pytest.mark.parametrize(("call", "name", "shape"), [
        (lambda: search_threshold([0.1, 0.9], [[0], [1]]), "truths", "(2, 1)"),  # once a silent 0.5
        (lambda: auc([0.1, 0.9], [[0], [1]]), "truth", "(2, 1)"),  # once an IndexError
        (lambda: mean_absolute_error([0.1, 0.9], [[0], [1]]), "truth", "(2, 1)"),  # once a TypeError
        (lambda: compute_weights([[0, 1]], 0.5), "labels", "(1, 2)"),  # once a ValueError
    ], ids=["search_threshold", "auc", "mean_absolute_error", "compute_weights"])
    def test_labels_not_in_one_dimension_are_named(self, call, name, shape):
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == f"{name} must be a one-dimensional sequence of outcome labels, got shape {shape}"

    def test_float_truths_measure_as_labels_do(self):
        scores = [0.2, 0.9, 0.6]
        assert auc(scores, [0.0, 1.0, 1.0]) == auc(scores, labels("gpp"))
        assert mean_absolute_error(scores, [0.0, 1.0, 1.0]) == mean_absolute_error(scores, labels("gpp"))


class TestScoreArguments:
    @pytest.mark.parametrize(("call", "name"), [
        (lambda: auc([[0.1], [0.9]], [0, 1]), "scores"),  # once a silent 1.0
        (lambda: search_threshold([[0.1], [0.9]], [0, 1]), "scores"),  # once a DegenerateDataError
        (lambda: mean_absolute_error([[0.1], [0.9]], [0, 1]), "fused probability"),  # once a TypeError
    ], ids=["auc", "search_threshold", "mean_absolute_error"])
    def test_scores_not_in_one_dimension_are_named(self, call, name):
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == f"{name} must be a one-dimensional sequence of real numbers, got shape (2, 1)"

    @pytest.mark.parametrize(("call", "message"), [
        (lambda: auc(0.5, [1]), "scores must be a one-dimensional sequence of real numbers"),
        (lambda: mean_absolute_error(0.5, [1]), "fused probability must be a one-dimensional sequence of real numbers"),
        (lambda: search_threshold(0.5, [1]), "scores must be a one-dimensional sequence of real numbers"),
        (lambda: report([1], 0.5, [1]), "fused probability must be a one-dimensional sequence of real numbers"),
        (lambda: auc([0.2, 0.8], 0), "truth must be a one-dimensional sequence of outcome labels"),
    ], ids=["auc", "mean_absolute_error", "search_threshold", "report", "auc_truth"])
    def test_a_scalar_for_a_sequence_is_named(self, call, message):
        # once a TypeError from len() of the scalar, before any check named it
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == f"{message}, got shape ()"

    def test_a_ragged_nesting_is_no_real_numbers(self):
        # numpy makes no array of it: read as objects, it fails the dtype check
        with pytest.raises(ValidationError, match=r"^scores must be real numbers, got object values$"):
            auc([[0.1], 0.9], [0, 1])
