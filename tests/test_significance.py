"""Signed-rank test: exact null handling, tie behavior, approximation path."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from mrsfuse import PairedSample, ValidationError, wilcoxon_signed_rank


def enumeration_oracle(diffs) -> tuple[float, float, int]:
    """Literal enumeration of all sign assignments; zeros dropped, ties averaged."""
    d = [x for x in diffs if x != 0]
    n = len(d)
    ranks = scipy.stats.rankdata([abs(x) for x in d])
    w_observed = float(sum(r for r, x in zip(ranks, d) if x > 0))
    ge = le = 0
    for signs in itertools.product((False, True), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        ge += w >= w_observed - 1e-12
        le += w <= w_observed + 1e-12
    total = 2**n
    return w_observed, min(1.0, 2 * min(ge / total, le / total)), n


def reference_signed_rank(diffs) -> tuple[float, float, int, str]:
    """Independent signed-rank test: scipy's average ranks, a null distribution
    counted in Python integers for up to 25 effective pairs, and scipy's ``ndtr``
    for the tie- and continuity-corrected normal approximation beyond."""
    d = [x for x in diffs if x != 0]
    if not d:
        return 0.0, 1.0, 0, "exact"
    return reference_from_ranks(d, scipy.stats.rankdata([abs(x) for x in d], method="average"))


def reference_from_ranks(d, ranks) -> tuple[float, float, int, str]:
    """The rest of :func:`reference_signed_rank`, given the nonzero differences and their ranks."""
    n = len(d)
    w = float(sum(r for r, x in zip(ranks, d) if x > 0))
    if n <= 25:
        null = Counter({0: 1})  # doubled statistic -> number of sign assignments
        for r2 in (int(2 * r) for r in ranks):
            shifted = Counter({total + r2: count for total, count in null.items()})
            null.update(shifted)
        w2 = int(2 * w)
        p_le = sum(c for total, c in null.items() if total <= w2) / 2**n
        p_ge = sum(c for total, c in null.items() if total >= w2) / 2**n
        return w, min(1.0, 2.0 * min(p_le, p_ge)), n, "exact"
    tie_term = sum(t**3 - t for t in Counter(ranks.tolist()).values()) / 48.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    shift = w - n * (n + 1) / 4.0
    z = (shift - 0.5 * ((shift > 0) - (shift < 0))) / math.sqrt(sigma2)
    return w, min(1.0, 2.0 * float(scipy.special.ndtr(-abs(z)))), n, "normal_approx"


def fraction_signed_rank(a, b) -> tuple[float, float, int, str]:
    """:func:`reference_signed_rank` of the exact differences ``a - b``, computed and
    ranked as fractions, so no difference overflows or rounds."""
    d = [x for x in (Fraction(p) - Fraction(q) for p, q in zip(a, b)) if x != 0]
    if not d:
        return 0.0, 1.0, 0, "exact"
    ordered = sorted(abs(x) for x in d)
    ranks = np.array([(bisect_left(ordered, abs(x)) + 1 + bisect_right(ordered, abs(x))) / 2 for x in d])
    return reference_from_ranks(d, ranks)


def paired_from_diffs(diffs) -> PairedSample:
    return PairedSample(a=tuple(float(d) for d in diffs), b=(0.0,) * len(diffs))


class TestExactPath:
    def test_ten_uniform_differences(self):
        sample = PairedSample(a=tuple(range(2, 12)), b=tuple(range(1, 11)))
        result = wilcoxon_signed_rank(sample)
        assert result.statistic == 55.0
        assert result.p_value == pytest.approx(0.001953125, abs=1e-12)
        assert result.n_effective == 10
        assert result.method == "exact"
        assert not result.degenerate

    def test_identical_series(self):
        sample = PairedSample(a=(0.7, 0.5, 0.9), b=(0.7, 0.5, 0.9))
        result = wilcoxon_signed_rank(sample)
        assert result.p_value == 1.0
        assert result.n_effective == 0
        assert result.degenerate

    def test_mixed_signs_frozen(self):
        result = wilcoxon_signed_rank(paired_from_diffs([1, -2, 3, -4, 5]))
        assert result.statistic == 9.0
        assert result.p_value == pytest.approx(0.8125, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(606)
        for _ in range(150):
            n = int(rng.integers(1, 11))
            # small integer grid provokes ties in |d| and zero differences
            diffs = rng.integers(-4, 5, size=n).tolist()
            if all(d == 0 for d in diffs):
                continue
            result = wilcoxon_signed_rank(paired_from_diffs(diffs))
            w_exp, p_exp, n_exp = enumeration_oracle(diffs)
            assert result.statistic == w_exp
            assert result.p_value == pytest.approx(p_exp, abs=1e-12)
            assert result.n_effective == n_exp
            assert result.method == "exact"

    def test_exact_p_is_dyadic(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            diffs = rng.standard_normal(n)  # continuous: no ties, no zeros
            result = wilcoxon_signed_rank(paired_from_diffs(diffs))
            if result.p_value < 1.0:
                scaled = result.p_value * 2**result.n_effective / 2
                assert scaled == pytest.approx(round(scaled), abs=1e-9)

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            n = int(rng.integers(2, 15))
            a = tuple(rng.standard_normal(n))
            b = tuple(rng.standard_normal(n))
            forward = wilcoxon_signed_rank(PairedSample(a=a, b=b))
            backward = wilcoxon_signed_rank(PairedSample(a=b, b=a))
            assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(45)
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        base = wilcoxon_signed_rank(PairedSample(a=tuple(a), b=tuple(b)))
        perm = rng.permutation(12)
        shuffled = wilcoxon_signed_rank(PairedSample(a=tuple(a[perm]), b=tuple(b[perm])))
        assert shuffled.statistic == base.statistic
        assert shuffled.p_value == base.p_value


# A small grid forces heavy ties in |d| and zero differences; a few
# continuous values break some ties. The length is drawn first so that both
# sides of the 25-pair exact limit are reached (plain lists stay short).
tied_differences = st.integers(1, 60).flatmap(
    lambda n: st.lists(
        st.one_of(st.integers(-4, 4).map(lambda k: k / 4), st.floats(-1.0, 1.0, allow_nan=False)),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300, deadline=None)
@given(tied_differences)
@example([0.25, -0.5, 0.0, 0.25, 1.0, -0.25])
@example([k / 4 for k in range(-4, 5)] * 6)  # 48 effective pairs in tied groups
def test_matches_scipy_reference_exactly(diffs):
    result = wilcoxon_signed_rank(paired_from_diffs(diffs))
    assert (result.statistic, result.p_value, result.n_effective, result.method) == (
        reference_signed_rank(diffs)
    )


# Integer multiples of a power of two: every finite difference of a pair on the
# same scale is exact, and at the largest scale a difference of 2**21 or more
# multiples exceeds the largest float.
LATTICE_K = 2**21 - 1
lattice_pairs = st.lists(
    st.tuples(
        st.integers(-LATTICE_K, LATTICE_K), st.integers(-LATTICE_K, LATTICE_K),
        st.sampled_from([2.0**1003, 1.0, 2.0**-30]),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(lattice_pairs)
@example([(LATTICE_K, -LATTICE_K, 2.0**1003)] * 2 + [(LATTICE_K, -1, 2.0**1003), (1, 2, 1.0)])
@example([(-LATTICE_K, LATTICE_K - 1, 2.0**1003), (LATTICE_K, 0, 2.0**1003), (3, 1, 1.0)] * 10)
def test_overflowing_differences_match_fraction_oracle(pairs):
    a = tuple(k * scale for k, _, scale in pairs)
    b = tuple(k * scale for _, k, scale in pairs)
    result = wilcoxon_signed_rank(PairedSample(a=a, b=b))
    assert (result.statistic, result.p_value, result.n_effective, result.method) == fraction_signed_rank(a, b)


def test_overflowing_difference_ranks_first_without_warning():
    # 1.7e308 - (-1.7e308) exceeds the largest float; the subtraction warned at numpy level
    a, b = (1.7e308, 0.5, 0.2), (-1.7e308, 0.1, 0.3)
    result = wilcoxon_signed_rank(PairedSample(a=a, b=b))
    assert (result.statistic, result.p_value) == (5.0, 0.5)
    assert (result.statistic, result.p_value, result.n_effective, result.method) == fraction_signed_rank(a, b)


class TestApproximationPath:
    def test_switches_beyond_exact_limit(self):
        rng = np.random.default_rng(77)
        diffs = rng.standard_normal(26)
        result = wilcoxon_signed_rank(paired_from_diffs(diffs))
        assert result.method == "normal_approx"
        assert 0.0 < result.p_value <= 1.0

    def test_agrees_with_scipy_approx(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            n = int(rng.integers(26, 60))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n) - 0.3
            result = wilcoxon_signed_rank(PairedSample(a=tuple(a), b=tuple(b)))
            expected = scipy.stats.wilcoxon(
                a, b, zero_method="wilcox", correction=True, method="approx"
            )
            assert result.p_value == pytest.approx(expected.pvalue, abs=1e-9)

    def test_exact_up_to_boundary_size(self):
        rng = np.random.default_rng(79)
        at_limit = wilcoxon_signed_rank(paired_from_diffs(rng.standard_normal(25) + 0.3))
        beyond = wilcoxon_signed_rank(paired_from_diffs(rng.standard_normal(26) + 0.3))
        assert at_limit.method == "exact"
        assert beyond.method == "normal_approx"


class TestPairedSampleValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            PairedSample(a=(1.0, 2.0), b=(1.0,))

    def test_empty(self):
        with pytest.raises(ValidationError):
            PairedSample(a=(), b=())

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            PairedSample(a=(float("inf"),), b=(0.0,))
