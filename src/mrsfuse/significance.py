"""Exact two-sided Wilcoxon signed-rank test for paired run comparisons.

Zero differences are dropped before ranking; absolute differences receive
average ranks on ties from :func:`average_ranks`, the one rank rule of the
package, which ``metrics.auc`` also uses (average ranks are multiples of
0.5, so exact). The statistic is the sum of ranks of positive differences.
The null distribution is computed exactly (all sign assignments equally
likely) for up to 25 effective pairs via a subset-sum count over doubled
ranks, which is numerically identical to enumerating the 2^n sign
patterns; beyond that a normal approximation with tie and continuity
corrections is used, its CDF the Cephes ``ndtr`` port of ``_normal``
(scipy's bit for bit). The two-sided p-value doubles the smaller tail and
is capped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr
from .errors import ValidationError, as_float, as_tuple

EXACT_MAX_N = 25


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length series of per-run measurements on a shared schedule."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        for side in ("a", "b"):
            items = as_tuple(getattr(self, side))  # None for a bare string, whose characters are not numbers
            values = (None,) if items is None else tuple(map(as_float, items))
            if any(x is None for x in values):  # NaN and inf fail the check below
                raise ValidationError(f"paired sample {side} must hold real numbers within float range")
            object.__setattr__(self, side, values)
        if len(self.a) != len(self.b):
            raise ValidationError(f"paired sample length mismatch: {len(self.a)} vs {len(self.b)}")
        if not self.a:
            raise ValidationError("paired sample must contain at least one pair")
        if not all(math.isfinite(x) for x in self.a + self.b):
            raise ValidationError("paired sample values must be finite")


@dataclass(frozen=True)
class TestResult:
    """Signed-rank test outcome; ``degenerate`` marks an all-zero difference vector."""

    statistic: float
    p_value: float
    n_effective: int
    method: str
    degenerate: bool = False


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _exact_two_sided_p(ranks: np.ndarray, w_observed: float) -> float:
    # Average ranks are multiples of 0.5, so doubled ranks are exact integers
    # and the null distribution of the doubled statistic is a subset-sum count.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[:-r or None]
    w2 = int(round(2.0 * w_observed))
    n_assignments = 2 ** len(doubled)
    p_le = int(counts[: w2 + 1].sum()) / n_assignments
    p_ge = int(counts[w2:].sum()) / n_assignments
    return min(1.0, 2.0 * min(p_le, p_ge))


def _approx_two_sided_p(ranks: np.ndarray, w_observed: float) -> float:
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term  # > 0: all n tied leaves n(n+1)^2/16
    shift = w_observed - mu
    z = (shift - 0.5 * np.sign(shift)) / math.sqrt(sigma2)
    return min(1.0, 2.0 * float(ndtr(-abs(z))))


def wilcoxon_signed_rank(sample: PairedSample) -> TestResult:
    """Two-sided signed-rank test of the paired differences ``a - b``."""
    a, b = np.asarray(sample.a, dtype=float), np.asarray(sample.b, dtype=float)
    with np.errstate(over="ignore"):  # a difference beyond the largest float becomes a signed inf
        diffs = a - b
    nonzero = diffs != 0.0
    a, b, diffs = a[nonzero], b[nonzero], diffs[nonzero]
    n_effective = len(diffs)
    if n_effective == 0:
        return TestResult(statistic=0.0, p_value=1.0, n_effective=0, method="exact", degenerate=True)

    # an overflowed difference ranks above every finite one, and among the
    # overflowed by its half a/2 - b/2, which cannot overflow
    ranks = average_ranks(np.abs(diffs))
    over = np.isinf(diffs)
    ranks[over] = np.count_nonzero(~over) + average_ranks(np.abs(a[over] / 2.0 - b[over] / 2.0))
    w = float(ranks[diffs > 0].sum())
    if n_effective <= EXACT_MAX_N:
        return TestResult(w, _exact_two_sided_p(ranks, w), n_effective, "exact")
    return TestResult(w, _approx_two_sided_p(ranks, w), n_effective, "normal_approx")
