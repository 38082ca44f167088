"""The Cephes ports in ``mrsfuse._normal`` equal scipy's ``ndtr``/``ndtri`` bit for bit.

Results are compared through their ``int64`` view, so a last-bit difference,
a signed zero or a different NaN fails. scipy is the oracle only: the
package itself never imports it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special

from mrsfuse._normal import ndtr, ndtri

SQRT2 = math.sqrt(2.0)


def around(points) -> np.ndarray:
    """Each point with its two neighbouring floats."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)])


def mismatches(ours: np.ndarray, oracle: np.ndarray, args: np.ndarray) -> list:
    differ = ours.view(np.int64) != oracle.view(np.int64)
    return [(a, o, s) for a, o, s in zip(args[differ][:5], ours[differ][:5], oracle[differ][:5])]


def ndtri_each(args: np.ndarray) -> np.ndarray:
    return np.array([ndtri(p) for p in args.tolist()], dtype=float)


NDTR_BRANCH_POINTS = np.concatenate([
    around([1.0, -1.0, SQRT2, -SQRT2]),  # |x| = sqrt(1/2): erf to erfc; |x| = 1: 1 - erf to P/Q
    around([8 * SQRT2, -8 * SQRT2]),  # x = 8: P/Q to R/S
    np.linspace(-38.7, -37.5, 2001),  # exp(-x*x) passes MAXLOG: erfc underflows to 0
    np.linspace(37.5, 38.7, 2001),
    around([math.sqrt(2 * 7.09782712893383996843e2), -math.sqrt(2 * 7.09782712893383996843e2)]),
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan],
])

NDTRI_BRANCH_POINTS = np.concatenate([
    around([math.exp(-2.0), 1.0 - math.exp(-2.0)]),  # central rational form to the tails
    around([math.exp(-32.0), 1.0 - math.exp(-32.0)]),  # z = sqrt(-2 log y) = 8: P1/Q1 to P2/Q2
    around([0.5, 1.0, 5e-324]),
    [0.0, -0.0, 1.0, 5e-324, 1e-300, -0.5, 1.5, np.inf, -np.inf, np.nan, -np.nan],
])


def test_ndtr_matches_scipy_on_seeded_draws():
    rng = np.random.default_rng(20240611)
    args = np.concatenate([
        rng.standard_normal(400_000) * 2.0,
        rng.standard_normal(400_000) * 15.0,
        rng.uniform(-40.0, 40.0, 400_000),
    ])
    assert mismatches(ndtr(args), scipy.special.ndtr(args), args) == []


def test_ndtr_matches_scipy_at_branch_points():
    ours = ndtr(NDTR_BRANCH_POINTS)
    assert mismatches(ours, scipy.special.ndtr(NDTR_BRANCH_POINTS), NDTR_BRANCH_POINTS) == []
    assert ours[NDTR_BRANCH_POINTS == -np.inf].tolist() == [0.0]
    assert ours[NDTR_BRANCH_POINTS == np.inf].tolist() == [1.0]


def test_ndtri_matches_scipy_on_seeded_draws():
    rng = np.random.default_rng(20240612)
    args = np.concatenate([
        rng.uniform(0.0, 1.0, 400_000),
        10.0 ** rng.uniform(-300.0, 0.0, 400_000),  # log-uniform lower tail
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 200_000),  # upper tail
        1.0 - 10.0 ** -np.arange(1.0, 17.0),
    ])
    assert mismatches(ndtri_each(args), scipy.special.ndtri(args), args) == []


def test_ndtri_matches_scipy_at_branch_points():
    ours = ndtri_each(NDTRI_BRANCH_POINTS)
    assert mismatches(ours, scipy.special.ndtri(NDTRI_BRANCH_POINTS), NDTRI_BRANCH_POINTS) == []


@pytest.mark.parametrize("x", [-3.0, 0.25, 7.0])
def test_ndtr_keeps_the_shape_of_its_argument(x):
    assert np.shape(ndtr(x)) == () and isinstance(ndtr(x), np.floating)
    assert ndtr(np.full((2, 3), x)).shape == (2, 3)
    assert ndtr(np.array([], dtype=float)).shape == (0,)
