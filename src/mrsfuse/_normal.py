"""The standard normal CDF and its quantile, ported from Cephes.

``ndtr`` (through Cephes ``erf``/``erfc``) and ``ndtri`` follow the Cephes
Math Library (S. L. Moshier, public domain) as scipy ships it in
``xsf/cephes/ndtr.h`` and ``ndtri.h``: the same branches, coefficients and
order of operations, the leading 1 that ``p1evl`` implies written out, so
every result equals ``scipy.special.ndtr``/``ndtri`` bit for bit
(``tests/test_normal.py``). Synthetic cohorts depend on these exact floats.

Polynomials are evaluated by Horner's rule in Cephes' coefficient order;
``1.0 * x`` is exact (±0, ±inf and NaN too) and numpy never fuses a multiply
and an add. The exponential in ``erfc`` is libm's, through ``math.exp`` per
element: ``np.exp`` rounds differently on some arguments.
"""

from __future__ import annotations

import math

import numpy as np

SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x*x) underflows past it
S2PI = 2.50662827463100050242e0  # sqrt(2*pi)
EXP_M2 = 0.13533528323661269189  # exp(-2)

# Cephes' p1evl tables (_Q, _S, _U, _Q0, _Q1, _Q2) imply their leading 1.0; here it is written out
# erfc(x) = exp(-x*x) P(x) / Q(x) on 1 <= x < 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = exp(-x*x) R(x) / S(x) on x >= 8
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x*x) / U(x*x) on |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: y - 0.5 on |y - 0.5| <= 3/8, then z = sqrt(-2 log y) on [2, 8) and [8, 64)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes ``polevl``: coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for x >= sqrt(1/2) or NaN."""
    y = np.empty_like(x)
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    far = ~near
    a = x[far]
    exponent = -a * a
    e = np.fromiter(map(math.exp, exponent.tolist()), dtype=float, count=len(a))
    below8 = a < 8.0
    p = np.where(below8, _polevl(a, _P), _polevl(a, _R))
    q = np.where(below8, _polevl(a, _Q), _polevl(a, _S))
    # past MAXLOG Cephes returns 0 even where exp would still give a subnormal
    y[far] = np.where(exponent < -MAXLOG, 0.0, e * p / q)
    return y


def ndtr(a):
    """Standard normal CDF, elementwise; a 0-d input gives a numpy scalar."""
    x = np.asarray(a, dtype=float) * SQRTH
    z = np.abs(x)
    y = np.empty_like(x)
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN flow through as in C
        central = z < SQRTH
        y[central] = 0.5 + 0.5 * _erf(x[central])
        tail = ~central
        y[tail] = 0.5 * _erfc(z[tail])
    upper = tail & (x > 0)
    y[upper] = 1.0 - y[upper]
    y[np.isnan(x)] = math.nan  # Cephes returns the quiet NaN, not the argument's
    return y[()]


def ndtri(y0: float) -> float:
    """Standard normal quantile of one probability; NaN outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    y, lower = y0, True
    if y > 1.0 - EXP_M2:
        y, lower = 1.0 - y, False
    if y > EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if lower else x
