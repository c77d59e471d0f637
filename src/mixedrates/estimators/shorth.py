"""Shortest-half interval estimator and its population quantities."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShorthFit",
    "ShorthPopulation",
    "fit_shorth",
    "fit_shorth_sorted",
    "shorth_population",
]


@dataclass(frozen=True)
class ShorthFit:
    """Shortest interval [m - r, m + r] covering at least half the sample.

    ``lo_index``/``hi_index`` point into the sorted sample; the interval
    endpoints are the data values at those positions.
    """

    m: float
    r: float
    lo_index: int
    hi_index: int


def fit_shorth(sample: np.ndarray) -> ShorthFit:
    """Scan the k-point windows of the sorted sample (k = ceil(n/2)) and
    return the narrowest one, ties broken toward the leftmost window.

    Cost is O(n log n) for the sort plus one vectorized sweep.  The sort
    works on a copy, so ``sample`` is left unchanged.
    """
    return fit_shorth_sorted(np.sort(np.asarray(sample, dtype=np.float64).ravel()))


def fit_shorth_sorted(xs: np.ndarray) -> ShorthFit:
    """``fit_shorth`` of a sample already sorted ascending, as a float64
    array: the window sweep alone, with no sort and no copy.  A caller that
    owns its draw sorts it in place (``data.sort()``) and calls this."""
    n = xs.size
    if n < 2:
        raise ValueError("need at least two observations")
    # sorting puts -inf first and inf and NaN last, so the ends show them
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise ValueError("sample contains non-finite values")
    k = (n + 1) // 2  # ceil(n/2)
    widths = xs[k - 1 :] - xs[: n - k + 1]
    i = int(np.argmin(widths))  # argmin returns the first minimizer: leftmost
    lo, hi = xs[i], xs[i + k - 1]
    m = (lo + hi) / 2.0
    r = (hi - lo) / 2.0
    # rounding in m +/- r may exclude an endpoint; widen by ulps until the
    # closed interval really contains its defining window
    while m - r > lo or m + r < hi:
        r = np.nextafter(r, np.inf)
    return ShorthFit(m=float(m), r=float(r), lo_index=i, hi_index=i + k - 1)


@dataclass(frozen=True)
class ShorthPopulation:
    """Population center/half-length and the local expansion coefficients.

    ``c1`` is the total density at the interval endpoints (slope of coverage
    in the half-length), ``c2`` the curvature of coverage in the center;
    regularity requires c1 > 0 > c2.
    """

    mu: float
    rho: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 < 0):
            raise ValueError("regularity requires c1 > 0 and c2 < 0")


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@functools.cache
def shorth_population() -> ShorthPopulation:
    """Population solution for the standard normal density.

    mu = 0 by symmetry; rho solves Phi(rho) - Phi(-rho) = 1/2 by bisection to
    1e-12; c1 = 2 phi(rho) and c2 = phi'(rho) = -rho phi(rho).  The result is
    a constant, so the bisection runs once per process and every call returns
    the same frozen record.
    """
    lo, hi = 0.0, 2.0
    # Phi(rho) = 0.75 once symmetry folds the two tails together.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _std_normal_cdf(mid) < 0.75:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    rho = 0.5 * (lo + hi)
    c1 = 2.0 * _std_normal_pdf(rho)
    c2 = -rho * _std_normal_pdf(rho)
    return ShorthPopulation(mu=0.0, rho=rho, c1=c1, c2=c2)
