"""References computed apart from the program, with numpy and scipy only.

Nothing here calls mixedrates: each function restates a law, a constant or a
minimum from its definition, so a check built on it does not share a fault
with the sampler or solver it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# Two-sided level of every distributional check.  A correct program fails a
# given check with this probability per run.
ALPHA = 1e-6

# Var of Chernoff's distribution, argmax_t [B(t) - t^2] for a two-sided
# standard Brownian motion B (Groeneboom & Wellner, "Computing Chernoff's
# distribution", JCGS 2001).
CHERNOFF_VAR = 0.2636


def lasso_limit(lambda0: float, sigma: float, c11: float = 1.0 / 3.0) -> tuple[float, float]:
    """Mean and sd of the limit of sqrt(n)(alpha1_hat - 1): the minimizer of
    C11 u^2 - 2 u Z + (lambda0/2) u with Z ~ N(0, sigma^2 C11), i.e.
    u = (Z - lambda0/4)/C11.  C11 = 1/3 is Var Uniform[-1, 1]."""
    return -lambda0 / (4.0 * c11), sigma / math.sqrt(c11)


def lasso_ks(rescaled: np.ndarray, lambda0: float, sigma: float):
    mean, sd = lasso_limit(lambda0, sigma)
    return stats.kstest(rescaled, "norm", args=(mean, sd))


def lasso_criterion(B: np.ndarray, X: np.ndarray, y: np.ndarray, lambda0: float,
                    gamma: float) -> np.ndarray:
    """sum_i (y_i - x_i'b)^2 + lambda0 sqrt(n) sum_j |b_j|^gamma for each row
    b of ``B``, from the residuals directly."""
    B = np.atleast_2d(B)
    resid = y[None, :] - B @ X.T
    lam = lambda0 * math.sqrt(X.shape[0])
    return np.sum(resid**2, axis=1) + lam * np.sum(np.abs(B) ** gamma, axis=1)


def _gram_criterion(B, G, Xy, yy, lam, gamma):
    quad = np.einsum("ij,jk,ik->i", B, G, B)
    return yy - 2.0 * B @ Xy + quad + lam * np.sum(np.abs(B) ** gamma, axis=1)


def dense_grid_min(X: np.ndarray, y: np.ndarray, lambda0: float, gamma: float,
                   points: int = 401) -> float:
    """Minimum of the d = 2 bridge criterion over a dense grid of the box
    OLS +/- 4 max(1, rms residual), the same box the solver starts from.

    The grid holds both zero axes exactly.  It is refined twice around the
    best interior point, and each axis is searched on its own line, since the
    penalty's infinite slope at 0 puts minima exactly on the axes.  The
    result is never below the true minimum over the box.
    """
    n, d = X.shape
    if d != 2:
        raise ValueError("dense_grid_min enumerates a plane; d must be 2")
    ols = np.linalg.solve(X.T @ X, X.T @ y)
    w = 4.0 * max(1.0, math.sqrt(float(np.sum((y - X @ ols) ** 2)) / n))
    lo, hi = ols - w, ols + w
    G, Xy, yy = X.T @ X, X.T @ y, float(y @ y)
    lam = lambda0 * math.sqrt(n)

    def plane(lo_, hi_):
        axes = [np.union1d(np.linspace(a, b, points), [0.0] if a < 0.0 < b else []) for a, b in zip(lo_, hi_)]
        U, V = np.meshgrid(*axes, indexing="ij")
        B = np.column_stack([U.ravel(), V.ravel()])
        vals = _gram_criterion(B, G, Xy, yy, lam, gamma)
        i = int(np.argmin(vals))
        return B[i], float(vals[i]), (hi_ - lo_) / (points - 1)

    best_b, best, cell = plane(lo, hi)
    for _ in range(2):
        best_b, value, cell = plane(np.maximum(lo, best_b - 3 * cell), np.minimum(hi, best_b + 3 * cell))
        best = min(best, value)
    for j in range(d):  # b_j = 0 exactly, the other coordinate on a fine line
        k = 1 - j
        t = np.linspace(lo[k], hi[k], 100 * points)
        for _ in range(3):
            B = np.zeros((t.size, d))
            B[:, k] = t
            vals = _gram_criterion(B, G, Xy, yy, lam, gamma)
            i = int(np.argmin(vals))
            best = min(best, float(vals[i]))
            step = t[1] - t[0]
            t = np.linspace(t[i] - 2 * step, t[i] + 2 * step, 1001)
    return best


def kmeans_limit_from_scores(z: np.ndarray) -> np.ndarray:
    """The two-stage k-means limit for Gaussian scores ``z`` (one row per
    draw, ordered Z_ds, Z_ed, Z_dd, Z_es), columns (delta_s, eps_d, delta_d,
    eps_s), without any search.

    The slow-block objective (|u|^3 + |v|^3)/6 + u z_u + v z_v separates in
    u = delta_s + eps_d and v = delta_s - eps_d, with z_u = (z0 + z1)/2 and
    z_v = (z0 - z1)/2, so u = -sign(z_u) sqrt(2|z_u|) and likewise v.  The
    fast block then completes a square.
    """
    zu = 0.5 * (z[:, 0] + z[:, 1])
    zv = 0.5 * (z[:, 0] - z[:, 1])
    u = -np.sign(zu) * np.sqrt(2.0 * np.abs(zu))
    v = -np.sign(zv) * np.sqrt(2.0 * np.abs(zv))
    ds = 0.5 * (u + v)
    ed = 0.5 * (u - v)
    dd = -(z[:, 2] + ds * ds - ed * ed) / 2.0
    es = -(z[:, 3] + 2.0 * ds * ed) / 2.0
    return np.column_stack([ds, ed, dd, es])


def kmeans_limit_closed_form(rng: np.random.Generator, draws: int) -> np.ndarray:
    """Draws of the k-means limit.  The score covariance of the two-line law
    is exactly 4 I: with x Laplace and y = +/-1 the scores are
    -2 sgn(x)(|x| - 1), 2 y sgn(x), 2(|x| - 1) and -2y, each of second moment
    4, and every cross moment vanishes by symmetry."""
    return kmeans_limit_from_scores(rng.normal(0.0, 2.0, size=(draws, 4)))


def slow_block_objective(ds, ed, z0, z1):
    """The cubic slow-block objective, from its definition: each of the two
    split-line crossings at offsets ds +/- ed contributes |offset|^3 / 6."""
    return (np.abs(ds + ed) ** 3 + np.abs(ds - ed) ** 3) / 6.0 + ds * z0 + ed * z1


def variance_within(draws: np.ndarray, target: float, z: float = 5.0):
    """Sample variance, its Monte Carlo standard error from the fourth
    central moment, and whether |var - target| <= z standard errors."""
    x = np.asarray(draws, dtype=np.float64)
    c = x - x.mean()
    var = float(np.mean(c**2))
    se = math.sqrt(max(float(np.mean(c**4)) - var**2, 0.0) / x.size)
    return var, se, abs(var - target) <= z * se


def shorth_c1() -> float:
    """Density mass at the endpoints of the shortest half of N(0, 1):
    coverage of [-r, r] is 2 Phi(r) - 1, so its slope at rho = Phi^-1(3/4)
    is 2 phi(rho)."""
    return float(2.0 * stats.norm.pdf(stats.norm.ppf(0.75)))


def loglog_slope(ns, errors_by_n) -> float:
    """Least-squares slope of log median |error| against log n."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log([np.median(np.abs(errors_by_n[n])) for n in ns])
    return float(np.polyfit(x, y, 1)[0])


def binomial_band(p: float, trials: int, z: float = 5.0) -> tuple[float, float]:
    half = z * math.sqrt(p * (1.0 - p) / trials)
    return p - half, p + half
