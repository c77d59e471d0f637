"""Tests of the benchmark's references (bench/references.py), each against
a second derivation that shares no code with it or with mixedrates."""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

import references as ref


def test_kmeans_slow_block_is_the_objective_minimum():
    rng = np.random.default_rng(11)
    z = rng.normal(0.0, 2.0, size=(12, 4))
    closed = ref.kmeans_limit_from_scores(z)
    for (z0, z1), (ds, ed) in zip(z[:, :2], closed[:, :2]):
        L = 4.0 * math.sqrt(math.hypot(z0, z1))
        g = np.linspace(-L, L, 801)
        DS, ED = np.meshgrid(g, g, indexing="ij")
        vals = ref.slow_block_objective(DS, ED, z0, z1)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        res = optimize.minimize(
            lambda p: ref.slow_block_objective(p[0], p[1], z0, z1),
            [g[i], g[j]], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14},
        )
        assert ref.slow_block_objective(ds, ed, z0, z1) <= res.fun + 1e-12
        assert np.allclose([ds, ed], res.x, atol=1e-4)


def test_kmeans_fast_block_minimizes_its_quadratic():
    # Given the slow block, delta_d minimizes t^2 + t (Z_dd + ds^2 - ed^2)
    # and eps_s minimizes t^2 + t (Z_es + 2 ds ed).
    rng = np.random.default_rng(12)
    z = rng.normal(0.0, 2.0, size=(50, 4))
    d = ref.kmeans_limit_from_scores(z)
    b_dd = z[:, 2] + d[:, 0] ** 2 - d[:, 1] ** 2
    b_es = z[:, 3] + 2.0 * d[:, 0] * d[:, 1]
    assert np.allclose(2.0 * d[:, 2] + b_dd, 0.0)
    assert np.allclose(2.0 * d[:, 3] + b_es, 0.0)


def test_two_line_score_covariance_is_four_identity():
    rng = np.random.default_rng(13)
    m = 1_000_000
    x = rng.laplace(0.0, 1.0, m)
    y = rng.choice([-1.0, 1.0], m)
    scores = np.column_stack([
        -2.0 * np.sign(x) * (np.abs(x) - 1.0),
        2.0 * y * np.sign(x),
        2.0 * (np.abs(x) - 1.0),
        -2.0 * y,
    ])
    cov = scores.T @ scores / m
    assert np.allclose(cov, 4.0 * np.eye(4), atol=0.05)


def test_lasso_limit_is_the_law_of_the_minimizer():
    c11, lambda0, sigma = 1.0 / 3.0, 2.0, 1.0
    z = np.random.default_rng(14).normal(0.0, sigma * math.sqrt(c11), 200_000)
    u = (z - lambda0 / 4.0) / c11  # argmin of C11 u^2 - 2 u Z + (lambda0/2) u
    mean, sd = ref.lasso_limit(lambda0, sigma, c11)
    assert mean == -1.5 and math.isclose(sd, math.sqrt(3.0))
    assert abs(u.mean() - mean) < 0.02 and abs(u.std() - sd) < 0.02


def test_dense_grid_min_matches_a_continuous_search():
    rng = np.random.default_rng(15)
    n, lambda0, gamma = 200, 2.0, 0.5
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    X -= X.mean(axis=0)
    y = X[:, 0] + rng.standard_normal(n)

    def f(b):
        return float(ref.lasso_criterion(np.asarray(b), X, y, lambda0, gamma)[0])

    candidates = [f([0.0, 0.0])]
    for j in range(2):  # on each axis, then in each open quadrant
        for lo, hi in ((-10.0, 0.0), (0.0, 10.0)):
            res = optimize.minimize_scalar(
                lambda t: f([t, 0.0] if j == 0 else [0.0, t]), bounds=(lo, hi),
                method="bounded", options={"xatol": 1e-12},
            )
            candidates.append(res.fun)
    for s0 in (-1.0, 1.0):
        for s1 in (-1.0, 1.0):
            res = optimize.minimize(lambda b: f(b), [s0 * 0.5, s1 * 0.1], method="Nelder-Mead",
                                    options={"xatol": 1e-12, "fatol": 1e-12})
            candidates.append(res.fun)
    best = min(candidates)
    grid = ref.dense_grid_min(X, y, lambda0, gamma)
    assert best - 1e-9 <= grid <= best + 1e-6 * abs(best)


def test_chernoff_variance_constant():
    # argmax of B(t) - t^2 on a fine grid of [-3, 3], by direct simulation
    rng = np.random.default_rng(16)
    h, steps = 0.002, 1500
    t = np.arange(1, steps + 1) * h
    argmax = []
    for _ in range(8):
        paths = 500
        right = np.cumsum(rng.normal(0.0, math.sqrt(h), (paths, steps)), axis=1) - t**2
        left = np.cumsum(rng.normal(0.0, math.sqrt(h), (paths, steps)), axis=1) - t**2
        best_r, best_l = right.max(axis=1), left.max(axis=1)
        tr, tl = t[right.argmax(axis=1)], -t[left.argmax(axis=1)]
        side = np.where(best_r >= best_l, tr, tl)
        argmax.append(np.where(np.maximum(best_r, best_l) > 0.0, side, 0.0))
    var, se, ok = ref.variance_within(np.concatenate(argmax), ref.CHERNOFF_VAR)
    assert ok, (var, se)


def test_variance_within_separates_close_and_far():
    rng = np.random.default_rng(17)
    assert ref.variance_within(rng.normal(0.0, math.sqrt(0.2636), 10_000), 0.2636)[2]
    assert not ref.variance_within(rng.normal(0.0, math.sqrt(0.30), 10_000), 0.2636)[2]


def test_shorth_c1_is_the_coverage_slope():
    rho = stats.norm.ppf(0.75)
    assert abs(stats.norm.cdf(rho) - stats.norm.cdf(-rho) - 0.5) < 1e-12
    h = 1e-6
    slope = (stats.norm.cdf(rho + h) - stats.norm.cdf(-rho - h)
             - stats.norm.cdf(rho - h) + stats.norm.cdf(-rho + h)) / (2 * h)
    assert abs(ref.shorth_c1() - slope) < 1e-7


def test_loglog_slope_and_binomial_band():
    ns = (1000, 2000, 4000, 8000)
    errs = {n: np.array([-3.0, 1.0, 2.0]) * n ** -0.25 for n in ns}
    assert abs(ref.loglog_slope(ns, errs) + 0.25) < 1e-12
    lo, hi = ref.binomial_band(0.5, 100)
    assert (lo, hi) == (0.25, 0.75)
