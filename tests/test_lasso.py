import math

import numpy as np
import pytest

from mixedrates import harness
from mixedrates.distributions import SeedStream
from mixedrates.estimators import (
    DesignError,
    LassoConfig,
    fit_bridge_lasso,
    fit_bridge_lasso_block,
    generate_lasso_design,
    generate_lasso_designs,
    lasso,
    minimizer_box,
)
from mixedrates.estimators.lasso import (
    _axis_grid,
    _centered_draws,
    _grid_min,
    _grid_points,
    _grid_values,
    _provably_zero,
    _search,
    _slice_criterion,
    _slice_min,
)


def criterion_value(alpha, y, config):
    """Independent oracle: the penalized criterion at one point, in residual
    form rather than the solver's Gram form."""
    a = np.asarray(alpha, dtype=np.float64)
    resid = y - config.design @ a
    return float(resid @ resid + config.lambda_n * np.sum(np.abs(a) ** config.gamma))


def batch_values(A, xtx, xty, yty, lam, gamma):
    """Gram-form reference: the criterion at each row of ``A``, O(d^2) per
    point."""
    quad = np.einsum("ij,jk,ik->i", A, xtx, A)
    return yty - 2.0 * (A @ xty) + quad + lam * np.sum(np.abs(A) ** gamma, axis=1)


def box_of(y, cfg):
    """The solver's ``minimizer_box`` for one instance: (ols, lo, hi)."""
    X = cfg.design
    return minimizer_box(X.T @ X, X.T @ y, cfg.lambda_n, cfg.gamma)


def brute_force_minimum(y, cfg, points=2001):
    """Dense-grid oracle over the box that holds the global minimizer, zero
    lines included.

    With a = (a1, a2) the criterion is y'y + u1(a1) + u2(a2) + 2 Q12 a1 a2,
    u_j(a) = Q_jj a^2 - 2 (X'y)_j a + lambda |a|^gamma: each block of grid
    rows is one outer product plus the two per-axis terms."""
    _, lo, hi = box_of(y, cfg)
    axes = []
    for j in range(2):
        g = np.linspace(lo[j], hi[j], points)
        if lo[j] < 0.0 < hi[j]:
            g = np.sort(np.append(g, 0.0))
        axes.append(g)
    X = cfg.design
    xtx, xty = X.T @ X, X.T @ y
    u = [
        xtx[j, j] * a * a - 2.0 * xty[j] * a + cfg.lambda_n * np.abs(a) ** cfg.gamma
        for j, a in enumerate(axes)
    ]
    best = math.inf
    for a1, u1 in zip(np.array_split(axes[0], 8), np.array_split(u[0], 8)):
        vals = np.outer(2.0 * xtx[0, 1] * a1, axes[1])
        vals += u1[:, None]
        vals += u[1]
        best = min(best, float(vals.min()))
    return float(y @ y) + best


def make_instance(n, seed, lambda0=2.0, sigma=1.0):
    s = SeedStream(seed, 0)
    X = generate_lasso_design(n, 2, s)
    y = X @ np.array([1.0, 0.0]) + sigma * s.child("noise").generator().standard_normal(n)
    cfg = LassoConfig(design=X, beta_true=[1.0, 0.0], gamma=0.5, lambda0=lambda0, sigma=sigma)
    return y, cfg


class TestDesign:
    def test_columns_centered(self):
        X = generate_lasso_design(500, 2, SeedStream(10, 0))
        assert np.max(np.abs(X.mean(axis=0))) < 1e-12

    def test_gram_matrix_converges_to_third_identity(self):
        X = generate_lasso_design(100_000, 2, SeedStream(10, 1))
        cn = X.T @ X / X.shape[0]
        assert np.max(np.abs(cn - np.eye(2) / 3.0)) < 0.02

    def test_max_leverage_bounded(self):
        # entries bounded by 1 before centering, so row norms stay ~ 2/n
        n = 500
        X = generate_lasso_design(n, 2, SeedStream(10, 2))
        assert np.max(np.sum(X**2, axis=1)) / n <= 2.5 / n

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            generate_lasso_design(2, 2, SeedStream(10, 3))

    @pytest.mark.parametrize("attempt", range(4))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [6, 2000])
    def test_centered_draws_equal_the_uniform_construction(self, n, d, attempt):
        # the construction the in-place draws through one re-keyed generator
        # replaced: a fresh generator and uniform(-1, 1) per stream
        streams = [SeedStream(7, i) for i in (0, 1, 2**63, 0xEBC3A32FB68DA9A3)]
        want = np.empty((len(streams), n, d))
        for i, s in enumerate(streams):
            gen = SeedStream(s.master_seed, s.stream_index + attempt).generator()
            want[i] = gen.uniform(-1.0, 1.0, size=(n, d))
        want -= want.mean(axis=1, keepdims=True)
        X, xtx = _centered_draws(n, d, streams, attempt)
        assert X.tobytes() == want.tobytes()
        assert xtx.tobytes() == (np.swapaxes(want, 1, 2) @ want).tobytes()

    def test_stacked_draws_follow_the_one_design_rule(self, monkeypatch):
        # At n = 6 a threshold of 0.1 on the smallest eigenvalue of X'X/n
        # rejects many first draws.  Each design of the stack, and its X'X,
        # is the one the rule gives its own stream: draw, center, check, and
        # redraw on the next stream index, at most 4 attempts.
        monkeypatch.setattr(lasso, "_MIN_EIGENVALUE", 0.1)

        def one_by_one(stream):
            for attempt in range(4):
                gen = SeedStream(stream.master_seed, stream.stream_index + attempt).generator()
                X = gen.uniform(-1.0, 1.0, size=(6, 2))
                X -= X.mean(axis=0)
                if np.linalg.eigvalsh(X.T @ X / 6)[0] > 0.1:
                    return X, attempt
            return None, 4

        drawn = [(s, *one_by_one(s)) for s in (SeedStream(7, 100 + i) for i in range(60))]
        assert sorted({attempt for *_, attempt in drawn}) == [0, 1, 2, 3, 4]
        kept = [(s, ref) for s, ref, attempt in drawn if attempt < 4]
        X, xtx = generate_lasso_designs(6, 2, [s for s, _ in kept])
        for i, (s, ref) in enumerate(kept):
            assert np.array_equal(X[i], ref)
            assert np.array_equal(xtx[i], ref.T @ ref)
            assert np.array_equal(generate_lasso_design(6, 2, s), ref)
        failing = next(s for s, _, attempt in drawn if attempt == 4)
        with pytest.raises(DesignError, match="4 attempts"):
            generate_lasso_designs(6, 2, [s for s, _ in kept[:5]] + [failing])


class TestBridgeLassoSolver:
    def test_no_penalty_reduces_to_least_squares(self):
        y, _ = make_instance(200, 11)
        X = generate_lasso_design(200, 2, SeedStream(11, 0))
        cfg = LassoConfig(design=X, beta_true=[1.0, 0.0], gamma=0.5, lambda0=0.0)
        fit = fit_bridge_lasso(y, cfg)
        normal_eq_resid = np.linalg.norm(X.T @ (y - X @ fit.alpha_hat))
        assert normal_eq_resid <= 1e-6 * np.linalg.norm(y)
        assert not fit.zero_flags.any()

    def test_zero_responses_give_exact_origin(self):
        X = generate_lasso_design(50, 2, SeedStream(12, 0))
        cfg = LassoConfig(design=X, beta_true=[1.0, 0.0], gamma=0.5, lambda0=2.0)
        fit = fit_bridge_lasso(np.zeros(50), cfg)
        assert fit.alpha_hat.tolist() == [0.0, 0.0]
        assert fit.zero_flags.all()
        assert fit.criterion_value == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_grid_oracle(self, seed):
        y, cfg = make_instance(6, 100 + seed)
        fit = fit_bridge_lasso(y, cfg)
        brute_val = brute_force_minimum(y, cfg)
        rel_gap = (fit.criterion_value - brute_val) / abs(brute_val)
        assert rel_gap <= 1e-4

    def test_reported_value_matches_point(self):
        y, cfg = make_instance(100, 13)
        fit = fit_bridge_lasso(y, cfg)
        assert fit.criterion_value == pytest.approx(
            criterion_value(fit.alpha_hat, y, cfg), rel=1e-12
        )

    def test_zero_flags_iff_exact_zero(self):
        y, cfg = make_instance(1000, 14)
        fit = fit_bridge_lasso(y, cfg)
        assert fit.zero_flags.tolist() == [v == 0.0 for v in fit.alpha_hat]
        assert fit.zero_flags[1]  # strong penalty collapses the null coordinate

    def test_never_above_ols_or_origin_value(self):
        for seed in range(5):
            y, cfg = make_instance(60, 200 + seed)
            fit = fit_bridge_lasso(y, cfg)
            ols = np.linalg.lstsq(cfg.design, y, rcond=None)[0]
            assert fit.criterion_value <= criterion_value(ols, y, cfg) + 1e-9
            assert fit.criterion_value <= criterion_value([0.0, 0.0], y, cfg) + 1e-9

    def test_coordinate_permutation_equivariance(self):
        y, cfg = make_instance(80, 15)
        swapped = LassoConfig(
            design=cfg.design[:, ::-1].copy(),
            beta_true=cfg.beta_true[::-1].copy(),
            gamma=cfg.gamma,
            lambda0=cfg.lambda0,
            sigma=cfg.sigma,
        )
        f1 = fit_bridge_lasso(y, cfg)
        f2 = fit_bridge_lasso(y, swapped)
        assert f1.criterion_value == pytest.approx(f2.criterion_value, rel=1e-9)
        assert f1.alpha_hat.tolist() == pytest.approx(f2.alpha_hat[::-1].tolist(), abs=1e-7)

    def test_deterministic(self):
        y, cfg = make_instance(100, 16)
        a = fit_bridge_lasso(y, cfg)
        b = fit_bridge_lasso(y, cfg)
        assert a.alpha_hat.tolist() == b.alpha_hat.tolist()


def gram_instance(n, d, seed):
    """Sufficient statistics (X'X, X'y, y'y) and penalty of a random instance."""
    gen = np.random.default_rng([seed, d])
    X = gen.uniform(-1.0, 1.0, size=(n, d))
    X -= X.mean(axis=0)
    y = X[:, 0] + gen.standard_normal(n)
    return X.T @ X, X.T @ y, float(y @ y), 2.0 * math.sqrt(n), 0.5


class TestCriterionKernels:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_slice_matches_batch_values(self, d, seed):
        xtx, xty, yty, lam, gamma = gram_instance(50 * (seed + 1), d, seed)
        gen = np.random.default_rng(seed)
        for _ in range(20):
            x = gen.normal(0.0, 2.0, size=d)
            x[gen.random(d) < 0.3] = 0.0
            j = int(gen.integers(d))
            # the polish passes Python lists
            base, lin, q = _slice_criterion(
                x.tolist(), j, xtx.tolist(), xty.tolist(), yty, lam, gamma
            )
            for t in [0.0, *gen.normal(0.0, 3.0, size=5)]:
                pt = x.copy()
                pt[j] = t
                ref = batch_values(pt[None, :], xtx, xty, yty, lam, gamma)[0]
                value = base + t * (lin + q * t) + lam * abs(t) ** gamma
                assert value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_separable_grid_matches_gram_form(self, d, seed):
        xtx, xty, yty, lam, gamma = gram_instance(100 * (seed + 1), d, seed)
        gen = np.random.default_rng(seed)
        center = gen.normal(0.0, 1.0, size=d)
        axes = _grid_points(center - 4.0, center + 4.0, 41 if d == 3 else 101)
        mesh = np.meshgrid(*axes, indexing="ij")
        A = np.column_stack([m.ravel() for m in mesh])
        ref = batch_values(A, xtx, xty, yty, lam, gamma)
        sep = _grid_values(axes, xtx, xty, yty, lam, gamma)
        assert sep.shape == tuple(a.size for a in axes)
        np.testing.assert_allclose(sep.ravel(), ref, rtol=1e-12)
        point, value = _grid_min(axes, xtx, xty, yty, lam, gamma)
        assert value == pytest.approx(ref.min(), rel=1e-12)
        at_point = batch_values(point[None, :], xtx, xty, yty, lam, gamma)[0]
        assert at_point == pytest.approx(ref.min(), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_three_coefficients_never_above_dense_grid(self, seed):
        s = SeedStream(300 + seed, 0)
        X = generate_lasso_design(8, 3, s)
        beta = np.array([1.0, 0.0, 0.0])
        y = X @ beta + s.child("noise").generator().standard_normal(8)
        cfg = LassoConfig(design=X, beta_true=beta, gamma=0.5, lambda0=2.0)
        fit = fit_bridge_lasso(y, cfg)
        best = residual_grid_min(y, cfg, *box_of(y, cfg)[1:], points=201)
        assert fit.criterion_value <= best + 1e-12 * abs(best)
        assert fit.criterion_value == pytest.approx(
            criterion_value(fit.alpha_hat, y, cfg), rel=1e-12
        )


def slice_on_grid(base, lin, q, lam, gamma, lo, hi, points=50_001):
    """Dense 1-D grid of the slice f(t) = base + t (lin + q t) + lam |t|^gamma,
    with t = 0 inserted when it lies inside [lo, hi]."""
    t = _axis_grid(lo, hi, points)
    return t, base + t * (lin + q * t) + lam * np.abs(t) ** gamma


def random_slice(gen):
    """(base, lin, q, lam, lo, hi): one-sided intervals on either side of 0
    and intervals that straddle it, in equal shares."""
    base = gen.uniform(10.0, 100.0)
    lin, q, lam = gen.uniform(-10.0, 10.0), gen.uniform(0.1, 5.0), gen.uniform(0.0, 5.0)
    a, b = np.sort(gen.uniform(0.0, 6.0, size=2))
    lo, hi = [(a, b), (-b, -a), (-a, b)][int(gen.integers(3))]
    return base, lin, q, lam, float(lo), float(hi)


class TestSliceSolver:
    """_slice_min against a dense grid of the same slice."""

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    def test_never_above_dense_grid(self, gamma):
        gen = np.random.default_rng(int(gamma * 100))
        for _ in range(150):
            base, lin, q, lam, lo, hi = random_slice(gen)
            t, ft = _slice_min(base, lin, q, lam, gamma, lo, hi)
            assert lo <= t <= hi
            assert ft == base + t * (lin + q * t) + lam * abs(t) ** gamma
            _, vals = slice_on_grid(base, lin, q, lam, gamma, lo, hi)
            assert ft <= vals.min() + 1e-13 * abs(vals.min())

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_two_local_minima_picks_the_lower(self, gamma):
        # On [0, hi] with lin < 0 the slice rises from its endpoint t = 0
        # (infinite slope), turns down and has a second, interior local
        # minimum.  Collect slices where that interior minimum lies above
        # f(0), and ones where it lies below.
        gen = np.random.default_rng(int(gamma * 1000))
        seen = {"endpoint": 0, "interior": 0}
        for _ in range(400):
            base = gen.uniform(10.0, 100.0)
            q, lam = gen.uniform(0.1, 5.0), gen.uniform(0.5, 5.0)
            lin = -gen.uniform(0.0, 10.0)
            lo, hi = (0.0, gen.uniform(1.0, 6.0)) if gen.random() < 0.5 else (
                -gen.uniform(1.0, 6.0), gen.uniform(1.0, 6.0)
            )
            t_grid, vals = slice_on_grid(base, lin, q, lam, gamma, lo, hi)
            inner = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
            inner = inner[t_grid[inner] > 0.0]
            if inner.size != 1:
                continue
            kind = "endpoint" if vals[inner[0]] > base else "interior"  # f(0) = base
            seen[kind] += 1
            t, ft = _slice_min(base, lin, q, lam, gamma, lo, hi)
            assert ft <= vals.min() + 1e-13 * abs(vals.min())
            if kind == "endpoint" and lo == 0.0:
                assert t == 0.0
            if kind == "interior":
                assert t == pytest.approx(t_grid[inner[0]], abs=2.0 * (hi - lo) / 50_000)
        assert seen["endpoint"] >= 10 and seen["interior"] >= 10


class TestSoftThreshold:
    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonal_design_gives_soft_threshold(self, seed):
        # gamma = 1 with X'X = diag(Q_jj): the criterion separates by
        # coordinate and each minimizer is
        # sign(c_j) max(|c_j| - lam / 2, 0) / Q_jj with c = X'y.
        n = 40
        gen = np.random.default_rng(seed)
        raw = gen.standard_normal((n, 2))
        raw -= raw.mean(axis=0)
        X = np.linalg.qr(raw)[0] * np.array([4.0, 3.0])
        X -= X.mean(axis=0)
        cfg = LassoConfig(design=X, beta_true=[1.0, 0.0], gamma=1.0, lambda0=1.5)
        # odd seeds: a negative second coefficient that survives the threshold
        y = X @ np.array([0.8, -0.9 if seed % 2 else 0.02]) + 0.3 * gen.standard_normal(n)
        c, q = X.T @ y, np.diag(X.T @ X)
        lam = cfg.lambda_n
        expected = np.sign(c) * np.maximum(np.abs(c) - lam / 2.0, 0.0) / q
        fit = fit_bridge_lasso(y, cfg)
        assert fit.zero_flags.tolist() == (expected == 0.0).tolist()
        np.testing.assert_allclose(fit.alpha_hat, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [250, 1000])
    def test_non_orthogonal_fits_meet_the_kkt_conditions(self, n):
        # At gamma = 1 the criterion is convex, and b is its minimizer iff
        # g = 2 (X'y - X'X b) has g_j = lam sign(b_j) where b_j != 0 and
        # |g_j| <= lam where b_j = 0.  A coordinate that should be exactly
        # zero but is reported nonzero misses the first by up to 2 lam.
        # With a zero coordinate the other is its slice's exact minimizer;
        # with none, a Newton solve of both equations ends the polish.
        for r in range(60):
            s = SeedStream(2024, r)
            X = generate_lasso_design(n, 2, s)
            y = X @ np.array([1.0, 0.0]) + s.child("noise").generator().standard_normal(n)
            cfg = LassoConfig(design=X, beta_true=[1.0, 0.0], gamma=1.0, lambda0=2.0)
            fit = fit_bridge_lasso(y, cfg)
            b, lam, xtx = fit.alpha_hat, cfg.lambda_n, X.T @ X
            g = 2.0 * (X.T @ y - xtx @ b)
            tol = 1e-9 * lam
            nonzero = ~fit.zero_flags
            assert np.all(np.abs(g - lam * np.sign(b))[nonzero] <= tol), (r, b, g / lam)
            assert np.all(np.abs(g)[~nonzero] <= lam + tol), (r, b, g / lam)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nonzero_coordinates_solve_their_stationarity_equations(self, d):
        # at gamma = 1/2 the criterion is smooth away from zero, so each
        # nonzero coordinate of a fit solves
        # 2 (X'X b - X'y)_j + lam gamma |b_j|^(gamma - 1) sign(b_j) = 0
        beta = np.array([1.0, 0.3, -0.2])[:d]
        several = 0
        for r in range(40):
            s = SeedStream(77, r)
            X = generate_lasso_design(200, d, s)
            y = X @ beta + s.child("noise").generator().standard_normal(200)
            cfg = LassoConfig(design=X, beta_true=beta, gamma=0.5, lambda0=0.5)
            fit = fit_bridge_lasso(y, cfg)
            b, lam, nz = fit.alpha_hat, cfg.lambda_n, ~fit.zero_flags
            pen = 0.5 * lam * np.abs(b[nz]) ** -0.5 * np.sign(b[nz])
            g = 2.0 * (X.T @ X @ b - X.T @ y)[nz] + pen
            assert np.all(np.abs(g) <= 1e-9 * lam), (r, b, g / lam)
            several += int(nz.sum()) >= 2
        assert several >= 20


def residual_grid_min(y, cfg, lo, hi, points):
    """Dense-grid oracle for d = 2 or 3 over the box [lo, hi], zero lines
    included, evaluated from the residuals: one block of grid points per
    value of the first coordinate."""
    X, lam, gamma = cfg.design, cfg.lambda_n, cfg.gamma
    axes = [
        np.union1d(np.linspace(a, b, points), [0.0] if a < 0.0 < b else [])
        for a, b in zip(lo, hi)
    ]
    rest = [m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")]
    fitted = sum(np.outer(a, X[:, k + 1]) for k, a in enumerate(rest))
    pen = lam * sum(np.abs(a) ** gamma for a in rest)
    best = math.inf
    for a0 in axes[0]:
        resid = (y - a0 * X[:, 0])[None, :] - fitted
        vals = np.sum(resid**2, axis=1) + pen + lam * abs(a0) ** gamma
        best = min(best, float(vals.min()))
    return best


def oracle_instance(stream, d):
    """An instance of the ``oracle-lasso-brute-force`` kind at seed 1729:
    n = 6, truth (6, -3) for d = 2 and (1, 0, 0) for d = 3."""
    s = SeedStream(1729, stream)
    X = generate_lasso_design(6, d, s)
    beta = np.array([6.0, -3.0] if d == 2 else [1.0, 0.0, 0.0])
    y = X @ beta + s.child("y").generator().standard_normal(6)
    return y, LassoConfig(X, beta, gamma=0.5, lambda0=2.0)


class TestMinimizerBox:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [6, 250])
    @pytest.mark.parametrize("signal", [False, True])
    def test_criterion_outside_the_box_is_above_ols_and_origin(self, d, n, signal):
        # f(b) > min(f(ols), f(0)) >= f(b*) everywhere outside the box, so no
        # global minimizer lies outside it
        gen = np.random.default_rng([d, n, signal])
        beta = np.zeros(d)
        beta[:2] = [6.0, -3.0] if signal else [1.0, 0.0]
        for r in range(20):
            s = SeedStream(400 + n, 10 * d + r)
            X = generate_lasso_design(n, d, s)
            y = X @ beta + s.child("noise").generator().standard_normal(n)
            cfg = LassoConfig(X, beta, gamma=0.5, lambda0=2.0)
            ols, lo, hi = box_of(y, cfg)
            bound = min(criterion_value(ols, y, cfg), criterion_value(np.zeros(d), y, cfg))
            half = 0.5 * (hi - lo)
            u = gen.uniform(-1.5, 1.5, size=(200, d))
            u = u[np.max(np.abs(u), axis=1) > 1.0]
            for b in ols + u * half:
                assert criterion_value(b, y, cfg) >= bound

    @pytest.mark.parametrize("stream, d", [(3116, 2), (3136, 2), (3139, 2), (3092, 3)])
    def test_fit_never_above_a_grid_that_also_covers_the_heuristic_box(self, stream, d):
        # The heuristic box OLS +/- 4 max(1, rms residual) missed the global
        # minimizer of these instances; the grid covers both boxes.
        y, cfg = oracle_instance(stream, d)
        ols, lo, hi = box_of(y, cfg)
        resid = y - cfg.design @ ols
        w = 4.0 * max(1.0, math.sqrt(float(resid @ resid) / cfg.n))
        lo, hi = np.minimum(lo, ols - w), np.maximum(hi, ols + w)
        best = residual_grid_min(y, cfg, lo, hi, points=2001 if d == 2 else 201)
        fit = fit_bridge_lasso(y, cfg)
        assert fit.criterion_value <= best + 1e-12 * abs(best)


def screen_instance(n, d, gamma, r):
    """An instance with truth (1, 0, ...), unit noise and lambda0 = 2, its
    Gram statistics and which coordinates ``_provably_zero`` screens."""
    s = SeedStream(500 + n, 10 * d + r)
    X = generate_lasso_design(n, d, s)
    beta = np.zeros(d)
    beta[0] = 1.0
    y = X @ beta + s.child("noise").generator().standard_normal(n)
    cfg = LassoConfig(X, beta, gamma=gamma, lambda0=2.0)
    xtx, xty = X.T @ X, X.T @ y
    ols, lo, hi = minimizer_box(xtx, xty, cfg.lambda_n, gamma)
    return y, cfg, (ols, lo, hi), _provably_zero(xtx, xty, ols, lo, hi, cfg.lambda_n, gamma)


class TestZeroScreen:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n", [6, 40])
    @pytest.mark.parametrize("d", [2, 3])
    def test_screened_coordinate_is_zero_at_every_minimizer(self, d, n, gamma):
        # the lemma: off the zero plane of a screened coordinate the
        # criterion, in residual form on a dense grid of the box, never falls
        # below the fit's value
        points = 201 if d == 2 else 41
        seen = [0, 0]
        for r in range(12):
            y, cfg, (_, lo, hi), zero = screen_instance(n, d, gamma, r)
            seen[bool(zero.any())] += 1
            if not zero.any():
                continue
            fit = fit_bridge_lasso(y, cfg)
            assert fit.zero_flags[zero].all()
            mesh = np.meshgrid(*(np.linspace(a, b, points) for a, b in zip(lo, hi)), indexing="ij")
            B = np.column_stack([m.ravel() for m in mesh])
            resid = y[None, :] - B @ cfg.design.T
            vals = np.sum(resid**2, axis=1) + cfg.lambda_n * np.sum(np.abs(B) ** gamma, axis=1)
            for j in np.flatnonzero(zero):
                off_plane = vals[B[:, j] != 0.0]
                assert off_plane.min() >= fit.criterion_value * (1.0 - 1e-12)
        assert seen[True] >= 4, seen

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("n", [6, 40, 250])
    @pytest.mark.parametrize("d", [2, 3])
    def test_screen_leaves_the_fit_unchanged(self, d, n, gamma):
        # the screened fit is the search over every coordinate, by repr
        fired = 0
        for r in range(12):
            y, cfg, (ols, lo, hi), zero = screen_instance(n, d, gamma, r)
            fired += bool(zero.any())
            X = cfg.design
            x, val = _search(
                list(range(d)), ols, lo, hi, X.T @ X, X.T @ y, float(y @ y), cfg.lambda_n, gamma
            )
            fit = fit_bridge_lasso(y, cfg)
            assert repr(fit.alpha_hat.tolist()) == repr(x.tolist())
            assert repr(fit.criterion_value) == repr(val)
        assert fired >= 4

    @pytest.mark.parametrize("seed", [1729, 2024])
    def test_ladder_null_coordinate_is_screened_on_every_fit(self, seed):
        # README: at gamma = 1/2 the screen pins alpha2 on every fit of the
        # lasso ladder 250...2000 x 125, so the grid there is one axis
        screened = 0
        for n in (250, 500, 1000, 2000):
            for r in range(125):
                X = generate_lasso_design(n, 2, harness._lasso_design_stream(seed, n, r, "fresh"))
                noise = harness._replicate_stream(seed, "lasso", n, r, "noise").generator()
                y = X @ np.array([1.0, 0.0]) + noise.standard_normal(n)
                xtx, xty, lam = X.T @ X, X.T @ y, 2.0 * math.sqrt(n)
                zero = _provably_zero(xtx, xty, *minimizer_box(xtx, xty, lam, 0.5), lam, 0.5)
                screened += zero.tolist() == [False, True]
        assert screened == 500

    def test_no_screen_without_penalty(self):
        y, cfg, (ols, lo, hi), _ = screen_instance(40, 2, 0.5, 0)
        X = cfg.design
        assert not _provably_zero(X.T @ X, X.T @ y, ols, lo, hi, 0.0, 0.5).any()


def several_free_instance(gamma, r):
    """d = 3, n = 8, truth (6, -3, 2) on stream 4000 + r at seed 1729: the
    screen leaves two or three coordinates free."""
    s = SeedStream(1729, 4000 + r)
    X = generate_lasso_design(8, 3, s)
    beta = np.array([6.0, -3.0, 2.0])
    y = X @ beta + s.child("y").generator().standard_normal(8)
    return y, LassoConfig(X, beta, gamma=gamma, lambda0=2.0)


class TestSearch:
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_several_free_coordinates_never_above_a_finer_grid(self, gamma):
        # the grid and polish over two or three free coordinates, against a
        # residual-form grid finer than the solver's 101 per axis
        for r in range(6):
            y, cfg = several_free_instance(gamma, r)
            X, lam = cfg.design, cfg.lambda_n
            ols, lo, hi = minimizer_box(X.T @ X, X.T @ y, lam, gamma)
            zero = _provably_zero(X.T @ X, X.T @ y, ols, lo, hi, lam, gamma)
            assert np.count_nonzero(~zero) >= 2
            fit = fit_bridge_lasso(y, cfg)
            assert fit.alpha_hat[zero].tolist() == [0.0] * np.count_nonzero(zero)
            best = residual_grid_min(y, cfg, lo, hi, points=151)
            assert fit.criterion_value <= best + 1e-12 * abs(best)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    def test_one_free_coordinate_is_solved_exactly(self, gamma):
        # A nonzero free coordinate b_j is a stationary point of the
        # criterion, 2 (X'y - X'X b)_j = lam gamma |b_j|^(gamma - 1) sign(b_j),
        # and the fit is never above a 10^5-point residual-form grid of
        # [lo_j, hi_j] with 0 inserted.  Negated responses mirror the fit.
        seen = [0, 0]
        for r in range(12):
            y0, cfg, _, zero = screen_instance(40, 2, gamma, r)
            if np.count_nonzero(~zero) != 1:
                continue
            (j,) = np.flatnonzero(~zero)
            X, x, lam = cfg.design, cfg.design[:, j], cfg.lambda_n
            for y in (y0, -y0):
                _, lo, hi = box_of(y, cfg)
                fit = fit_bridge_lasso(y, cfg)
                b = fit.alpha_hat
                assert fit.zero_flags.tolist() == [k != j or b[j] == 0.0 for k in range(2)]
                seen[bool(b[j] != 0.0)] += 1
                if b[j] != 0.0:
                    g = 2.0 * (X.T @ y - X.T @ X @ b)[j]
                    pen = lam * gamma * abs(b[j]) ** (gamma - 1.0) * np.sign(b[j])
                    assert abs(g - pen) <= 1e-9 * lam
                zero_line = [0.0] if lo[j] < 0.0 < hi[j] else []
                t = np.union1d(np.linspace(lo[j], hi[j], 100_000), zero_line)
                best = math.inf
                for c in np.array_split(t, 20):
                    resid = y[None, :] - np.outer(c, x)
                    vals = np.sum(resid**2, axis=1) + lam * np.abs(c) ** gamma
                    best = min(best, float(vals.min()))
                assert fit.criterion_value <= best + 1e-12 * abs(best)
        assert seen[True] >= 8, seen


def as_tuple(fit):
    """A fit's point, zero flags and value, whose repr is exact."""
    return fit.alpha_hat.tolist(), fit.zero_flags.tolist(), fit.criterion_value


class TestBlockFit:
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_each_instance_of_a_block_fits_as_it_does_alone(self, d, gamma):
        # n = 8, truth (6, -3, 2) or (1, 0, 0): the screen leaves none, one
        # or several coordinates free, so the block covers every search case
        n, lambda0 = 8, 2.0
        streams = [SeedStream(1729, 4000 + r) for r in range(40)]
        X, xtx = generate_lasso_designs(n, d, streams)
        betas = [np.array([6.0, -3.0, 2.0][:d]) if r % 2 else np.eye(d)[0] for r in range(40)]
        y = np.stack(
            [
                X[r] @ beta + s.child("y").generator().standard_normal(n)
                for r, (s, beta) in enumerate(zip(streams, betas))
            ]
        )
        fits = fit_bridge_lasso_block(X, y, xtx, lambda0 * math.sqrt(n), gamma)
        nonzero = set()
        for r, fit in enumerate(fits):
            cfg = LassoConfig(X[r], betas[r], gamma=gamma, lambda0=lambda0)
            alone = fit_bridge_lasso(y[r], cfg)
            assert repr(as_tuple(fit)) == repr(as_tuple(alone))
            nonzero.add(int(np.count_nonzero(alone.alpha_hat)))
        assert {0, 1}.issubset(nonzero) and max(nonzero) >= 2, nonzero


class TestDimensionCap:
    def test_four_coefficients_rejected_naming_the_grid(self):
        X = generate_lasso_design(20, 4, SeedStream(18, 0))
        cfg = LassoConfig(design=X, beta_true=[1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"102\^d"):
            fit_bridge_lasso(np.zeros(20), cfg)

    def test_three_coefficients_supported(self):
        X = generate_lasso_design(30, 3, SeedStream(18, 1))
        cfg = LassoConfig(design=X, beta_true=[1.0, 0.0, 0.0])
        fit = fit_bridge_lasso(X[:, 0].copy(), cfg)
        assert fit.alpha_hat.shape == (3,)


class TestLassoConfigValidation:
    def test_rejects_uncentered_design(self):
        X = np.ones((10, 2))
        with pytest.raises(ValueError):
            LassoConfig(design=X, beta_true=[1.0, 0.0])

    def test_rejects_singular_design(self):
        col = np.linspace(-1, 1, 10)
        X = np.column_stack([col, col])
        with pytest.raises(ValueError):
            LassoConfig(design=X, beta_true=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        y, cfg = make_instance(50, 17)
        X = cfg.design.copy()
        X[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LassoConfig(design=X, beta_true=[1.0, 0.0])
        y[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_bridge_lasso(y, cfg)

    def test_rejects_bad_gamma(self):
        X = generate_lasso_design(20, 2, SeedStream(17, 0))
        with pytest.raises(ValueError):
            LassoConfig(design=X, beta_true=[1.0, 0.0], gamma=1.5)

    def test_lambda_scales_with_root_n(self):
        X = generate_lasso_design(400, 2, SeedStream(17, 1))
        cfg = LassoConfig(design=X, beta_true=[1.0, 0.0], lambda0=2.0)
        assert cfg.lambda_n == pytest.approx(2.0 * 20.0)
