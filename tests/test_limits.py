import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.optimize import minimize
from scipy.special import airy
from scipy.stats import kstwobign

from mixedrates.distributions import SeedStream, sample_gaussian_vector
from mixedrates.estimators import generate_lasso_design, shorth_population
from mixedrates.harness import EXPERIMENTS, ks_two_sample
from mixedrates.limits import (
    GRID_MAX_SHIFT,
    KMEANS_SIGMA,
    LASSO_C11,
    BoundaryHitError,
    ChernoffConfig,
    _chernoff_argmax_and_max,
    _linearization_gate,
    chernoff_scale,
    empirical_criterion_diff,
    estimate_kmeans_cov,
    fast_block_closed_form,
    kmeans_scores,
    kmeans_two_line_sample,
    sample_chernoff_argmax,
    sample_kmeans_limit,
    sample_lasso_limits,
    sample_shorth_r_limit,
    slow_block_closed_form,
)
from test_distributions import two_sided_values


def psi_slow(delta_s, eps_d):
    """Cubic positive part of the slow block: the two split-line crossing
    offsets are delta_s +/- eps_d and each contributes |offset|^3 / 6."""
    u = np.abs(delta_s) + np.abs(eps_d)
    v = np.abs(np.abs(delta_s) - np.abs(eps_d))
    return (u**3 + v**3) / 6.0


def slow_block_objective(delta_s, eps_d, z1):
    return psi_slow(delta_s, eps_d) + delta_s * z1[0] + eps_d * z1[1]


def _grid_min_slow(z1, lo, hi, points=201):
    gx = np.linspace(lo[0], hi[0], points)
    gy = np.linspace(lo[1], hi[1], points)
    DS, ED = np.meshgrid(gx, gy, indexing="ij")
    vals = slow_block_objective(DS, ED, z1)
    flat = np.argmin(vals)
    m = vals.reshape(-1)[flat]
    ties = np.flatnonzero(vals.reshape(-1) == m)
    if len(ties) > 1:
        # break toward the origin, then lexicographically
        pts = np.column_stack([DS.reshape(-1)[ties], ED.reshape(-1)[ties]])
        key = np.lexsort((pts[:, 1], pts[:, 0], np.hypot(pts[:, 0], pts[:, 1])))
        flat = ties[key[0]]
    i, j = np.unravel_index(flat, vals.shape)
    cells = np.array([gx[1] - gx[0], gy[1] - gy[0]])
    return np.array([gx[i], gy[j]]), cells


def _polish_slow(s, z1, step, rounds=60):
    best = float(slow_block_objective(s[0], s[1], z1))
    cur = s.copy()
    for _ in range(rounds):
        moved = False
        for idx in (0, 1):
            for sign in (1.0, -1.0):
                cand = cur.copy()
                cand[idx] += sign * step
                val = float(slow_block_objective(cand[0], cand[1], z1))
                if val < best:
                    cur, best, moved = cand, val, True
        if not moved:
            step *= 0.5
            if step < 1e-9:
                break
    return cur


def grid_solve_slow_block(z1):
    """Oracle for the slow block: coarse grid, two refinements and a compass
    polish, the box doubled (at most twice) while the incumbent touches its
    edge."""
    L = 4.0 * math.sqrt(np.linalg.norm(z1)) + 1e-12
    for _ in range(3):
        lo = np.array([-L, -L])
        hi = np.array([L, L])
        s, cells = _grid_min_slow(z1, lo, hi)
        for _ in range(2):
            rlo = np.maximum(lo, s - 2.5 * cells)
            rhi = np.minimum(hi, s + 2.5 * cells)
            s, cells = _grid_min_slow(z1, rlo, rhi)
        if np.all(np.abs(s) < L - 2.0 * cells.max()):
            return _polish_slow(s, z1, step=float(cells.max()))
        L *= 2.0
    raise RuntimeError("slow-block argmin kept escaping the search box")


def lexsort_argmax_and_max(cfg, stream):
    """Reference for the sampler's kernel: each chunk of paths as one
    (m, 2n+1) matrix, permuted into increasing-|t| order with negative t
    first, so that np.argmax's first-maximum rule is the tie rule."""
    n = round(cfg.T / cfg.h)
    gen = stream.generator()
    t_grid = (np.arange(2 * n + 1) - n) * cfg.h
    perm = np.lexsort((t_grid, np.abs(t_grid)))
    t_perm, drift_perm = t_grid[perm], cfg.c2 * t_grid[perm] ** 2
    argmax, maximum = [], []
    for start in range(0, cfg.paths, 512):
        m = min(512, cfg.paths - start)
        obj = two_sided_values(gen, m, n, cfg.h)[:, perm] * math.sqrt(cfg.c1) + drift_perm
        idx = np.argmax(obj, axis=1)
        argmax.append(t_perm[idx])
        maximum.append(obj[np.arange(m), idx])
    return np.concatenate(argmax), np.concatenate(maximum)


@functools.lru_cache(maxsize=1)
def chernoff_law():
    """Chernoff's density and CDF, argmax_t [B(t) - t^2], on z in [-4, 4].

    The density is g(z) g(-z) / 2, where g has Fourier transform
    2^(1/3) / Ai(i 2^(-1/3) lam) (Groeneboom, PTRF 1989; Groeneboom &
    Wellner, JCGS 2001).  g is real, so it is the inverse transform over
    lam >= 0, by the trapezoid rule; |1/Ai| decays like exp(-lam^(3/2)/3),
    under 1e-22 at lam = 30.  The CDF is the cumulative Simpson integral of
    the density.  Halving either step moves the CDF by less than 1e-11.
    """
    lam = np.arange(0.0, 30.0 + 1e-9, 0.05)
    weights = np.full(lam.size, 0.05)
    weights[0] = 0.025
    ghat = 2.0 ** (1.0 / 3.0) / airy(1j * 2.0 ** (-1.0 / 3.0) * lam)[0]
    z = np.linspace(-4.0, 4.0, 4001)
    g = (np.exp(-1j * np.outer(z, lam)) @ (weights * ghat)).real / np.pi
    density = 0.5 * g * g[::-1]
    return z, density, cumulative_simpson(density, x=z, initial=0.0)


def ks_one_sample_chernoff(draws):
    """sup_x |ECDF(x) - F(x)| against Chernoff's CDF F."""
    z, _, cdf = chernoff_law()
    x = np.sort(draws)
    F = np.interp(x, z, cdf)
    i = np.arange(1, x.size + 1)
    return float(max(np.max(i / x.size - F), np.max(F - (i - 1) / x.size)))


def ks_null_quantile(q, n):
    """Asymptotic q-quantile of the one-sample KS statistic at n draws; for
    two samples of n1 and n2 draws, n = n1 n2 / (n1 + n2)."""
    return float(kstwobign.ppf(q)) / math.sqrt(n)


class TestChernoffArgmax:
    def test_strong_drift_pins_argmax_at_origin(self):
        cfg = ChernoffConfig(c1=1.0, c2=-1e6, T=1.0, h=1.0 / 4000, paths=2000)
        d = sample_chernoff_argmax(cfg, SeedStream(30, 0))
        assert np.mean(np.abs(d) <= 1.0 / 4000 + 1e-12) > 0.99

    def test_distribution_is_symmetric(self):
        d = sample_chernoff_argmax(ChernoffConfig(1.0, -1.0, paths=10_000), SeedStream(30, 1))
        assert abs(d.mean()) <= 3.0 * d.std() / 100.0

    def test_scaling_law_same_law_pair(self):
        # (1,-1) and (4,-2) have the same scale factor, so the laws coincide
        d1 = sample_chernoff_argmax(ChernoffConfig(1.0, -1.0, paths=10_000), SeedStream(30, 2))
        d2 = sample_chernoff_argmax(ChernoffConfig(4.0, -2.0, paths=10_000), SeedStream(30, 3))
        factor = (math.sqrt(1.0) / 1.0) ** (2.0 / 3.0)
        assert ks_two_sample(d1 * factor, d2) <= 0.03

    def test_scaling_law_nontrivial_factor(self):
        # argmax for (c1, c2) equals (sqrt(c1)/|c2|)^(2/3) times the unit law
        d1 = sample_chernoff_argmax(ChernoffConfig(1.0, -1.0, paths=10_000), SeedStream(30, 4))
        d3 = sample_chernoff_argmax(ChernoffConfig(1.0, -2.0, paths=10_000), SeedStream(30, 5))
        assert ks_two_sample(d3 * 2.0 ** (2.0 / 3.0), d1) <= 0.03

    def test_matches_exact_chernoff_cdf(self):
        # one-sample KS against the Airy-function law, for the unit
        # parameters and for the shorth population in units of its scale;
        # the bound is the null's 99.9th percentile plus one lattice mass
        # f(0) h/a of the default grid
        pop = shorth_population()
        tol = ks_null_quantile(0.999, 10_000) + 0.758 * 4.0 / 1000.0
        for k, (c1, c2) in enumerate(((1.0, -1.0), (pop.c1, pop.c2))):
            d = sample_chernoff_argmax(ChernoffConfig(c1, c2, paths=10_000), SeedStream(30, 10 + k))
            d /= chernoff_scale(c1, c2)
            assert ks_one_sample_chernoff(d) <= tol
            # the same statistic rejects a law 15% too wide
            assert ks_one_sample_chernoff(1.15 * d) > tol

    def test_variance_matches_chernoff(self):
        # Var = 0.26356 (Groeneboom & Wellner 2001), within 5 Monte Carlo
        # standard errors from the fourth central moment
        d = sample_chernoff_argmax(ChernoffConfig(1.0, -1.0, paths=10_000), SeedStream(30, 12))
        c = d - d.mean()
        var = float(np.mean(c**2))
        se = math.sqrt((np.mean(c**4) - var**2) / d.size)
        assert abs(var - 0.26356) <= 5.0 * se

    def test_exact_law_oracle(self):
        z, density, cdf = chernoff_law()
        dz = z[1] - z[0]
        assert abs(cdf[-1] - 1.0) < 1e-9
        assert abs(np.sum(z * density) * dz) < 1e-12
        assert abs(np.sum(z * z * density) * dz - 0.2635596) < 1e-6
        assert abs(density[2000] - 0.7583) < 1e-4

    @pytest.mark.parametrize(
        "c1, c2, T, h",
        [
            (1.0, -1.0, 4.0, 0.001),
            (shorth_population().c1, shorth_population().c2, 10.0, 0.0025),
            (4.0, -2.0, 4.0, 0.004),
            (2.0, -0.5, 8.0, 0.01),
            (1.0, -1e6, 1.0, 1.0 / 4000),
        ],
    )
    def test_kernel_matches_lexsort_reference(self, c1, c2, T, h):
        # against the 32-path compute block and the 512-path stream chunk:
        # one path, a partial block (31), a full block and one more (33), a
        # full chunk and a partial one (513, 600) and two chunks and a
        # partial one (1025); the last case pins every argmax at the origin
        for paths in (1, 31, 33, 513, 600, 1025):
            cfg = ChernoffConfig(c1, c2, T=T, h=h, paths=paths)
            t, s = _chernoff_argmax_and_max(cfg, SeedStream(34, 0))
            t_ref, s_ref = lexsort_argmax_and_max(cfg, SeedStream(34, 0))
            assert np.array_equal(t, t_ref)
            assert np.array_equal(s, s_ref)

    def test_kernel_memory_does_not_grow_with_the_stream_chunk(self):
        # 10000 default-grid paths: a (2, 512, 1000) chunk array and its
        # reduction peaked at 16 MiB; a (32, 1000) block and the outputs
        # stay under 2 MiB
        cfg = ChernoffConfig(1.0, -1.0, paths=10_000)
        tracemalloc.start()
        try:
            _chernoff_argmax_and_max(cfg, SeedStream(34, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_boundary_hits_raise(self):
        cfg = ChernoffConfig(c1=1.0, c2=-0.001, T=1.0, h=0.01, paths=500)
        with pytest.raises(BoundaryHitError, match="enlarge T"):
            sample_chernoff_argmax(cfg, SeedStream(30, 8))

    def test_drift_must_be_negative(self):
        with pytest.raises(ValueError):
            ChernoffConfig(c1=1.0, c2=0.5)

    def test_deterministic(self):
        cfg = ChernoffConfig(1.0, -1.0, paths=100)
        a = sample_chernoff_argmax(cfg, SeedStream(30, 9))
        b = sample_chernoff_argmax(cfg, SeedStream(30, 9))
        assert np.array_equal(a, b)

    def test_draws_unchanged_for_fixed_stream(self):
        # grid indices t/h recorded before the path loop was shared with the
        # maximum; 600 paths span two 512-path chunks
        h = 0.01
        d = sample_chernoff_argmax(ChernoffConfig(1.0, -1.0, T=2.0, h=h, paths=600),
                                   SeedStream(7, 0))
        k = np.rint(d / h).astype(int)
        assert np.array_equal(d, k * h)
        assert k[:10].tolist() == [-63, 43, 49, 9, 66, -63, -81, 19, 75, 55]
        assert k[510:520].tolist() == [-40, 75, 7, -51, -43, 13, 41, 51, 28, 52]
        assert k[-5:].tolist() == [76, -45, -54, -63, -13]
        assert int(k.sum()) == 854


class TestShorthRLimit:
    POP = shorth_population()

    def _cfg(self, paths=2000):
        return ChernoffConfig(c1=self.POP.c1, c2=self.POP.c2, paths=paths)

    def test_max_is_nonnegative_on_every_path(self):
        # t = 0 is on the grid and B(0) = 0, so the maximum is at least 0
        for cfg in (self._cfg(), ChernoffConfig(1.0, -1e6, T=1.0, h=1.0 / 4000, paths=500)):
            _, s = _chernoff_argmax_and_max(cfg, SeedStream(33, 0))
            assert np.all(s >= 0.0)

    def test_scaling_identity_path_by_path(self):
        # with a = (sqrt(c1)/|c2|)^(2/3) the default grid is the same in
        # units of a, and B(a u) = sqrt(a) B(u) path by path, so
        # argmax = a * argmax_unit and max = (c1^2/|c2|)^(1/3) * max_unit
        t1, s1 = _chernoff_argmax_and_max(ChernoffConfig(1.0, -1.0, paths=600), SeedStream(33, 2))
        for c1, c2 in ((self.POP.c1, self.POP.c2), (2.0, -0.5)):
            cfg = ChernoffConfig(c1, c2, paths=600)
            t, s = _chernoff_argmax_and_max(cfg, SeedStream(33, 2))
            a = (math.sqrt(c1) / abs(c2)) ** (2.0 / 3.0)
            assert np.allclose(s, (c1 * c1 / abs(c2)) ** (1.0 / 3.0) * s1, rtol=1e-9, atol=0.0)
            assert np.mean(np.isclose(t, a * t1, rtol=1e-9, atol=0.0)) > 0.99

    def test_draws_decompose_into_z_and_max(self):
        # -(Z + n^(-1/6) S)/c1 with S the grid maximum plus the shift: two
        # sample sizes on the same streams differ by exactly
        # (n2^(-1/6) - n1^(-1/6)) S / c1
        cfg = self._cfg(paths=600)
        z_stream, s_stream = SeedStream(33, 3), SeedStream(33, 4)
        d1 = sample_shorth_r_limit(cfg, 1000, z_stream, s_stream)
        d2 = sample_shorth_r_limit(cfg, 64000, z_stream, s_stream)
        _, s = _chernoff_argmax_and_max(cfg, s_stream)
        s = s + GRID_MAX_SHIFT * math.sqrt(cfg.c1 * cfg.h)
        gap = (64000 ** (-1.0 / 6.0) - 1000 ** (-1.0 / 6.0)) * s / cfg.c1
        assert np.allclose(d1 - d2, gap, rtol=0.0, atol=1e-12)

    def test_shifted_max_agrees_across_grids(self):
        # with the shift the maximum has one law at h = T/4000, T/1000 and
        # T/250 (two-sample KS under the null's 99.9th percentile); without
        # it the T/4000 and T/250 maxima differ beyond that percentile
        raw, shifted = {}, {}
        for steps, paths in ((4000, 5000), (1000, 10_000), (250, 10_000)):
            cfg = ChernoffConfig(1.0, -1.0, T=4.0, h=4.0 / steps, paths=paths)
            raw[steps] = _chernoff_argmax_and_max(cfg, SeedStream(33, 9 + steps))[1]
            shifted[steps] = raw[steps] + GRID_MAX_SHIFT * math.sqrt(cfg.h)
        tol = ks_null_quantile(0.999, 5000 * 10_000 / 15_000)
        assert ks_two_sample(shifted[4000], shifted[1000]) <= tol
        assert ks_two_sample(shifted[4000], shifted[250]) <= tol
        assert ks_two_sample(raw[4000], raw[250]) > tol

    def test_tends_to_first_order_law(self):
        cfg = self._cfg()
        sd0 = 0.5 / cfg.c1
        se = sd0 / math.sqrt(cfg.paths)
        z_stream, s_stream = SeedStream(33, 5), SeedStream(33, 6)
        small = sample_shorth_r_limit(cfg, 1000, z_stream, s_stream)
        huge = sample_shorth_r_limit(cfg, 10**18, z_stream, s_stream)
        # the location term is -E[S] n^(-1/6)/c1, about -0.48 at n = 1000
        assert small.mean() < -10.0 * se
        assert abs(huge.mean()) < 3.0 * se
        assert abs(huge.std() - sd0) < 0.05 * sd0
        assert huge.std() < small.std()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_shorth_r_limit(self._cfg(paths=10), 0, SeedStream(33, 7), SeedStream(33, 8))

    @pytest.mark.parametrize(
        "component, digest",
        [
            ("m", "50c7cd522e831e8814d5ad4c8028fb2d8b427d47692f1f5700f10c2ddbc8e373"),
            ("r", "52f128dd063e12b88e94a3e81b03ac4d6b9d6f8cd10675256cbc03732513f7fc"),
        ],
    )
    def test_reference_draws_are_pinned_bit_for_bit(self, component, digest):
        # sha256 of the float64 bytes of the reference draws the full-tier
        # shorth-m-law and shorth-r-law checks read at seed 1729
        draws = EXPERIMENTS["shorth"].laws[component]({}, 1729, 64000, 2000)
        assert draws.shape == (2000,) and draws.dtype == np.float64
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


class TestLassoLimit:
    def test_no_penalty_is_centered(self):
        d = sample_lasso_limits(0.0, 0.5, 1.0, SeedStream(31, 0), 100_000)
        assert abs(d.mean()) < 3.0 * math.sqrt(3.0 / 100_000)

    def test_moments_match_localized_criterion_oracle(self):
        # oracle: grid-minimize the localized criterion at n = 10^6 with the
        # exact square-root penalty term, then match moments
        n, C11, lam0, sigma = 1_000_000, 1.0 / 3.0, 2.0, 1.0
        gen = SeedStream(31, 1).generator()
        z = gen.normal(0.0, sigma * math.sqrt(C11), size=10_000)
        us = np.linspace(-15.0, 15.0, 6001)
        penalty = lam0 * math.sqrt(n) * (np.sqrt(np.abs(1.0 + us / math.sqrt(n))) - 1.0)
        minimizers = np.empty(z.size)
        for i, zi in enumerate(z):
            minimizers[i] = us[np.argmin(us * us * C11 - 2.0 * us * zi + penalty)]
        draws = sample_lasso_limits(lam0, 0.5, sigma, SeedStream(31, 2), 100_000)
        se_mean = draws.std() / math.sqrt(draws.size) + minimizers.std() / math.sqrt(z.size)
        assert abs(draws.mean() - minimizers.mean()) < 3.0 * se_mean
        assert abs(draws.mean() - (-lam0 / (4.0 * C11))) < 3.0 * se_mean
        rel_var = abs(draws.var() - minimizers.var()) / minimizers.var()
        assert rel_var < 0.05
        assert abs(draws.var() - sigma**2 / C11) / (sigma**2 / C11) < 0.05

    def test_curvature_is_the_design_variance(self):
        # C11 is the limit of (X'X/n)_11 for the runner's centered
        # Uniform[-1, 1] design columns, Var U = 1/3
        X = generate_lasso_design(200_000, 2, SeedStream(31, 3))
        assert abs(X[:, 0] @ X[:, 0] / len(X) - LASSO_C11) < 0.005


class TestKmeansScores:
    def test_linearization_gate_passes(self):
        worst = _linearization_gate(SeedStream(32, 0).child("gate"))
        assert worst <= 1e-2

    def test_gate_catches_wrong_scores(self, monkeypatch):
        import mixedrates.limits as L
        from mixedrates.acceptance import QUICK, check_oracle_linearization

        wrong = lambda pts: 0.5 * kmeans_scores(pts)  # noqa: E731
        monkeypatch.setattr(L, "kmeans_scores", wrong)
        assert L._linearization_gate(SeedStream(32, 1).child("gate")) > 1e-2
        # the check reports the failure instead of raising
        res = check_oracle_linearization(QUICK, 1729)
        assert res.measured["worst_relative_error"] > 1e-2
        assert not res.passed

    def test_exact_covariance_is_four_identity(self):
        assert np.array_equal(KMEANS_SIGMA, 4.0 * np.eye(4))
        assert not KMEANS_SIGMA.flags.writeable

    def test_covariance_matches_hand_moments(self):
        # Var of each score is 4: the spread scores give
        # 4 E (|x|-1)^2 = 4 (E x^2 - 2 E|x| + 1) = 4 under the double
        # exponential; the offset scores give 4 E y^2 = 4 with y = +/-1
        estimate = estimate_kmeans_cov(2_000_000, SeedStream(32, 2))
        exact = KMEANS_SIGMA
        assert np.max(np.abs(np.diag(estimate - exact))) < 0.03
        off = ~np.eye(4, dtype=bool)
        assert np.max(np.abs((estimate - exact)[off])) < 0.03

    def test_covariance_self_consistent_when_doubling(self):
        exact = KMEANS_SIGMA
        # 3 Monte Carlo standard errors of a variance-of-scores entry
        se = 3.0 * math.sqrt(128.0 / 1_000_000)
        for samples in (1_000_000, 4_000_000):
            estimate = estimate_kmeans_cov(samples, SeedStream(32, 3))
            assert np.max(np.abs(estimate - exact)) < 3.0 * se

    def test_scores_mean_zero(self):
        pts = kmeans_two_line_sample(1_000_000, SeedStream(32, 4))
        assert np.max(np.abs(kmeans_scores(pts).mean(axis=0))) < 0.01


class TestKmeansLimit:
    def test_closed_form_variances(self):
        # u = -sign(z_u) sqrt(2|z_u|) with z_u ~ N(0, 2) has E u^2 = 4/sqrt(pi);
        # delta_s = (u + v)/2 and delta_d = -(Z_dd + uv)/2 with Z_dd ~ N(0, 4)
        draws = sample_kmeans_limit(SeedStream(1729, 1000), 200_000)
        for column, var in ((0, 2.0 / math.sqrt(math.pi)), (2, 1.0 + 4.0 / math.pi)):
            x = draws[:, column] - draws[:, column].mean()
            m2, m4 = np.mean(x**2), np.mean(x**4)
            se_sd = math.sqrt((m4 - m2**2) / x.size) / (2.0 * math.sqrt(m2))
            assert abs(math.sqrt(m2) - math.sqrt(var)) < 4.0 * se_sd

    def test_zero_z1_gives_zero_slow_block_and_half_z2(self):
        s = slow_block_closed_form(np.zeros(2))
        assert s.tolist() == [0.0, 0.0]
        t = fast_block_closed_form(np.zeros(2), np.array([3.0, -1.0]))
        assert t.tolist() == [-1.5, 0.5]

    def test_no_small_step_improves_returned_minimizer(self):
        gen = SeedStream(33, 0).generator()
        for _ in range(25):
            z1 = gen.normal(0.0, 2.0, size=2)
            s = slow_block_closed_form(z1)
            base = slow_block_objective(s[0], s[1], z1)
            for idx in (0, 1):
                for sign in (1.0, -1.0):
                    probe = s.copy()
                    probe[idx] += sign * 1e-6
                    assert slow_block_objective(probe[0], probe[1], z1) >= base - 1e-12

    def test_fast_block_matches_numeric_quadratic_minimization(self):
        gen = SeedStream(33, 1).generator()
        for _ in range(100):
            s = gen.normal(0.0, 1.0, size=2)
            z2 = gen.normal(0.0, 2.0, size=2)
            closed = fast_block_closed_form(s, z2)

            def objective(t, s=s, z2=z2):
                dd, es = t
                return (
                    dd * dd
                    + es * es
                    + dd * z2[0]
                    + es * z2[1]
                    + s[0] ** 2 * dd
                    + 2.0 * s[0] * s[1] * es
                    - s[1] ** 2 * dd
                )

            def gradient(t, s=s, z2=z2):
                dd, es = t
                return np.array(
                    [
                        2.0 * dd + z2[0] + s[0] ** 2 - s[1] ** 2,
                        2.0 * es + z2[1] + 2.0 * s[0] * s[1],
                    ]
                )

            res = minimize(
                objective, x0=np.zeros(2), jac=gradient, method="BFGS",
                options={"gtol": 1e-12},
            )
            assert np.max(np.abs(closed - res.x)) <= 1e-8

    def test_slow_block_matches_separable_closed_form(self):
        # rotated 45 degrees the objective splits into |u|^3/6 + u*zu terms;
        # the grid solver knows nothing of that
        gen = SeedStream(33, 2).generator()
        for _ in range(40):
            z1 = gen.normal(0.0, 2.0, size=2)
            expected = grid_solve_slow_block(z1)
            assert np.allclose(slow_block_closed_form(z1), expected, rtol=0, atol=1e-6)

    def test_sign_symmetry(self):
        z1 = np.array([1.3, -0.7])
        s = slow_block_closed_form(z1)
        s_flip0 = slow_block_closed_form(np.array([-z1[0], z1[1]]))
        assert np.allclose(s_flip0, [-s[0], s[1]], rtol=0, atol=1e-15)
        s_flip1 = slow_block_closed_form(np.array([z1[0], -z1[1]]))
        assert np.allclose(s_flip1, [s[0], -s[1]], rtol=0, atol=1e-15)

    def test_draws_match_per_draw_grid_oracle(self):
        draws = sample_kmeans_limit(SeedStream(33, 5), 60)
        z = sample_gaussian_vector(KMEANS_SIGMA, SeedStream(33, 5), draws=60)
        for d, zi in zip(draws, z):
            s = grid_solve_slow_block(zi[:2])
            assert np.allclose(d[:2], s, rtol=0, atol=1e-6)
            assert np.allclose(d[2:], fast_block_closed_form(s, zi[2:]), rtol=0, atol=1e-6)

    def test_draws_shape_and_determinism(self):
        a = sample_kmeans_limit(SeedStream(33, 3), 50)
        b = sample_kmeans_limit(SeedStream(33, 3), 50)
        assert a.shape == (50, 4)
        assert np.array_equal(a, b)

    def test_draws_are_pinned_bit_for_bit(self):
        # sha256 of the float64 bytes of the draws the full-tier
        # kmeans-limit-laws check reads at seed 1729
        draws = sample_kmeans_limit(SeedStream(1729, 1000), 2000)
        assert draws.shape == (2000, 4) and draws.dtype == np.float64
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "3b5014a0734ea7f0549c051fb35eb5ec645a73ffae51bad8bb1234c20e34c905"
        )

    def test_empirical_criterion_diff_zero_at_base(self):
        pts = kmeans_two_line_sample(100, SeedStream(33, 4))
        assert empirical_criterion_diff(pts, (0.0, 0.0, 0.0, 0.0)) == 0.0
