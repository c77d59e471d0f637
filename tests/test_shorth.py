import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from mixedrates.distributions import SeedStream
from mixedrates.estimators import fit_shorth, shorth_population


def brute_force_shorth(x):
    """All-pairs oracle: every interval with endpoints at two data points
    containing at least ceil(n/2) points."""
    x = np.asarray(x, dtype=float)
    n = x.size
    k = (n + 1) // 2
    best = None
    for a in x:
        for b in x:
            if b < a:
                continue
            count = int(np.sum((x >= a) & (x <= b)))
            if count >= k:
                width = b - a
                if best is None or width < best[0]:
                    best = (width, count, a, b)
    return best


class TestFitShorth:
    def test_small_example_leftmost_window(self):
        fit = fit_shorth(np.array([0.0, 1.0, 3.0, 10.0]))
        assert (fit.m, fit.r) == (0.5, 0.5)

    def test_tie_breaks_to_leftmost(self):
        fit = fit_shorth(np.array([0.0, 1.0, 2.0]))
        assert (fit.m, fit.r) == (0.5, 0.5)

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            fit_shorth(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        x = np.array([0.0, 1.0, 3.0, 10.0, 2.0])
        x[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_shorth(x)

    def test_leaves_its_input_unchanged(self):
        x = SeedStream(4, 0).generator().standard_normal(1001)
        before = x.copy()
        fit_shorth(x)
        assert x.tobytes() == before.tobytes()

    def test_interval_covers_half(self):
        x = SeedStream(1, 0).generator().standard_normal(501)
        fit = fit_shorth(x)
        k = (x.size + 1) // 2
        inside = np.sum((x >= fit.m - fit.r) & (x <= fit.m + fit.r))
        assert inside >= k

    def test_matches_brute_force_on_random_instances(self):
        gen = SeedStream(2, 0).generator()
        for trial in range(200):
            n = int(gen.integers(5, 60))
            x = gen.standard_normal(n)
            fit = fit_shorth(x)
            width, count, a, b = brute_force_shorth(x)
            assert 2 * fit.r == pytest.approx(width, abs=1e-12)
            inside = int(np.sum((x >= fit.m - fit.r) & (x <= fit.m + fit.r)))
            assert inside == count

    def test_window_is_minimal_by_full_rescan(self):
        x = SeedStream(3, 0).generator().standard_normal(400)
        xs = np.sort(x)
        k = (x.size + 1) // 2
        fit = fit_shorth(x)
        widths = xs[k - 1 :] - xs[: x.size - k + 1]
        assert 2 * fit.r <= widths.min() + 1e-15

    # on the dyadic lattice 2^-20 Z, x + c is exact for every drawn x and c
    @given(
        st.lists(st.integers(-50 * 2**20, 50 * 2**20), min_size=2, max_size=40),
        st.integers(-5 * 2**20, 5 * 2**20),
    )
    def test_translation_equivariance(self, xs, c):
        x = np.asarray(xs) * 2.0**-20
        c = c * 2.0**-20
        f0 = fit_shorth(x)
        f1 = fit_shorth(x + c)
        assert f1.m == pytest.approx(f0.m + c, abs=1e-9)
        assert f1.r == pytest.approx(f0.r, abs=1e-9)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=40),
        st.floats(0.01, 10),
    )
    def test_scale_equivariance(self, xs, c):
        x = np.asarray(xs)
        f0 = fit_shorth(x)
        f1 = fit_shorth(c * x)
        assert f1.m == pytest.approx(c * f0.m, rel=1e-9, abs=1e-9)
        assert f1.r == pytest.approx(c * f0.r, rel=1e-9, abs=1e-9)


class TestShorthPopulation:
    def test_center_is_zero_by_symmetry(self):
        assert shorth_population().mu == 0.0

    def test_rho_is_upper_quartile(self):
        # independent oracle: scipy's inverse normal CDF
        assert shorth_population().rho == pytest.approx(ndtri(0.75), abs=1e-11)

    def test_computed_once(self):
        assert shorth_population() is shorth_population()

    def test_coefficients_from_density_calculus(self):
        pop = shorth_population()
        rho = ndtri(0.75)
        phi = np.exp(-rho * rho / 2) / np.sqrt(2 * np.pi)
        assert pop.c1 == pytest.approx(2 * phi, abs=1e-11)  # ~ 0.635553
        assert pop.c2 == pytest.approx(-rho * phi, abs=1e-11)  # ~ -0.214337
        assert pop.c1 > 0 > pop.c2
