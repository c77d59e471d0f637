import math

import numpy as np
import pytest

from mixedrates.distributions import SeedStream, derive_stream_index, sample_gaussian_vector
from mixedrates.limits import ChernoffConfig, kmeans_two_line_sample

S = SeedStream(20240611, 0)


class TestSeedStream:
    def test_same_stream_replays(self):
        a = kmeans_two_line_sample(1000, S)
        b = kmeans_two_line_sample(1000, S)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = kmeans_two_line_sample(1000, SeedStream(1, 0))
        b = kmeans_two_line_sample(1000, SeedStream(1, 1))
        assert not np.array_equal(a, b)

    def test_stream_independence_correlation(self):
        n = 100_000
        a = kmeans_two_line_sample(n, SeedStream(9, 4))[:, 0]
        b = kmeans_two_line_sample(n, SeedStream(9, 5))[:, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.015

    def test_derive_stream_index_stable(self):
        # regression pin: must never change across sessions or platforms
        assert derive_stream_index("lasso", 250, 0, "noise") == derive_stream_index(
            "lasso", 250, 0, "noise"
        )
        assert derive_stream_index("a", 1) != derive_stream_index("a", 2)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            SeedStream(1.5, 0)

    @pytest.mark.xfail(
        strict=True,
        reason="known fault: the Philox key is built from a Python list, which numpy "
        "turns into float64 when it holds an integer >= 2^63, dropping the low 11 bits; "
        "mending it moves every record drawn from such a stream",
    )
    def test_philox_key_keeps_a_high_stream_index_exactly(self):
        stream = SeedStream(1, 0xEBC3A32FB68DA9A3)
        for gen in (stream.generator(), stream.rekey(SeedStream(2, 3).generator())):
            key = gen.bit_generator.state["state"]["key"]
            assert [int(k) for k in key] == [1, 0xEBC3A32FB68DA9A3]


def _draws(gen: np.random.Generator) -> list:
    """One of each draw the replicate runners and samplers make, in turn."""
    normals, uniforms = np.empty(7), np.empty((5, 3))
    gen.standard_normal(out=normals)
    gen.random(out=uniforms)
    return [
        normals,
        uniforms,
        gen.integers(0, 2, size=9),
        gen.standard_exponential(size=9, method="inv"),
        gen.normal(-1.5, 1.7, size=9),
    ]


class TestRekey:
    @pytest.mark.parametrize("index", [0, 5, 2**63 - 1, 2**63, 0xEBC3A32FB68DA9A3])
    def test_rekeyed_generator_replays_a_fresh_one(self, index):
        stream = SeedStream(1729, index)
        gen = SeedStream(7, 8).generator()
        # leave it mid-state: a partly used Philox buffer, and a spare 32-bit
        # half from a 32-bit integers draw
        gen.random(2)
        gen.integers(0, 2**31, size=1, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert gen.bit_generator.state["buffer_pos"] == 3
        rekeyed = stream.rekey(gen)
        assert rekeyed is gen
        fresh = stream.generator()
        assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
        for got, want in zip(_draws(gen), _draws(fresh)):
            assert got.tobytes() == want.tobytes()
        # and once more, after the draws above moved it on
        again = [d.tobytes() for d in _draws(stream.rekey(gen))]
        assert again == [d.tobytes() for d in _draws(stream.generator())]


class TestLaplace:
    """The y coordinate of the two-line law, along each line (column 0):
    density exp(-|y|)/2."""

    def test_moments_at_scale(self):
        y = kmeans_two_line_sample(1_000_000, SeedStream(3, 1))[:, 0]
        assert abs(y.mean()) < 0.01
        assert abs(y.var() - 2.0) < 0.05

    def test_median_absolute_cdf_value(self):
        # P(|Y| <= ln 2) = 1 - exp(-ln 2) = 1/2
        y = kmeans_two_line_sample(1_000_000, SeedStream(3, 2))[:, 0]
        assert abs(np.mean(np.abs(y) <= math.log(2.0)) - 0.5) < 0.01

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            kmeans_two_line_sample(0, S)


class TestTwoLine:
    def test_support_is_exactly_plus_minus_one(self):
        pts = kmeans_two_line_sample(10_000, SeedStream(4, 0))
        assert set(np.unique(pts[:, 1])) == {-1.0, 1.0}

    def test_line_masses(self):
        pts = kmeans_two_line_sample(1_000_000, SeedStream(4, 1))
        assert abs(np.mean(pts[:, 1] == 1.0) - 0.5) < 0.005

    def test_both_center_configurations_tie(self):
        # with y along the lines x = +/-1: mean squared distance to
        # {(-1,0),(1,0)} is E Y^2 = 2; to {(0,-1),(0,1)} it is
        # 1 + E(|Y|-1)^2 = 2 as well
        pts = kmeans_two_line_sample(1_000_000, SeedStream(4, 2))
        w_on_lines = np.mean(pts[:, 0] ** 2)
        w_between = 1.0 + np.mean((np.abs(pts[:, 0]) - 1.0) ** 2)
        assert abs(w_on_lines - 2.0) < 0.05
        assert abs(w_between - 2.0) < 0.05

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 16001])
    def test_layouts_match_the_column_stack_construction(self, n):
        # the construction the sampler replaced, kept as the reference: the
        # draws and their order are unchanged, with y in column 0
        stream = SeedStream(4, n)
        gen = stream.generator()
        x = (gen.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
        signs = gen.integers(0, 2, size=n) * 2 - 1
        y = signs * gen.standard_exponential(size=n, method="inv")
        want = np.column_stack([y, x])
        assert kmeans_two_line_sample(n, stream).tobytes() == want.tobytes()


class TestGaussianVector:
    def test_identity_cov_moments(self):
        z = sample_gaussian_vector(np.eye(3), SeedStream(5, 1), draws=100_000)
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.03)
        c = np.corrcoef(z.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.02)

    def test_general_cov_within_standard_errors(self):
        cov = np.array([[2.0, -0.8], [-0.8, 0.5]])
        n = 100_000
        z = sample_gaussian_vector(cov, SeedStream(5, 2), draws=n)
        emp = z.T @ z / n
        # se of a Gaussian covariance estimate: sqrt((C_ii C_jj + C_ij^2)/n)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(emp[i, j] - cov[i, j]) < 5 * se


def two_sided_values(gen: np.random.Generator, paths: int, n: int, h: float) -> np.ndarray:
    """(paths, 2n+1) matrix of B on the grid; column n is the pinned origin.

    Increment draw order is fixed (positive side first, then negative) so a
    given stream always reproduces the same paths.
    """
    sd = np.sqrt(h)
    pos = np.cumsum(gen.standard_normal((paths, n)) * sd, axis=1)
    neg = np.cumsum(gen.standard_normal((paths, n)) * sd, axis=1)
    out = np.empty((paths, 2 * n + 1), dtype=np.float64)
    out[:, n] = 0.0
    out[:, n + 1 :] = pos
    out[:, :n] = neg[:, ::-1]
    return out


class TestBrownianPath:
    """The two-sided grid paths that the Chernoff kernel's tests use as
    their reference."""

    def test_origin_pinned_exactly(self):
        cfg = ChernoffConfig(1.0, -1.0, T=2.0, h=0.25)
        n = round(cfg.T / cfg.h)
        assert n == 8
        V = two_sided_values(SeedStream(6, 0).generator(), 3, n, 0.25)
        assert V.shape == (3, 17)
        assert np.all(V[:, n] == 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="need 0 < h <= T"):
            ChernoffConfig(1.0, -1.0, T=0.0, h=0.1)
        with pytest.raises(ValueError, match="need 0 < h <= T"):
            ChernoffConfig(1.0, -1.0, T=1.0, h=0.0)
        with pytest.raises(ValueError, match="not integral"):
            ChernoffConfig(1.0, -1.0, T=1.0, h=0.3)

    def test_endpoint_variances(self):
        V = two_sided_values(SeedStream(6, 1).generator(), 10_000, 100, 0.01)
        assert abs(V[:, -1].var() - 1.0) < 0.05  # B(1)
        assert abs(V[:, 0].var() - 1.0) < 0.05  # B(-1)

    def test_covariance_structure(self):
        # Cov(B(s), B(t)) = min(s, t) on one side and 0 across the origin
        V = two_sided_values(SeedStream(6, 2).generator(), 10_000, 100, 0.01)
        b_05, b_10, b_m05 = V[:, 150], V[:, 200], V[:, 50]
        assert abs(np.mean(b_05 * b_10) - 0.5) < 0.05
        assert abs(np.mean(b_m05 * b_10)) < 0.05

    def test_replay(self):
        a = two_sided_values(SeedStream(6, 3).generator(), 2, 100, 0.01)
        b = two_sided_values(SeedStream(6, 3).generator(), 2, 100, 0.01)
        assert np.array_equal(a, b)
