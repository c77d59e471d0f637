import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from mixedrates import harness
from mixedrates.estimators import (
    DesignError,
    LassoConfig,
    fit_bridge_lasso,
    generate_lasso_design,
    lasso,
)
from mixedrates.harness import (
    EXPERIMENTS,
    LadderConfig,
    LadderRecord,
    compare_with_limit,
    fit_rate,
    ks_two_sample,
    records_to_csv_lines,
    run_cells,
    run_ladder,
    zero_fraction,
)


def synthetic_records(component, errors_by_n, zero_flags=None):
    recs = []
    for n, errs in errors_by_n.items():
        for r, e in enumerate(errs):
            z = bool(zero_flags and zero_flags.get(n, [False] * len(errs))[r])
            recs.append(
                LadderRecord("shorth", n, r, component, float(e), zero_flag=z)
            )
    return recs


class TestLadderConfig:
    def test_needs_increasing_ladder(self):
        with pytest.raises(ValueError):
            LadderConfig("shorth", (100, 100, 200, 400), 50, 0)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            LadderConfig("shorth", (100, 200, 400), 50, 0)

    def test_needs_fifty_replicates(self):
        with pytest.raises(ValueError):
            LadderConfig("shorth", (100, 200, 400, 800), 10, 0)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            LadderConfig("ridge", (100, 200, 400, 800), 50, 0)

    def test_lasso_defaults_merged(self):
        cfg = LadderConfig("lasso", (100, 200, 400, 800), 50, 0, {"lambda0": 3.0})
        assert cfg.params["lambda0"] == 3.0
        assert cfg.params["gamma"] == 0.5


class TestRunLadder:
    def test_byte_identical_reruns(self):
        cfg = LadderConfig("shorth", (100, 200, 400, 800), 50, 7)
        a = records_to_csv_lines(run_ladder(cfg))
        b = records_to_csv_lines(run_ladder(cfg))
        assert a == b

    def test_concurrent_matches_sequential(self):
        cfg = LadderConfig("shorth", (100, 200, 400, 800), 50, 7)
        seq = records_to_csv_lines(run_ladder(cfg, workers=1))
        par = records_to_csv_lines(run_ladder(cfg, workers=2))
        assert seq == par

    def test_record_accounting(self):
        cfg = LadderConfig("lasso", (60, 120, 240, 480), 50, 3)
        recs = run_ladder(cfg)
        assert len(recs) == 4 * 50 * 2
        assert [r.component for r in recs[:2]] == ["alpha1", "alpha2"]

    def test_canonical_order(self):
        cfg = LadderConfig("shorth", (100, 200, 400, 800), 50, 7)
        recs = run_ladder(cfg)
        keys = [(r.n, r.replicate) for r in recs]
        assert keys == sorted(keys)

    def test_no_penalty_rarely_zero(self):
        recs = run_cells("lasso", [200], 100, 5, {"lambda0": 0.0})
        p, _ = zero_fraction(recs, "alpha2")
        assert p < 0.05

    def test_kmeans_records_carry_choice(self):
        recs = run_cells("kmeans", [500], 50, 5)
        assert all(r.choice in ("cv", "ch") for r in recs)

    def test_shorth_records_match_fit_shorth_on_the_same_draw(self):
        from mixedrates.estimators import fit_shorth, shorth_population
        from mixedrates.harness import _replicate_stream

        # the runner sorts its draw in place and calls the sorted kernel
        pop = shorth_population()
        recs = run_cells("shorth", [101, 64000], 3, 11)
        cells = [(n, r) for n in (101, 64000) for r in range(3)]
        for (n, r), m, rr in zip(cells, recs[::2], recs[1::2], strict=True):
            data = _replicate_stream(11, "shorth", n, r, "data").generator().standard_normal(n)
            fit = fit_shorth(data)
            assert (m.n, m.replicate, m.component, rr.component) == (n, r, "m", "r")
            assert (m.error, rr.error) == (fit.m - pop.mu, fit.r - pop.rho)

    def test_design_mode_stream_sharing(self):
        from mixedrates.harness import _lasso_design_stream

        fresh = [_lasso_design_stream(1, 200, r, "fresh") for r in (0, 1)]
        fixed = [_lasso_design_stream(1, 200, r, "fixed") for r in (0, 1)]
        assert fresh[0] != fresh[1]  # a new design per replicate
        assert fixed[0] == fixed[1]  # one design per sample size
        assert fresh[0] == fixed[0]  # fixed mode pins the replicate-0 design
        with pytest.raises(ValueError, match="design_mode"):
            run_cells("lasso", [200], 50, 1, {"design_mode": "jittered"})

    @pytest.mark.parametrize("workers", [0, -4])
    def test_fewer_than_one_worker_rejected_before_any_replicate(self, monkeypatch, workers):
        # a replicate that ran would raise TypeError instead
        TestReplicateFailures._fail(monkeypatch, TypeError("ran"), set(range(50)))
        with pytest.raises(ValueError, match=f"must be >= 1, got {workers}"):
            run_cells("shorth", [100], 50, 5, workers=workers)

    def test_design_modes_give_different_records(self):
        fresh = run_cells("lasso", [120], 50, 9, {"design_mode": "fresh"})
        fixed = run_cells("lasso", [120], 50, 9, {"design_mode": "fixed"})
        assert fresh[0].error == fixed[0].error  # replicate 0 shares everything
        assert any(a.error != b.error for a, b in zip(fresh[2:], fixed[2:]))


class TestReplicateFailures:
    """An exception raised by any replicate ends the run."""

    @staticmethod
    def _fail(monkeypatch, exc, failing):
        """Make the shorth runner raise ``exc`` on the replicates ``failing``."""
        shorth = EXPERIMENTS["shorth"]

        def run(params, master_seed, n, replicates):
            if failing.intersection(replicates):
                raise exc
            return shorth.run_replicates(params, master_seed, n, replicates)

        monkeypatch.setitem(
            EXPERIMENTS, "shorth", dataclasses.replace(shorth, run_replicates=run)
        )

    def test_programming_error_aborts_run(self, monkeypatch):
        self._fail(monkeypatch, TypeError("unsupported operand"), {7})
        with pytest.raises(TypeError, match="unsupported operand"):
            run_cells("shorth", [100, 200], 100, 5, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_numerical_failure_ends_the_run(self, monkeypatch, workers):
        self._fail(monkeypatch, DesignError("hit the box"), {7})
        with pytest.raises(DesignError, match="hit the box"):
            run_cells("shorth", [100, 200], 50, 5, workers=workers)


def _lasso_records_one_instance(params, master_seed, n, r):
    """One lasso replicate fitted alone: its design by ``generate_lasso_design``,
    then ``LassoConfig`` and ``fit_bridge_lasso``; the reference for the
    runner's stacked blocks."""
    d = params["d"]
    beta = np.eye(d)[0]
    stream = harness._lasso_design_stream(master_seed, n, r, params["design_mode"])
    X = generate_lasso_design(n, d, stream)
    noise = harness._replicate_stream(master_seed, "lasso", n, r, "noise").generator()
    y = X @ beta + params["sigma"] * noise.standard_normal(n)
    cfg = LassoConfig(
        X, beta, gamma=params["gamma"], lambda0=params["lambda0"], sigma=params["sigma"]
    )
    fit = fit_bridge_lasso(y, cfg)
    return [
        LadderRecord("lasso", n, r, comp, float(fit.alpha_hat[j] - beta[j]), bool(flag))
        for j, (comp, flag) in enumerate(zip(("alpha1", "alpha2"), fit.zero_flags))
    ]


class TestReplicateBlocks:
    """``run_cells`` hands the runners blocks of replicates; no record depends
    on the blocks."""

    @pytest.mark.parametrize(
        "experiment, params, n_values",
        [
            ("shorth", {}, [100, 200]),
            ("kmeans", {}, [500, 1000]),
            ("lasso", {}, [300, 2000]),
            ("lasso", {"gamma": 1.0}, [300, 2000]),
            ("lasso", {"d": 3}, [300, 2000]),
            ("lasso", {"d": 3, "gamma": 1.0}, [300, 2000]),
            ("lasso", {"design_mode": "fixed"}, [300, 2000]),
        ],
        ids=[
            "shorth", "kmeans", "lasso", "lasso-gamma1", "lasso-d3", "lasso-d3-gamma1",
            "lasso-fixed",
        ],
    )
    def test_records_equal_those_of_blocks_of_one(self, experiment, params, n_values):
        # 70 replicates a rung: one block a rung at one worker (lasso cuts
        # it into 27, 27, 16 at n = 300 and 17 x 4 + 2 at n = 2000), blocks
        # of 4 and 2 at two workers
        exp = EXPERIMENTS[experiment]
        merged = exp.resolve(params)
        ones = [
            rec
            for n in n_values
            for r in range(70)
            for rec in exp.run_replicates(merged, 5, n, range(r, r + 1))
        ]
        for workers in (1, 2):
            assert repr(run_cells(experiment, n_values, 70, 5, params, workers)) == repr(ones)

    @pytest.mark.parametrize(
        "params", [{}, {"gamma": 1.0}, {"d": 3, "gamma": 1.0}, {"design_mode": "fixed"}]
    )
    def test_lasso_records_equal_one_instance_fits(self, params):
        merged = EXPERIMENTS["lasso"].resolve(params)
        recs = run_cells("lasso", [8, 40, 2000], 20, 11, params)
        alone = [
            rec
            for n in (8, 40, 2000)
            for r in range(20)
            for rec in _lasso_records_one_instance(merged, 11, n, r)
        ]
        assert repr(recs) == repr(alone)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejected_design_is_redrawn_as_generate_lasso_design_draws_it(
        self, monkeypatch, workers
    ):
        # at n = 6 a threshold of 0.05 on the smallest eigenvalue of X'X/n
        # rejects the first draw of 5 of these 50 replicates and none 4 times
        monkeypatch.setattr(lasso, "_MIN_EIGENVALUE", 0.05)
        rejected = 0
        for r in range(50):
            X = harness._lasso_design_stream(12, 6, r, "fresh").generator().uniform(
                -1.0, 1.0, size=(6, 2)
            )
            X -= X.mean(axis=0)
            rejected += np.linalg.eigvalsh(X.T @ X / 6)[0] <= 0.05
        assert rejected == 5
        merged = EXPERIMENTS["lasso"].resolve(None)
        alone = [rec for r in range(50) for rec in _lasso_records_one_instance(merged, 12, 6, r)]
        assert repr(run_cells("lasso", [6], 50, 12, workers=workers)) == repr(alone)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_four_rejected_draws_end_the_run(self, monkeypatch, workers):
        monkeypatch.setattr(lasso, "_MIN_EIGENVALUE", math.inf)
        with pytest.raises(DesignError, match="4 attempts"):
            run_cells("lasso", [60, 120], 50, 1, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_replicates_give_no_records(self, workers):
        assert run_cells("shorth", [100, 200], 0, 5, workers=workers) == []

    def test_lasso_rung_at_the_top_of_the_ladder_peaks_under_one_mib(self):
        # the runner fits n = 2000 in blocks of 4 replicates (0.41 MiB); the
        # whole rung as one block peaks at 7.7 MiB
        run_cells("lasso", [2000], 4, 1729)  # first calls allocate caches
        tracemalloc.start()
        try:
            run_cells("lasso", [2000], 125, 1729)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# sha256 of the records of small run_cells calls: (experiment, n_values,
# replicates, master_seed, params, eigenvalue floor of the lasso designs) ->
# digest.  The floors at n = 6 reject 5 (d = 2) and 4 (d = 3) first design
# draws of the 50 and redraw one of them twice.  The k-means rung at
# n = 16000 passes glibc's 128 KiB mmap threshold, and was pinned before the
# fit moved into a workspace; the others before the runners re-keyed one
# generator per block.
RECORD_DIGESTS = {
    "lasso": (
        ("lasso", [40, 250, 2000], 30, 1729, {}, None),
        "cf3946f4c9bb3615cc08dc99cfe0ef309a459254138ec7123d2ec21960873fb7",
    ),
    "lasso-gamma1": (
        ("lasso", [40, 250, 2000], 30, 1729, {"gamma": 1.0}, None),
        "afc4f2fc3c4c6a9b49048b653f4ac6c6c496c730d377f9903cb0688c37caf383",
    ),
    "lasso-d3": (
        ("lasso", [40, 250, 2000], 30, 1729, {"d": 3}, None),
        "5d05dea49d25cb5e5d7cbf13933c4ef90a58929e8092181ca4d5ad1f4c00be97",
    ),
    "lasso-d3-gamma1": (
        ("lasso", [40, 250, 2000], 30, 1729, {"d": 3, "gamma": 1.0}, None),
        "eeb3e6e1254469d6b58601fb2c7a7c3a192c91b18977d2f4cc70a3ad8d5a9450",
    ),
    "lasso-fixed": (
        ("lasso", [40, 250, 2000], 30, 1729, {"design_mode": "fixed"}, None),
        "9ef468d6eee23e83c2754f0d608b9db9627825db4ec49285a95cdd01681c5eb0",
    ),
    "lasso-retries": (
        ("lasso", [6], 50, 12, {}, 0.05),
        "3d072083b3727a7eee6b3f4a695257457d0f4637e3bee44b3a317f5071b2306a",
    ),
    "lasso-d3-retries": (
        ("lasso", [6], 50, 12, {"d": 3}, 0.01),
        "b51a1c1f869c180e6a41701ab3a8a737ff98f3978bb4182137663bdf858565fa",
    ),
    "shorth": (
        ("shorth", [64000], 20, 1729, {}, None),
        "f017606c063c6acef3bd10d174dab3b41ccd071b471ae9c996524386af73f12f",
    ),
    "kmeans": (
        ("kmeans", [16000], 10, 1729, {}, None),
        "9a50049cbe2d79c843dd136a8859ee56b115e2a179761f55f4666e1f847a24d4",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", RECORD_DIGESTS)
def test_records_are_pinned(monkeypatch, case, workers):
    (experiment, n_values, replicates, seed, params, floor), digest = RECORD_DIGESTS[case]
    if floor is not None:
        monkeypatch.setattr(lasso, "_MIN_EIGENVALUE", floor)
    recs = run_cells(experiment, n_values, replicates, seed, params, workers=workers)
    text = "\n".join(records_to_csv_lines(recs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCompareWithLimit:
    def test_rescales_by_the_theoretical_exponent_and_drops_failures(self, monkeypatch):
        calls = []

        def law(params, master_seed, n, draws):
            calls.append((params["lambda0"], params["sigma"], master_seed, n, draws))
            return np.zeros(draws)

        monkeypatch.setitem(EXPERIMENTS["lasso"].laws, "alpha1", law)
        recs = [LadderRecord("lasso", 400, r, "alpha1", 0.01 * r) for r in range(5)]
        recs += [
            LadderRecord("lasso", 100, 0, "alpha1", 1.0),  # another rung
            LadderRecord("lasso", 400, 0, "alpha2", 1.0),  # another component
        ]
        res = compare_with_limit("lasso", recs, "alpha1", 400, 9, 6, {"lambda0": 3.0})
        assert EXPERIMENTS["lasso"].rates["alpha1"] == Fraction(1, 2)  # 400^(1/2) = 20
        assert res.rescaled.tolist() == [20.0 * rec.error for rec in recs[:5]]
        assert calls == [(3.0, 1.0, 9, 400, 6)]  # defaults fill in sigma
        assert res.draws.tolist() == [0.0] * 6
        assert res.ks == ks_two_sample(res.rescaled, res.draws)

    def test_every_component_with_a_law_has_a_rate(self):
        for exp in EXPERIMENTS.values():
            assert set(exp.laws) <= set(exp.rates)


class TestFitRate:
    def test_pure_power_law_recovered_exactly(self):
        errs = {n: [5.0 * n**-0.5] * 50 for n in (100, 200, 400, 800)}
        est = fit_rate(synthetic_records("m", errs), "m")
        assert est.slope == pytest.approx(-0.5, abs=1e-12)
        assert est.slope_se == pytest.approx(0.0, abs=1e-9)

    def test_constant_errors_give_zero_slope(self):
        errs = {n: [3.0] * 50 for n in (100, 200, 400, 800)}
        assert fit_rate(synthetic_records("m", errs), "m").slope == 0.0

    def test_noisy_cube_root_slope_in_band(self):
        gen = np.random.Generator(np.random.Philox(key=[40, 0]))
        errs = {
            n: n ** (-1.0 / 3.0) * (1.0 + gen.uniform(-0.05, 0.05, 200))
            for n in (100, 200, 400, 800)
        }
        est = fit_rate(synthetic_records("m", errs), "m")
        assert -0.36 <= est.slope <= -0.31

    def test_scale_invariance(self):
        errs = {n: list(np.abs(np.sin(np.arange(60) + n))) for n in (100, 200, 400, 800)}
        a = fit_rate(synthetic_records("m", errs), "m")
        errs10 = {n: [10.0 * e for e in v] for n, v in errs.items()}
        b = fit_rate(synthetic_records("m", errs10), "m")
        assert b.slope == pytest.approx(a.slope, abs=1e-12)
        assert b.intercept == pytest.approx(a.intercept + math.log(10.0), abs=1e-9)

    def test_zero_summary_raises(self):
        errs = {n: [0.0] * 50 for n in (100, 200, 400, 800)}
        with pytest.raises(ValueError, match="zero"):
            fit_rate(synthetic_records("m", errs), "m")

    def test_exclude_zero_flagged(self):
        errs = {n: [0.0] * 25 + [n**-0.5] * 25 for n in (100, 200, 400, 800)}
        flags = {n: [True] * 25 + [False] * 25 for n in (100, 200, 400, 800)}
        est = fit_rate(
            synthetic_records("m", errs, flags), "m", exclude_zero_flagged=True
        )
        assert est.slope == pytest.approx(-0.5, abs=1e-12)

    def test_needs_enough_data(self):
        errs = {n: [1.0] * 10 for n in (100, 200, 400, 800)}
        with pytest.raises(ValueError):
            fit_rate(synthetic_records("m", errs), "m")

    def test_rmse_summary(self):
        errs = {n: [n**-0.25, -(n**-0.25)] * 25 for n in (100, 200, 400, 800)}
        est = fit_rate(synthetic_records("m", errs), "m", summary="rmse")
        assert est.slope == pytest.approx(-0.25, abs=1e-12)

    def test_summary_kinds_are_the_keys_of_one_mapping(self, monkeypatch):
        errs = {n: [n**-0.25, -(n**-0.25)] * 25 for n in (100, 200, 400, 800)}
        with pytest.raises(ValueError, match="must be 'median-abs' or 'rmse', got 'max'"):
            fit_rate(synthetic_records("m", errs), "m", summary="max")
        monkeypatch.setitem(harness.ERROR_SUMMARIES, "max", lambda e: float(np.max(e)))
        est = fit_rate(synthetic_records("m", errs), "m", summary="max")
        assert est.slope == pytest.approx(-0.25, abs=1e-12)
        cfg = LadderConfig("shorth", (100, 200, 400, 800), 50, 1, summary="max")
        assert cfg.summary == "max"


class TestKsTwoSample:
    def test_identical_samples(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([-3.0, -2.0], [1.0, 2.0]) == 1.0

    def test_interleaved_pair(self):
        assert ks_two_sample([1.0, 2.0], [1.5]) == 0.5

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=80),
        st.lists(st.floats(-100, 100), min_size=1, max_size=80),
    )
    def test_matches_scipy(self, a, b):
        ours = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    @given(
        st.lists(st.integers(-10_000_000, 10_000_000), min_size=2, max_size=50),
        st.lists(st.integers(-10_000_000, 10_000_000), min_size=2, max_size=50),
    )
    def test_invariant_under_monotone_transform(self, a, b):
        # integer grid keeps exp strictly increasing in floating point too
        a = np.asarray(a, dtype=float) / 1e6
        b = np.asarray(b, dtype=float) / 1e6
        before = ks_two_sample(a, b)
        after = ks_two_sample(np.exp(a / 10.0), np.exp(b / 10.0))
        assert after == pytest.approx(before, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestZeroFraction:
    def test_all_flags(self):
        recs = [LadderRecord("lasso", 100, r, "alpha2", 0.0, zero_flag=True) for r in range(60)]
        assert zero_fraction(recs, "alpha2") == (1.0, 0.0)

    def test_no_flags(self):
        recs = [LadderRecord("lasso", 100, r, "alpha2", 0.1) for r in range(60)]
        assert zero_fraction(recs, "alpha2") == (0.0, 0.0)

    def test_binomial_se(self):
        recs = [
            LadderRecord("lasso", 100, r, "alpha2", 0.0, zero_flag=(r < 60))
            for r in range(100)
        ]
        p, se = zero_fraction(recs, "alpha2")
        assert p == 0.6
        assert se == pytest.approx(math.sqrt(0.6 * 0.4 / 100), abs=1e-12)

    def test_needs_fifty_records(self):
        with pytest.raises(ValueError):
            zero_fraction([LadderRecord("lasso", 100, 0, "alpha2", 0.0)], "alpha2")


def test_theoretical_rates_come_from_rate_calculus():
    from fractions import Fraction as F

    assert EXPERIMENTS["lasso"].rates == {"alpha1": F(1, 2), "alpha2": F(1, 2)}
    assert EXPERIMENTS["shorth"].rates == {"m": F(1, 3), "r": F(1, 2)}
    assert EXPERIMENTS["kmeans"].rates == {
        "delta_s": F(1, 4),
        "eps_d": F(1, 4),
        "delta_d": F(1, 2),
        "eps_s": F(1, 2),
    }


def test_csv_lines_round_trip_precision():
    rec = LadderRecord("shorth", 100, 0, "m", 0.1234567890123456789)
    line = records_to_csv_lines([rec])[1]
    assert float(line.split(",")[4]) == rec.error
