"""Monte Carlo experiment runner: the experiment registry, sample-size
ladders, replicate fan-out, log-log rate fits, exact-zero fractions and
two-sample CDF distances.

``EXPERIMENTS`` holds one :class:`Experiment` record per experiment: its
components, replicate runner, rescale exponents, parameter defaults and
checks, the limit law of each component and extra summaries.  The CLI and
the acceptance checks read that record, so adding an experiment means adding
one record here.  ``compare_with_limit`` is the one path from errors to a
KS distance against a limit law: ``simulate`` and ``verify`` both take it.

Every replicate draws from a stream derived solely from
(master_seed, experiment, n, replicate), so concurrent and sequential runs
produce byte-identical record sets once canonically sorted.  ``run_cells``
hands each runner a block of replicates of one rung, a ``range``: the whole
rung in one process, about 16 blocks per worker in a pool.  A runner may
compute a block at once, as the lasso runner does, but its records must not
depend on how the rung was cut.  A replicate that raises ends the run: every
record a run returns has a finite error.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import SeedStream, derive_stream_index
from .estimators import (
    KmeansWorkspace,
    check_bridge_params,
    fit_bridge_lasso_block,
    fit_kmeans2_global,
    fit_shorth_sorted,
    generate_lasso_designs,
    shorth_population,
)
from .limits import (
    ChernoffConfig,
    kmeans_two_line_sample,
    sample_chernoff_argmax,
    sample_kmeans_limit,
    sample_lasso_limits,
    sample_shorth_r_limit,
)
from .rates import CoarseRateSpec, RateSpec, coarse_rates, derive_rates

__all__ = [
    "EXPERIMENTS",
    "ERROR_SUMMARIES",
    "Experiment",
    "LadderConfig",
    "LadderRecord",
    "RateEstimate",
    "run_ladder",
    "run_cells",
    "compare_with_limit",
    "fit_rate",
    "ks_two_sample",
    "lasso_alpha1_draws",
    "zero_fraction",
    "records_to_csv_lines",
]


@dataclass(frozen=True)
class LadderRecord:
    """Error of one estimated component in one replicate."""

    experiment: str
    n: int
    replicate: int
    component: str
    error: float
    zero_flag: bool = False
    choice: str = ""
    tie_flag: bool = False
    diag_flags: str = ""


@dataclass(frozen=True)
class RateEstimate:
    """Log-log slope of an error summary against the sample size, with the
    (n, summary) points it was fitted to."""

    component: str
    slope: float
    slope_se: float
    intercept: float
    points: tuple[tuple[int, float], ...]


def _replicate_stream(master_seed: int, experiment: str, n: int, r: int, role: str) -> SeedStream:
    idx = derive_stream_index(experiment, n, r, role)
    return SeedStream(master_seed, idx)


def _lasso_design_stream(master_seed: int, n: int, r: int, mode: str) -> SeedStream:
    """Fresh mode draws a design per replicate; fixed mode shares one design
    per sample size (replicate index pinned to 0 in the derivation)."""
    return _replicate_stream(master_seed, "lasso", n, 0 if mode == "fixed" else r, "design")


# Rows (replicates x n) of one block of lasso replicates: with d <= 3 its
# arrays stay near 200 kB at every n.  It bounds memory and changes no record.
_LASSO_BLOCK_ROWS = 8192


def _run_lasso_replicates(
    params, master_seed: int, n: int, replicates: range
) -> list[LadderRecord]:
    """The replicates in blocks of ``_LASSO_BLOCK_ROWS // n``: each replicate
    draws its design and noise from its own streams, each through a
    generator re-keyed to it, and each block is fitted as one stack
    (``fit_bridge_lasso_block``)."""
    d = int(params["d"])
    beta = np.zeros(d)
    beta[0] = 1.0
    lam, gamma = float(params["lambda0"]) * math.sqrt(n), float(params["gamma"])
    step = max(1, _LASSO_BLOCK_ROWS // n)
    gen = SeedStream(master_seed).generator()  # re-keyed to each noise stream
    records = []
    for start in range(0, len(replicates), step):
        block = replicates[start : start + step]
        design_streams = [
            _lasso_design_stream(master_seed, n, r, params["design_mode"]) for r in block
        ]
        X, xtx = generate_lasso_designs(n, d, design_streams)
        # y = X beta + sigma noise, formed in place in the noise draws
        y = np.empty((len(block), n))
        for row, r in zip(y, block):
            stream = _replicate_stream(master_seed, "lasso", n, r, "noise")
            stream.rekey(gen).standard_normal(out=row)
        y *= params["sigma"]
        y += X @ beta
        for r, fit in zip(block, fit_bridge_lasso_block(X, y, xtx, lam, gamma)):
            records += [
                LadderRecord(
                    experiment="lasso",
                    n=n,
                    replicate=r,
                    component=comp,
                    error=float(fit.alpha_hat[j] - beta[j]),
                    zero_flag=bool(fit.zero_flags[j]),
                )
                for j, comp in enumerate(("alpha1", "alpha2"))
            ]
    return records


def _run_shorth_replicates(
    params, master_seed: int, n: int, replicates: range
) -> list[LadderRecord]:
    records = []
    gen = SeedStream(master_seed).generator()  # re-keyed to each replicate's stream
    for r in replicates:
        stream = _replicate_stream(master_seed, "shorth", n, r, "data")
        data = stream.rekey(gen).standard_normal(n)
        # the draw is ours: sorting it in place spares fit_shorth's sorted
        # copy, whose fresh pages fault in on every large-n replicate
        data.sort()
        fit = fit_shorth_sorted(data)
        pop = shorth_population()
        errors = {"m": fit.m - pop.mu, "r": fit.r - pop.rho}
        records += [
            LadderRecord(experiment="shorth", n=n, replicate=r, component=c, error=e)
            for c, e in errors.items()
        ]
    return records


def _run_kmeans_replicates(
    params, master_seed: int, n: int, replicates: range
) -> list[LadderRecord]:
    # one workspace for the block's fits, freed when the block ends
    workspace = KmeansWorkspace()
    records = []
    for r in replicates:
        pts = kmeans_two_line_sample(n, _replicate_stream(master_seed, "kmeans", n, r, "data"))
        res = fit_kmeans2_global(pts, workspace=workspace)
        cv = res.coords_cv
        diags = []
        if cv.empty_repair:
            diags.append("empty_repair")
        if cv.left_neighborhood:
            diags.append("left_neighborhood")
        errors = {
            "delta_s": float(cv.delta_s),
            "eps_d": float(cv.eps_d),
            "delta_d": float(cv.delta_d),
            "eps_s": float(cv.eps_s),
        }
        records += [
            LadderRecord(
                experiment="kmeans",
                n=n,
                replicate=r,
                component=c,
                error=e,
                choice=res.choice,
                tie_flag=res.tie,
                diag_flags=";".join(diags),
            )
            for c, e in errors.items()
        ]
    return records


def _check_lasso_params(params: Mapping[str, object]) -> None:
    if params["design_mode"] not in ("fresh", "fixed"):
        raise ValueError(
            f"design_mode must be 'fresh' or 'fixed', got {params['design_mode']!r}"
        )
    if params["d"] not in (2, 3):
        # records hold alpha1 and alpha2, and the solver's grid caps d at 3
        raise ValueError(f"lasso d must be 2 or 3, got {params['d']!r}")
    check_bridge_params(params["gamma"], params["lambda0"], params["sigma"])


def lasso_alpha1_draws(params, stream: SeedStream, draws: int) -> np.ndarray:
    """``draws`` draws of the alpha1 limit law at the lasso ``params``, from
    ``stream``: the registry law and ``limit --law lasso-first`` both draw
    through here."""
    return sample_lasso_limits(params["lambda0"], params["gamma"], params["sigma"], stream, draws)


def _lasso_alpha1_law(params, master_seed: int, n: int, draws: int) -> np.ndarray:
    return lasso_alpha1_draws(params, SeedStream(master_seed, 12345), draws)


def _shorth_chernoff(draws: int) -> ChernoffConfig:
    pop = shorth_population()
    return ChernoffConfig(c1=pop.c1, c2=pop.c2, paths=draws)


def _shorth_m_law(params, master_seed: int, n: int, draws: int) -> np.ndarray:
    return sample_chernoff_argmax(_shorth_chernoff(draws), SeedStream(master_seed, 778))


def _shorth_r_law(params, master_seed: int, n: int, draws: int) -> np.ndarray:
    # second order: at desk scale the n^(-1/6) S term is not negligible
    return sample_shorth_r_limit(
        _shorth_chernoff(draws), n, SeedStream(master_seed, 780), SeedStream(master_seed, 781)
    )


def _kmeans_law(params, master_seed: int, n: int, draws: int, column: int) -> np.ndarray:
    """One column of a joint draw of the two-stage limit; every component
    draws the same joint sample."""
    return sample_kmeans_limit(SeedStream(master_seed, 1000), draws)[:, column]


def _lasso_summaries(records, n_values) -> tuple[dict, set]:
    """Exact-zero fraction of alpha2 at every rung; alpha2 is reported as
    collapsed to 0, not fitted, when over 90% of top-rung fits zero it."""
    fractions = {
        str(n): zero_fraction([rec for rec in records if rec.n == n], "alpha2") for n in n_values
    }
    collapsed = {"alpha2"} if fractions[str(n_values[-1])][0] > 0.9 else set()
    return {"zero_fraction_alpha2": fractions}, collapsed


def _kmeans_summaries(records, n_values) -> tuple[dict, set]:
    """Share of top-rung fits that pick the cv configuration."""
    top_n = n_values[-1]
    choices = [rec.choice for rec in records if rec.n == top_n and rec.component == "delta_s"]
    frac = sum(c == "cv" for c in choices) / len(choices)
    se = math.sqrt(frac * (1.0 - frac) / len(choices))
    return {"split_fraction_cv": {"n": top_n, "fraction": frac, "se": se}}, set()


@dataclass(frozen=True)
class Experiment:
    """Everything the harness, the CLI and the acceptance checks know about
    one experiment.

    ``rates`` maps each component, in record order, to its rescale exponent
    from the rate calculus.  ``run_replicates(params, master_seed, n,
    replicates)`` returns one record per component for each replicate in the
    ``range`` ``replicates``; a replicate's records do not depend on the
    block it comes in.  ``laws`` maps components to their limit law:
    ``law(params, master_seed, n, draws)`` returns draws of the limit of
    n^tau times the error, from a fixed stream index under the master seed;
    a component left out gets no KS comparison.
    ``summaries(records, n_values)`` returns
    extra summary entries and the components reported as collapsed instead
    of fitted.  Exact zeros of ``sparse`` components are left out of their
    rate fits.  Runners and limit laws call the estimators and samplers by
    their module-level names, so wrappers installed on those names see them.
    """

    rates: Mapping[str, Fraction]
    run_replicates: Callable[..., list[LadderRecord]]
    laws: Mapping[str, Callable[..., np.ndarray]]
    defaults: Mapping[str, object] = field(default_factory=dict)
    check_params: Callable[[Mapping[str, object]], None] = lambda params: None
    summaries: Callable[..., tuple[dict, set]] = lambda records, n_values: ({}, set())
    sparse: tuple[str, ...] = ()

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(self.rates)

    def resolve(self, params: Mapping[str, object] | None) -> dict:
        """The defaults overridden by ``params``, checked; a key without a
        default is rejected."""
        unknown = sorted(set(params or {}) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"unknown parameters {unknown}; the experiment takes {sorted(self.defaults)}"
            )
        merged = {**self.defaults, **(params or {})}
        self.check_params(merged)
        return merged


_KMEANS_RATES = derive_rates(RateSpec(3, 2, [(2, 1)] * 3))

EXPERIMENTS: dict[str, Experiment] = {
    # quadratic criterion balanced against root-n linear noise: 1/2 for both
    # coefficients
    "lasso": Experiment(
        rates=dict.fromkeys(
            ("alpha1", "alpha2"), coarse_rates(CoarseRateSpec(2, 2, [(1, Fraction(1, 2))]))[0]
        ),
        run_replicates=_run_lasso_replicates,
        laws={"alpha1": _lasso_alpha1_law},
        defaults={"d": 2, "lambda0": 2.0, "gamma": 0.5, "sigma": 1.0, "design_mode": "fresh"},
        check_params=_check_lasso_params,
        summaries=_lasso_summaries,
        sparse=("alpha2",),
    ),
    # the center balances a quadratic against root-n-linear plus n^(-2/3)
    # empirical-process noise, giving min(1/2, 1/3) = 1/3; the half-length
    # error is the root-n coverage constraint
    "shorth": Experiment(
        rates={
            "m": coarse_rates(
                CoarseRateSpec(2, 2, [(1, Fraction(1, 2)), (0, Fraction(2, 3))])
            )[0],
            "r": Fraction(1, 2),
        },
        run_replicates=_run_shorth_replicates,
        laws={"m": _shorth_m_law, "r": _shorth_r_law},
    ),
    # the cubic/quadratic two-block profile with three (2, 1) cross terms
    # gives (1/4, 1/2)
    "kmeans": Experiment(
        rates={
            "delta_s": _KMEANS_RATES.tau_a,
            "eps_d": _KMEANS_RATES.tau_a,
            "delta_d": _KMEANS_RATES.tau_b,
            "eps_s": _KMEANS_RATES.tau_b,
        },
        run_replicates=_run_kmeans_replicates,
        laws={
            c: functools.partial(_kmeans_law, column=j)
            for j, c in enumerate(("delta_s", "eps_d", "delta_d", "eps_s"))
        },
        summaries=_kmeans_summaries,
    ),
}


# the per-n aggregates of |error| that a rate fit can take, by name
ERROR_SUMMARIES: dict[str, Callable[[np.ndarray], float]] = {
    "median-abs": lambda errs: float(np.median(errs)),
    "rmse": lambda errs: float(np.sqrt(np.mean(errs**2))),
}


def _error_summary(name: str) -> Callable[[np.ndarray], float]:
    """The aggregate ``ERROR_SUMMARIES[name]``; an unknown name is a ValueError."""
    if name not in ERROR_SUMMARIES:
        kinds = " or ".join(map(repr, ERROR_SUMMARIES))
        raise ValueError(f"summary must be {kinds}, got {name!r}")
    return ERROR_SUMMARIES[name]


@dataclass(frozen=True)
class LadderConfig:
    """One experiment over a geometric ladder of sample sizes; ``params``
    comes back with the experiment's defaults filled in.  ``summary`` is the
    per-n error aggregate of the rate fits, a key of ``ERROR_SUMMARIES``."""

    experiment: str
    n_values: tuple[int, ...]
    replicates: int
    master_seed: int
    params: Mapping[str, object] = field(default_factory=dict)
    summary: str = "median-abs"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {tuple(EXPERIMENTS)}, got {self.experiment!r}"
            )
        _error_summary(self.summary)
        ns = tuple(int(n) for n in self.n_values)
        if len(ns) < 4:
            raise ValueError("need at least 4 ladder points for rate fitting")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.replicates < 50:
            raise ValueError("need at least 50 replicates per ladder point")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "params", EXPERIMENTS[self.experiment].resolve(self.params))


def _run_task(
    experiment: str, params, master_seed: int, n: int, replicates: range
) -> list[LadderRecord]:
    # the runner is looked up by name in the worker, so a forked pool runs a
    # patched registry entry even when its runner cannot be pickled
    return EXPERIMENTS[experiment].run_replicates(params, master_seed, n, replicates)


def check_workers(workers: int) -> None:
    """Reject a worker count below 1, the one check of ``--threads``."""
    if workers < 1:
        raise ValueError(f"workers (--threads) must be >= 1, got {workers}")


def run_cells(
    experiment: str,
    n_values: Sequence[int],
    replicates: int,
    master_seed: int,
    params: Mapping[str, object] | None = None,
    workers: int = 1,
) -> list[LadderRecord]:
    """Execution core shared by ladders and single-n comparison runs.

    ``params`` overrides the experiment's defaults.  Every replicate is
    seeded from (master_seed, experiment, n, replicate), so the output is
    independent of worker scheduling.  An exception raised by any replicate
    propagates unchanged and ends the run.  ``workers`` below 1 raises
    ``ValueError`` before any replicate runs.
    """
    check_workers(workers)
    exp = EXPERIMENTS[experiment]
    merged = exp.resolve(params)
    # one block a rung in one process; in a pool, blocks of about 1/16 of a
    # worker's share, so the workers stay evenly loaded
    size = max(1, replicates if workers == 1 else len(n_values) * replicates // (workers * 16))
    blocks = [
        (n, range(replicates)[start : start + size])
        for n in n_values
        for start in range(0, replicates, size)
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _run_task,
                    (experiment for _ in blocks),
                    (merged for _ in blocks),
                    (master_seed for _ in blocks),
                    (n for n, _ in blocks),
                    (block for _, block in blocks),
                )
            )
    else:
        results = [_run_task(experiment, merged, master_seed, n, block) for n, block in blocks]

    comp_order = {c: i for i, c in enumerate(exp.components)}
    records = [rec for chunk in results for rec in chunk]
    records.sort(key=lambda rec: (rec.n, rec.replicate, comp_order[rec.component]))
    return records


def run_ladder(cfg: LadderConfig, workers: int = 1) -> list[LadderRecord]:
    """Run every (n, replicate) ladder cell; records come back in canonical
    order (by n, then replicate, components in registered order)."""
    return run_cells(
        cfg.experiment, cfg.n_values, cfg.replicates, cfg.master_seed, cfg.params, workers
    )


@dataclass(frozen=True)
class LimitComparison:
    """Rescaled errors beside draws of their limit law, and the KS distance
    between them."""

    rescaled: np.ndarray
    draws: np.ndarray
    ks: float


def compare_with_limit(
    experiment: str, records, component: str, n: int, master_seed: int, draws: int, params=None
) -> LimitComparison:
    """n^tau times the errors of ``component`` at ``n`` against ``draws``
    draws of its limit law under ``master_seed``.  tau is the theoretical
    exponent in ``Experiment.rates``, never a fitted slope.  ``params``
    overrides the experiment's defaults."""
    exp = EXPERIMENTS[experiment]
    errors = np.array([rec.error for rec in records if rec.n == n and rec.component == component])
    rescaled = float(n) ** float(exp.rates[component]) * errors
    law = exp.laws[component](exp.resolve(params), master_seed, n, draws)
    return LimitComparison(rescaled, law, ks_two_sample(rescaled, law))


def fit_rate(
    records: Iterable[LadderRecord],
    component: str,
    summary: str = "median-abs",
    exclude_zero_flagged: bool = False,
) -> RateEstimate:
    """Least-squares slope of log(summary of |error|) against log(n).

    ``summary`` names the per-n aggregate over replicates in
    ``ERROR_SUMMARIES``: median absolute error (robust default) or root mean
    squared error.  ``exclude_zero_flagged``
    drops exact-zero records first, for components whose theory predicts
    collapse to zero rather than a power law.
    """
    aggregate = _error_summary(summary)
    by_n: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for rec in records:
        if rec.component != component:
            continue
        counts[rec.n] = counts.get(rec.n, 0) + 1
        if exclude_zero_flagged and rec.zero_flag:
            continue
        by_n.setdefault(rec.n, []).append(abs(rec.error))
    if len(counts) < 4 or any(c < 50 for c in counts.values()):
        raise ValueError("rate fitting needs >= 4 ladder points with >= 50 replicates")
    if len(by_n) < len(counts):
        raise ValueError(
            "a ladder point lost all its records to the exact-zero exclusion; "
            "report the component as collapsed instead of fitting a slope"
        )

    ns = np.array(sorted(by_n))
    sums = []
    for n in ns:
        val = aggregate(np.asarray(by_n[n]))
        if val == 0.0:
            raise ValueError(
                f"summary at n = {n} is exactly zero (log undefined); exclude the "
                "collapsed component or use zero_fraction instead"
            )
        sums.append(val)
    x = np.log(ns.astype(np.float64))
    y = np.log(np.asarray(sums))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    se = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return RateEstimate(
        component=component,
        slope=slope,
        slope_se=se,
        intercept=intercept,
        points=tuple(zip(ns.tolist(), sums)),
    )


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup-distance between the two empirical CDFs via a merged sweep."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def zero_fraction(records: Iterable[LadderRecord], component: str) -> tuple[float, float]:
    """Fraction of exact-zero flags with its binomial standard error."""
    flags = [rec.zero_flag for rec in records if rec.component == component]
    if len(flags) < 50:
        raise ValueError("need at least 50 records")
    p = sum(flags) / len(flags)
    return p, math.sqrt(p * (1.0 - p) / len(flags))


_CSV_HEADER = "experiment,n,replicate,component,error,zero_flag,choice,tie_flag,diag_flags"


def records_to_csv_lines(records: Sequence[LadderRecord]) -> list[str]:
    """Full-precision CSV serialization (header + one line per record)."""
    lines = [_CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.experiment},{rec.n},{rec.replicate},{rec.component},"
            f"{rec.error!r},{int(rec.zero_flag)},{rec.choice},{int(rec.tie_flag)},"
            f"{rec.diag_flags}"
        )
    return lines
