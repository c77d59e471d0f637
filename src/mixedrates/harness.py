"""Monte Carlo experiment runner: sample-size ladders, replicate fan-out,
log-log rate fits, exact-zero fractions and two-sample CDF distances.

Every replicate draws from a stream derived solely from
(master_seed, experiment, n, replicate), so concurrent and sequential runs
produce byte-identical record sets once canonically sorted.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distributions import SeedStream, derive_stream_index
from .estimators import (
    DesignError,
    LassoConfig,
    SearchBoxError,
    fit_bridge_lasso,
    fit_kmeans2,
    fit_kmeans2_global,
    fit_shorth,
    generate_lasso_design,
    shorth_population,
)
from .limits import BoundaryHitError, LinearizationGateError, kmeans_two_line_sample
from .rates import CoarseRateSpec, RateSpec, coarse_rates, derive_rates

__all__ = [
    "EXPERIMENTS",
    "LadderConfig",
    "LadderRecord",
    "RateEstimate",
    "HarnessError",
    "run_ladder",
    "run_cells",
    "fit_rate",
    "ks_two_sample",
    "zero_fraction",
    "theoretical_rates",
    "records_to_csv_lines",
]


class HarnessError(RuntimeError):
    pass


_COMPONENTS = {
    "lasso": ("alpha1", "alpha2"),
    "shorth": ("m", "r"),
    "kmeans": ("delta_s", "eps_d", "delta_d", "eps_s"),
}

EXPERIMENTS = tuple(_COMPONENTS)

_LASSO_DEFAULTS = {"d": 2, "lambda0": 2.0, "gamma": 0.5, "sigma": 1.0, "design_mode": "fresh"}


@dataclass(frozen=True)
class LadderConfig:
    """One experiment over a geometric ladder of sample sizes."""

    experiment: str
    n_values: tuple[int, ...]
    replicates: int
    master_seed: int
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _COMPONENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        ns = tuple(int(n) for n in self.n_values)
        if len(ns) < 4:
            raise ValueError("need at least 4 ladder points for rate fitting")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.replicates < 50:
            raise ValueError("need at least 50 replicates per ladder point")
        object.__setattr__(self, "n_values", ns)
        merged = dict(_LASSO_DEFAULTS) if self.experiment == "lasso" else {}
        merged.update(self.params)
        object.__setattr__(self, "params", merged)

    @property
    def components(self) -> tuple[str, ...]:
        return _COMPONENTS[self.experiment]


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
    """Log-log slope of an error summary against the sample size."""

    component: str
    slope: float
    slope_se: float
    intercept: float
    n_range: tuple[int, int]


def _replicate_stream(master_seed: int, experiment: str, n: int, r: int, role: str) -> SeedStream:
    idx = derive_stream_index(experiment, n, r, role)
    return SeedStream(master_seed, idx)


def _lasso_design_stream(master_seed: int, n: int, r: int, mode: str) -> SeedStream:
    """Fresh mode draws a design per replicate; fixed mode shares one design
    per sample size (replicate index pinned to 0 in the derivation)."""
    if mode not in ("fresh", "fixed"):
        raise ValueError(f"design_mode must be 'fresh' or 'fixed', got {mode!r}")
    return _replicate_stream(master_seed, "lasso", n, 0 if mode == "fixed" else r, "design")


def _run_lasso_replicate(params, master_seed: int, n: int, r: int) -> list[LadderRecord]:
    d = int(params["d"])
    beta = np.zeros(d)
    beta[0] = 1.0
    design_stream = _lasso_design_stream(
        master_seed, n, r, params.get("design_mode", "fresh")
    )
    design = generate_lasso_design(n, d, design_stream)
    noise = (
        _replicate_stream(master_seed, "lasso", n, r, "noise").generator().standard_normal(n)
    )
    y = design @ beta + params["sigma"] * noise
    lasso_cfg = LassoConfig(
        design=design,
        beta_true=beta,
        gamma=params["gamma"],
        lambda0=params["lambda0"],
        sigma=params["sigma"],
    )
    fit = fit_bridge_lasso(y, lasso_cfg)
    return [
        LadderRecord(
            experiment="lasso",
            n=n,
            replicate=r,
            component=comp,
            error=float(fit.alpha_hat[j] - beta[j]),
            zero_flag=bool(fit.zero_flags[j]),
        )
        for j, comp in enumerate(_COMPONENTS["lasso"])
    ]


def _run_shorth_replicate(params, master_seed: int, n: int, r: int) -> list[LadderRecord]:
    data = _replicate_stream(master_seed, "shorth", n, r, "data").generator().standard_normal(n)
    fit = fit_shorth(data)
    pop = shorth_population()
    errors = {"m": fit.m - pop.mu, "r": fit.r - pop.rho}
    return [
        LadderRecord(experiment="shorth", n=n, replicate=r, component=c, error=errors[c])
        for c in _COMPONENTS["shorth"]
    ]


def _run_kmeans_replicate(params, master_seed: int, n: int, r: int) -> list[LadderRecord]:
    pts = kmeans_two_line_sample(n, _replicate_stream(master_seed, "kmeans", n, r, "data"))
    res = fit_kmeans2_global(pts)
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
    return [
        LadderRecord(
            experiment="kmeans",
            n=n,
            replicate=r,
            component=c,
            error=errors[c],
            choice=res.choice,
            tie_flag=res.tie,
            diag_flags=";".join(diags),
        )
        for c in _COMPONENTS["kmeans"]
    ]


_RUNNERS = {
    "lasso": _run_lasso_replicate,
    "shorth": _run_shorth_replicate,
    "kmeans": _run_kmeans_replicate,
}


# The declared numerical failures of a replicate.  Any other exception is a
# programming error and propagates out of run_cells.
_NUMERICAL_FAILURES = (DesignError, SearchBoxError, LinearizationGateError, BoundaryHitError)


def _run_task(experiment: str, params, master_seed: int, n: int, r: int) -> list[LadderRecord]:
    try:
        return _RUNNERS[experiment](params, master_seed, n, r)
    except _NUMERICAL_FAILURES as exc:  # recorded, not fatal; the run-level gate decides
        # one CSV field: no comma, no line break
        message = " ".join(f"{type(exc).__name__}: {exc}".replace(",", ";").split())
        return [
            LadderRecord(
                experiment=experiment,
                n=n,
                replicate=r,
                component=c,
                error=float("nan"),
                diag_flags=f"failed:{message}",
            )
            for c in _COMPONENTS[experiment]
        ]


def run_cells(
    experiment: str,
    n_values: Sequence[int],
    replicates: int,
    master_seed: int,
    params: Mapping[str, object] | None = None,
    workers: int = 1,
) -> list[LadderRecord]:
    """Execution core shared by ladders and single-n comparison runs.

    Every replicate is seeded from (master_seed, experiment, n, replicate),
    so the output is independent of worker scheduling.  A declared numerical
    failure (``_NUMERICAL_FAILURES``) becomes a flagged record and aborts the
    run only above a 1% rate; any other exception aborts it at once.
    """
    merged = dict(_LASSO_DEFAULTS) if experiment == "lasso" else {}
    merged.update(params or {})
    tasks = [(n, r) for n in n_values for r in range(replicates)]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _run_task,
                    (experiment for _ in tasks),
                    (merged for _ in tasks),
                    (master_seed for _ in tasks),
                    (n for n, _ in tasks),
                    (r for _, r in tasks),
                    chunksize=max(1, len(tasks) // (workers * 16)),
                )
            )
    else:
        results = [_run_task(experiment, merged, master_seed, n, r) for n, r in tasks]

    comp_order = {c: i for i, c in enumerate(_COMPONENTS[experiment])}
    records = [rec for chunk in results for rec in chunk]
    records.sort(key=lambda rec: (rec.n, rec.replicate, comp_order[rec.component]))

    failed = sum(1 for rec in records if rec.diag_flags.startswith("failed")) / len(
        comp_order
    )
    if failed > 0.01 * len(tasks):
        raise HarnessError(f"{failed:.0f} of {len(tasks)} replicates failed")
    return records


def run_ladder(cfg: LadderConfig, workers: int = 1) -> list[LadderRecord]:
    """Run every (n, replicate) ladder cell; records come back in canonical
    order (by n, then replicate, components in registered order)."""
    return run_cells(
        cfg.experiment, cfg.n_values, cfg.replicates, cfg.master_seed, cfg.params, workers
    )


def fit_rate(
    records: Iterable[LadderRecord],
    component: str,
    summary: str = "median-abs",
    exclude_zero_flagged: bool = False,
) -> RateEstimate:
    """Least-squares slope of log(summary of |error|) against log(n).

    ``summary`` is the per-n aggregate over replicates: median absolute error
    (robust default) or root mean squared error.  ``exclude_zero_flagged``
    drops exact-zero records first, for components whose theory predicts
    collapse to zero rather than a power law.
    """
    if summary not in ("median-abs", "rmse"):
        raise ValueError("summary must be 'median-abs' or 'rmse'")
    by_n: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for rec in records:
        if rec.component != component or rec.diag_flags.startswith("failed"):
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
        errs = np.asarray(by_n[n])
        val = float(np.median(errs)) if summary == "median-abs" else float(
            np.sqrt(np.mean(errs**2))
        )
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
        n_range=(int(ns[0]), int(ns[-1])),
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
    flags = [
        rec.zero_flag
        for rec in records
        if rec.component == component and not rec.diag_flags.startswith("failed")
    ]
    if len(flags) < 50:
        raise ValueError("need at least 50 records")
    p = sum(flags) / len(flags)
    return p, math.sqrt(p * (1.0 - p) / len(flags))


def theoretical_rates(experiment: str) -> dict[str, Fraction]:
    """Rescaling exponents per component, taken from the rate calculus (not
    from empirical fits).

    - lasso: quadratic criterion balanced against root-n linear noise gives
      1/2 for both coefficients.
    - shorth: the center error balances a quadratic against root-n-linear
      plus n^(-2/3) empirical-process noise, giving min(1/2, 1/3) = 1/3; the
      half-length error is the root-n coverage constraint.
    - kmeans: the cubic/quadratic two-block profile with three (2, 1) cross
      terms gives (1/4, 1/2).
    """
    if experiment == "lasso":
        tau, _ = coarse_rates(CoarseRateSpec(2, 2, [(1, Fraction(1, 2))]))
        return {"alpha1": tau, "alpha2": tau}
    if experiment == "shorth":
        tau_m, _ = coarse_rates(
            CoarseRateSpec(2, 2, [(1, Fraction(1, 2)), (0, Fraction(2, 3))])
        )
        return {"m": tau_m, "r": Fraction(1, 2)}
    if experiment == "kmeans":
        res = derive_rates(RateSpec(3, 2, [(2, 1)] * 3))
        return {
            "delta_s": res.tau_a,
            "eps_d": res.tau_a,
            "delta_d": res.tau_b,
            "eps_s": res.tau_b,
        }
    raise ValueError(f"unknown experiment {experiment!r}")


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
