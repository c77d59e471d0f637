"""Samplers for the limiting distributions the experiments are compared to.

Four laws are shipped: the argmax of a drifted two-sided Brownian motion
(the cube-root limit of the shorth center), the shorth half-length law with
its n^(-1/6) term from the maximum of that same motion, the Gaussian limit of
the first penalized-regression coefficient, and the two-stage (s*, t*) limit
of the mixed-rates k-means solution, whose two stages have closed forms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import SeedStream, sample_gaussian_vector
from .estimators.kmeans import centers_from_coords, within_ss

__all__ = [
    "ChernoffConfig",
    "BoundaryHitError",
    "KMEANS_SIGMA",
    "LASSO_C11",
    "sample_chernoff_argmax",
    "sample_shorth_r_limit",
    "sample_lasso_limits",
    "kmeans_two_line_sample",
    "kmeans_scores",
    "empirical_criterion_diff",
    "estimate_kmeans_cov",
    "sample_kmeans_limit",
    "slow_block_closed_form",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Brownian argmax (cube-root limit)


class BoundaryHitError(ValueError):
    """Too many argmaxes landed on the grid boundary; enlarge the horizon."""


GRID_MAX_SHIFT = 0.5825971579390106  # -zeta(1/2)/sqrt(2 pi), see ChernoffConfig


def chernoff_scale(c1: float, c2: float) -> float:
    """a = (sqrt(c1)/|c2|)^(2/3): the (c1, c2) argmax is a times the (1, -1) one."""
    return (math.sqrt(c1) / abs(c2)) ** (2.0 / 3.0)


@dataclass(frozen=True)
class ChernoffConfig:
    """Parameters of argmax_t [c2 * t^2 + sqrt(c1) * B(t)] on a finite grid.

    The drift coefficient ``c2`` must be negative (concave drift); ``c1`` is
    the squared diffusion scale.  Defaults: T = 4a (a = ``chernoff_scale``)
    covers the argmax support comfortably, and h = T/1000 = a/250.  The grid
    is t = jh for |j| <= T/h, so T/h must be an integer (to 1e-8 relative).

    Grid rule: the grid argmax lives on the lattice hZ, so its CDF is off
    Chernoff's law by up to one lattice mass, f(0) h/a = 0.003 (f(0) = 0.758),
    under 1/4 of the KS null median 0.83 sqrt(2/R) = 0.026 of ``shorth-m-law``
    (R = 2000 a side); in ``oracle-chernoff-scaling`` both samples share one
    lattice.  The grid maximum of sqrt(c1) B is low by about GRID_MAX_SHIFT *
    sqrt(c1 h) (Asmussen, Glynn & Pitman 1995; Broadie, Glasserman & Kou 1997).
    """

    c1: float
    c2: float
    T: float | None = None
    h: float | None = None
    paths: int = 10_000

    def __post_init__(self):
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if not self.c2 < 0:
            raise ValueError("c2 must be negative (concave drift)")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        T = self.T if self.T is not None else 4.0 * chernoff_scale(self.c1, self.c2)
        h = self.h if self.h is not None else T / 1000.0
        if not 0 < h <= T < math.inf:
            raise ValueError("need 0 < h <= T < inf")
        steps = T / h
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise ValueError(f"T/h = {steps} is not integral")
        object.__setattr__(self, "T", float(T))
        object.__setattr__(self, "h", float(h))


_CHUNK = 512  # paths per stream chunk: part of the draw layout, fixed
_BLOCK = 32  # paths per compute block: working memory only, any size gives the same draws


def _chernoff_argmax_and_max(cfg: ChernoffConfig, stream: SeedStream):
    """Grid argmax and grid maximum of c2*t^2 + sqrt(c1)*B(t), one pair per
    path, with the tie-break and boundary rule of ``sample_chernoff_argmax``.
    The maximum is never negative: t = 0 is on the grid and B(0) = 0.

    Stream layout: each side t = +/-j*h, j = 1..n, runs in increasing |t|;
    each chunk of up to 512 paths draws its positive side's increments
    first, path by path, then its negative side's.  The paths are reduced
    in blocks of 32 rows through one reused (32, n) buffer; a block draws
    the next 32*n values of that same sequence, so the block size sets the
    working memory, O(32 n + paths), and never the draws."""
    n = round(cfg.T / cfg.h)
    gen = stream.generator()
    drift = cfg.c2 * (np.arange(1, n + 1) * cfg.h) ** 2
    sd, scale = math.sqrt(cfg.h), math.sqrt(cfg.c1)
    argmax = np.empty(cfg.paths, dtype=np.float64)
    maximum = np.empty(cfg.paths, dtype=np.float64)
    buf = np.empty((min(_BLOCK, cfg.paths), n))
    for start in range(0, cfg.paths, _CHUNK):
        m = min(_CHUNK, cfg.paths - start)
        j, v = np.empty((2, m), dtype=np.intp), np.empty((2, m))
        for side in range(2):  # positive side, then negative
            for b in range(0, m, _BLOCK):
                obj = buf[: min(_BLOCK, m - b)]
                gen.standard_normal(out=obj)
                obj *= sd
                np.cumsum(obj, axis=1, out=obj)
                obj *= scale
                obj += drift
                jb = np.argmax(obj, axis=1)
                j[side, b : b + len(obj)] = jb + 1
                v[side, b : b + len(obj)] = np.take_along_axis(obj, jb[:, None], axis=1)[:, 0]
        (jp, jn), (vp, vn) = j, v
        neg = (vn > vp) | ((vn == vp) & (jn <= jp))
        top = np.where(neg, vn, vp)
        k = np.where(top > 0.0, np.where(neg, -jn, jp), 0)  # the origin wins ties at 0
        argmax[start : start + m] = k * cfg.h
        maximum[start : start + m] = np.maximum(top, 0.0)
    frac = np.mean(np.abs(argmax) >= cfg.T - 0.5 * cfg.h)
    logger.debug("chernoff argmax boundary-hit fraction: %.4f", frac)
    if frac > 0.01:
        raise BoundaryHitError(
            f"{frac:.1%} of argmaxes hit the boundary; enlarge T (currently {cfg.T:g})"
        )
    return argmax, maximum


def sample_chernoff_argmax(cfg: ChernoffConfig, stream: SeedStream) -> np.ndarray:
    """Grid argmax of the drifted two-sided Brownian motion, one per path.

    Ties (which have probability zero in the limit) are broken toward the
    smallest |t| and then toward negative t.  The run fails if more than 1%
    of argmaxes sit on the boundary +/-T, a sign the horizon is too small.
    """
    return _chernoff_argmax_and_max(cfg, stream)[0]


def sample_shorth_r_limit(
    cfg: ChernoffConfig, n: int, z_stream: SeedStream, s_stream: SeedStream
) -> np.ndarray:
    """Draws from the second-order law of sqrt(n)(r_n - rho), one per path:

        -(Z + n^(-1/6) * S) / c1,   Z ~ N(0, 1/4),
        S = max_t [c2*t^2 + sqrt(c1)*B(t)] >= 0,

    with Z and S independent, up to o(n^(-1/6)).  Linearizing the empirical
    coverage constraint G_n(m, r) = 1/2 around (mu, rho) gives

        c1 (r - rho) = -c2 m^2 - n^(-1/2) (Z + sqrt(c1) W(m)),

    W a two-sided Brownian motion and Z the centered coverage of
    [mu - rho, mu + rho] (binomial variance 1/4).  The shorth takes the m
    with the smallest r; with m = n^(-1/3) t that maximizes
    n^(-2/3) [c2 t^2 + sqrt(c1) B(t)], whose argmax is the center's limit
    and whose maximum is S.  S is the grid maximum plus the discrete-
    monitoring shift ``GRID_MAX_SHIFT`` * sqrt(c1 h), which removes its
    O(sqrt(h)) low bias.  ``z_stream`` feeds Z, ``s_stream`` feeds the
    Brownian paths, and ``cfg.paths`` sets the draw count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = z_stream.generator().normal(0.0, 0.5, cfg.paths)
    s = _chernoff_argmax_and_max(cfg, s_stream)[1] + GRID_MAX_SHIFT * math.sqrt(cfg.c1 * cfg.h)
    return -(z + n ** (-1.0 / 6.0) * s) / cfg.c1


# ---------------------------------------------------------------------------
# Penalized-regression first-coordinate limit


# the design curvature C11 of centered Uniform[-1, 1] columns, Var U = 1/3
LASSO_C11 = 1.0 / 3.0


def sample_lasso_limits(
    lambda0: float, gamma: float, sigma: float, stream: SeedStream, draws: int
) -> np.ndarray:
    """Draws from the Gaussian limit of sqrt(n) times the first-coefficient
    error: N(-lambda0*gamma/(2*C11), sigma^2/C11), C11 = ``LASSO_C11``.

    The bridge penalty lambda0*sqrt(n)*(|1 + u/sqrt(n)|^gamma - 1) on the
    nonzero coordinate tends to lambda0*gamma*u (Knight and Fu 2000, Thms 2
    and 3), so the limit is the minimizer of
    u^2*C11 - 2*u*Z + lambda0*gamma*u with Z ~ N(0, sigma^2*C11); the mean
    is the penalty-induced shrinkage bias, and lambda0 = 0 gives the plain
    least-squares limit.
    """
    return stream.generator().normal(
        -lambda0 * gamma / (2.0 * LASSO_C11), sigma / math.sqrt(LASSO_C11), size=draws
    )


# ---------------------------------------------------------------------------
# k-means two-stage limit


# Covariance of the Gaussian (Z1, Z2) of the k-means limit, ordered
# (Z_ds, Z_ed, Z_dd, Z_es).  On the two-line law it is exactly 4 I: with
# u = |x| - 1, |x| ~ Exp(1), the four scores of ``kmeans_scores`` are
# -2 sign(x) u, 2 y sign(x), 2u and -2y.  Each has second moment 4
# (E u^2 = Var |x| = 1, y^2 = 1), and every cross moment vanishes because it
# is odd in y or in sign(x), which are independent of u and of each other.
KMEANS_SIGMA = 4.0 * np.eye(4)
KMEANS_SIGMA.flags.writeable = False  # shared by every caller


def kmeans_two_line_sample(n: int, stream: SeedStream) -> np.ndarray:
    """``n`` points of the two-line law, whose two optimal 2-means
    configurations tie exactly, as an (n, 2) array: column 1 is the line,
    +/-1 equiprobable, and column 0, independently, a standard double
    exponential along it.  With the lines horizontal the cv center pair
    straddles the support and its split line crosses both lines."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = stream.generator()
    pts = np.empty((n, 2))
    # both columns first hold +/-1: the line, then the sign along it
    for col in (pts[:, 1], pts[:, 0]):
        col[:] = gen.integers(0, 2, size=n)
        col *= 2.0
        col -= 1.0
    pts[:, 0] *= gen.standard_exponential(size=n, method="inv")
    return pts


def kmeans_scores(points: np.ndarray) -> np.ndarray:
    """Pointwise criterion gradients at the cv configuration, columns ordered
    (delta_s, eps_d, delta_d, eps_s).

    With H- = {x <= 0} and H+ = {x > 0} (the two Voronoi half-planes):
      d/d(delta_s) = -2(x+1) H- - 2(x-1) H+
      d/d(eps_d)   = -2y H- + 2y H+
      d/d(delta_d) = -2(x+1) H- + 2(x-1) H+
      d/d(eps_s)   = -2y
    """
    x = points[:, 0]
    y = points[:, 1]
    hminus = x <= 0.0
    hplus = ~hminus
    g_ds = np.where(hminus, -2.0 * (x + 1.0), -2.0 * (x - 1.0))
    g_ed = np.where(hminus, -2.0 * y, 2.0 * y)
    g_dd = np.where(hminus, -2.0 * (x + 1.0), 2.0 * (x - 1.0))
    g_es = -2.0 * y
    return np.column_stack([g_ds, g_ed, g_dd, g_es])


def empirical_criterion_diff(points: np.ndarray, coords4) -> float:
    """Empirical criterion at the displaced cv pair minus its value at the
    pair itself; ``coords4`` = (delta_s, eps_d, delta_d, eps_s) deviations."""
    ds, ed, dd, es = coords4
    centers = centers_from_coords(ds, ed, dd, es, init="cv")
    base = centers_from_coords(0.0, 0.0, 0.0, 0.0, init="cv")
    return within_ss(points, centers) - within_ss(points, base)


def _linearization_gate(stream: SeedStream, n: int = 200_000) -> float:
    """Worst relative error, over 8 directions, between central finite
    differences of the empirical criterion at the cv pair and the
    score-based directional derivative.

    The empirical criterion has kinks where a sample point crosses the split
    boundary, so the step is chosen per direction small enough that no point
    crosses: the boundary offset under a (delta_s, eps_d) displacement is at
    most t * (|d_ds| + |d_ed|) plus second order, kept under the smallest
    |x| in the sample.
    """
    pts = kmeans_two_line_sample(n, stream.child("gate-sample"))
    grad = kmeans_scores(pts).mean(axis=0)
    xmin = float(np.min(np.abs(pts[:, 0])))
    gen = stream.child("gate-directions").generator()
    directions = list(np.eye(4))
    for _ in range(4):
        v = gen.standard_normal(4)
        directions.append(v / np.linalg.norm(v))
    worst = 0.0
    for d in directions:
        t = min(1e-6, 0.25 * xmin / (abs(d[0]) + abs(d[1]) + 1e-12))
        t = max(t, 1e-10)
        fd = (
            empirical_criterion_diff(pts, t * d) - empirical_criterion_diff(pts, -t * d)
        ) / (2.0 * t)
        lin = float(d @ grad)
        worst = max(worst, abs(fd - lin) / (abs(lin) + 1e-9))
    return worst


def estimate_kmeans_cov(samples: int, stream: SeedStream) -> np.ndarray:
    """Monte Carlo estimate of Sigma = E[score * score'] over the two-line
    law, from ``samples`` points in chunks of a million.  The program draws
    its limits from the exact ``KMEANS_SIGMA``; the acceptance check
    ``oracle-score-linearization`` compares this estimate with it."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    acc = np.zeros((4, 4))
    done = 0
    chunk = 1_000_000
    part = 0
    while done < samples:
        m = min(chunk, samples - done)
        pts = kmeans_two_line_sample(m, stream.child("cov", part))
        s = kmeans_scores(pts)
        acc += s.T @ s
        done += m
        part += 1
    return acc / samples


def slow_block_closed_form(z1: np.ndarray) -> np.ndarray:
    """Minimizer of the slow-block objective, for one z1 or a stack of them
    in the last axis.  Rotated by 45 degrees (u = delta_s + eps_d,
    v = delta_s - eps_d) the objective is |u|^3/6 + u*z_u + |v|^3/6 + v*z_v
    with z_u = (Z_ds + Z_ed)/2 and z_v = (Z_ds - Z_ed)/2, minimized at
    u = -sign(z_u) sqrt(2|z_u|) and likewise for v."""
    z1 = np.asarray(z1, dtype=np.float64)
    z_u = (z1[..., 0] + z1[..., 1]) / 2.0
    z_v = (z1[..., 0] - z1[..., 1]) / 2.0
    u = -np.sign(z_u) * np.sqrt(2.0 * np.abs(z_u))
    v = -np.sign(z_v) * np.sqrt(2.0 * np.abs(z_v))
    return np.stack([(u + v) / 2.0, (u - v) / 2.0], axis=-1)


def fast_block_closed_form(s_star: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Given the slow block, the fast block minimizes a clean quadratic:
    delta_d* = -(Z_dd + delta_s^2 - eps_d^2)/2, eps_s* = -(Z_es + 2*delta_s*eps_d)/2.
    Stacks of pairs in the last axis are solved elementwise."""
    ds, ed = s_star[..., 0], s_star[..., 1]
    return np.stack(
        [-(z2[..., 0] + ds * ds - ed * ed) / 2.0, -(z2[..., 1] + 2.0 * ds * ed) / 2.0], axis=-1
    )


def sample_kmeans_limit(stream: SeedStream, draws: int) -> np.ndarray:
    """Draws of the two-stage limit (s*, t*): sample (Z1, Z2) from
    N(0, ``KMEANS_SIGMA``), minimize the cubic slow-block objective in
    closed form, then complete the square for the fast block.

    Returns a (draws, 4) array with columns (delta_s, eps_d, delta_d, eps_s).
    """
    z = sample_gaussian_vector(KMEANS_SIGMA, stream, draws=draws)
    s = slow_block_closed_form(z[:, :2])
    return np.hstack([s, fast_block_closed_form(s, z[:, 2:])])
