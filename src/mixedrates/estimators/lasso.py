"""Penalized least squares with a concave power penalty and exact zeros.

The criterion is ``sum_i (Y_i - x_i' b)^2 + lambda_n * sum_j |b_j|^gamma`` with
``lambda_n = lambda0 * sqrt(n)``.  For gamma < 1 the penalty has infinite
slope at zero, so coordinates of the minimizer can be *exactly* zero with
sizable probability; the solver below keeps the zero axes as explicit
candidates instead of hoping a smooth optimizer lands on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..distributions import SeedStream

__all__ = [
    "LassoConfig",
    "LassoFit",
    "DesignError",
    "check_bridge_params",
    "generate_lasso_design",
    "generate_lasso_designs",
    "fit_bridge_lasso",
    "fit_bridge_lasso_block",
    "minimizer_box",
]

_MIN_EIGENVALUE = 1e-6


class DesignError(ValueError):
    """The design matrix is unusable (singular normalized Gram matrix)."""


def check_bridge_params(gamma, lambda0, sigma) -> None:
    """Reject a penalty exponent outside (0, 1], a negative penalty scale or
    noise sd, and any of the three that is not finite."""
    for name, value in (("gamma", gamma), ("lambda0", lambda0), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if lambda0 < 0.0 or sigma < 0.0:
        raise ValueError("lambda0 and sigma must be nonnegative")


@dataclass(frozen=True)
class LassoConfig:
    """Problem instance: design, truth, penalty exponent and scale, noise sd.
    ``xtx`` is the design's Gram matrix X'X, formed once here."""

    design: np.ndarray
    beta_true: np.ndarray
    gamma: float = 0.5
    lambda0: float = 2.0
    sigma: float = 1.0
    xtx: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, design, beta_true, gamma=0.5, lambda0=2.0, sigma=1.0):
        X = np.asarray(design, dtype=np.float64)
        b = np.asarray(beta_true, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[1] != b.size:
            raise ValueError("design must be an n x d matrix matching beta_true")
        check_bridge_params(gamma, lambda0, sigma)
        if not np.isfinite(X).all():
            raise ValueError("design contains non-finite values")
        col_means = X.mean(axis=0)
        if np.max(np.abs(col_means)) > 1e-10:
            raise ValueError("design columns must be centered to mean zero")
        xtx = X.T @ X
        if _singular(xtx[None], X.shape[0]).size:
            raise DesignError("normalized Gram matrix C_n is numerically singular")
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "beta_true", b)
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "lambda0", float(lambda0))
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "xtx", xtx)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]

    @property
    def lambda_n(self) -> float:
        return self.lambda0 * math.sqrt(self.n)


@dataclass(frozen=True)
class LassoFit:
    alpha_hat: np.ndarray
    zero_flags: np.ndarray  # zero_flags[j] iff alpha_hat[j] == 0.0 exactly
    criterion_value: float


def generate_lasso_design(n: int, d: int, stream: SeedStream) -> np.ndarray:
    """i.i.d. Uniform[-1, 1] entries with each column centered to exact mean 0.

    Bounded entries keep the leverage condition automatic and the normalized
    Gram matrix converges to identity/3.  A singular draw is retried on the
    next stream index, at most three times.  This is the stack of one of
    ``generate_lasso_designs``.
    """
    return generate_lasso_designs(n, d, [stream])[0][0]


def generate_lasso_designs(
    n: int, d: int, streams: Sequence[SeedStream]
) -> tuple[np.ndarray, np.ndarray]:
    """One design per stream, each drawn by the rule of
    ``generate_lasso_design``, as a (B, n, d) stack, with its Gram matrices
    X'X, a (B, d, d) stack.

    The draws are centered, their X'X formed and their normalized Gram
    matrices X'X/n checked as one stack.  A rejected draw is redrawn on the
    next index of its own stream; one still singular after 4 attempts raises
    ``DesignError``.
    """
    if n < d + 1:
        raise ValueError("need n >= d + 1 observations")
    X, xtx = _centered_draws(n, d, streams, 0)
    bad = _singular(xtx, n)
    for attempt in range(1, 4):
        if not bad.size:
            break
        X[bad], xtx[bad] = _centered_draws(n, d, [streams[i] for i in bad], attempt)
        bad = bad[_singular(xtx[bad], n)]
    if bad.size:
        raise DesignError("could not draw a nonsingular design in 4 attempts")
    return X, xtx


def _centered_draws(n: int, d: int, streams, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``attempt`` of each stream's design, centered, and its X'X."""
    X = np.empty((len(streams), n, d))
    gen = SeedStream(0).generator()  # re-keyed to each stream in turn
    for i, s in enumerate(streams):
        SeedStream(s.master_seed, s.stream_index + attempt).rekey(gen).random(out=X[i])
    # Uniform[-1, 1] as uniform() forms it, -1 + 2u: 2u is exact, so both
    # round once, to the same value
    X *= 2.0
    X -= 1.0
    X -= X.mean(axis=1, keepdims=True)
    return X, np.swapaxes(X, 1, 2) @ X


def _singular(xtx: np.ndarray, n: int) -> np.ndarray:
    """Indices of the stacked X'X whose X'X/n has its smallest eigenvalue at
    or below ``_MIN_EIGENVALUE``."""
    return np.flatnonzero(~(np.linalg.eigvalsh(xtx / n)[:, 0] > _MIN_EIGENVALUE))


def minimizer_box(
    xtx: np.ndarray, xty: np.ndarray, lam: float, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A box that holds every global minimizer of the criterion; returns
    ``(ols, lo, hi)`` with ``ols`` at its center.

    Write the criterion as f(b) = RSS + (b - ols)' Q (b - ols) + lam P(b) with
    Q = X'X, RSS the least-squares residual sum of squares and
    P(b) = sum_j |b_j|^gamma >= 0.  A global minimizer b* has
    f(b*) <= min(f(ols), f(0)), so (b* - ols)' Q (b* - ols) <= rho with
    rho = min(lam P(ols), ols' Q ols), and Cauchy-Schwarz in the Q inner
    product gives |b*_j - ols_j| <= sqrt(rho (Q^-1)_jj).  Q is invertible
    because ``generate_lasso_designs`` and ``LassoConfig`` reject
    near-singular designs.

    ``xtx`` (d, d) and ``xty`` (d,) give one box; stacks (B, d, d) and (B, d)
    give one per instance, (B, d) arrays.
    """
    ols = np.linalg.solve(xtx, xty[..., None])[..., 0]
    penalty = lam * np.sum(np.abs(ols) ** gamma, axis=-1)
    quad = (ols[..., None, :] @ xtx @ ols[..., None])[..., 0, 0]
    rho = np.where(quad < penalty, quad, penalty)  # min(penalty, quad), as Python's min
    half = np.sqrt(rho[..., None] * np.diagonal(np.linalg.inv(xtx), axis1=-2, axis2=-1))
    return ols, ols - half, ols + half


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for a stack of matrices and a stack of vectors, by stacked
    matmul, which runs the single-matrix kernel on each pair."""
    return (a @ v[..., None])[..., 0]


def _provably_zero(xtx, xty, ols, lo, hi, lam: float, gamma: float) -> np.ndarray:
    """Which coordinates are exactly zero at every global minimizer, proved
    from the box ``(ols, lo, hi)`` of ``minimizer_box``.

    Zeroing coordinate j changes the criterion by
    f(b) - f(b with b_j = 0) = c_j b_j + Q_jj b_j^2 + lam |b_j|^gamma, with
    c_j = 2 (sum_{k != j} Q_jk b_k - (X'y)_j).  With s = |b_j| that is at least
    s (Q_jj s + lam s^(gamma - 1) - |c_j|), which is positive for every s > 0
    iff |c_j| < c*_j = min_s (Q_jj s + lam s^(gamma - 1))
    = lam (2 - gamma) s0^(gamma - 1), s0 = (lam (1 - gamma) / Q_jj)^(1 / (2 - gamma))
    (c* = lam at gamma = 1, where s0 = 0; no screen at lam = 0).  c_j is
    affine in the other coordinates, so on the box, centre ols and half-widths
    half_k, |c_j| <= |c_j(ols)| + 2 sum_{k != j} |Q_jk| half_k.  When that
    bound is below c*_j, every point of the box with b_j != 0 has a higher
    value than its projection b_j = 0, so every global minimizer, which lies in
    the box, has b_j = 0.

    The comparison keeps a margin for rounding: it asks the bound plus
    1e-9 * ``scale`` to be below c*_j, where ``scale`` >= the bound sums the
    magnitudes of every term the bound adds (including |ols_k|, whose rounding
    the half-widths hi - lo inherit).  A sum of at most 2d + 1 such terms is
    off by less than (2d + 2) 2^-53 = 9e-16 of ``scale``, and c*_j, a few
    products and powers, by a few ulps of itself; the margin exceeds both by a
    factor over 10^5.

    Like ``minimizer_box``, it takes one instance or a stack of them.
    """
    if lam == 0.0:
        return np.zeros(ols.shape, dtype=bool)
    q = np.diagonal(xtx, axis1=-2, axis2=-1)
    off = np.where(np.eye(ols.shape[-1], dtype=bool), 0.0, xtx)
    half = 0.5 * (hi - lo)
    bound = np.abs(_matvec(off, ols) - xty) + _matvec(np.abs(off), half)
    scale = _matvec(np.abs(off), np.abs(ols) + half) + np.abs(xty)
    s0 = (lam * (1.0 - gamma) / q) ** (1.0 / (2.0 - gamma))
    c_star = lam * (2.0 - gamma) * s0 ** (gamma - 1.0)
    return 2.0 * (bound + 1e-9 * scale) < c_star


def _axis_grid(lo: float, hi: float, points: int) -> np.ndarray:
    g = np.linspace(lo, hi, points)
    if lo < 0.0 < hi and not np.any(g == 0.0):
        g = np.sort(np.append(g, 0.0))
    return g


def _grid_points(los, his, points: int) -> list[np.ndarray]:
    return [_axis_grid(lo, hi, points) for lo, hi in zip(los, his)]


def _grid_values(axes: list[np.ndarray], xtx, xty, yty, lam, gamma) -> np.ndarray:
    """Criterion on the tensor grid of ``axes`` as a separable sum:
    yty + sum_j u_j(a_j) + sum_{j<k} 2 Q_jk a_j a_k, with each
    u_j(a) = (Q_jj a - 2 xty_j) a + lam |a|^gamma evaluated on its own axis
    and broadcast into the grid array."""
    open_axes = np.ix_(*axes)
    vals = yty
    for j, a in enumerate(open_axes):
        vals = vals + ((xtx[j, j] * a - 2.0 * xty[j]) * a + lam * np.abs(a) ** gamma)
    for j in range(len(axes)):
        for k in range(j + 1, len(axes)):
            vals = vals + (2.0 * xtx[j, k]) * open_axes[j] * open_axes[k]
    return vals


def _grid_min(axes: list[np.ndarray], xtx, xty, yty, lam, gamma):
    vals = _grid_values(axes, xtx, xty, yty, lam, gamma)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return np.array([a[i] for a, i in zip(axes, idx)]), float(vals[idx])


def _slice_criterion(x, j: int, xtx, xty, yty, lam: float, gamma: float):
    """The criterion along coordinate j with the others fixed at ``x``,
    ``t -> base + t (lin + q t) + lam |t|^gamma``, returned as ``(base, lin,
    q)`` with ``q = Q_jj``.  ``x``, ``xtx`` and ``xty`` are Python lists, so
    the coefficients are plain floats with no numpy temporaries."""
    base, lin = yty, -2.0 * xty[j]
    for k, xk in enumerate(x):
        if k == j or xk == 0.0:
            continue
        row = xtx[k]
        lin += 2.0 * row[j] * xk
        base += xk * (row[k] * xk - 2.0 * xty[k]) + lam * abs(xk) ** gamma
        for m in range(k + 1, len(x)):
            if m != j:
                base += 2.0 * row[m] * xk * x[m]
    return base, lin, xtx[j][j]


def _side_root(c: float, q: float, lam: float, gamma: float, a: float, b: float) -> float:
    """The interior minimizer of h(s) = c s + q s^2 + lam s^gamma on [a, b],
    0 <= a <= b, or ``a`` when h has none there.

    h'' = 2q - lam gamma (1 - gamma) s^(gamma - 2) increases in s, so h is
    concave up to s* = (lam gamma (1 - gamma) / (2q))^(1 / (2 - gamma)) and
    convex after it: its only possible interior minimizer is the root of h'
    on [max(a, s*), b].  There h' is increasing and convex, so Newton's method
    from the right end stays right of the root and decreases monotonically; a
    bisection step replaces any step that rounding pushes out of the bracket.
    The iteration ends once the Newton correction is below 1e-15 s, tested
    before the bracket: a correction below one ulp leaves the step on the
    bracket's end, which is converged, not out of the bracket.  For gamma = 1,
    s* = 0 and the root is the soft-threshold point.
    """
    pen = lam * gamma
    curv = pen * (1.0 - gamma)
    left = max(a, (curv / (2.0 * q)) ** (1.0 / (2.0 - gamma)))

    def slope(s):
        # pen == 0 is a plain quadratic, whose slope at s = 0 is finite
        return c + 2.0 * q * s + (pen * s ** (gamma - 1.0) if pen else 0.0)

    if left >= b or slope(left) >= 0.0 or slope(b) <= 0.0:
        return a
    s = right = b
    for _ in range(100):
        g = slope(s)
        if g == 0.0:
            return s
        if g > 0.0:
            right = s
        else:
            left = s
        step = s - g / (2.0 * q - curv * s ** (gamma - 2.0))
        if abs(step - s) <= 1e-15 * s:
            return step
        if not left < step < right:
            step = 0.5 * (left + right)
        s = step
    return s


def _slice_min(base, lin, q, lam, gamma, lo, hi) -> tuple[float, float]:
    """Exact minimum ``(t, f(t))`` of f(t) = base + t (lin + q t) + lam |t|^gamma
    on [lo, hi], q > 0: the best of the endpoints, t = 0 when it lies inside,
    and each side's interior minimizer (the negative side mirrored onto
    s = -t >= 0)."""
    cands = [lo, hi, 0.0] if lo < 0.0 < hi else [lo, hi]
    if hi > 0.0:
        cands.append(_side_root(lin, q, lam, gamma, max(lo, 0.0), hi))
    if lo < 0.0:
        cands.append(-_side_root(-lin, q, lam, gamma, max(-hi, 0.0), -lo))

    def f(t):
        return base + t * (lin + q * t) + lam * abs(t) ** gamma

    t = min(cands, key=f)
    return t, f(t)


def _coordinate_polish(x, lo, hi, free, xtx, xty, yty, lam, gamma):
    """Cyclic coordinate descent over the ``free`` coordinates, restricted to
    the sign orthant of the start point ``x`` (the penalty is smooth away from
    zero), each coordinate moved to the exact minimum of its slice by
    ``_slice_min``.  A move is accepted only if it lowers the criterion f by
    more than 1e-12 (1 + |f|), and the descent stops after a sweep that
    accepts none.  Since f >= 0, only finitely many moves can be accepted.
    ``x`` is a list of floats, updated in place; ``lo``, ``hi``, ``xtx`` and
    ``xty`` are Python lists."""
    base, lin, q = _slice_criterion(x, free[0], xtx, xty, yty, lam, gamma)
    t = x[free[0]]
    best = base + t * (lin + q * t) + lam * abs(t) ** gamma
    moved = True
    while moved:
        moved = False
        for j in free:
            b_lo, b_hi = lo[j], hi[j]
            if x[j] > 0.0:
                b_lo = max(b_lo, 0.0)
            elif x[j] < 0.0:
                b_hi = min(b_hi, 0.0)
            base, lin, q = _slice_criterion(x, j, xtx, xty, yty, lam, gamma)
            t, ft = _slice_min(base, lin, q, lam, gamma, b_lo, b_hi)
            if ft < best - 1e-12 * (1.0 + abs(best)):
                x[j] = t
                best = ft
                moved = True
    return np.array(x), best


def _newton_polish(x, val, free, lo, hi, xtx, xty, lam, gamma):
    """Newton's method on the stationarity equations of the polished point
    ``x`` (value ``val``), over its nonzero free coordinates S, the others
    held at zero:  2 (Q b - X'y)_S + lam gamma |b_S|^(gamma - 1) sign(b_S) = 0.
    Within the sign orthant the criterion is smooth, so a minimizer there
    solves them; the polish, which moves only when f drops by more than
    1e-12 (1 + |f|), resolves them only to about sqrt(1e-12).  At gamma = 1
    they are linear and one step solves them.  With one nonzero coordinate
    the polish's last move, an exact slice minimum, already solved its
    equation, and the point is returned as it is.  Returns ``(point, value)``:
    the Newton point if it stays in the orthant and the box [lo, hi] and f
    does not rise, else ``(x, val)``.  The rise is computed from the step d,
    f(b + d) - f(b) = d'(2 (Q b - X'y) + Q d) + lam sum(|b + d|^gamma - |b|^gamma),
    which rounding does not swamp near the minimizer as it does f itself."""
    idx = [j for j in free if x[j] != 0.0]
    if len(idx) < 2:
        return x, val
    q, c, b0 = xtx[np.ix_(idx, idx)], xty[idx], x[idx]
    sign, pen = np.sign(b0), lam * gamma
    b = b0
    for _ in range(20):
        a = np.abs(b)
        grad = 2.0 * (q @ b - c) + pen * a ** (gamma - 1.0) * sign
        hess = 2.0 * q + np.diag(pen * (gamma - 1.0) * a ** (gamma - 2.0))
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return x, val
        b = b - step
        if np.any(np.sign(b) != sign) or np.any(b < lo[idx]) or np.any(b > hi[idx]):
            return x, val
        if np.all(np.abs(step) <= 1e-15 * np.abs(b)):
            break
    d, a0 = b - b0, np.abs(b0)
    rise = d @ (2.0 * (q @ b0 - c) + q @ d) + lam * float(
        np.sum(a0**gamma * np.expm1(gamma * np.log1p(sign * d / a0)))
    )
    if not rise <= 0.0:
        return x, val
    out = x.copy()
    out[idx] = b
    return out, val + rise


def fit_bridge_lasso(responses: np.ndarray, config: LassoConfig) -> LassoFit:
    """Global minimization of the penalized criterion over a box that holds
    every global minimizer (``minimizer_box``).

    First every coordinate that the box proves zero at every global minimizer
    is pinned at exactly 0.0 (``_provably_zero``); the search (``_search``)
    runs over the rest.  With none free the fit is the origin, value y'y.
    With one free the criterion is a one-dimensional slice, and its exact
    minimum over the box is the fit.  With two or three, a 101-per-axis grid
    with the zero axes inserted as exact grid lines picks a start, and a
    coordinate polish over every free coordinate runs from it and from OLS,
    each ended by a Newton solve of the stationarity equations of its
    nonzero coordinates (``_newton_polish``).
    Every slice minimum, alone or as a polish step within the current sign
    orthant, is exact (``_slice_min``): the slice is concave and then convex
    on each side of zero, so its minimum is an endpoint, zero or the one root
    of its derivative on the convex part, found by safeguarded Newton to
    machine precision.  This is the coordinate-descent update of Friedman,
    Hastie, Hoefling & Tibshirani (2007).  A coordinate is reported as exactly
    zero whenever it is screened or its slice minimum is zero.

    The screen changes no fit: every global minimizer already has the screened
    coordinates at zero.  It shrinks the work.  On the ``lasso`` ladder
    (gamma = 1/2, n = 250...2000) it pins alpha2 on every fit, which leaves
    one free coordinate and no grid; at d = 3 it pins both null coordinates on
    nearly every ladder fit.

    The criterion is evaluated through (X'X, X'y, y'y) only.  On the grid it
    is a separable sum of per-axis terms plus pairwise products, broadcast into
    the grid array; along a slice it is a scalar quadratic plus the penalty
    term, on plain floats.  The grid has up to 102^d points when no
    coordinate is screened, so d is capped at 3.
    """
    y = np.asarray(responses, dtype=np.float64).ravel()
    X = config.design[None]
    n, d = X.shape[1:]
    if y.size != n:
        raise ValueError("responses length does not match the design")
    if not np.isfinite(y).all():
        raise ValueError("responses contain non-finite values")
    if d > 3:
        raise ValueError(
            f"d = {d} is not supported (d <= 3): the grid stage holds 102^d criterion "
            "values, and one float64 array of a 102^4 grid is 0.87 GB"
        )
    return fit_bridge_lasso_block(X, y[None], config.xtx[None], config.lambda_n, config.gamma)[0]


def fit_bridge_lasso_block(
    design: np.ndarray, responses: np.ndarray, xtx: np.ndarray, lam: float, gamma: float
) -> list[LassoFit]:
    """``fit_bridge_lasso`` of each instance of a stack: designs (B, n, d)
    with their Gram matrices X'X (B, d, d), as ``generate_lasso_designs``
    returns them, responses (B, n), and one penalty ``lam`` = lambda_n and
    exponent ``gamma`` for all.

    X'y, y'y, the box and the screen are computed once for the whole stack,
    by stacked matmul in the association of the one-instance products, which
    runs the same kernel on each instance (``np.einsum`` would round
    differently); then ``_search`` runs on each instance.  No check is made:
    ``fit_bridge_lasso`` and ``generate_lasso_designs`` make them.
    """
    y = responses[..., None]
    xty = (np.swapaxes(design, 1, 2) @ y)[..., 0]
    yty = (np.swapaxes(y, 1, 2) @ y)[:, 0, 0].tolist()
    ols, lo, hi = minimizer_box(xtx, xty, lam, gamma)
    free = ~_provably_zero(xtx, xty, ols, lo, hi, lam, gamma)
    fits = []
    for b, yty_b in enumerate(yty):
        free_b = np.flatnonzero(free[b]).tolist()
        x, val = _search(free_b, ols[b], lo[b], hi[b], xtx[b], xty[b], yty_b, lam, gamma)
        fits.append(LassoFit(alpha_hat=x, zero_flags=x == 0.0, criterion_value=val))
    return fits


def _search(free, ols, lo, hi, xtx, xty, yty, lam, gamma):
    """The search of ``fit_bridge_lasso`` over the coordinates ``free``, every
    other one pinned at exactly 0.0; returns ``(point, value)``, the origin
    with value y'y when no candidate is lower.  With ``free = range(d)`` it is
    the search with no screen.  One free coordinate j leaves the slice
    y'y - 2 (X'y)_j t + Q_jj t^2 + lam |t|^gamma, minimized exactly."""
    d = ols.size
    best_x, best_val = np.zeros(d), yty
    lo_list, hi_list, q_list, c_list = lo.tolist(), hi.tolist(), xtx.tolist(), xty.tolist()
    if len(free) == 1:
        (j,) = free
        best_x[j], best_val = _slice_min(
            yty, -2.0 * c_list[j], q_list[j][j], lam, gamma, lo_list[j], hi_list[j]
        )
    elif free:
        sub = np.ix_(free, free)
        best_x[free], best_val = _grid_min(
            _grid_points(lo[free], hi[free], 101), xtx[sub], xty[free], yty, lam, gamma
        )
        ols_start = [v if j in free else 0.0 for j, v in enumerate(ols.tolist())]
        for start in (best_x.tolist(), ols_start):
            x, val = _coordinate_polish(
                start, lo_list, hi_list, free, q_list, c_list, yty, lam, gamma
            )
            x, val = _newton_polish(x, val, free, lo, hi, xtx, xty, lam, gamma)
            if val < best_val:
                best_x, best_val = x, val
    if yty < best_val:
        best_x, best_val = np.zeros(d), yty
    return best_x, best_val
