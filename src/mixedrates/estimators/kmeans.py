"""Two-cluster k-means on planar samples, tracked near two fixed starting
configurations.

The two-line distribution has two tied optimal center pairs.  Relative to a
pair the four center coordinates are reparametrized into a slow block
``a = (delta_s, eps_d)`` (split-line position and tilt) and a fast block
``b = (delta_d, eps_s)`` (center spread and common offset); the blocks settle
at different rates when the split line crosses the support transversally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KmeansCoords",
    "KmeansGlobalResult",
    "INIT_CENTERS",
    "assign_clusters",
    "update_centers",
    "within_ss",
    "centers_from_coords",
    "fit_kmeans2",
    "fit_kmeans2_global",
]

INIT_CENTERS = {
    "cv": np.array([[-1.0, 0.0], [1.0, 0.0]]),
    "ch": np.array([[0.0, -1.0], [0.0, 1.0]]),
}


@dataclass(frozen=True, eq=False)
class KmeansCoords:
    """Fitted center pair in block coordinates plus raw centers and criterion.

    ``centers`` has center 1 in row 0; centers are ordered by x for the cv
    start and by y for the ch start so the transform is well defined.
    """

    delta_s: float
    eps_d: float
    delta_d: float
    eps_s: float
    centers: np.ndarray
    w_value: float
    init: str
    empty_repair: bool = False
    left_neighborhood: bool = False

    @property
    def a_block(self) -> np.ndarray:
        return np.array([self.delta_s, self.eps_d])

    @property
    def b_block(self) -> np.ndarray:
        return np.array([self.delta_d, self.eps_s])


def assign_clusters(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels in {0, 1}; squared-distance ties go to center 1
    (index 0).

    |p - c1|^2 < |p - c0|^2 is the linear discriminant
    p . (c1 - c0) > (|c1|^2 - |c0|^2) / 2, so labelling is one
    matrix-vector product.
    """
    c0, c1 = centers
    return (points @ (c1 - c0) > 0.5 * (c1 @ c1 - c0 @ c0)).astype(np.int8)


def update_centers(
    points: np.ndarray, labels: np.ndarray, centers: np.ndarray, total: np.ndarray | None = None
):
    """Cluster means; an emptied cluster is re-seeded at the point farthest
    from the other center.  Returns (new_centers, repaired_flag).

    Cluster 1's sum is ``labels @ points`` and cluster 0's is the sample
    total minus it, so no masked copy of the points is made.  ``total`` is
    the sample total ``np.ones(n) @ points``, computed here when not given.
    """
    if total is None:
        total = np.ones(len(points)) @ points
    count1 = np.count_nonzero(labels)
    sum1 = labels @ points
    counts = (len(points) - count1, count1)
    sums = (total - sum1, sum1)
    new = centers.copy()
    repaired = False
    for j in (0, 1):
        if counts[j]:
            new[j] = sums[j] / counts[j]
        else:
            other = new[1 - j]
            far = int(np.argmax(np.sum((points - other) ** 2, axis=1)))
            new[j] = points[far]
            repaired = True
    return new, repaired


def within_ss(points: np.ndarray, centers: np.ndarray) -> float:
    """Mean squared distance to the nearest center (the k-means criterion)."""
    d0 = np.sum((points - centers[0]) ** 2, axis=1)
    d1 = np.sum((points - centers[1]) ** 2, axis=1)
    return float(np.minimum(d0, d1).mean())


class _Band:
    """The k-means criterion for center pairs within ``radius`` (per
    coordinate) of ``centers``, split by which points can change sides.

    Moving each center by at most ``radius`` per coordinate changes a point's
    margin d1 - d0 by at most 2 (2 radius max_j |p - c_j|_1 + 2 radius^2).
    Points whose margin exceeds that keep their nearer center, and they enter
    every criterion value through three sums per center, taken about that
    center's starting position s: the count, the sum of p - s and the sum of
    |p - s|^2.  Sums about s rather than the origin keep the criterion
    accurate for samples far from the origin.  Only the band of the
    remaining points is evaluated point by point.  ``value`` is the
    criterion at ``centers``; ``candidate_values`` evaluates the eight
    compass moves of the pair last passed to ``move_to``, at any number of
    step sizes in one call.
    """

    def __init__(self, points: np.ndarray, centers: np.ndarray, radius: float):
        x, y = points.T.copy()
        resids, dists, l1 = [], [], []
        for cx, cy in centers:
            rx, ry = x - cx, y - cy
            resids.append((rx, ry))
            dists.append(rx * rx + ry * ry)
            l1.append(np.abs(rx) + np.abs(ry))
        d0, d1 = dists
        self.value = float(np.minimum(d0, d1).mean())
        margin = d1 - d0
        # the last term covers rounding in the distances
        reach = 4.0 * radius * np.maximum(*l1) + 4.0 * radius**2 + 1e-12 * (d0 + d1)
        owned = [(margin > reach).astype(np.float64), (margin < -reach).astype(np.float64)]
        # einsum rather than a BLAS dot: OpenBLAS spreads long dot products
        # over threads, and waking them costs more than these sums
        sums = np.array(
            [[np.einsum("i,i->", w, v) for v in (*r, d)] for w, r, d in zip(owned, resids, dists)]
        )
        self.start = centers.copy()
        self.count = np.array([w.sum() for w in owned])
        self.sum, self.sumsq = sums[:, :2], sums[:, 2]
        self._count3 = self.count[:, None, None]
        band = np.abs(margin) <= reach
        self.points = np.stack([x[band], y[band]])  # [axis, point]
        self.n = len(points)
        self.move_to(centers)

    def move_to(self, cur: np.ndarray) -> None:
        """Take ``cur`` as the pair whose candidate moves are evaluated."""
        # fixed-owner points, with u = c - s:
        # sum |p - c|^2 = sumsq - 2 sum.u + count |u|^2 (= sumsq - (sum + lin).u),
        # and moving c_k by delta adds -2 delta lin_k + count delta^2,
        # where lin = sum(p - c) = sum - count u
        u = cur - self.start
        lin = self.sum - self.count[:, None] * u
        stay = self.sumsq - ((self.sum + lin) * u).sum(axis=1)
        self._fixed = (stay + stay[::-1])[:, None, None]
        self._fixed_lin = 2.0 * lin[:, :, None]
        resid = self.points[None] - cur[:, :, None]  # [center, axis, point]
        d = (resid * resid).sum(axis=1)
        self._band_d = d[:, None, None, :]
        self._band_other = d[::-1, None, None, :]
        self._band_lin = 2.0 * resid[:, :, None, :]

    def candidate_values(self, steps) -> np.ndarray:
        """Criterion values with one coordinate of the current pair moved by
        +/-step, for each step in the sequence ``steps`` (Python floats),
        indexed [step, center, axis, sign] with the + move first."""
        step = np.array(steps, dtype=np.float64)[:, None, None, None]
        sq = np.array([s**2 for s in steps])[:, None, None, None]
        delta = np.concatenate([step, -step], axis=-1)  # [step, 1, 1, sign]
        fixed = self._fixed + self._count3 * sq - self._fixed_lin * delta
        # band points: one [step, center, axis, sign, point] expression
        moved = self._band_d - self._band_lin * delta[..., None] + sq[..., None]
        band = np.minimum(moved, self._band_other, out=moved).sum(axis=-1)
        return (fixed + band) / self.n


def _lloyd(points: np.ndarray, init: str):
    """Lloyd iteration from the ``init`` starting pair until the assignments
    repeat or for at most 200 steps.  Returns (centers, repaired_flag)."""
    centers = INIT_CENTERS[init].copy()
    labels = assign_clusters(points, centers)
    total = np.ones(len(points)) @ points
    repaired = False
    for _ in range(200):
        centers, rep = update_centers(points, labels, centers, total)
        repaired = repaired or rep
        new_labels = assign_clusters(points, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, repaired


def _pattern_search(points, centers, step: float, rounds: int = 40):
    """Compass search on the four center coordinates: move to the best
    improvement among +/-step per coordinate, halving the step on failure,
    for at most ``rounds`` rounds.

    Improvements below the float-noise floor are rejected so an exact fixed
    point (e.g. a perfectly symmetric sample) is left untouched.  Among the
    eight candidates of a round the first that beats the running best by the
    noise floor, in the order (center, axis, +/-), replaces it.  No
    coordinate can move more than rounds * step, so the candidates are
    evaluated through ``_Band``, which splits the points once.

    A round that fails only halves the step, so the rounds up to the next
    move are evaluated together: one ``candidate_values`` call takes step,
    step/2, ... for every round left.  The first level j with a candidate
    below best - noise is the round that moves; it uses up j + 1 rounds and
    its step is kept.  When no level improves, the remaining rounds would
    only halve, and the search stops.  Each value is the same float
    expression as in a round-by-round search, so the result is bit for bit
    the same.  A ladder fit moves 0.7-1.8 times on average, so it makes
    about 2-3 calls in place of 40.
    """
    band = _Band(points, centers, rounds * step)
    best = band.value
    cur = centers.copy()
    # the [step, center, axis, sign, point] array of one call stays under
    # 2^22 elements however wide the band is
    per_call = max(1, 2**19 // max(1, band.points.shape[1]))
    left = rounds
    while left:
        steps = [step * 0.5**j for j in range(min(left, per_call))]
        vals = band.candidate_values(steps).reshape(len(steps), 8)
        noise = 1e-12 * (1.0 + abs(best))
        improves = (vals < best - noise).any(axis=1)
        if not improves.any():
            left -= len(steps)
            step = steps[-1] * 0.5
            continue
        level = int(np.argmax(improves))
        left -= level + 1
        step = steps[level]
        best_move, best_val = None, best
        for move, val in enumerate(vals[level].tolist()):
            if val < best_val - noise:
                best_move, best_val = move, val
        j, k, sign = np.unravel_index(best_move, (2, 2, 2))
        cur[j, k] += step if sign == 0 else -step
        band.move_to(cur)
        best = best_val
    return cur, best


def _order_centers(centers: np.ndarray, init: str) -> np.ndarray:
    axis = 0 if init == "cv" else 1
    if centers[0, axis] > centers[1, axis]:
        return centers[::-1].copy()
    return centers


def _coords_from_centers(centers: np.ndarray, init: str):
    """Block coordinates of an ordered center pair, in the frame anchored at
    the starting configuration.

    For the cv anchor: delta_s and eps_s are the mean x and y of the pair,
    delta_d is the deviation of the half-gap from 1, and eps_d is half the y
    difference (the split-line tilt).  The ch anchor swaps the roles of the
    axes.  The map is linear and inverts exactly.
    """
    (c1x, c1y), (c2x, c2y) = centers
    if init == "ch":
        c1x, c1y, c2x, c2y = c1y, c1x, c2y, c2x
    delta_s = 0.5 * (c1x + c2x)
    delta_d = 1.0 + 0.5 * (c1x - c2x)
    eps_s = 0.5 * (c1y + c2y)
    eps_d = 0.5 * (c1y - c2y)
    return delta_s, eps_d, delta_d, eps_s


def centers_from_coords(delta_s, eps_d, delta_d, eps_s, init: str = "cv") -> np.ndarray:
    """Inverse of the block transform (center 1 first)."""
    c1 = [delta_s + (delta_d - 1.0), eps_s + eps_d]
    c2 = [delta_s - (delta_d - 1.0), eps_s - eps_d]
    if init == "ch":
        c1 = c1[::-1]
        c2 = c2[::-1]
    return np.array([c1, c2])


def _hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def fit_kmeans2(sample: np.ndarray, init: str) -> KmeansCoords:
    """Lloyd iteration from the chosen starting pair, then a pattern-search
    polish that can descend below the Lloyd fixed point.

    Lloyd stops when assignments repeat or after 200 iterations.  Each step
    labels the points by the linear discriminant
    p . (c1 - c0) > (|c1|^2 - |c0|^2)/2 (``assign_clusters``) and takes
    both cluster sums from one product labels @ points and the sample total,
    taken once per fit (``update_centers``).  The polish is a compass search
    of at most 40 rounds with initial step 1e-3 * n^(-1/4), so no coordinate
    moves more than 40 times that step.  A round moves to the first
    candidate that beats the best value by the noise floor, or halves the
    step.  The points are split once: a point whose margin |d1 - d0| exceeds
    what such moves can change keeps its center and enters every candidate
    value through per-center sums; only the band of the others, about
    0.1 n^(3/4) points, is evaluated point by point (``_Band``).  The rounds
    up to each move are evaluated in one call, at every remaining step
    halving (``_pattern_search``), so a fit makes about 2-3 such calls where
    a round-by-round search makes 40, with the same result bit for bit.

    The cap, not a stopping rule, ends some searches: on the 600 seed-1729
    fits of the n = 1000...16000 ladder, 13 still move in round 40, all
    from the cv start.  Run uncapped, 11 of them stop by round 201, but two,
    (n, r) = (1000, 53) and (8000, 50), still move in round 599, so the
    capped result is where the cap leaves the search.

    A fit that wanders more than Hausdorff distance 1/2 from its start is
    flagged but still returned.  Non-finite points are rejected with
    ``ValueError``.
    """
    points = np.asarray(sample, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("sample must be an (n, 2) array of planar points")
    n = points.shape[0]
    if n < 4:
        raise ValueError("need at least four points")
    if not np.isfinite(points).all():
        raise ValueError("sample contains non-finite values")
    if init not in INIT_CENTERS:
        raise ValueError(f"init must be 'cv' or 'ch', got {init!r}")

    centers, repaired = _lloyd(points, init)
    centers, w = _pattern_search(points, centers, step=1e-3 * n ** -0.25)
    centers = _order_centers(centers, init)
    delta_s, eps_d, delta_d, eps_s = _coords_from_centers(centers, init)
    left = _hausdorff(centers, INIT_CENTERS[init]) > 0.5
    return KmeansCoords(
        delta_s=delta_s,
        eps_d=eps_d,
        delta_d=delta_d,
        eps_s=eps_s,
        centers=centers,
        w_value=w,
        init=init,
        empty_repair=repaired,
        left_neighborhood=left,
    )


@dataclass(frozen=True, eq=False)
class KmeansGlobalResult:
    choice: str  # "cv" or "ch"
    tie: bool
    coords_cv: KmeansCoords
    coords_ch: KmeansCoords


def fit_kmeans2_global(sample: np.ndarray) -> KmeansGlobalResult:
    """Fit from both starts and pick the lower criterion value; exact ties go
    to the cv start and are recorded."""
    cv = fit_kmeans2(sample, "cv")
    ch = fit_kmeans2(sample, "ch")
    tie = cv.w_value == ch.w_value
    choice = "cv" if cv.w_value <= ch.w_value else "ch"
    return KmeansGlobalResult(choice=choice, tie=tie, coords_cv=cv, coords_ch=ch)
