"""Two-cluster k-means on planar samples, tracked near two fixed starting
configurations.

The two-line distribution has two tied optimal center pairs.  Relative to a
pair the four center coordinates are reparametrized into a slow block
``a = (delta_s, eps_d)`` (split-line position and tilt) and a fast block
``b = (delta_d, eps_s)`` (center spread and common offset); the blocks settle
at different rates when the split line crosses the support transversally.
The fit is defined by its criterion: Lloyd iteration, then Hartigan's
single-point transfers until no transfer lowers the within-cluster sum of
squares (``fit_kmeans2``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KmeansCoords",
    "KmeansGlobalResult",
    "KmeansWorkspace",
    "INIT_CENTERS",
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


def _discriminate(points: np.ndarray, centers: np.ndarray, proj: np.ndarray, out: np.ndarray):
    """Nearest-center labels as bools in ``out`` (True for center index 1),
    with ``proj`` holding the projections; squared-distance ties go to index
    0.

    |p - c1|^2 < |p - c0|^2 is the linear discriminant
    p . (c1 - c0) > (|c1|^2 - |c0|^2) / 2, so labelling is one
    matrix-vector product.
    """
    c0, c1 = centers
    np.matmul(points, c1 - c0, out=proj)
    return np.greater(proj, 0.5 * (c1 @ c1 - c0 @ c0), out=out)


def _cluster_means(points, count1: int, sum1, centers: np.ndarray, total):
    """Cluster means from cluster 1's count ``count1`` and sum ``sum1``;
    cluster 0's sum is the sample total ``total`` minus ``sum1``, so no
    masked copy of the points is made.  An emptied cluster is re-seeded at
    the point farthest from the other center.  Returns (new_centers,
    repaired_flag)."""
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


class KmeansWorkspace:
    """One loaded sample, the sums that both starts share and the per-point
    buffers of ``fit_kmeans2``, reused from fit to fit so that no Lloyd step
    or transfer pass allocates an array of the sample's length.

    The buffers grow to the largest sample loaded and hold a smaller one in
    their leading part.  Loading a sample overwrites the one loaded before
    it, so a workspace serves one fit at a time.

    Lloyd takes both cluster sums from the sample total and ``weights @
    points``, with ``weights`` the float copy of the labels.  The transfers
    work on the columns ``x`` and ``y`` taken about the sample mean
    ``shift``, so the rounding of the squared distances stays far below the
    floor wherever the sample lies.
    """

    def __init__(self):
        # one row per buffer that ``load`` names
        self._floats = np.empty((9, 0))
        self._bools = np.empty((4, 0), dtype=bool)

    def load(self, sample) -> KmeansWorkspace:
        """Validate ``sample``, do the work both starts share and return the
        workspace, now holding it."""
        points = np.asarray(sample, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("sample must be an (n, 2) array of planar points")
        n = points.shape[0]
        if n < 4:
            raise ValueError("need at least four points")
        if not np.isfinite(points).all():
            raise ValueError("sample contains non-finite values")
        if n > self._floats.shape[1]:
            self._floats = np.empty((len(self._floats), n))
            self._bools = np.empty((len(self._bools), n), dtype=bool)
        self.points = points
        (self.x, self.y, self.proj, self.weights, self.d0, self.d1,
         self.gain0, self.gain1, self.floor) = self._floats[:, :n]
        self.labels, self.next_labels, self.mask0, self.mask1 = self._bools[:, :n]
        self.weights.fill(1.0)
        self.total = self.weights @ points
        # column by column: reductions along axis 0 of an (n, 2) array are
        # about ten times slower
        self.shift = np.array([points[:, 0].mean(), points[:, 1].mean()])
        np.subtract(points[:, 0], self.shift[0], out=self.x)
        np.subtract(points[:, 1], self.shift[1], out=self.y)
        self.xy_total = (float(self.x.sum()), float(self.y.sum()))
        return self


def _lloyd(data: KmeansWorkspace, init: str):
    """Lloyd iteration from the ``init`` starting pair until the assignments
    repeat or for at most 200 steps.  Returns (labels, centers,
    repaired_flag), the labels as one of the workspace's bool buffers; at a
    repeat the centers are the means of ``labels``."""
    points = data.points
    centers = INIT_CENTERS[init].copy()
    labels = _discriminate(points, centers, data.proj, data.labels)
    new_labels = data.next_labels
    repaired = False
    for _ in range(200):
        np.copyto(data.weights, labels)
        centers, rep = _cluster_means(
            points, np.count_nonzero(labels), data.weights @ points, centers, data.total
        )
        repaired = repaired or rep
        _discriminate(points, centers, data.proj, new_labels)
        if not np.not_equal(new_labels, labels, out=data.mask0).any():
            break
        labels, new_labels = new_labels, labels
    return labels, centers, repaired


def _gain(d_own, d_other, n_own: int, n_other: int, out=None, scratch=None):
    """Drop in the within-cluster sum of squares when a point at squared
    distances ``d_own`` and ``d_other`` from the means of its cluster (size
    ``n_own``) and of the other (size ``n_other``) changes sides.  The only
    member of a cluster may not leave: its gain is never positive.  For
    arrays the gain is written to ``out``, with ``scratch`` as a buffer."""
    leave = n_own / (n_own - 1) if n_own > 1 else 0.0
    join = n_other / (n_other + 1)
    if out is None:
        return leave * d_own - join * d_other
    np.multiply(d_own, leave, out=out)
    np.multiply(d_other, join, out=scratch)
    return np.subtract(out, scratch, out=out)


def _transfers(data: KmeansWorkspace, labels: np.ndarray):
    """Hartigan's single-point transfers from the partition ``labels``, a
    bool array that they change in place, by the rule stated in
    ``fit_kmeans2``.  Returns (labels, centers, criterion value), read from
    the last pass, which moves nothing.  A cluster stays empty only if every
    point lies at the sample mean, which is then its center.
    """
    x, y, d0, d1, gain0, gain1, floor = (
        data.x, data.y, data.d0, data.d1, data.gain0, data.gain1, data.floor
    )
    up0, up1 = data.mask0, data.mask1
    n = len(x)
    total = data.xy_total
    while True:
        # einsum rather than a BLAS dot: OpenBLAS spreads long dot products
        # over threads, and waking them costs more than these sums
        np.copyto(data.weights, labels)
        sum1 = [float(np.einsum("i,i->", data.weights, v)) for v in (x, y)]
        count1 = int(np.count_nonzero(labels))
        count = [n - count1, count1]
        sums = [[t - s for t, s in zip(total, sum1)], sum1]
        means = [[s / max(c, 1) for s in sj] for sj, c in zip(sums, count)]
        for d, (mx, my) in zip((d0, d1), means):
            # d = (x - mx)^2 + (y - my)^2, with gain0 as scratch
            np.square(np.subtract(x, mx, out=d), out=d)
            d += np.square(np.subtract(y, my, out=gain0), out=gain0)
        _gain(d0, d1, count[0], count[1], out=gain0, scratch=floor)
        _gain(d1, d0, count[1], count[0], out=gain1, scratch=floor)
        np.multiply(np.add(d0, d1, out=floor), 1e-12, out=floor)
        # masks rather than np.where, which branches on every point's label
        np.greater(gain0, floor, out=up0)
        up0 &= np.logical_not(labels, out=up1)
        np.greater(gain1, floor, out=up1)
        up1 &= labels
        cand = np.flatnonzero(np.logical_or(up0, up1, out=up0))
        gain = np.where(labels[cand], gain1[cand], gain0[cand])
        moved = False
        for i in cand[np.argsort(-gain, kind="stable")].tolist():
            a = int(labels[i])
            b = 1 - a
            p = (float(x[i]), float(y[i]))
            da, db = (
                sum((p[k] - sums[j][k] / max(count[j], 1)) ** 2 for k in (0, 1)) for j in (a, b)
            )
            if _gain(da, db, count[a], count[b]) <= 1e-12 * (da + db):
                continue
            for k in (0, 1):
                sums[a][k] -= p[k]
                sums[b][k] += p[k]
            count[a] -= 1
            count[b] += 1
            labels[i] = b
            moved = True
        if not moved:
            break
    return labels, np.array(means) + data.shift, float(np.minimum(d0, d1, out=gain0).mean())


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
    """The 2-means fit near the ``init`` starting pair: a partition of the
    sample that no single-point transfer improves, with its cluster means as
    the centers and its within-cluster mean square as ``w_value``.

    Lloyd iteration runs first, until the assignments repeat or for 200
    steps.  Each step labels the points by the linear discriminant
    (``_discriminate``) and takes both cluster sums from one product
    labels @ points and the sample total (``_cluster_means``).  Hartigan's
    single-point transfers (Hartigan and Wong 1979, AS 136) then start from
    Lloyd's partition (``_transfers``).  Moving p from cluster A to cluster B
    lowers the sum of squares by n_A/(n_A-1) |p - m_A|^2 - n_B/(n_B+1)
    |p - m_B|^2.  A pass evaluates that gain for every point at once and
    moves, largest first, the points whose gain, re-checked on running sums,
    exceeds the rounding floor 1e-12 (|p - m_A|^2 + |p - m_B|^2) without
    emptying A.  The search stops after a pass that moves nothing.  It
    terminates because each move lowers the sum of squares strictly and
    there are finitely many partitions.  At the stop no single transfer
    improves the criterion, so the partition is also a Lloyd fixed point
    (Telgarsky and Vattani 2010): each point is nearest its own cluster's
    mean, and the centers are the means of their Voronoi cells.

    Every step and pass works in the buffers of a :class:`KmeansWorkspace`.
    ``fit_kmeans2_global`` loads each sample once for both starts, and the
    ``kmeans`` runner keeps one workspace for a block of replicates.  The
    projections ``points @ (c1 - c0)`` and the cluster sums
    ``labels @ points`` stay BLAS matrix-vector products, so a fit is bit for
    bit the same in any workspace.

    A fit that wanders more than Hausdorff distance 1/2 from its start is
    flagged but still returned.  Non-finite points are rejected with
    ``ValueError``.
    """
    data = KmeansWorkspace().load(sample)
    if init not in INIT_CENTERS:
        raise ValueError(f"init must be 'cv' or 'ch', got {init!r}")
    return _fit(data, init)


def _fit(data: KmeansWorkspace, init: str) -> KmeansCoords:
    labels, _, repaired = _lloyd(data, init)
    _, centers, w = _transfers(data, labels)
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


def fit_kmeans2_global(
    sample: np.ndarray, *, workspace: KmeansWorkspace | None = None
) -> KmeansGlobalResult:
    """Fit from both starts and pick the lower criterion value; exact ties go
    to the cv start and are recorded.  The sample is validated and loaded
    once for both fits, into ``workspace`` or, without one, a fresh
    workspace."""
    data = (KmeansWorkspace() if workspace is None else workspace).load(sample)
    cv = _fit(data, "cv")
    ch = _fit(data, "ch")
    tie = cv.w_value == ch.w_value
    choice = "cv" if cv.w_value <= ch.w_value else "ch"
    return KmeansGlobalResult(choice=choice, tie=tie, coords_cv=cv, coords_ch=ch)
