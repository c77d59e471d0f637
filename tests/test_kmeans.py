import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixedrates.distributions import SeedStream
from mixedrates.estimators import kmeans
from mixedrates.estimators import (
    INIT_CENTERS,
    centers_from_coords,
    fit_kmeans2,
    fit_kmeans2_global,
    within_ss,
)
from mixedrates.harness import _replicate_stream
from mixedrates.limits import kmeans_two_line_sample

SYMMETRIC4 = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def full_pattern_search(points, centers, step, rounds=40):
    """The capped compass search on the four center coordinates that the fit
    once ended with, every candidate a pass over the whole sample: the
    reference the transfer search must match or beat.  Returns (centers,
    value, index of the last round that moved)."""
    d = [np.sum((points - centers[j]) ** 2, axis=1) for j in (0, 1)]
    best = float(np.minimum(d[0], d[1]).mean())
    cur = centers.copy()
    last_move = None
    for rnd in range(rounds):
        best_move, best_val = None, best
        noise = 1e-12 * (1.0 + abs(best))
        for j in (0, 1):
            for k in (0, 1):
                resid = points[:, k] - cur[j, k]
                for sign in (1.0, -1.0):
                    delta = sign * step
                    dj = d[j] - 2.0 * delta * resid + delta * delta
                    val = float(np.minimum(dj, d[1 - j]).mean())
                    if val < best_val - noise:
                        best_move, best_val = (j, k, delta), val
        if best_move is None:
            step *= 0.5
        else:
            j, k, delta = best_move
            cur[j, k] += delta
            d[j] = np.sum((points - cur[j]) ** 2, axis=1)
            best = best_val
            last_move = rnd
    return cur, best, last_move


def nearest(points, centers):
    """Nearest-center labels by the discriminant kernel, True for center
    index 1, in fresh buffers."""
    n = len(points)
    return kmeans._discriminate(points, centers, np.empty(n), np.empty(n, dtype=bool))


def cluster_means(points, labels, centers):
    """The Lloyd update of the kernels: the means of the clusters of
    ``labels``, from cluster 1's count and sum and the sample total."""
    total = np.ones(len(points)) @ points
    count1 = np.count_nonzero(labels)
    return kmeans._cluster_means(points, count1, labels @ points, centers, total)


def lloyd(points, init):
    return kmeans._lloyd(kmeans.KmeansWorkspace().load(points), init)


def lloyd_centers(points, init):
    return lloyd(points, init)[1]


def transfers(points, labels):
    """The transfer search from a copy of ``labels``, in a fresh workspace."""
    return kmeans._transfers(kmeans.KmeansWorkspace().load(points), np.array(labels, dtype=bool))


def worst_transfer_drop(points, labels, chunk=200):
    """Largest relative drop in the within-cluster sum of squares over every
    partition that differs from ``labels`` in one point and leaves both
    clusters non-empty.  Each partition's sum of squares is recomputed from
    its masked means, without the closed-form transfer gain."""

    def sum_of_squares(ones):  # ones[k, i]: point i in cluster 1 of partition k
        out = 0.0
        for weight in (ones, 1.0 - ones):
            count = weight.sum(axis=1)
            for v in points.T:
                mean = (weight @ v) / count
                out = out + (weight * (v - mean[:, None]) ** 2).sum(axis=1)
        return out

    ones = np.asarray(labels, dtype=np.float64)
    base = sum_of_squares(ones[None])[0]
    worst = -np.inf
    for idx in np.array_split(np.arange(len(points)), max(1, len(points) // chunk)):
        moved = np.repeat(ones[None], len(idx), axis=0)
        moved[np.arange(len(idx)), idx] = 1.0 - ones[idx]
        count1 = moved.sum(axis=1)
        keep = (count1 > 0) & (count1 < len(points))
        if keep.any():
            worst = max(worst, np.max(base - sum_of_squares(moved[keep])) / base)
    return worst


def ladder_sample(n, r):
    return kmeans_two_line_sample(n, _replicate_stream(1729, "kmeans", n, r, "data"))


def polish_step(n):
    return 1e-3 * n**-0.25


class TestSymmetricFixedPoint:
    def test_cv_start_stays_exactly(self):
        fit = fit_kmeans2(SYMMETRIC4, "cv")
        assert fit.centers.tolist() == [[-1.0, 0.0], [1.0, 0.0]]
        assert (fit.delta_s, fit.eps_d, fit.delta_d, fit.eps_s) == (0.0, 0.0, 0.0, 0.0)
        assert fit.w_value == 1.0

    def test_ch_start_ties_exactly(self):
        fit = fit_kmeans2(SYMMETRIC4, "ch")
        assert fit.centers.tolist() == [[0.0, -1.0], [0.0, 1.0]]
        assert fit.w_value == 1.0

    def test_global_tie_goes_to_cv(self):
        res = fit_kmeans2_global(SYMMETRIC4)
        assert res.choice == "cv"
        assert res.tie


class TestLloydMechanics:
    def test_assignment_ties_go_to_first_center(self):
        centers = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = nearest(np.array([[1.0, 0.0]]), centers)
        assert labels.tolist() == [False]

    def test_lloyd_descends_monotonically(self):
        pts = kmeans_two_line_sample(2000, SeedStream(21, 0))
        centers = INIT_CENTERS["cv"].copy()
        labels = nearest(pts, centers)
        last = within_ss(pts, centers)
        for _ in range(50):
            centers, _ = cluster_means(pts, labels, centers)
            new_labels = nearest(pts, centers)
            val = within_ss(pts, centers)
            assert val <= last + 1e-12
            last = val
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels

    def test_polish_never_above_lloyd_value(self):
        pts = kmeans_two_line_sample(3000, SeedStream(21, 1))
        centers = lloyd_centers(pts, "cv")
        lloyd_value = within_ss(pts, centers)
        fit = fit_kmeans2(pts, "cv")
        assert fit.w_value <= lloyd_value + 1e-12

    def test_empty_cluster_repair_flagged(self):
        # all mass far on one side: the ch start empties a cluster
        pts = np.array([[5.0, 5.0], [5.1, 5.0], [5.0, 5.1], [5.2, 5.2]])
        fit = fit_kmeans2(pts, "ch")
        assert fit.empty_repair
        assert fit.left_neighborhood

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_kmeans2(SYMMETRIC4[:3], "cv")
        with pytest.raises(ValueError):
            fit_kmeans2(SYMMETRIC4, "diagonal")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        pts = kmeans_two_line_sample(100, SeedStream(21, 2))
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_kmeans2(pts, "cv")
        with pytest.raises(ValueError, match="non-finite"):
            fit_kmeans2_global(pts)


class TestKernels:
    def test_discriminant_labels_match_distance_comparison(self):
        gen = SeedStream(27, 0).generator()
        for _ in range(20):
            pts = gen.normal(0.0, 2.0, size=(5000, 2))
            centers = gen.normal(0.0, 1.0, size=(2, 2))
            d0 = np.sum((pts - centers[0]) ** 2, axis=1)
            d1 = np.sum((pts - centers[1]) ** 2, axis=1)
            assert np.array_equal(nearest(pts, centers), d1 < d0)

    @pytest.mark.parametrize(
        "centers, ties",
        [
            ([[0.0, 0.0], [2.0, 0.0]], [[1.0, -3.0], [1.0, 0.0], [1.0, 0.5], [1.0, 7.25]]),
            ([[-1.5, 0.25], [0.5, 0.25]], [[-0.5, -2.0], [-0.5, 0.25], [-0.5, 9.5]]),
            ([[0.0, 0.0], [1.0, 1.0]], [[0.25, 0.75], [2.0, -1.0], [-3.5, 4.5]]),
        ],
    )
    def test_exact_ties_go_to_first_center(self, centers, ties):
        centers = np.array(centers)
        ties = np.array(ties)
        d0 = np.sum((ties - centers[0]) ** 2, axis=1)
        d1 = np.sum((ties - centers[1]) ** 2, axis=1)
        assert np.array_equal(d0, d1)
        assert nearest(ties, centers).tolist() == [False] * len(ties)
        assert nearest(ties, centers[::-1]).tolist() == [False] * len(ties)

    def test_update_matches_masked_means(self):
        pts = kmeans_two_line_sample(3000, SeedStream(27, 1))
        centers = np.array([[-0.9, 0.1], [1.1, -0.05]])
        labels = nearest(pts, centers)
        new, repaired = cluster_means(pts, labels, centers)
        assert not repaired
        for j in (0, 1):
            assert np.allclose(new[j], pts[labels == j].mean(axis=0), rtol=0, atol=1e-14)


class TestTransfers:
    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_no_single_transfer_lowers_the_criterion(self, n):
        for r in range(10):
            pts = kmeans_two_line_sample(n, SeedStream(29, r))
            for init in ("cv", "ch"):
                fit = fit_kmeans2(pts, init)
                labels = nearest(pts, fit.centers)
                assert worst_transfer_drop(pts, labels) <= 1e-12

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_centers_are_the_means_of_their_cells(self, n):
        for r in range(10):
            pts = kmeans_two_line_sample(n, SeedStream(29, r))
            for init in ("cv", "ch"):
                fit = fit_kmeans2(pts, init)
                labels = nearest(pts, fit.centers)
                for j in (0, 1):
                    cell_mean = pts[labels == j].mean(axis=0)
                    scale = np.max(np.abs(fit.centers[j]))
                    assert np.max(np.abs(cell_mean - fit.centers[j])) <= 1e-12 * scale
                assert fit.w_value == pytest.approx(within_ss(pts, fit.centers), rel=1e-12, abs=0)

    def test_never_above_full_search(self):
        cells = [(n, r) for n in (1000, 2000, 4000, 8000, 16000) for r in range(10)]
        for n, r in cells:
            pts = kmeans_two_line_sample(n, SeedStream(28, r))
            for init in ("cv", "ch"):
                _, want_val, _ = full_pattern_search(pts, lloyd_centers(pts, init), polish_step(n))
                assert fit_kmeans2(pts, init).w_value <= want_val * (1 + 1e-15)

    @pytest.mark.parametrize(
        "n, r", [(16000, 22), (16000, 51), (1000, 32), (1000, 53), (8000, 50)]
    )
    def test_stops_below_the_capped_search(self, n, r):
        # the capped compass search still moves in round 40 on these fits;
        # on the last two it never stops
        pts = ladder_sample(n, r)
        _, want_val, last_move = full_pattern_search(pts, lloyd_centers(pts, "cv"), polish_step(n))
        assert last_move == 39
        labels, centers, w = transfers(pts, lloyd(pts, "cv")[0])
        assert w <= want_val * (1 + 1e-15)
        again = transfers(pts, labels)
        assert np.array_equal(again[0], labels)
        assert again[1].tobytes() == centers.tobytes()

    @pytest.mark.parametrize("n, r", [(16000, 22), (16000, 51), (1000, 32)])
    @pytest.mark.parametrize("offset", [(1e3, -2e3), (-5e4, 3e4)])
    def test_translation_moves_centers_by_the_offset(self, n, r, offset):
        offset = np.array(offset)
        pts = ladder_sample(n, r)
        labels = lloyd(pts, "cv")[0]
        want_labels, want, _ = transfers(pts, labels)
        got_labels, got, _ = transfers(pts + offset, labels)
        assert np.array_equal(got_labels, want_labels)
        assert np.max(np.abs(got - offset - want)) <= 1e-12 * max(1.0, np.max(np.abs(offset)))


def same_fit(a, b):
    return (
        np.array_equal(a.centers, b.centers)
        and a.w_value == b.w_value
        and (a.delta_s, a.eps_d, a.delta_d, a.eps_s) == (b.delta_s, b.eps_d, b.delta_d, b.eps_s)
        and (a.empty_repair, a.left_neighborhood) == (b.empty_repair, b.left_neighborhood)
    )


class TestWorkspace:
    def test_shared_workspace_fits_equal_fresh_fits(self):
        # n = 16000, then 1000 in the leading part of each buffer, then
        # 16000 again on what the smaller fit left behind.  Replicate 0 at
        # n = 1000 leaves the neighbourhood from the cv start; shifted by
        # (5, 5), every point is nearer the second ch center, so the ch
        # start empties a cluster.
        samples = [
            ladder_sample(16000, 1),
            ladder_sample(1000, 0),
            ladder_sample(16000, 0) + 5.0,
        ]
        workspace = kmeans.KmeansWorkspace()
        shared = [fit_kmeans2_global(pts, workspace=workspace) for pts in samples]
        assert shared[1].coords_cv.left_neighborhood
        assert shared[2].coords_ch.empty_repair
        for pts, got in zip(samples, shared):
            want = fit_kmeans2_global(pts)
            assert (got.choice, got.tie) == (want.choice, want.tie)
            assert same_fit(got.coords_cv, want.coords_cv)
            assert same_fit(got.coords_ch, want.coords_ch)
            for init in ("cv", "ch"):
                assert same_fit(fit_kmeans2(pts, init), getattr(want, f"coords_{init}"))


class TestReflection:
    @pytest.mark.parametrize("n", [1000, 4000, 16000])
    def test_reflection_negates_delta_s(self, n):
        # the two-line law is symmetric under x -> -x (cv start) and
        # y -> -y (ch start), which maps delta_s to -delta_s
        worst = 0.0
        for r in range(100):
            pts = kmeans_two_line_sample(n, SeedStream(77, r))
            for init, axis in (("cv", 0), ("ch", 1)):
                mirrored = pts.copy()
                mirrored[:, axis] *= -1.0
                a = fit_kmeans2(pts, init)
                b = fit_kmeans2(mirrored, init)
                worst = max(worst, n**0.25 * abs(a.delta_s + b.delta_s))
        assert worst < 1e-6


class TestCoordinateTransform:
    @given(
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
        st.sampled_from(["cv", "ch"]),
    )
    def test_round_trip(self, ds, ed, dd, es, init):
        from mixedrates.estimators.kmeans import _coords_from_centers

        centers = centers_from_coords(ds, ed, dd, es, init)
        back = _coords_from_centers(centers, init)
        assert back == pytest.approx((ds, ed, dd, es), abs=1e-12)

    def test_base_pairs_map_to_zero(self):
        from mixedrates.estimators.kmeans import _coords_from_centers

        assert _coords_from_centers(INIT_CENTERS["cv"], "cv") == (0.0, 0.0, 0.0, 0.0)
        assert _coords_from_centers(INIT_CENTERS["ch"], "ch") == (0.0, 0.0, 0.0, 0.0)

    def test_center_ordering(self):
        pts = kmeans_two_line_sample(500, SeedStream(22, 0))
        fit = fit_kmeans2(pts, "cv")
        assert fit.centers[0, 0] <= fit.centers[1, 0]


class TestConsistency:
    def test_cv_blocks_shrink_at_scale(self):
        # thresholds from the acceptance contract: |a| < 0.25 and |b| < 0.1
        # in at least 95% of 100 seeded runs at n = 10^4
        ok_a = ok_b = 0
        runs = 100
        for r in range(runs):
            pts = kmeans_two_line_sample(10_000, SeedStream(23, r))
            fit = fit_kmeans2(pts, "cv")
            ok_a += np.hypot(fit.delta_s, fit.eps_d) < 0.25
            ok_b += np.hypot(fit.delta_d, fit.eps_s) < 0.1
        assert ok_a >= 95
        assert ok_b >= 95

    def test_split_choice_roughly_balanced(self):
        # smoke-scale version of the full acceptance check
        choices = []
        for r in range(200):
            pts = kmeans_two_line_sample(10_000, SeedStream(24, r))
            choices.append(fit_kmeans2_global(pts).choice)
        frac = np.mean([c == "cv" for c in choices])
        assert 0.35 <= frac <= 0.65

    def test_fit_is_deterministic(self):
        pts = kmeans_two_line_sample(2000, SeedStream(25, 0))
        a = fit_kmeans2(pts, "cv")
        b = fit_kmeans2(pts, "cv")
        assert a.centers.tolist() == b.centers.tolist()
        assert a.w_value == b.w_value
