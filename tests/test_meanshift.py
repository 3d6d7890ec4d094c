import tracemalloc

import numpy as np
import pytest

from handfit.meanshift import (INFER_DEDUP_DIVISOR, STACK_MIN, _cell_index, _cells, _dedup,
                               _merge_modes, _shift_sets, _stacked_sums, mean_shift)

from oracles import (dedup_alone, kde_grid_mode, mean_shift_alone, merge_modes_alone,
                     meanshift_iterate, meanshift_iterate_lifted, shift_once)


def test_single_point_is_its_own_mode():
    (modes, support), = mean_shift([np.array([[4.0, -2.0, 9.0]])],
                                   [np.array([2.5])], bandwidth=10.0)
    assert len(modes) == 1
    np.testing.assert_allclose(modes[0], [4.0, -2.0, 9.0], atol=1e-9)
    assert support[0] == pytest.approx(2.5)


def test_two_close_points_merge_at_midpoint():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # bandwidth/10 apart
    (modes, support), = mean_shift([pts], bandwidth=10.0)
    assert len(modes) == 1
    np.testing.assert_allclose(modes[0], [0.5, 0.0, 0.0], atol=1e-6)
    assert support[0] == pytest.approx(2.0)


def test_identical_points_pool_weight():
    pts = np.array([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0]])
    (modes, support), = mean_shift([pts], bandwidth=5.0)
    assert len(modes) == 1
    np.testing.assert_allclose(modes[0], [3.0, 3.0, 3.0], atol=1e-12)
    assert support[0] == pytest.approx(2.0)


def test_two_blobs_against_kde_grid_oracle():
    rng = np.random.default_rng(5)
    bw = 5.0
    a = rng.normal((0, 0, 0), 1.2, size=(60, 3))
    b = rng.normal((40, 5, -10), 1.2, size=(40, 3))
    pts = np.vstack([a, b])
    (modes, support), = mean_shift([pts], bandwidth=bw)
    assert len(modes) == 2
    # heavier blob first
    assert support[0] == pytest.approx(60, abs=1)
    assert support[1] == pytest.approx(40, abs=1)
    for mode, center in ((modes[0], a.mean(axis=0)), (modes[1], b.mean(axis=0))):
        oracle = kde_grid_mode(pts, np.ones(len(pts)), bw, center,
                               half_width=3.0, step=bw / 10)
        assert np.linalg.norm(mode - oracle) < bw / 2


def test_modes_are_fixed_points():
    rng = np.random.default_rng(11)
    bw = 8.0
    pts = np.vstack([rng.normal((0, 0, 0), 2.0, size=(50, 3)),
                     rng.normal((60, 0, 0), 2.0, size=(50, 3))])
    (modes, _), = mean_shift([pts], bandwidth=bw)
    for mode in modes:
        moved = shift_once(mode, pts, None, bw)
        assert np.linalg.norm(moved - mode) < 1e-3 * bw


def test_empty_and_zero_weight_inputs():
    (modes, support), = mean_shift([np.empty((0, 3))], bandwidth=5.0)
    assert len(modes) == 0 and len(support) == 0
    (modes, support), = mean_shift([np.array([[1.0, 2.0, 3.0]])], [np.array([0.0])],
                                   bandwidth=5.0)
    assert len(modes) == 0


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        mean_shift([np.zeros((2, 3))], bandwidth=0.0)


@pytest.mark.parametrize("bandwidth", [np.nan, np.inf])
def test_bandwidth_must_be_finite(bandwidth):
    # a NaN bandwidth used to give one NaN mode carrying every point's weight
    with pytest.raises(ValueError, match="bandwidth"):
        mean_shift(np.arange(6.0).reshape(1, 2, 3), bandwidth=bandwidth)
    with pytest.raises(ValueError, match="bandwidth"):
        mean_shift([np.arange(6.0).reshape(2, 3)], bandwidth=bandwidth)


@pytest.mark.parametrize("case", ["nan_point", "inf_point", "inf_weight", "nan_weight"])
def test_non_finite_points_and_weights_are_rejected(case):
    # one such value used to poison its set: a NaN point gave one NaN mode
    # of weight 2, an infinite weight a NaN mode of support inf, and a NaN
    # weight was dropped as if it were 0
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    w = np.ones(2)
    if case == "nan_point":
        pts[0, 0] = np.nan
    elif case == "inf_point":
        pts[1, 2] = -np.inf
    elif case == "inf_weight":
        w[0] = np.inf
    else:
        w[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mean_shift([pts], [w], bandwidth=15.0)
    # in a call of many sets, the one bad set fails the call
    good = [np.arange(9.0).reshape(3, 3), np.ones((2, 3))]
    with pytest.raises(ValueError, match="finite"):
        mean_shift(good + [pts], [np.ones(3), np.ones(2), w], bandwidth=15.0)
    if case.endswith("point"):
        with pytest.raises(ValueError, match="finite"):
            mean_shift([pts.tolist()], bandwidth=15.0)
        with pytest.raises(ValueError, match="finite"):
            mean_shift(good + [pts], None, bandwidth=15.0)


def test_groups_ignore_zero_weight_padding():
    pts = np.zeros((1, 5, 3))
    pts[0, :3] = np.array([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]])
    pts[0, 3:] = pts[0, 0]
    weights = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    (modes, support), = mean_shift(pts, weights, bandwidth=10.0)
    assert len(modes) == 1
    assert support[0] == pytest.approx(3.0)
    np.testing.assert_allclose(modes[0], [0.5, 0, 0], atol=1e-5)


def test_support_ordering_is_descending():
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.normal((0, 0, 0), 1, size=(10, 3)),
                     rng.normal((50, 0, 0), 1, size=(30, 3)),
                     rng.normal((0, 50, 0), 1, size=(20, 3))])
    (modes, support), = mean_shift([pts], bandwidth=5.0)
    assert len(modes) == 3
    assert np.all(np.diff(support) <= 0)
    assert support[0] == pytest.approx(30, abs=1)


def _assert_iterate_matches_oracle(points, weights, bandwidth, max_iters):
    # one set through the lockstep kernel: the bits of its allocating form,
    # and within 1e-8 mm of the squared-distance reference
    tol = 1e-3 * bandwidth
    got = _shift_sets(points, weights, [len(points)], bandwidth, max_iters, tol)
    want = meanshift_iterate_lifted(points, weights, bandwidth, max_iters, tol)
    assert got.tobytes() == want.tobytes()
    ref = meanshift_iterate(points, weights, bandwidth, max_iters, tol)
    assert np.abs(got - ref).max() <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_iterate_bit_equal_to_allocating_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 220))
    pts = rng.normal(0, rng.uniform(2, 30), (n, 3)) + rng.normal(0, 400, 3)
    _assert_iterate_matches_oracle(pts, np.ones(n), 15.0, 50)


def test_iterate_bit_equal_on_dedup_pooled_weights():
    rng = np.random.default_rng(21)
    raw = np.round(rng.normal(0, 6, (300, 3)) * 2) / 2  # many exact repeats
    pts, w, _ = _dedup(raw, np.ones(len(raw)), [len(raw)], 15.0)
    assert len(pts) < len(raw) and w.max() > 1
    _assert_iterate_matches_oracle(pts, w, 15.0, 50)


def test_iterate_bit_equal_on_a_single_point():
    _assert_iterate_matches_oracle(np.array([[4.0, -2.0, 9.0]]),
                                   np.array([2.5]), 10.0, 50)


def test_iterate_bit_equal_when_one_row_stays_active():
    # a far point drifts on after the blob has converged
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.normal(0, 0.5, (40, 3)), [[0.0, 0.0, 25.0]]])
    runs = [meanshift_iterate_lifted(pts, np.ones(len(pts)), 10.0, i, 1e-2)
            for i in range(1, 8)]
    moving = [int((a != b).any(axis=1).sum()) for a, b in zip(runs, runs[1:])]
    assert 1 in moving  # some iteration shifts exactly one active row
    _assert_iterate_matches_oracle(pts, np.ones(len(pts)), 10.0, 50)


def test_iterate_bit_equal_when_stopped_at_max_iters():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-60, 60, (150, 3))
    tol = 1e-3 * 12.0
    three = meanshift_iterate_lifted(pts, np.ones(150), 12.0, 3, tol)
    four = meanshift_iterate_lifted(pts, np.ones(150), 12.0, 4, tol)
    assert not np.array_equal(three, four)  # still moving at the cap
    for max_iters in (0, 1, 3):
        _assert_iterate_matches_oracle(pts, np.ones(150), 12.0, max_iters)
    got = _shift_sets(pts, np.ones(150), [150], 12.0, 0, tol)
    assert np.array_equal(got, pts)


def _track_like_sets(rng, bandwidth):
    """A frame's 21 joint sets of 200 votes each: most around one to three
    centres a bandwidth or two apart, the rest spread over the hand."""
    sets = []
    for _ in range(21):
        centres = rng.normal(0, 1.5 * bandwidth, (int(rng.integers(1, 4)), 3))
        near = centres[rng.integers(0, len(centres), 170)] \
            + rng.normal(0, 0.6 * bandwidth, (170, 3))
        sets.append(np.vstack([near, rng.normal(0, 6 * bandwidth, (30, 3))]))
    return sets


def _split(flat, sizes):
    return np.split(flat, np.cumsum(sizes)[:-1])


@pytest.mark.parametrize("offset_cells", [0, 1334])
@pytest.mark.parametrize("seed", range(3))
def test_lockstep_kernel_stays_within_1e8_mm_of_squared_distance_form(seed, offset_cells):
    # pooled sets as inference shifts them, also 1334 grid cells (10 005 mm)
    # from the origin, where the squared-distance form cancels large terms
    bw = 15.0
    sets = _track_like_sets(np.random.default_rng(seed), bw)
    offset = offset_cells * (bw / INFER_DEDUP_DIVISOR) * np.array([1.0, -1.0, 1.0])
    ones = np.ones(sum(len(p) for p in sets))
    sizes = [len(p) for p in sets]
    pooled, weights, counts = _dedup(np.concatenate(sets), ones, sizes, bw, INFER_DEDUP_DIVISOR)
    far, far_weights, far_counts = _dedup(np.concatenate(sets) + offset, ones, sizes, bw,
                                          INFER_DEDUP_DIVISOR)
    assert np.array_equal(weights, far_weights) and np.array_equal(counts, far_counts)
    assert 40 < np.median(counts) < 200
    tol = 1e-3 * bw
    got = _shift_sets(far, far_weights, counts, bw, 50, tol)
    for p, w, shifted in zip(_split(pooled, counts), _split(weights, counts),
                             _split(got, counts)):
        ref = meanshift_iterate(p, w, bw, 50, tol) + offset
        assert np.abs(shifted - ref).max() <= 1e-8


def _active_counts(points, weights, bandwidth, tol, iters):
    """Rows each of the first `iters` iterations shifts, from the oracle: a
    row whose update moves it at all was active."""
    runs = [meanshift_iterate_lifted(points, weights, bandwidth, i, tol) for i in range(iters + 1)]
    return [int((a != b).any(axis=1).sum()) for a, b in zip(runs, runs[1:])]


def _stacked_sets(rng):
    """Sets that `_shift_sets` stacks: 2 * STACK_MIN sets of 12 points, a
    blob of 11 and one far point that drifts on alone once the blob has
    converged, blobs and distances differing from set to set; and
    STACK_MIN + 2 sets of 30 scattered points whose active rows fall at
    different rates."""
    sets = []
    for _ in range(2 * STACK_MIN):
        blob = rng.normal(0, rng.uniform(0.2, 1.5), (11, 3))
        sets.append(np.vstack([blob, [[0.0, 0.0, rng.uniform(14, 24)]]]) + rng.normal(0, 50, 3))
    sets += [rng.uniform(-25, 25, (30, 3)) for _ in range(STACK_MIN + 2)]
    return sets


def _lockstep_sets():
    """Track-like sets, a one-point set and `_stacked_sets`, weighted."""
    rng = np.random.default_rng(17)
    sets = _track_like_sets(rng, 15.0)[:6] + [np.array([[3.0, -1.0, 2.0]])] + _stacked_sets(rng)
    return sets, [rng.uniform(0.5, 4.0, len(p)) for p in sets]


def test_lockstep_sets_get_the_bits_they_get_alone():
    # the sets of one call converge after different numbers of iterations;
    # the sets of one size go as a stack, down to one active row at
    # different iterations and padded where their active counts differ;
    # and one set of a single point rides along
    sets, weights = _lockstep_sets()
    sizes = [len(p) for p in sets]
    for max_iters in (0, 1, 4, 50):
        got = _shift_sets(np.concatenate(sets), np.concatenate(weights), sizes, 15.0,
                          max_iters, 0.015)
        for p, w, shifted in zip(sets, weights, _split(got, sizes)):
            alone = _shift_sets(p, w, [len(p)], 15.0, max_iters, 0.015)
            assert shifted.tobytes() == alone.tobytes()
            want = meanshift_iterate_lifted(p, w, 15.0, max_iters, 0.015)
            assert shifted.tobytes() == want.tobytes()


def test_stacked_sets_reach_one_row_and_padding():
    # the stacks of the test above take both paths: at least STACK_MIN
    # sets of one active row at once, having reached it at different
    # iterations, and at least STACK_MIN sets of more than one active row
    # at once whose counts differ
    sets, weights = _lockstep_sets()
    counts = np.array([_active_counts(p, w, 15.0, 0.015, 30)
                       for p, w in zip(sets[7:], weights[7:])])
    blobs, scattered = counts[:2 * STACK_MIN], counts[2 * STACK_MIN:]
    single = blobs == 1
    assert single.sum(axis=0).max() >= STACK_MIN
    reached = [int(np.argmax(row)) for row in single if row.any()]
    assert len(reached) >= STACK_MIN and len(set(reached)) > 1
    padded = [len(set(col[col > 1])) > 1 for col in scattered.T if (col > 1).sum() >= STACK_MIN]
    assert any(padded)


def test_sets_of_their_own_size_hold_one_exponent_block_at_a_time():
    # 21 sets of sizes 110..130, none stacked: each set's (a, n) exponent
    # block, 0.14 MB at most, lives only while its own products run. One
    # buffer of every set's blocks under one exp used to hold 2.4 MB; the
    # whole call peaked at 3.4 MB then, and at 1.1 MB without it
    rng = np.random.default_rng(0)
    sets = [rng.uniform(0.0, 120.0, (n, 3)) for n in range(110, 131)]
    mean_shift(sets, bandwidth=15.0)  # warm up numpy's own caches
    tracemalloc.start()
    try:
        mean_shift(sets, bandwidth=15.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_stacked_sums_write_each_sets_rows_and_no_other():
    # sets of one size whose active rows have another set's row after every
    # padded set, so that the padding is exactly as long as the gaps: each
    # set's rows get the sums of its own products, and no other row changes
    rng = np.random.default_rng(3)
    g, n, dim = 2 * STACK_MIN, 5, 3
    count = np.tile([2, 3], g // 2)
    gap = count < count.max()
    first = np.cumsum(count + gap) - count - gap
    aug = rng.uniform(-0.5, 0.5, (int(first[-1] + count[-1]), dim + 2))
    lifted = rng.uniform(-0.5, 0.5, (g, dim + 2, n))
    ones = rng.uniform(0.5, 2.0, (g, n, dim + 1))
    sums = np.full((len(aug), dim + 1), np.nan)
    _stacked_sums(aug, sums, first, count, lifted, ones)
    for i in range(g):
        rows = slice(first[i], first[i] + count[i])
        want = np.dot(np.exp(np.dot(aug[rows], lifted[i])), ones[i])
        assert sums[rows].tobytes() == want.tobytes()
    assert np.isnan(sums[first[gap] + count[gap]]).all()


@pytest.mark.parametrize("cell", [
    np.random.default_rng(0).integers(-4, 4, (300, 3)),
    np.random.default_rng(1).integers(-3, 3, (50, 2)) * (2 ** 40) + 7,
    np.array([[-2, 5, 2 ** 33]]),
    np.full((17, 3), -9),
    np.array([[0, 1, -1], [-1, 0, 1], [0, 1, -1], [2 ** 31, 0, 0],
              [-(2 ** 31) - 1, 0, 0], [0, 0, 0]]),
], ids=["random", "above-2^31", "single-row", "all-equal", "mixed-sign"])
def test_cell_index_equals_unique_inverse(cell):
    cell = cell.astype(np.int64)
    inverse, n_cells = _cell_index(cell)
    _, want = np.unique(cell, axis=0, return_inverse=True)
    np.testing.assert_array_equal(inverse, want.ravel())
    assert n_cells == int(want.max()) + 1


def test_cell_index_group_column_keeps_each_group_in_one_run():
    rng = np.random.default_rng(3)
    cell = rng.integers(-3, 3, (120, 3))
    group = np.repeat(np.arange(4), 30)
    cell[30:60] = cell[:30]  # groups 0 and 1 hold the same cells
    inverse, n_cells = _cell_index(np.column_stack([group, cell]))
    start = 0
    for g in range(4):
        mine = inverse[group == g]
        _, want = np.unique(cell[group == g], axis=0, return_inverse=True)
        np.testing.assert_array_equal(mine, start + want.ravel())
        start += int(want.max()) + 1
    assert n_cells == start


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("groups", [[40, 1, 17], [200], [5, 5, 5, 5]])
@pytest.mark.parametrize("seed", range(2))
def test_cells_equal_unique_per_set(seed, groups):
    # one keyed grid pass: each set's cells are np.unique of its own rows,
    # one run after another, and each cell sums its points in input order
    rng = np.random.default_rng(seed)
    sizes = np.array(groups)
    cell = rng.integers(-3, 3, (sizes.sum(), 3))
    cell[-sizes[-1]:] = cell[:sizes[-1]]  # the last set holds the first set's cells
    points = cell + rng.uniform(-0.4, 0.4, cell.shape)
    weights = rng.uniform(0.5, 3.0, len(cell))
    first, counts, w, sums = _cells(cell, sizes, weights, points)
    lo = 0
    for k, (c, p, wt) in enumerate(zip(_split(cell, sizes), _split(points, sizes),
                                       _split(weights, sizes))):
        _, inverse = np.unique(c, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        n = int(inverse.max()) + 1
        assert (first[k], counts[k]) == (lo, n)
        want_w = np.bincount(inverse, weights=wt, minlength=n)
        want_sums = np.stack([np.bincount(inverse, weights=wt * p[:, d], minlength=n)
                              for d in range(3)], axis=1)
        _assert_same_bytes((w[lo:lo + n], sums[lo:lo + n]), (want_w, want_sums))
        lo += n
    assert lo == len(w)


@pytest.mark.parametrize("case", ["pools", "nothing_pools", "weighted", "one_point"])
def test_dedup_of_one_set_equals_alone_oracle(case):
    # one (n, d) set is the one-set case of the ragged sets inference pools
    rng = np.random.default_rng(13)
    pts = rng.normal(0, 40, (200, 3))
    w = np.ones(200)
    if case == "pools":
        pts = np.round(pts / 4) * 4
    elif case == "weighted":
        pts = np.round(pts / 3) * 3
        w = rng.uniform(0.1, 5.0, 200)
    elif case == "one_point":
        pts, w = pts[:1], np.array([2.5])
    got_p, got_w, counts = _dedup(pts, w, [len(pts)], 15.0)
    _assert_same_bytes((got_p, got_w), dedup_alone(pts, w, 15.0))
    assert counts.tolist() == [len(got_w)]
    if case == "nothing_pools":  # unit weights: the input itself, in grid order
        cell = np.round(pts * (20.0 / 15.0))
        assert np.array_equal(got_p, pts[np.lexsort(cell.T[::-1])])


@pytest.mark.parametrize("seed", range(4))
def test_dedup_of_groups_equals_per_group_oracle(seed):
    # pooled sets, sets where nothing pools and weighted points side by side
    rng = np.random.default_rng(seed)
    g, n = 7, 50
    pts = rng.normal(0, 40, (g, n, 3))
    coarse = rng.random(g) < 0.5
    coarse[0] = True
    pts[coarse] = np.round(pts[coarse] / 30) * 30
    w = rng.uniform(0.5, 3.0, (g, n))
    got_p, got_w, kept = _dedup(pts.reshape(-1, 3), w.ravel(), [n] * g, 15.0)
    for p, wt, gp, gw in zip(pts, w, _split(got_p, kept), _split(got_w, kept)):
        _assert_same_bytes((gp, gw), dedup_alone(p, wt, 15.0))
    assert (kept < n).any()
    if not coarse.all():
        assert (kept == n).any()


def test_dedup_of_groups_where_none_pools_returns_cells_in_grid_order():
    pts = np.random.default_rng(1).normal(0, 50, (3, 20, 3))
    got_p, got_w, counts = _dedup(pts.reshape(-1, 3), np.ones(60), [20, 20, 20], 15.0)
    assert counts.tolist() == [20, 20, 20] and np.array_equal(got_w, np.ones(60))
    for p, gp in zip(pts, _split(got_p, counts)):
        cell = np.round(p * (20.0 / 15.0))
        assert not np.array_equal(gp, p)
        assert np.array_equal(gp, p[np.lexsort(cell.T[::-1])])


def _mixed_groups(rng, width=40):
    """Groups that collapse to one mode by the spread test, next to groups
    that need the greedy walk, with zero-weight padding of varied length."""
    groups, weights = [], []
    for i in range(9):
        n = int(rng.integers(1, width + 1))
        if i % 3 == 0:  # one tight blob: the early exit
            pts = rng.normal(rng.uniform(-100, 100, 3), 0.3, (n, 3))
        else:  # two or three separated blobs: the walk
            centers = rng.uniform(-150, 150, (2 + i % 2, 3))
            pts = centers[rng.integers(0, len(centers), n)] \
                + rng.normal(0, 1.5, (n, 3))
        padded = np.repeat(pts[:1], width, axis=0)
        padded[:n] = pts
        w = np.zeros(width)
        w[:n] = rng.integers(1, 4, n)
        groups.append(padded)
        weights.append(w)
    return np.stack(groups), np.stack(weights)


@pytest.mark.parametrize("max_iters", [0, 50])
@pytest.mark.parametrize("seed", range(3))
def test_mean_shift_groups_equal_one_by_one_merge_oracle(seed, max_iters):
    # zero-padded groups in one call: the keyed merge gives each group what
    # its own merge gives, for groups that exit early and groups that walk
    pts, w = _mixed_groups(np.random.default_rng(seed))
    got = mean_shift(pts, w, bandwidth=20.0, max_iters=max_iters)
    assert len(got) == len(pts)
    for p, wt, res in zip(pts, w, got):
        _assert_same_bytes(res, mean_shift_alone(p, wt, 20.0, 20.0, max_iters))
    counts = [len(modes) for modes, _ in got]
    assert 1 in counts and max(counts) > 1


def test_mean_shift_groups_zero_weight_group_has_no_modes():
    # a group with no weight has no modes, as mean_shift returns for the
    # same points alone; the other groups get what they get without it
    pts, w = _mixed_groups(np.random.default_rng(4))
    w[1] = 0.0
    w[3] = 0.0  # an early-exit group and a walking group lose all weight
    got = mean_shift(pts, w, bandwidth=20.0)
    for i in (1, 3):
        modes, support = got[i]
        want, = mean_shift([pts[i]], [w[i]], bandwidth=20.0)
        assert modes.shape == want[0].shape == (0, 3)
        assert support.shape == want[1].shape == (0,)
    keep = [i for i in range(len(w)) if i not in (1, 3)]
    alone = mean_shift(pts[keep], w[keep], bandwidth=20.0)
    for i, want in zip(keep, alone):
        _assert_same_bytes(got[i], want)
    modes, support = mean_shift(np.zeros((2, 3, 3)), np.array([[1.0, 1, 1], [0, 0, 0]]),
                                bandwidth=5.0)[1]
    assert modes.shape == (0, 3) and support.shape == (0,)


def _ragged_sets(rng):
    """Weighted sets of many lengths: coarse ones that pool, fine ones that
    do not, a single point, an empty set and one whose weights are all 0."""
    sets, weights = [], []
    for i in range(10):
        n = int(rng.integers(2, 120))
        pts = rng.normal(rng.uniform(-200, 200, 3), rng.uniform(3, 40), (n, 3))
        if i % 2 == 0:
            pts = np.round(pts / 6) * 6
        w = rng.uniform(0.2, 3.0, n)
        w[rng.random(n) < 0.1] = 0.0
        sets.append(pts)
        weights.append(w)
    sets[3], weights[3] = sets[3][:1], np.array([1.5])
    sets[5], weights[5] = np.empty((0, 3)), np.empty(0)
    weights[7] = np.zeros(len(weights[7]))
    return sets, weights


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("divisor", [20.0, 2.0])
def test_mean_shift_of_sets_equals_each_set_alone(seed, divisor):
    # one call over ragged sets: one keyed pool, the kernel per set, one
    # keyed merge; each set gets the bytes of a call of its own
    sets, weights = _ragged_sets(np.random.default_rng(seed))
    got = mean_shift(sets, weights, bandwidth=15.0, dedup_divisor=divisor)
    assert isinstance(got, list) and len(got) == len(sets)
    for p, w, res in zip(sets, weights, got):
        _assert_same_bytes(res, mean_shift([p], [w], bandwidth=15.0, dedup_divisor=divisor)[0])
        _assert_same_bytes(res, mean_shift_alone(p, w, 15.0, divisor, 50))
    assert got[5][0].shape == got[7][0].shape == (0, 3)
    unweighted = mean_shift(sets, None, bandwidth=15.0, dedup_divisor=divisor)
    for p, res in zip(sets, unweighted):
        _assert_same_bytes(res, mean_shift_alone(p, None, 15.0, divisor, 50))


def test_mean_shift_of_a_stack_and_of_no_sets():
    # a (g, n, d) array is read as its g sets, as the same sets in a list
    pts = np.random.default_rng(6).normal(0, 20, (4, 30, 3))
    got = mean_shift(pts, bandwidth=12.0)
    assert len(got) == 4
    for res, want in zip(got, mean_shift(list(pts), bandwidth=12.0)):
        _assert_same_bytes(res, want)
    for p, res in zip(pts, got):
        _assert_same_bytes(res, mean_shift([p], bandwidth=12.0)[0])
    assert mean_shift([], bandwidth=12.0) == []


@pytest.mark.parametrize("points", [np.zeros((5, 3)), np.zeros((5, 3)).tolist(),
                                    [np.zeros(3)], np.zeros((2, 1, 4, 3))],
                         ids=["array", "nested-list", "1d-set", "4d-array"])
def test_mean_shift_rejects_anything_but_a_sequence_of_sets(points):
    # a bare (n, d) array is not one set but n 1-D rows
    with pytest.raises(ValueError, match="sequence of"):
        mean_shift(points, bandwidth=10.0)


@pytest.mark.parametrize("case", ["too_few", "too_many", "swapped", "2d", "scalar"])
def test_mean_shift_rejects_weights_that_do_not_match_their_sets(case):
    # too few weight arrays used to raise a raw IndexError, and swapped
    # lengths with the same total would pair weights with the wrong points
    sets = [np.arange(9.0).reshape(3, 3), np.ones((2, 3))]
    weights = {"too_few": [np.ones(3)], "too_many": [np.ones(3), np.ones(2), np.ones(1)],
               "swapped": [np.ones(2), np.ones(3)],
               "2d": [np.ones((3, 1)), np.ones(2)], "scalar": [1.0, 1.0]}[case]
    with pytest.raises(ValueError, match="weight"):
        mean_shift(sets, weights, bandwidth=15.0)


def test_dedup_of_ragged_sets_equals_alone_oracle():
    sets, weights = _ragged_sets(np.random.default_rng(9))
    # what mean_shift passes on: the non-empty sets, zero weights dropped
    live = [(p[w > 0], w[w > 0]) for p, w in zip(sets, weights) if (w > 0).any()]
    sets, weights = [p for p, _ in live], [w for _, w in live]
    got_p, got_w, counts = _dedup(np.concatenate(sets), np.concatenate(weights),
                                  [len(w) for w in weights], 15.0)
    for p, w, gp, gw in zip(sets, weights, _split(got_p, counts), _split(got_w, counts)):
        _assert_same_bytes((gp, gw), dedup_alone(p, w, 15.0))
    assert 0 < (counts < [len(w) for w in weights]).sum() < len(sets)


def _converged_sets(rng):
    """Converged sets for the merge, with non-integer weights: one point,
    tight sets that pass the single-mode test, clustered and scattered sets
    that walk, lengths past the 8- and 128-long pairwise-sum blocks, a
    -0.0 coordinate, tied cell weights, and a cell equidistant from two
    modes."""
    sets = []
    for i in range(60):
        n = int(rng.choice([1, 2, 7, 9, 40, 130, 257]))
        centre = rng.uniform(-300, 300, 3)
        kind = i % 4
        if kind == 0:
            pts = centre + rng.normal(0, 0.4, (n, 3))
        elif kind == 1:
            pts = centre + rng.uniform(-30, 30, (n, 3))
        elif kind == 2:
            hubs = centre + rng.uniform(-40, 40, (int(rng.integers(2, 6)), 3))
            pts = hubs[rng.integers(0, len(hubs), n)] + rng.normal(0, 1.5, (n, 3))
        else:
            pts = np.repeat(centre[None], n, axis=0)
        sets.append((pts, rng.uniform(0.05, 3.0, n)))
    sets.append((np.array([[-0.0, 1.0, 2.0]]), np.array([0.7])))
    # cells of 2.5 mm, heaviest first: A starts a mode, B (16 mm away)
    # another, and C lies 8 mm from both: it joins A, the mode made first
    sets.append((np.array([[0.0, 0, 0], [16.0, 0, 0], [8.0, 0, 0]]), np.array([3.0, 2.0, 1.0])))
    # equal cell weights: the walk takes them in grid order
    sets.append((np.array([[40.0, 0, 0], [0.0, 0, 0], [20.0, 0, 0]]), np.array([1.5, 1.5, 1.5])))
    return sets


@pytest.mark.parametrize("seed", range(3))
def test_merge_modes_equals_merge_modes_alone(seed):
    # the spread test of all sets at once and the lockstep greedy walk give
    # every set the bits of its own merge, non-integer weights included
    sets = _converged_sets(np.random.default_rng(seed))
    sizes = np.array([len(w) for _, w in sets])
    modes, supports, n_modes = _merge_modes(np.concatenate([p for p, _ in sets]),
                                            np.concatenate([w for _, w in sets]), sizes, 10.0)
    got = list(zip(_split(modes, n_modes), _split(supports, n_modes)))
    assert len(got) == len(sets)
    for (p, w), res in zip(sets, got):
        want = merge_modes_alone(p, w, 10.0)
        for a, b in zip(res, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    counts = np.array([len(modes) for modes, _ in got])
    assert (counts[sizes > 1] == 1).any() and (counts > 3).any()
    assert ((counts > 1) & (sizes > 128)).any()
    equidistant = got[-2]
    np.testing.assert_array_equal(equidistant[1], [4.0, 2.0])
    np.testing.assert_array_equal(equidistant[0][1], [16.0, 0, 0])
