import numpy as np
import pytest

from handfit.meanshift import mean_shift, mean_shift_groups

from oracles import kde_grid_mode, shift_once


def test_single_point_is_its_own_mode():
    modes, support = mean_shift(np.array([[4.0, -2.0, 9.0]]),
                                np.array([2.5]), bandwidth=10.0)
    assert len(modes) == 1
    np.testing.assert_allclose(modes[0], [4.0, -2.0, 9.0], atol=1e-9)
    assert support[0] == pytest.approx(2.5)


def test_two_close_points_merge_at_midpoint():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # bandwidth/10 apart
    modes, support = mean_shift(pts, bandwidth=10.0)
    assert len(modes) == 1
    np.testing.assert_allclose(modes[0], [0.5, 0.0, 0.0], atol=1e-6)
    assert support[0] == pytest.approx(2.0)


def test_identical_points_pool_weight():
    pts = np.array([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0]])
    modes, support = mean_shift(pts, bandwidth=5.0)
    assert len(modes) == 1
    np.testing.assert_allclose(modes[0], [3.0, 3.0, 3.0], atol=1e-12)
    assert support[0] == pytest.approx(2.0)


def test_two_blobs_against_kde_grid_oracle():
    rng = np.random.default_rng(5)
    bw = 5.0
    a = rng.normal((0, 0, 0), 1.2, size=(60, 3))
    b = rng.normal((40, 5, -10), 1.2, size=(40, 3))
    pts = np.vstack([a, b])
    modes, support = mean_shift(pts, bandwidth=bw)
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
    modes, _ = mean_shift(pts, bandwidth=bw)
    for mode in modes:
        moved = shift_once(mode, pts, None, bw)
        assert np.linalg.norm(moved - mode) < 1e-3 * bw


def test_empty_and_zero_weight_inputs():
    modes, support = mean_shift(np.empty((0, 3)), bandwidth=5.0)
    assert len(modes) == 0 and len(support) == 0
    modes, support = mean_shift(np.array([[1.0, 2.0, 3.0]]), np.array([0.0]),
                                bandwidth=5.0)
    assert len(modes) == 0


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        mean_shift(np.zeros((2, 3)), bandwidth=0.0)


def test_groups_match_scalar_runs():
    rng = np.random.default_rng(2)
    groups = rng.normal(0, 10, size=(4, 30, 3))
    grouped = mean_shift_groups(groups, bandwidth=12.0)
    for g in range(4):
        modes_g, support_g = grouped[g]
        modes_s, support_s = mean_shift(groups[g], bandwidth=12.0)
        assert len(modes_g) == len(modes_s)
        # float32 batch vs float64 scalar: same structure, close positions
        np.testing.assert_allclose(modes_g, modes_s, atol=0.1)
        np.testing.assert_allclose(support_g, support_s, atol=1.0)


def test_groups_ignore_zero_weight_padding():
    pts = np.zeros((1, 5, 3))
    pts[0, :3] = np.array([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]])
    pts[0, 3:] = pts[0, 0]
    weights = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    (modes, support), = mean_shift_groups(pts, weights, bandwidth=10.0)
    assert len(modes) == 1
    assert support[0] == pytest.approx(3.0)
    np.testing.assert_allclose(modes[0], [0.5, 0, 0], atol=1e-5)


def test_support_ordering_is_descending():
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.normal((0, 0, 0), 1, size=(10, 3)),
                     rng.normal((50, 0, 0), 1, size=(30, 3)),
                     rng.normal((0, 50, 0), 1, size=(20, 3))])
    modes, support = mean_shift(pts, bandwidth=5.0)
    assert len(modes) == 3
    assert np.all(np.diff(support) <= 0)
    assert support[0] == pytest.approx(30, abs=1)
