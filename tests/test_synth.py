import numpy as np
import pytest

from handfit import geometry, synth
from handfit.geometry import PoseParams, validate_pose


def test_default_training_grid_size(limits):
    poses = synth.generate_training_poses(limits=limits)
    assert len(poses) == 7168  # 4**5 articulations x 7 viewpoints


def test_scaled_grids(limits):
    assert len(synth.generate_training_poses(limits=limits, per_finger=1,
                                             num_views=1)) == 1
    assert len(synth.generate_training_poses(limits=limits, per_finger=2)) == 224


def test_training_poses_all_valid(limits):
    poses = synth.generate_training_poses(limits=limits, per_finger=2)
    assert all(validate_pose(p, limits) for p in poses)


def test_sequence_counting(limits):
    a = PoseParams.rest((0, 0, 500))
    angles = np.zeros((5, 4))
    angles[:, 0] = 0.5
    b = PoseParams(np.array([0, 0, 520.0]), a.orientation, angles)
    frames = synth.generate_sequence([a, b], frames_between=9, subsample=5,
                                     limits=limits)
    assert len(frames) == 2  # 10 interpolated frames, every 5th kept
    frames = synth.generate_sequence([a, b], frames_between=9, subsample=1,
                                     limits=limits)
    assert len(frames) == 10


def test_sequence_identical_keyposes(limits):
    a = PoseParams.rest((0, 0, 500))
    frames = synth.generate_sequence([a, a, a], frames_between=4, subsample=1,
                                     limits=limits)
    for f in frames:
        np.testing.assert_allclose(f.to_vector(), a.to_vector(), atol=1e-12)


def test_sequence_interpolation_valid(limits, rng):
    keys = [geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
            for _ in range(4)]
    frames = synth.generate_sequence(keys, frames_between=6, subsample=2,
                                     limits=limits)
    assert all(validate_pose(f, limits) for f in frames)


def test_sequence_preconditions(limits):
    a = PoseParams.rest()
    with pytest.raises(ValueError):
        synth.generate_sequence([a], frames_between=3, subsample=1, limits=limits)
    with pytest.raises(ValueError):
        synth.generate_sequence([a, a], frames_between=0, subsample=1, limits=limits)


def test_track_keyposes_fixed_global_pose(limits, rng):
    keys = synth.make_track_keyposes(rng, 6, limits=limits,
                                     translation=(5.0, 0.0, 600.0))
    for k in keys:
        np.testing.assert_allclose(k.translation, [5.0, 0.0, 600.0])
        np.testing.assert_allclose(k.orientation, keys[0].orientation)
        assert validate_pose(k, limits)


def test_split_round_trip(tmp_path, geom, limits, cam, rng):
    poses = [geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
             for _ in range(3)]
    images = synth.render_poses(poses, geom, cam)
    synth.write_split(tmp_path / "train", poses, images)
    poses2, images2 = synth.read_split(tmp_path / "train", cam)
    assert len(poses2) == 3
    for a, b in zip(poses, poses2):
        np.testing.assert_allclose(a.to_vector(), b.to_vector(), rtol=1e-8)
    for a, b in zip(images, images2):
        assert np.array_equal(a.depth, b.depth)


def test_large_split_reads_back_byte_for_byte(tmp_path, geom, limits, cam):
    # a 32-frame jittered split read back holds the same crops in the same buffer layout
    poses = synth.generate_training_poses(limits=limits, per_finger=2, num_views=1)
    images = synth.render_poses(poses, geom, cam, jitter_mm=2.0, rng=np.random.default_rng(7))
    synth.write_split(tmp_path / "train", poses, images)
    _, again = synth.read_split(tmp_path / "train", cam)
    assert len(again) == len(poses) == 32
    assert np.array_equal(again.boxes, images.boxes)
    assert again.pixels.tobytes() == images.pixels.tobytes()


def test_depth_jitter_stays_foreground(geom, limits, cam, rng):
    pose = PoseParams.rest((0, 0, 550.0))
    clean = synth.render_poses([pose], geom, cam)[0]
    noisy = synth.render_poses([pose], geom, cam, jitter_mm=3.0, rng=rng)[0]
    assert np.array_equal(clean.depth == 0, noisy.depth == 0)
    fg = clean.depth > 0
    assert np.abs(noisy.depth[fg].astype(int) - clean.depth[fg].astype(int)).max() <= 3


def test_viewpoints_unit_quaternions():
    views = synth.load_viewpoints()
    assert len(views) == 7
    np.testing.assert_allclose(np.linalg.norm(views, axis=1), 1.0, atol=1e-12)


def test_articulations_within_limits(limits):
    arts = synth.load_articulations()
    assert arts.shape == (5, 4, 4)
    assert np.all(arts >= limits.lower[:, None, :] - 1e-12)
    assert np.all(arts <= limits.upper[:, None, :] + 1e-12)
