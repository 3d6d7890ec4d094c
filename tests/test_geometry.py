import numpy as np
import pytest

from handfit import geometry, quats
from handfit.geometry import (JOINT_NAMES, NUM_JOINTS, TIP_INDICES, PoseParams,
                              clamp_to_limits, forward_kinematics, random_pose,
                              validate_pose)

from oracles import fk_rotation_chain, quat_multiply


def test_rest_pose_fingertips_along_forward_axis(geom):
    pose = PoseParams.rest()
    joints = forward_kinematics(geom, pose)
    for f in range(5):
        mcp, _, _, tip = geometry.finger_joint_indices(f)
        base = geom.finger_base_offsets[f]
        direction = geom.finger_base_frames[f][:, 1]
        expected = base + geom.bone_lengths[f].sum() * direction
        np.testing.assert_allclose(joints[tip], expected, atol=1e-9)
        np.testing.assert_allclose(joints[mcp], base, atol=1e-9)
    # non-thumb fingers extend straight along the palm forward axis
    for f in range(1, 5):
        tip = geometry.finger_joint_indices(f)[3]
        assert joints[tip][0] == pytest.approx(geom.finger_base_offsets[f][0])
        assert joints[tip][2] == pytest.approx(geom.finger_base_offsets[f][2])


def test_translation_equivariance(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    t = np.array([12.5, -40.0, 77.0])
    shifted = PoseParams(pose.translation + t, pose.orientation, pose.finger_angles)
    np.testing.assert_allclose(forward_kinematics(geom, shifted),
                               forward_kinematics(geom, pose) + t, atol=1e-9)


def test_pip_right_angle_matches_planar_triangle(geom, limits, rng):
    # two-link planar geometry: with the PIP at 90 degrees the MCP-DIP
    # distance is the hypotenuse of the two segment lengths
    for _ in range(5):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        angles = pose.finger_angles.copy()
        angles[:, 2] = np.pi / 2
        pose = PoseParams(pose.translation, pose.orientation, angles)
        joints = forward_kinematics(geom, pose)
        for f in range(5):
            mcp, _, dip, _ = geometry.finger_joint_indices(f)
            lp, lm, _ = geom.bone_lengths[f]
            assert np.linalg.norm(joints[dip] - joints[mcp]) == \
                pytest.approx(np.hypot(lp, lm), abs=1e-9)


def test_rigid_equivariance(geom, limits, rng):
    # FK(q*q0, t) == R(q) @ FK(q0, 0) + t
    for _ in range(100):
        base = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        q0 = base.orientation
        q = quats.random_unit(rng)
        t = rng.uniform(-200, 200, 3)
        composed = PoseParams(t, quat_multiply(q, q0), base.finger_angles)
        reference = PoseParams(np.zeros(3), q0, base.finger_angles)
        expected = forward_kinematics(geom, reference) @ quats.to_matrix_batch(q).T + t
        got = forward_kinematics(geom, composed)
        assert np.abs(got - expected).max() < 1e-6 * max(1.0, np.abs(expected).max())


def test_bone_length_conservation(geom, limits, rng):
    for _ in range(50):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        joints = forward_kinematics(geom, pose)
        for f in range(5):
            chain = geometry.finger_joint_indices(f)
            for k in range(3):
                length = np.linalg.norm(joints[chain[k + 1]] - joints[chain[k]])
                assert length == pytest.approx(geom.bone_lengths[f, k], abs=1e-9)


def test_forward_kinematics_is_pure(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    a = forward_kinematics(geom, pose)
    b = forward_kinematics(geom, pose)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("joints", [
    (0, 1, 5, 9, 13, 17),  # palm stage: palm and the five MCPs
    *(geometry.finger_joint_indices(f) for f in range(5)),
    (1,), (13, 5),  # MCPs alone, without their chains
    (20, 0, 7, 2, 9),  # unsorted, some chains partial
    (), (0,), (5, 5, 0),  # rigid points: none, the palm alone, repeated
    (17, 13, 9, 5, 1, 0),  # the palm stage reversed
    (3, 3, 17),  # whole-hand rows, repeated
], ids=["palm_stage", "thumb", "index", "middle", "ring", "pinky",
        "thumb_mcp", "mcps_unsorted", "unsorted_mixed",
        "empty", "palm", "rigid_repeated", "palm_stage_reversed", "chain_repeated"])
def test_fk_batch_joint_subset_equals_full_columns(geom, limits, rng, joints):
    poses = [random_pose(rng, limits, geometry.DEFAULT_WORKSPACE) for _ in range(7)]
    args = (np.stack([p.translation for p in poses]),
            np.stack([p.orientation for p in poses]),
            np.stack([p.finger_angles for p in poses]))
    full = geometry.fk_batch(geom, *args)
    got = geometry.fk_batch(geom, *args, joints=joints)
    assert got.shape == (7, len(joints), 3)
    assert np.array_equal(got, full[:, list(joints)])


def _batch(poses):
    return (np.stack([p.translation for p in poses]),
            np.stack([p.orientation for p in poses]),
            np.stack([p.finger_angles for p in poses]))


def _limit_poses(rng, limits, n):
    """All-lower, all-upper, then poses with each angle at one of its limits."""
    ends = [np.zeros((5, 4), dtype=bool), np.ones((5, 4), dtype=bool)]
    ends += list(rng.random((n - 2, 5, 4)) < 0.5)
    return [PoseParams(rng.uniform(-200, 200, 3), quats.random_unit(rng),
                       np.where(upper, limits.upper, limits.lower)) for upper in ends]


def _tilted_geometry(geom, rng):
    """`geom` with every finger's base frame turned by a random yaw and roll."""
    frames = [geometry._yaw_roll_to_frame(*rng.uniform(-np.pi, np.pi, 2))
              for _ in range(5)]
    return geometry.HandGeometry(geom.finger_base_offsets, geom.bone_lengths,
                                 frames, geom.palm_root_to_wrist)


@pytest.mark.parametrize("poses", ["random", "at_limits"])
@pytest.mark.parametrize("frames", ["default", "all_tilted"])
def test_fk_batch_matches_rotation_chain_oracle(geom, limits, rng, poses, frames):
    # the planar-chain FK against the chained rotation-matrix products;
    # the default thumb frame is tilted, "all_tilted" tilts every finger
    assert not np.allclose(geom.finger_base_frames[0], np.eye(3))
    model = geom if frames == "default" else _tilted_geometry(geom, rng)
    batch = _batch([random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
                    for _ in range(1000)] if poses == "random"
                   else _limit_poses(rng, limits, 256))
    got = geometry.fk_batch(model, *batch)
    # a view of the coordinate-first (21, 3, n) buffer FK builds
    assert got.shape == (len(batch[0]), NUM_JOINTS, 3)
    assert got.transpose(1, 2, 0).flags.c_contiguous
    assert np.abs(got - fk_rotation_chain(model, *batch)).max() < 1e-9
    # criterion 6: every bone keeps its length
    for f in range(5):
        chain = list(geometry.finger_joint_indices(f))
        lengths = np.linalg.norm(np.diff(got[:, chain], axis=1), axis=2)
        assert np.abs(lengths - model.bone_lengths[f]).max() < 1e-9


def test_fk_batch_rejects_out_of_range_joints(geom):
    args = (np.zeros((1, 3)), np.array([quats.IDENTITY]), np.zeros((1, 5, 4)))
    for joints in ([-1], [NUM_JOINTS]):
        with pytest.raises(ValueError, match="range"):
            geometry.fk_batch(geom, *args, joints=joints)


def test_zero_quaternion_rejected(geom):
    pose = PoseParams(np.zeros(3), np.zeros(4), np.zeros((5, 4)))
    with pytest.raises(ValueError, match="quaternion"):
        forward_kinematics(geom, pose)


def test_clamp_idempotent_and_projects(limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    once = clamp_to_limits(pose, limits)
    twice = clamp_to_limits(once, limits)
    np.testing.assert_array_equal(once.finger_angles, twice.finger_angles)
    assert validate_pose(once, limits)
    # already-valid pose passes through unchanged
    np.testing.assert_array_equal(once.finger_angles, pose.finger_angles)


def test_clamp_caps_overflexed_pip(limits):
    angles = np.zeros((5, 4))
    angles[1, 2] = 4.0  # way past the PIP range
    pose = PoseParams(np.zeros(3), quats.IDENTITY, angles)
    clamped = clamp_to_limits(pose, limits)
    assert clamped.finger_angles[1, 2] == pytest.approx(limits.upper[1, 2])
    assert limits.upper[1, 2] == pytest.approx(np.radians(100.0))


def test_clamp_renormalizes_quaternion(limits):
    pose = PoseParams(np.zeros(3), np.array([2.0, 0, 0, 0]), np.zeros((5, 4)))
    clamped = clamp_to_limits(pose, limits)
    np.testing.assert_allclose(clamped.orientation, [1, 0, 0, 0], atol=1e-12)


def test_random_pose_reproducible_and_valid(limits):
    a = random_pose(np.random.default_rng(7), limits, geometry.DEFAULT_WORKSPACE)
    b = random_pose(np.random.default_rng(7), limits, geometry.DEFAULT_WORKSPACE)
    np.testing.assert_array_equal(a.to_vector(), b.to_vector())
    rng = np.random.default_rng(0)
    for _ in range(200):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        assert validate_pose(pose, limits)
        assert abs(np.linalg.norm(pose.orientation) - 1) < 1e-6
        lo, hi = geometry.DEFAULT_WORKSPACE[:, 0], geometry.DEFAULT_WORKSPACE[:, 1]
        assert np.all(pose.translation >= lo) and np.all(pose.translation <= hi)


def test_pose_vector_round_trip(limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    again = PoseParams.from_vector(pose.to_vector())
    np.testing.assert_array_equal(pose.to_vector(), again.to_vector())
    assert pose.to_vector().shape == (27,)


def test_geometry_and_limits_file_round_trip(tmp_path, geom, limits):
    geom.save(tmp_path / "geom.txt")
    again = geometry.HandGeometry.from_file(tmp_path / "geom.txt")
    np.testing.assert_allclose(again.finger_base_offsets, geom.finger_base_offsets)
    np.testing.assert_allclose(again.bone_lengths, geom.bone_lengths)
    np.testing.assert_allclose(again.finger_base_frames, geom.finger_base_frames,
                               atol=1e-12)
    limits.save(tmp_path / "limits.txt")
    again = geometry.JointLimits.from_file(tmp_path / "limits.txt")
    np.testing.assert_allclose(again.lower, limits.lower)
    np.testing.assert_allclose(again.upper, limits.upper)


def test_pose_csv_round_trip(tmp_path, limits, rng):
    poses = [random_pose(rng, limits, geometry.DEFAULT_WORKSPACE) for _ in range(7)]
    geometry.write_poses_csv(tmp_path / "poses.csv", poses)
    again = geometry.read_poses_csv(tmp_path / "poses.csv")
    assert len(again) == 7
    for a, b in zip(poses, again):
        np.testing.assert_allclose(a.to_vector(), b.to_vector(), rtol=1e-8)


def test_joint_naming_layout():
    assert len(JOINT_NAMES) == NUM_JOINTS == 21
    assert JOINT_NAMES[0] == "palm"
    assert [JOINT_NAMES[t] for t in TIP_INDICES] == \
        [f"{f}_tip" for f in geometry.FINGERS]


def test_invalid_geometry_rejected(geom):
    bad = geom.bone_lengths.copy()
    bad[0, 0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        geometry.HandGeometry(geom.finger_base_offsets, bad,
                              geom.finger_base_frames, geom.palm_root_to_wrist)
