"""The fit's per-generation path against frozen copies of how it was
computed before its numpy calls were cut (tests/oracles.py), bit for bit:
signed zeros, infinities and NaN included."""

import numpy as np
import pytest

from handfit import depth, fit, geometry, quats
from handfit.geometry import forward_kinematics, random_pose
from handfit.proposals import ProposalSet

from oracles import (fk_batch_frozen, objective_frozen, sanitize_quat_frozen,
                     to_matrix_batch_per_entry)

SIGNED = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _unit(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


def _signed_quats(rng, n):
    """Quaternions whose components are ±0, ±0.5 or ±1: every product
    and sum of the rotation entries meets signed zeros."""
    return rng.choice(SIGNED, (n, 4))


@pytest.mark.parametrize("case", ["unit", "signed_zeros", "one", "stacked"])
def test_rotation_table_equals_per_entry_formula(rng, case):
    q = {"unit": lambda: _unit(rng, 500),
         "signed_zeros": lambda: _signed_quats(rng, 500),
         "one": lambda: _unit(rng, 1)[0],
         "stacked": lambda: _signed_quats(rng, 24).reshape(2, 3, 4, 4)}[case]()
    want = to_matrix_batch_per_entry(q)
    assert_same_bits(quats.to_matrix_batch(q), want)
    flat = q.reshape(-1, 4)
    assert_same_bits(quats.rotation_table(flat),
                     np.ascontiguousarray(to_matrix_batch_per_entry(flat).transpose(1, 2, 0)))
    if case == "signed_zeros":  # the case really holds -0 entries
        assert (np.signbit(want) & (want == 0)).any()


def test_render_rotation_equals_per_entry_formula(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    rot = depth.hand_primitives(geom, pose)[2][2]
    assert rot.flags.c_contiguous
    assert_same_bits(rot, to_matrix_batch_per_entry(quats.normalize(pose.orientation)))


def _hypotheses(rng, limits, center, n):
    """n poses near `center` with a zero-norm quaternion (row 1), ±0
    quaternion components (rows 2-5) and exact zeros in translation."""
    h = np.stack([random_pose(rng, limits, geometry.DEFAULT_WORKSPACE).to_vector()
                  for _ in range(n)])
    h[:, 0:3] = center + rng.normal(0.0, 25.0, (n, 3))
    h[1, 3:7] = [0.0, -0.0, 0.0, -0.0]
    h[2:6, 3:7] = _signed_quats(rng, 4)
    h[2:6, 3] = 1.0  # a non-zero norm, so these rows are scored
    h[6, 0:3] = [0.0, -0.0, 0.0]
    return h


@pytest.mark.parametrize("fk_joints", [None, "rigid", "rigid_reordered", "fingers"])
def test_fk_batch_equals_frozen_reference(geom, limits, rng, fk_joints):
    h = _hypotheses(rng, limits, np.zeros(3), 40)
    h[1, 3] = 1.0
    q = h[:, 3:7] / np.linalg.norm(h[:, 3:7], axis=1)[:, None]
    joints = {None: None, "rigid": list(geometry.RIGID_JOINTS),
              "rigid_reordered": [9, 0, 17, 1], "fingers": [3, 0, 20, 8, 9]}[fk_joints]
    got = geometry.fk_batch(geom, h[:, 0:3], q, h[:, 7:].reshape(-1, 5, 4), joints=joints)
    want = fk_batch_frozen(geom, h[:, 0:3], q, h[:, 7:].reshape(-1, 5, 4))
    assert_same_bits(got, want if joints is None else want[:, joints])


@pytest.mark.parametrize("fingers", [[0, 1, 2, 3, 4], [3, 1], [4]])
def test_posed_fingers_equals_frozen_reference(geom, limits, rng, fingers):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    angles = np.stack([random_pose(rng, limits, geometry.DEFAULT_WORKSPACE).finger_angles
                       for _ in range(30)])
    got = geometry.posed_fingers(geom, pose.translation, pose.orientation, fingers)(
        angles[:, fingers])
    want = fk_batch_frozen(geom, np.tile(pose.translation, (30, 1)),
                           np.tile(pose.orientation, (30, 1)), angles)
    assert_same_bits(got, want[:, [j for f in fingers
                                   for j in geometry.finger_joint_indices(f)]])


def _ragged(rng, truth, absent):
    """K = 1..3 proposals per joint, the joints in `absent` left out."""
    counts = rng.integers(1, 4, 21)
    return ProposalSet({j: (truth[j] + rng.normal(0.0, 30.0, (counts[j], 3)),
                            rng.uniform(0.1, 1.0, counts[j]))
                        for j in range(21) if j not in absent})


@pytest.mark.parametrize("case", ["all_k1", "ragged", "ragged_palm_stage", "ragged_finger",
                                  "no_palm_no_middle"])
def test_objective_equals_frozen_reference(geom, limits, rng, case):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    truth = forward_kinematics(geom, pose)
    if case == "all_k1":
        pset = ProposalSet.from_joints(truth)
    else:
        absent = {0, *geometry.finger_joint_indices(2)} if case == "no_palm_no_middle" \
            else {4, 13}
        pset = _ragged(rng, truth, absent)
        assert len({len(pset.weights(j)) for j in pset.joints}) > 1
    pset = {"ragged_palm_stage": lambda: pset.only(fit.PALM_STAGE_JOINTS),
            "ragged_finger": lambda: pset.only(geometry.finger_joint_indices(1)),
            }.get(case, lambda: pset)()
    h = _hypotheses(rng, limits, pose.translation, 50)
    h[0] = pose.to_vector()
    got = fit.objective(pset, h, geom, 100.0)
    assert_same_bits(got, objective_frozen(pset, h, geom, 100.0))
    assert got[1] == -np.inf and np.isfinite(np.delete(got, 1)).all()
    assert (got > 0).any()
    for row in (0, 1, 3):  # one vector in, one float out
        one = fit.objective(pset, h[row], geom, 100.0)
        assert isinstance(one, float)
        assert_same_bits(one, objective_frozen(pset, h[row], geom, 100.0))
    # the per-set arrays are cached: a second call reads the same ones
    assert pset.held()[1] is pset.held()[1]


@pytest.mark.parametrize("shape", [(64, 27), (5, 23, 27), (1, 27)])
def test_sanitize_quat_equals_frozen_reference(rng, shape):
    x = rng.normal(size=shape)
    rows = x.reshape(-1, 27)
    rows[::3, 3:7] = _signed_quats(rng, len(rows[::3]))  # zero norms among them
    rows[-1, 3:7] = [0.0, -0.0, -0.0, 0.0]
    rows[0, 3:7] = [1e-13, 0.0, 0.0, 0.0]
    want = x.copy()
    sanitize_quat_frozen(want)
    fit._sanitize_quat(x)
    assert_same_bits(x, want)
    assert (x.reshape(-1, 27)[-1, 3:7] == quats.IDENTITY).all()
