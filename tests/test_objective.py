import numpy as np
import pytest

from handfit import fit, geometry
from handfit.geometry import PoseParams, forward_kinematics, random_pose
from handfit.proposals import ProposalSet

from oracles import joint_maxima_point_major, masked_objective


def test_objective_on_exact_joints(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    joints = forward_kinematics(geom, pose)
    pset = ProposalSet.from_joints(joints)
    score = fit.objective(pset, pose.to_vector(), geom, 100.0)
    assert score == pytest.approx(21.0, abs=1e-9)


def test_objective_saturates_beyond_dmax(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    joints = forward_kinematics(geom, pose)
    pset = ProposalSet.from_joints(joints + np.array([500.0, 0.0, 0.0]))
    assert fit.objective(pset, pose.to_vector(), geom, 100.0) == pytest.approx(0.0)


def test_objective_two_proposal_hand_case(geom):
    # one joint, proposals weighted (0.7, 0.3) at distances (d_max, 0):
    # direct evaluation gives max(0.7*(1-1), 0.3*(1-0)) = 0.3
    d_max = 100.0
    pose = PoseParams.rest((0.0, 0.0, 500.0))
    joints = forward_kinematics(geom, pose)
    palm = joints[0]
    pset = ProposalSet({0: (np.vstack([palm + [d_max, 0, 0], palm]),
                            np.array([0.7, 0.3]))})
    score = fit.objective(pset, pose.to_vector(), geom, d_max)
    assert score == pytest.approx(0.3, abs=1e-12)


def test_objective_bounds_random_pairs(geom, limits, rng):
    for _ in range(50):
        n_joints = rng.integers(1, 22)
        joints = rng.choice(21, size=n_joints, replace=False)
        entries = {}
        for j in joints:
            r = int(rng.integers(1, 4))
            pos = rng.uniform(-200, 200, (r, 3)) + [0, 0, 550]
            entries[int(j)] = (pos, rng.uniform(0.1, 1.0, r))
        pset = ProposalSet(entries)
        h = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE).to_vector()
        score = fit.objective(pset, h, geom, 100.0)
        assert 0.0 <= score <= 21.0


def test_objective_monotone_in_distance(geom):
    pose = PoseParams.rest((0.0, 0.0, 500.0))
    joints = forward_kinematics(geom, pose)
    scores = []
    for offset in (0.0, 20.0, 50.0, 90.0, 150.0):
        pset = ProposalSet({3: ((joints[3] + [offset, 0, 0])[None, :],
                                np.ones(1))})
        scores.append(fit.objective(pset, pose.to_vector(), geom, 100.0))
    assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def test_objective_batch_matches_scalar(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    batch = np.stack([random_pose(rng, limits, geometry.DEFAULT_WORKSPACE).to_vector()
                      for _ in range(8)])
    got = fit.objective(pset, batch, geom, 100.0)
    for i in range(8):
        assert got[i] == pytest.approx(fit.objective(pset, batch[i], geom, 100.0),
                                       abs=1e-12)


def test_objective_degenerate_quaternion(geom):
    pose = PoseParams.rest((0.0, 0.0, 500.0))
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    h = pose.to_vector()
    h[3:7] = 0.0
    assert fit.objective(pset, h, geom, 100.0) == -np.inf


def test_objective_scores_only_the_joints_the_set_holds(geom):
    pose = PoseParams.rest((0.0, 0.0, 500.0))
    joints = forward_kinematics(geom, pose)
    pset = ProposalSet.from_joints(joints)
    palm_only = fit.objective(pset.only(fit.PALM_STAGE_JOINTS), pose.to_vector(),
                              geom, 100.0)
    assert palm_only == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("subset, palm_k", [
    (fit.PALM_STAGE_JOINTS, 3),
    *((geometry.finger_joint_indices(f), 3) for f in range(5)),
    ((0, 4, 8), 3),
    (None, 3),
    (fit.PALM_STAGE_JOINTS, 1),
], ids=["palm_stage", "thumb", "index", "middle", "ring", "pinky", "mixed", "all",
        "palm_stage_fewer_palm_proposals"])
def test_stage_local_objective_equals_masked_score(geom, limits, rng, subset, palm_k):
    # noisy proposals (k=3, palm_k in the palm region) with the middle
    # finger and the palm absent: the score of the restricted set must
    # equal the full-FK masked score bit for bit, whatever K it pads to
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    joints = forward_kinematics(geom, pose)
    absent = {0, *geometry.finger_joint_indices(2)}
    k = [palm_k if j in fit.PALM_STAGE_JOINTS else 3 for j in range(21)]
    pset = ProposalSet({j: (joints[j] + rng.normal(0.0, 30.0, (k[j], 3)),
                            rng.uniform(0.1, 1.0, k[j]))
                        for j in range(21) if j not in absent})
    batch = np.stack([random_pose(rng, limits, geometry.DEFAULT_WORKSPACE).to_vector()
                      for _ in range(12)])
    batch[:, 0:3] = pose.translation + rng.normal(0.0, 20.0, (12, 3))
    batch[0] = pose.to_vector()
    batch[5, 3:7] = 0.0
    stage = pset if subset is None else pset.only(subset)
    got = fit.objective(stage, batch, geom, 100.0)
    want = masked_objective(pset, batch, geom, 100.0, joint_subset=subset)
    assert got[5] == -np.inf
    assert np.array_equal(got, want)
    scored = range(21) if subset is None else subset
    assert (got[0] > 0) == any(j not in absent for j in scored)
    one = fit.objective(stage, batch[0], geom, 100.0)
    assert isinstance(one, float)
    assert one == masked_objective(pset, batch[0], geom, 100.0, joint_subset=subset)


def test_proposal_set_only_keeps_entries_and_weights(rng):
    entries = {j: (rng.uniform(-100, 100, (3, 3)), rng.uniform(0.1, 1.0, 3))
               for j in (0, 2, 5, 9, 20)}
    pset = ProposalSet(entries)
    before = {j: (pset.positions(j).copy(), pset.weights(j).copy()) for j in pset.joints}
    only = pset.only((20, 5, 7, 0))
    assert only.joints == [0, 5, 20] and only.num_joints == pset.num_joints
    for j in only.joints:
        assert np.array_equal(only.positions(j), pset.positions(j))
        assert np.array_equal(only.weights(j), pset.weights(j))
    assert pset.joints == sorted(before)
    for j, (p, w) in before.items():
        assert np.array_equal(pset.positions(j), p) and np.array_equal(pset.weights(j), w)
    assert len(pset.only(())) == 0


def test_proposal_set_normalization_and_truncation(rng):
    pos = rng.uniform(-50, 50, (4, 3))
    pset = ProposalSet({2: (pos, np.array([4.0, 3.0, 2.0, 1.0]))})
    np.testing.assert_allclose(pset.weights(2).sum(), 1.0, atol=1e-12)
    assert np.all(np.diff(pset.weights(2)) <= 0)
    top2 = pset.top_k(2)
    assert len(top2.weights(2)) == 2
    np.testing.assert_allclose(top2.weights(2).sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(top2.weights(2), [4 / 7, 3 / 7])


def test_proposal_set_rejects_bad_input():
    with pytest.raises(ValueError, match="negative"):
        ProposalSet({0: (np.zeros((1, 3)), np.array([-1.0]))})
    with pytest.raises(ValueError, match="finite"):
        ProposalSet({0: (np.full((1, 3), np.nan), np.array([1.0]))})
    with pytest.raises(ValueError, match="range"):
        ProposalSet({40: (np.zeros((1, 3)), np.array([1.0]))})


def test_proposals_csv_round_trip(tmp_path, rng):
    from handfit.proposals import read_proposals_csv, write_proposals_csv

    sets = []
    for _ in range(3):
        entries = {}
        for j in rng.choice(21, size=5, replace=False):
            r = int(rng.integers(1, 4))
            entries[int(j)] = (rng.uniform(-100, 100, (r, 3)),
                               rng.uniform(0.1, 1.0, r))
        sets.append(ProposalSet(entries))
    write_proposals_csv(tmp_path / "p.csv", sets)
    again = read_proposals_csv(tmp_path / "p.csv")
    assert len(again) == 3
    for a, b in zip(sets, again):
        assert a.joints == b.joints
        for j in a.joints:
            np.testing.assert_allclose(a.positions(j), b.positions(j), rtol=1e-6)
            np.testing.assert_allclose(a.weights(j), b.weights(j), rtol=1e-6)


@pytest.mark.parametrize("case", ["absent_joints", "padded_k", "k1", "palm_stage", "one_row"])
def test_coordinate_first_joint_maxima_equal_point_major_oracle(geom, limits, rng, case):
    # the terms objective and the finger stack score, on FK's own layout
    # and on a row-major copy, against the (n, J, K, 3) reference
    n = 1 if case == "one_row" else 40
    poses = [random_pose(rng, limits, geometry.DEFAULT_WORKSPACE) for _ in range(n)]
    truth = forward_kinematics(geom, poses[0])
    k = {"k1": 1}.get(case, 3)
    counts = rng.integers(1, 5, 21) if case == "padded_k" else np.full(21, k)
    present = [j for j in range(21) if case != "absent_joints" or j % 4]
    pset = ProposalSet({j: (truth[j] + rng.normal(0.0, 40.0, (counts[j], 3)),
                            rng.uniform(0.1, 1.0, counts[j])) for j in present})
    if case == "palm_stage":
        pset = pset.only(fit.PALM_STAGE_JOINTS)
    scored = None if case == "absent_joints" else pset.joints
    joints = geometry.fk_batch(geom, np.stack([p.translation for p in poses]),
                               np.stack([p.orientation for p in poses]),
                               np.stack([p.finger_angles for p in poses]), joints=scored)
    pos, w = pset.padded()
    if scored is not None:
        pos, w = pos[scored], w[scored]
    want = joint_maxima_point_major(np.ascontiguousarray(joints), pos, w, 100.0)
    assert want.shape == (n, len(w)) and (want > 0).any()
    for layout in (joints, np.ascontiguousarray(joints)):
        assert np.array_equal(fit._joint_maxima(layout, pos, w, 100.0), want)
    if case == "absent_joints":
        assert (want[:, 0] == 0).all() and (w[0] == 0).all()
    if case == "padded_k":
        assert (w == 0).any() and w.shape[1] == 4
