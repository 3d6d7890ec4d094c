import numpy as np
import pytest

from handfit import fit, geometry
from handfit.config import read_csv
from handfit.fit import PsoConfig, joint_fit, pso_optimize, stepwise_fit
from handfit.geometry import forward_kinematics, random_pose
from handfit.proposals import ProposalSet

from oracles import translate_proposals


def test_pso_recovers_known_optimum():
    # smoke oracle: a quadratic bowl with a known maximum
    target = np.zeros(27)
    target[[0, 1, 2]] = [2.3, -1.1, 4.0]
    bounds = np.tile([[-5.0, 5.0]], (27, 1))

    def score(batch):
        d = batch[:, :3] - target[:3]
        return -(d * d).sum(axis=1)

    seed_h = np.zeros(27)
    seed_h[3] = 1.0  # unit quaternion, frozen dims
    res = pso_optimize(score, bounds, np.arange(3), 30, 40, PsoConfig(),
                       seeds=[seed_h], rng=np.random.default_rng(0))
    # within 1e-2 of the bound range (10 units)
    assert np.abs(res.best[:3] - target[:3]).max() < 0.1
    assert res.evals == 30 * 40


def test_pso_seeded_only_single_generation():
    h0 = np.zeros(27)
    h0[3] = 1.0
    bounds = np.tile([[-5.0, 5.0]], (27, 1))
    calls = []

    def score(batch):
        calls.append(len(batch))
        return -np.abs(batch[:, 0] - 3.0)

    res = pso_optimize(score, bounds, np.arange(3), particles=1, generations=1,
                       cfg=PsoConfig(), seeds=[h0], rng=np.random.default_rng(0))
    np.testing.assert_array_equal(res.best, h0)
    assert res.evals == 1


def test_pso_trace_monotone():
    bounds = np.tile([[-5.0, 5.0]], (27, 1))
    h0 = np.zeros(27)
    h0[3] = 1.0

    def score(batch):
        return -((batch[:, :5] - 1.2) ** 2).sum(axis=1)

    res = pso_optimize(score, bounds, np.arange(5), 20, 30, PsoConfig(),
                       seeds=[h0], rng=np.random.default_rng(3))
    assert np.all(np.diff(res.trace) >= 0)
    assert len(res.trace) == 30


def test_stepwise_budget_accounting(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    cfg = PsoConfig(palm_particles=64, palm_generations=64,
                    finger_particles=29, finger_generations=29, seed=0)
    res = stepwise_fit(pset, geom, limits, cfg)
    assert res.evals == 64 * 64 + 5 * 29 * 29 == 8301
    cfg = PsoConfig(seed=0)  # defaults 26/26 + 5 x 23/23
    res = stepwise_fit(pset, geom, limits, cfg)
    assert res.evals == 26 * 26 + 5 * 23 * 23 == 3321


def test_joint_budget_accounting(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    cfg = PsoConfig(joint_particles=91, joint_generations=91, seed=0)
    res = joint_fit(pset, geom, limits, cfg)
    assert res.evals == 91 * 91 == 8281


def test_round_trip_fit_small(geom, limits):
    rng = np.random.default_rng(8)
    cfg = PsoConfig(palm_particles=64, palm_generations=64,
                    finger_particles=29, finger_generations=29)
    for trial in range(5):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        gt = forward_kinematics(geom, pose)
        res = stepwise_fit(ProposalSet.from_joints(gt), geom, limits, cfg,
                           rng=np.random.default_rng(trial))
        err = np.linalg.norm(res.joints(geom) - gt, axis=1).mean()
        assert err < 10.0
        assert all(res.finger_fitted)


def test_under_constrained_palm_rejected(geom, limits):
    single = ProposalSet({0: (np.array([[0.0, 0.0, 500.0]]), np.ones(1))})
    with pytest.raises(fit.UnderConstrainedError):
        stepwise_fit(single, geom, limits, PsoConfig(seed=0))
    collinear = ProposalSet({
        0: (np.array([[0.0, 0.0, 500.0]]), np.ones(1)),
        1: (np.array([[10.0, 0.0, 500.0]]), np.ones(1)),
        5: (np.array([[20.0, 0.0, 500.0]]), np.ones(1)),
    })
    with pytest.raises(fit.UnderConstrainedError, match="collinear"):
        stepwise_fit(collinear, geom, limits, PsoConfig(seed=0))


def test_missing_finger_stays_neutral(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    gt = forward_kinematics(geom, pose)
    # drop every pinky joint from the proposals
    keep = [j for j in range(21) if j not in geometry.finger_joint_indices(4)]
    pset = ProposalSet.from_joints(gt, joint_indices=keep)
    res = stepwise_fit(pset, geom, limits, PsoConfig(seed=0),
                       rng=np.random.default_rng(0))
    assert res.finger_fitted == (True, True, True, True, False)
    np.testing.assert_allclose(res.pose.finger_angles[4],
                               np.clip(np.zeros(4), limits.lower[4], limits.upper[4]),
                               atol=1e-9)


def test_fitted_pose_always_valid(geom, limits):
    rng = np.random.default_rng(10)
    for trial in range(3):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        gt = forward_kinematics(geom, pose)
        noisy = gt + rng.normal(0, 10, gt.shape)
        res = stepwise_fit(ProposalSet.from_joints(noisy), geom, limits,
                           PsoConfig(seed=trial), rng=np.random.default_rng(trial))
        assert geometry.validate_pose(res.pose, limits)
        joints = res.joints(geom)
        for f in range(5):
            chain = geometry.finger_joint_indices(f)
            for k in range(3):
                seg = np.linalg.norm(joints[chain[k + 1]] - joints[chain[k]])
                assert seg == pytest.approx(geom.bone_lengths[f, k], abs=1e-9)


def test_translation_equivariance_of_fit(geom, limits):
    rng = np.random.default_rng(21)
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    gt = forward_kinematics(geom, pose)
    pset = ProposalSet.from_joints(gt)
    t = np.array([40.0, -25.0, 60.0])
    res_a = stepwise_fit(pset, geom, limits, PsoConfig(seed=5),
                         rng=np.random.default_rng(5))
    res_b = stepwise_fit(translate_proposals(pset, t), geom, limits,
                         PsoConfig(seed=5), rng=np.random.default_rng(5))
    np.testing.assert_allclose(res_b.joints(geom), res_a.joints(geom) + t,
                               atol=1.0)


def test_joint_fit_deterministic_and_zero_generations(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    a = joint_fit(pset, geom, limits, PsoConfig(seed=3, joint_particles=20,
                                                joint_generations=10),
                  rng=np.random.default_rng(3))
    b = joint_fit(pset, geom, limits, PsoConfig(seed=3, joint_particles=20,
                                                joint_generations=10),
                  rng=np.random.default_rng(3))
    np.testing.assert_array_equal(a.pose.to_vector(), b.pose.to_vector())

    # zero generations: best of the evaluated initial swarm
    res = joint_fit(pset, geom, limits, PsoConfig(seed=3, joint_particles=16,
                                                  joint_generations=0),
                    rng=np.random.default_rng(3))
    assert res.evals == 16
    assert np.isfinite(res.score)


def test_fits_csv_round_trip(tmp_path, geom, limits, rng):
    results = []
    for trial in range(3):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
        results.append(stepwise_fit(pset, geom, limits,
                                    PsoConfig(seed=trial, palm_particles=8,
                                              palm_generations=6,
                                              finger_particles=6,
                                              finger_generations=5),
                                    rng=np.random.default_rng(trial)))
    fit.write_fits_csv(tmp_path / "fits.csv", results)
    again = read_csv(tmp_path / "fits.csv", ["frame"] + fit.FIT_COLUMNS, lambda row: row)
    assert len(again) == 3
    for frame, (a, row) in enumerate(zip(results, again)):
        assert int(row[0]) == frame
        np.testing.assert_allclose(a.pose.to_vector(), [float(v) for v in row[1:28]],
                                   rtol=1e-6)
        assert a.evals == int(row[29])
        assert a.finger_fitted == tuple(bool(int(v)) for v in row[30:35])
