import numpy as np
import pytest

from handfit import fit, geometry
from handfit.config import read_csv
from handfit.fit import PsoConfig, joint_fit, pso_optimize, stepwise_fit
from handfit.geometry import forward_kinematics, random_pose
from handfit.proposals import ProposalSet

from oracles import (joint_fit_one_by_one, pso_one_swarm, stepwise_fit_one_by_one,
                     translate_proposals)


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


def test_uniform_stream_splits_anywhere():
    # the finger stack draws each finger's whole block with one
    # rng.random(n) and slices it; that equals the stage's own draws of
    # (particles - 1, 4), then (particles, 4) twice per generation
    for seed in (0, 7, 2**40):
        whole = np.random.default_rng(seed).random(3 * 4 + 2 * 5 * 4 + 9)
        rng = np.random.default_rng(seed)
        parts = [rng.random((3, 4)), rng.random((5, 4)), rng.random((5, 4)), rng.random(9)]
        np.testing.assert_array_equal(whole, np.concatenate([p.ravel() for p in parts]))


@pytest.mark.parametrize("active, particles, generations, n_seeds", [
    (np.arange(7), 26, 26, 24),      # palm stage: quaternion active, seeded cover
    (np.arange(27), 20, 10, 1),      # joint stage
    (np.arange(2, 5), 9, 6, 3),      # part of the quaternion active
    (np.arange(3), 1, 4, 2),         # seeded only
    (np.arange(11, 15), 5, 0, 1),    # zero generations
])
def test_pso_matches_one_swarm_reference(active, particles, generations, n_seeds):
    rng = np.random.default_rng(4)
    bounds = np.tile([[-2.0, 2.0]], (27, 1))
    seeds = list(rng.uniform(-1, 1, (n_seeds, 27)))
    target = rng.uniform(-1, 1, 27)

    def score(batch):
        return -((batch - target) ** 2).sum(axis=1)

    got = pso_optimize(score, bounds, active, particles, generations, PsoConfig(),
                       seeds=seeds, rng=np.random.default_rng(9))
    want = pso_one_swarm(score, bounds, active, particles, generations, PsoConfig(),
                         seeds=seeds, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(got.best, want.best)
    assert got.score == want.score and got.evals == want.evals
    np.testing.assert_array_equal(got.trace, want.trace)


def _noisy_k3(gt, rng, drop=()):
    """Three proposals per joint around the truth, weights 3:2:1."""
    return ProposalSet({j: (gt[j] + rng.normal(0, 8, (3, 3)), [3.0, 2.0, 1.0])
                        for j in range(21) if j not in drop})


def _fingers_dropped(*fingers):
    return [j for f in fingers for j in geometry.finger_joint_indices(f)]


@pytest.mark.parametrize("fingers", [[0, 1, 2, 3, 4], [1, 3], [4]])
def test_finger_stack_scores_are_objective_scores(geom, limits, fingers):
    # row p of swarm i must score as objective does on finger i's joints,
    # to the bit, including the order in which the terms are summed
    rng = np.random.default_rng(31)
    base = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE).to_vector()
    gt = forward_kinematics(geom, geometry.PoseParams.from_vector(base))
    pset = _noisy_k3(gt, rng)
    x = np.tile(base, (len(fingers), 40, 1))
    for i, f in enumerate(fingers):
        x[i, :, fit.finger_dims(f)] = rng.uniform(
            limits.lower[f], limits.upper[f], (40, 4)).T
    # and with the first finger held only at its MCP and TIP, whose absent
    # PIP and DIP must add the zeros objective adds for them
    partial = _noisy_k3(gt, rng, drop=geometry.finger_joint_indices(fingers[0])[1:3])
    for pset in (pset, partial):
        got = fit._finger_scores(pset, geom, base, fingers, 100.0)(x)
        for i, f in enumerate(fingers):
            finger = pset.only(geometry.finger_joint_indices(f))
            want = fit.objective(finger, x[i], geom, 100.0)
            np.testing.assert_array_equal(got[i], want)


@pytest.mark.parametrize("case, cfg", [
    ("exact", PsoConfig(seed=0)),
    ("exact", PsoConfig(palm_particles=64, palm_generations=64,
                        finger_particles=29, finger_generations=29)),
    ("noisy", PsoConfig(seed=0)),
    ("no pinky", PsoConfig(seed=0)),
    ("no index, no ring", PsoConfig(seed=0)),
    ("noisy, no index, no ring", PsoConfig(seed=0)),
    ("exact", PsoConfig(finger_generations=0)),
    ("noisy", PsoConfig(finger_generations=1)),
    ("noisy", PsoConfig(finger_particles=2)),
    ("no pinky", PsoConfig(finger_particles=2, finger_generations=1)),
])
def test_fit_matches_stage_by_stage_reference(geom, limits, case, cfg):
    # the finger stack must end bit for bit where the finger stages, run
    # one after another, end
    rng = np.random.default_rng(17)
    drop = _fingers_dropped(4) if "pinky" in case else \
        _fingers_dropped(1, 3) if "index" in case else ()
    for trial in range(3):
        gt = forward_kinematics(geom, random_pose(rng, limits, geometry.DEFAULT_WORKSPACE))
        if "noisy" in case:
            pset = _noisy_k3(gt, rng, drop)
        else:
            pset = ProposalSet.from_joints(
                gt, joint_indices=[j for j in range(21) if j not in drop])
        got = stepwise_fit(pset, geom, limits, cfg, rng=np.random.default_rng(trial))
        want = stepwise_fit_one_by_one(pset, geom, limits, cfg,
                                       rng=np.random.default_rng(trial))
        assert np.array_equal(got.pose.to_vector(), want.pose.to_vector())
        assert got.score == want.score and got.evals == want.evals
        assert got.finger_fitted == want.finger_fitted
    if drop:
        assert got.finger_fitted.count(False) == len(drop) // 4


@pytest.mark.parametrize("noisy", [False, True])
def test_joint_fit_matches_stage_by_stage_reference(geom, limits, noisy):
    rng = np.random.default_rng(23)
    cfg = PsoConfig(seed=0, joint_particles=30, joint_generations=25)
    for trial in range(2):
        gt = forward_kinematics(geom, random_pose(rng, limits, geometry.DEFAULT_WORKSPACE))
        pset = _noisy_k3(gt, rng) if noisy else ProposalSet.from_joints(gt)
        got = joint_fit(pset, geom, limits, cfg, rng=np.random.default_rng(trial))
        want = joint_fit_one_by_one(pset, geom, limits, cfg, rng=np.random.default_rng(trial))
        assert np.array_equal(got.pose.to_vector(), want.pose.to_vector())
        assert got.score == want.score and got.evals == want.evals


def test_stepwise_budget_accounting(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    cfg = PsoConfig(palm_particles=64, palm_generations=64,
                    finger_particles=29, finger_generations=29, seed=0)
    res = stepwise_fit(pset, geom, limits, cfg, np.random.default_rng(cfg.seed))
    assert res.evals == 64 * 64 + 5 * 29 * 29 == 8301
    cfg = PsoConfig(seed=0)  # defaults 26/26 + 5 x 23/23
    res = stepwise_fit(pset, geom, limits, cfg, np.random.default_rng(cfg.seed))
    assert res.evals == 26 * 26 + 5 * 23 * 23 == 3321


def test_joint_budget_accounting(geom, limits, rng):
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    cfg = PsoConfig(joint_particles=91, joint_generations=91, seed=0)
    res = joint_fit(pset, geom, limits, cfg, np.random.default_rng(cfg.seed))
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
        stepwise_fit(single, geom, limits, PsoConfig(seed=0), np.random.default_rng(0))
    collinear = ProposalSet({
        0: (np.array([[0.0, 0.0, 500.0]]), np.ones(1)),
        1: (np.array([[10.0, 0.0, 500.0]]), np.ones(1)),
        5: (np.array([[20.0, 0.0, 500.0]]), np.ones(1)),
    })
    with pytest.raises(fit.UnderConstrainedError, match="collinear"):
        stepwise_fit(collinear, geom, limits, PsoConfig(seed=0), np.random.default_rng(0))


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
