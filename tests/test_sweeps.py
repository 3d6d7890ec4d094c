import numpy as np
import pytest

from handfit import fit, geometry, metrics, sweeps
from handfit.config import RunConfig
from handfit.forest import proposals_from_votes
from handfit.geometry import PoseParams, forward_kinematics


@pytest.fixture(scope="module")
def tiny_votes(geom):
    """Handcrafted vote sets around three rest-pose frames."""
    rng = np.random.default_rng(6)
    gts = []
    votes = []
    for i in range(3):
        pose = PoseParams.rest((5.0 * i, 0.0, 550.0))
        gt = forward_kinematics(geom, pose)
        gts.append(gt)
        per_joint = {}
        for j in range(21):
            pos = gt[j] + rng.normal(0, 8, size=(40, 3))
            per_joint[j] = (pos, rng.uniform(0.5, 2.0, 40))
        votes.append(per_joint)
    return votes, gts


@pytest.fixture(scope="module")
def fast_cfg():
    cfg = RunConfig()
    cfg["pso.palm_particles"] = 10
    cfg["pso.palm_generations"] = 8
    cfg["pso.finger_particles"] = 8
    cfg["pso.finger_generations"] = 6
    cfg["pso.joint_particles"] = 12
    cfg["pso.generations"] = 8
    cfg["sweep.k_grid"] = "1,2"
    cfg["sweep.topn_grid"] = "10,40"
    cfg["eval.seeds"] = 2
    return cfg


def test_k_sweep_rows_and_artifacts(tmp_path, geom, limits, tiny_votes, fast_cfg):
    votes, gts = tiny_votes
    rows = sweeps.run_sweep("k", votes, gts, geom, limits, fast_cfg, tmp_path)
    assert len(rows) == 4  # 2 sweep points x 2 seeds
    assert {r["k"] for r in rows} == {1, 2}
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "plot.svg").exists()
    # oracle column is constant per k and non-increasing in k
    oracle = {k: [r["oracle_error_mm"] for r in rows if r["k"] == k] for k in (1, 2)}
    assert oracle[2][0] <= oracle[1][0]


def test_stepwise_vs_joint_rows(tmp_path, geom, limits, tiny_votes, fast_cfg):
    votes, gts = tiny_votes
    rows = sweeps.run_sweep("stepwise-vs-joint", votes, gts, geom, limits,
                            fast_cfg, tmp_path)
    methods = {r["method"] for r in rows}
    assert methods == {"stepwise", "joint"}
    for r in rows:
        expected = 8301 if r["method"] == "stepwise" else 8281
        assert r["evals_per_frame"] == pytest.approx(expected)

    # seed s of the sweep is fit_frames with pso_config(cfg, s) at the matched budgets
    psets = [proposals_from_votes(v, top_n=fast_cfg["forest.top_n"],
                                  k=fast_cfg["forest.k"],
                                  bandwidth_mm=fast_cfg["forest.infer_bandwidth_mm"],
                                  max_iters=fast_cfg["forest.meanshift_iters"])
             for v in votes]
    for r in rows:
        if r["seed"] != 1:
            continue
        pso_cfg = sweeps.pso_config(fast_cfg, 1, **sweeps.MATCHED_BUDGETS[r["method"]])
        joints, _ = fit.fit_frames(psets, geom, limits, pso_cfg, r["method"])
        results = [metrics.FrameResult.compute(i, pred, gt, sentinel=pso_cfg.d_max_mm)
                   for i, (pred, gt) in enumerate(zip(joints, gts))]
        assert r["mean_error_mm"] == metrics.mean_joint_error(results)


def test_unknown_experiment_rejected(tmp_path, geom, limits, tiny_votes, fast_cfg):
    votes, gts = tiny_votes
    with pytest.raises(ValueError, match="unknown experiment"):
        sweeps.run_sweep("nope", votes, gts, geom, limits, fast_cfg, tmp_path)


def test_fit_frames_regression_mode(geom, limits, tiny_votes, fast_cfg):
    votes, gts = tiny_votes
    psets = [proposals_from_votes(v, top_n=40, k=3) for v in votes]
    joints, results = fit.fit_frames(psets, geom, limits,
                                     sweeps.pso_config(fast_cfg, 0),
                                     "regression-only")
    assert results == [None] * 3
    for pred, pset in zip(joints, psets):
        np.testing.assert_array_equal(pred, metrics.top_proposal_joints(pset))
    with pytest.raises(ValueError, match="unknown fit mode"):
        fit.fit_frames(psets, geom, limits, sweeps.pso_config(fast_cfg, 0), "nope")


@pytest.mark.parametrize("mode", ["stepwise", "joint"])
def test_under_constrained_frame_falls_back_with_zero_evals(geom, limits, tiny_votes,
                                                           fast_cfg, mode):
    votes, gts = tiny_votes
    psets = [proposals_from_votes(v, top_n=40, k=3) for v in votes]
    psets[1] = psets[1].top_k(1).only((geometry.PALM, 1))  # too few for the global pose
    pso_cfg = sweeps.pso_config(fast_cfg, 0)
    joints, results = fit.fit_frames(psets, geom, limits, pso_cfg, mode)
    assert results[1] is None and None not in results[::2]
    np.testing.assert_array_equal(joints[1], metrics.top_proposal_joints(psets[1]))
    _, evals = sweeps._arm(psets, gts, geom, limits, pso_cfg, mode)
    assert evals == (results[0].evals + results[2].evals) / 3
