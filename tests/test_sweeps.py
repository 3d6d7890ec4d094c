import numpy as np
import pytest

from handfit import fit, forest, geometry, metrics, sweeps
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment", sweeps.EXPERIMENTS)
def test_sweep_of_no_frames_is_refused_before_its_proposals(tmp_path, geom, limits,
                                                            fast_cfg, experiment):
    # this used to run on into numpy's "Mean of empty slice" warning, then
    # fail in metrics with "no frames to evaluate"
    with pytest.raises(ValueError) as exc:
        sweeps.run_sweep(experiment, [], [], geom, limits, fast_cfg, tmp_path / "out")
    assert str(exc.value) == "no frames to sweep"
    assert not (tmp_path / "out").exists()


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


def _entries(pset):
    return {j: (pos.tobytes(), w.tobytes()) for j, (pos, w) in pset._entries.items()}


def test_top_votes_give_the_proposals_of_all_votes():
    # tied weights, and joints with fewer, exactly and more than m votes
    rng = np.random.default_rng(8)
    m = 30
    votes = {}
    for j, count in enumerate([0, 1, 12, m, m + 1, 90, 400]):
        pos = rng.normal(0.0, 20.0, (count, 3)) + 100.0 * j
        votes[j] = (pos, rng.integers(1, 4, count) / 2.0)
    kept = forest.top_votes(votes, m)
    for j, (pos, w) in votes.items():
        order = np.argsort(-w, kind="stable")[:m] if len(w) > m else np.arange(len(w))
        assert kept[j][0].tobytes() == pos[order].tobytes()
        assert kept[j][1].tobytes() == w[order].tobytes()
    for top_n in (1, 12, m - 1, m):
        for k in (1, 3):
            want = proposals_from_votes(votes, top_n=top_n, k=k)
            assert _entries(proposals_from_votes(kept, top_n=top_n, k=k)) == _entries(want)


@pytest.mark.parametrize("experiment", ["k", "top-n"])
def test_sweep_tables_equal_on_each_joints_top_votes(tmp_path, geom, limits, tiny_votes,
                                                     fast_cfg, experiment):
    # 40 votes a joint, of which the experiment reads at most 25 or 30
    cfg = RunConfig(dict(fast_cfg.items()))
    votes, gts = tiny_votes
    cfg["forest.top_n"] = 25
    cfg["sweep.topn_grid"] = "10,30"
    m = sweeps.votes_read(experiment, cfg)
    assert m == (30 if experiment == "top-n" else 25)
    kept = [forest.top_votes(v, m) for v in votes]
    assert all(len(w) == m for v in kept for _, w in v.values())
    tables = []
    for name, frames in (("all", votes), ("kept", kept)):
        sweeps.run_sweep(experiment, frames, gts, geom, limits, cfg, tmp_path / name)
        tables.append((tmp_path / name / "table.csv").read_bytes())
    assert tables[0] == tables[1]
