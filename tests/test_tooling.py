"""The benchmark under perfbench/ traces handfit by wrapping module
attributes it looks up by name; a renamed or deleted name breaks only the
benchmark's traced run, so this checks every lookup still resolves."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from handfit import fit, forest, geometry, sweeps, synth
from handfit.depth import CameraIntrinsics, render_depth
from handfit.proposals import ProposalSet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_benchmark_tracer_installs_and_restores(tracing):
    owners = (fit, forest, forest.Tree, geometry, synth)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer().install():
        assert fit.stepwise_fit.__wrapped__ is before[0]["stepwise_fit"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_tracer_sees_fk_inside_stepwise_fit(tracing, geom, limits, rng):
    # every objective evaluation must reach FK through geometry.fk_batch,
    # or the benchmark books FK time as scoring time; the palm stage and
    # the final score call objective, while the finger stack scores all
    # fingers' swarms in one pass per generation without it
    pose = geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(geometry.forward_kinematics(geom, pose))
    cfg = fit.PsoConfig(palm_particles=4, palm_generations=2,
                        finger_particles=4, finger_generations=2)
    tracer = tracing.Tracer()
    with tracer.install(), tracer.span("op", 0):
        res = fit.stepwise_fit(pset, geom, limits, cfg, rng=np.random.default_rng(0))
    counts = tracer.counts[0]
    assert res.evals == 4 * 2 + 5 * 4 * 2
    assert counts["fit.pso_calls"] == 1
    assert counts["fit.objective_calls"] == 2 + 1
    assert counts["fit.objective_rows"] == 4 * 2 + 1
    assert counts["geometry.fk_calls"] == counts["fit.objective_calls"]
    assert counts["geometry.fk_rows"] == counts["fit.objective_rows"]


def test_benchmark_tracer_sees_fk_inside_joint_fit(tracing, geom, limits, rng):
    # the ik_joint workload's FK time must stay booked to FK
    pose = geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(geometry.forward_kinematics(geom, pose))
    cfg = fit.PsoConfig(joint_particles=5, joint_generations=3)
    tracer = tracing.Tracer()
    with tracer.install(), tracer.span("op", 0):
        res = fit.joint_fit(pset, geom, limits, cfg, rng=np.random.default_rng(0))
    counts = tracer.counts[0]
    assert counts["fit.objective_calls"] == 3 + 1
    assert counts["fit.objective_rows"] == res.evals + 1
    assert counts["geometry.fk_calls"] == counts["fit.objective_calls"]
    assert counts["geometry.fk_rows"] == counts["fit.objective_rows"]


@pytest.fixture(scope="module")
def rest_frame(geom, cam):
    pose = geometry.PoseParams.rest((0.0, 0.0, 550.0))
    return render_depth(geom, pose, cam), geometry.forward_kinematics(geom, pose)


def _span_names(tracer):
    return {span[0] for span in tracer.spans}


def test_benchmark_tracer_sees_leaf_building_inside_train_tree(tracing, rest_frame,
                                                              monkeypatch):
    # the train workload's per-layer metrics come from these spans
    img, gt = rest_frame
    samples = forest.extract_samples(img, gt, stride=4, rng=np.random.default_rng(0))
    cfg = forest.ForestConfig(max_depth=6, min_samples=10, node_subsample=100,
                              candidates=10)
    monkeypatch.setattr(forest, "MODES_BLOCK", 64)  # several blocks
    tracer = tracing.Tracer()
    with tracer.install(), tracer.span("op", 0):
        tree = forest.train_tree(samples, cfg, np.random.default_rng(0))
    names = _span_names(tracer)
    assert {"build_leaf", "mean_shift_groups"} <= names and "dedup" not in names
    # one build_leaf span per leaf; the grown tree's leaf sets are shifted and
    # merged in mean_shift_groups calls of at most MODES_BLOCK pooled points
    # (or one set), children of train_tree, and every set has a pooled point
    (root,) = [i for i, span in enumerate(tracer.spans) if span[0] == "train_tree"]
    leaves = [span for span in tracer.spans if span[0] == "build_leaf"]
    calls = [span for span in tracer.spans if span[0] == "mean_shift_groups"]
    counts = tracer.counts[0]
    assert len(leaves) == tree.n_leaves > forest.LEAVES_PER_CALL
    assert len(calls) == counts["meanshift.groups_calls"] > 1
    assert 21 * tree.n_leaves <= counts["meanshift.groups_points"] <= 64 * len(calls)
    assert {span[3] for span in leaves + calls} == {root}


def test_benchmark_tracer_sees_routing_and_mean_shift_inside_inference(
        tracing, rest_frame):
    # the track workload's per-layer metrics come from these spans
    img, gt = rest_frame
    samples = forest.extract_samples(img, gt, stride=4, rng=np.random.default_rng(0))
    cfg = forest.ForestConfig(num_trees=1, max_depth=3, min_samples=10,
                              node_subsample=100, candidates=10)
    model = forest.train_forest(samples, cfg, np.random.default_rng(0))
    tracer = tracing.Tracer()
    with tracer.install(), tracer.span("op", 0):
        # the inference path of the track workload's Context.infer
        votes = forest.accumulate_votes(model, img, stride=4)
        pset = forest.proposals_from_votes(votes)
    assert len(pset) > 0
    assert {"accumulate_votes", "Tree.route", "proposals_from_votes",
            "mean_shift"} <= _span_names(tracer)


def test_inference_shifts_each_frame_in_one_forest_mean_shift_call(
        tracing, rest_frame, geom, cam):
    # the benchmark's tracer and its reference sampler see inference's
    # mean-shift only by wrapping the attribute `forest.mean_shift`: every
    # frame must go through that name, in exactly one call
    img, gt = rest_frame
    samples = forest.extract_samples(img, gt, stride=4, rng=np.random.default_rng(0))
    cfg = forest.ForestConfig(num_trees=1, max_depth=3, min_samples=10,
                              node_subsample=100, candidates=10)
    model = forest.train_forest(samples, cfg, np.random.default_rng(0))
    angles = np.zeros((5, 4))
    angles[1:, 1:] = 0.6
    rest = geometry.PoseParams.rest()
    bent = geometry.PoseParams(np.array([10.0, -5.0, 520.0]), rest.orientation, angles)
    frames = [img, render_depth(geom, bent, cam), img]
    tracer = tracing.Tracer()
    with tracer.install(), tracer.span("op", 0):
        for image in frames:
            forest.proposals_from_votes(forest.accumulate_votes(model, image, stride=4))
    names = [span[0] for span in tracer.spans]
    shifts = [span for span in tracer.spans if span[0] == "mean_shift"]
    assert names.count("proposals_from_votes") == len(shifts) == len(frames)
    assert all(names[span[3]] == "proposals_from_votes" for span in shifts)


def test_benchmark_measures_the_settings_the_cli_builds(monkeypatch):
    # perfbench restates the settings field by field; they must stay what
    # the run config builds, apart from the benchmark's one-tree forest
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    ctx = workloads.Context(3, workloads.SMOKE)
    cfg = ctx.cfg
    assert ctx.forest_cfg == dataclasses.replace(
        cfg.build(forest.ForestConfig, "forest"), num_trees=workloads.TREES)
    assert workloads.TREES == 1
    assert ctx.cam == cfg.build(CameraIntrinsics, "camera")
    assert sweeps.pso_config(cfg, 3) == cfg.build(fit.PsoConfig, "pso", seed=3)


@pytest.mark.parametrize("name", ["train", "track", "ik", "ik_joint"])
def test_benchmark_workloads_run_and_check_on_smoke_inputs(monkeypatch, tmp_path, name):
    # every library call a workload makes, with the signature it makes it
    # in, runs here: one pass on the self-test inputs, each output checked
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert sorted(workloads.WORKLOADS) == ["ik", "ik_joint", "track", "train"]
    work = workloads.WORKLOADS[name](workloads.Context(1, workloads.SMOKE), tmp_path)
    work.setup()
    items = work.items()
    assert items
    for item in items:
        work.check(item, work.run(item))
    assert work.finish()
