"""End-to-end acceptance suite.

Each test prints one PASS line with its measured numbers. The heavyweight
fixtures (a forest trained on a scaled articulation grid and a 100-frame
held-out sequence) are session-scoped and shared across criteria.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from handfit import cli, fit, forest as F, geometry, metrics, synth
from handfit.depth import CameraIntrinsics
from handfit.fit import PsoConfig, joint_fit, stepwise_fit
from handfit.geometry import forward_kinematics, random_pose, validate_pose
from handfit.meanshift import mean_shift
from handfit.proposals import ProposalSet

from oracles import kde_grid_mode, shift_once

SEEDS = (0, 1, 2, 3, 4)

# fitted poses collected by criteria 2 and 5, checked wholesale by criterion 6
FITTED_POSES = []


def _significantly_less(xs, ys):
    """mean +- std bands separate, or a one-sided sign test at p < 0.05."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    bands = xs.mean() + xs.std() < ys.mean() - ys.std()
    sign = np.all(xs < ys) and len(xs) >= 5  # p = 2**-5 = 0.03125
    return bands or sign


@pytest.fixture(scope="session")
def train_setup(geom, limits, cam):
    """Scaled training corpus: 3 articulation templates x 7 viewpoints."""
    arts = synth.load_articulations()[:, :3]
    poses = synth.generate_training_poses(articulations=arts, limits=limits)
    assert len(poses) == 3 ** 5 * 7
    images = synth.render_poses(poses, geom, cam)
    gts = [forward_kinematics(geom, p) for p in poses]
    samples = F.build_training_set(images, gts, stride=6,
                                   rng=np.random.default_rng(11), cap=250)
    model = F.train_forest(samples, F.ForestConfig(),
                           np.random.default_rng(42), threads=2)
    return model, arts


@pytest.fixture(scope="session")
def sequence(geom, limits, cam, train_setup):
    """Held-out tracked-motion analog: fixed oblique view, 100 frames."""
    model, arts = train_setup
    views = synth.load_viewpoints()
    keyposes = synth.make_track_keyposes(np.random.default_rng(77), 51,
                                         articulations=arts, limits=limits,
                                         orientation=views[5])
    seq = synth.generate_sequence(keyposes, frames_between=9, subsample=5,
                                  limits=limits)
    assert len(seq) == 100
    images = synth.render_poses(seq, geom, cam)
    gts = [forward_kinematics(geom, p) for p in seq]
    votes = [F.accumulate_votes(model, img, stride=2) for img in images]
    psets = [F.proposals_from_votes(v, top_n=200, k=5) for v in votes]
    return gts, votes, psets


def _fit_errors(psets, gts, geom, limits, k, seed, cfg_kw, frames=None):
    errors = []
    idx = range(len(psets)) if frames is None else frames
    for i in idx:
        res = stepwise_fit(psets[i].top_k(k), geom, limits,
                           PsoConfig(seed=seed, **cfg_kw),
                           rng=np.random.default_rng((seed, i)))
        FITTED_POSES.append(res.pose)
        errors.append(np.linalg.norm(res.joints(geom) - gts[i], axis=1).mean())
    return float(np.mean(errors))


def _regression_error(psets, gts):
    errors = []
    for pset, gt in zip(psets, gts):
        pred = metrics.top_proposal_joints(pset)
        errors.append(metrics.FrameResult.compute(0, pred, gt).errors.mean())
    return float(np.mean(errors))


def _oracle_error(psets, gts, k):
    errors = []
    for pset, gt in zip(psets, gts):
        picked = metrics.oracle_select(pset.top_k(k), gt)
        errors.append(metrics.FrameResult.compute(0, picked, gt).errors.mean())
    return float(np.mean(errors))


def test_criterion_1_ik_round_trip(geom, limits):
    """GT joints as k=1 proposals: stepwise fit recovers the pose."""
    rng = np.random.default_rng(7)
    cfg = dict(palm_particles=64, palm_generations=64,
               finger_particles=29, finger_generations=29)
    start = time.monotonic()
    errors = []
    for trial in range(100):
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        gt = forward_kinematics(geom, pose)
        res = stepwise_fit(ProposalSet.from_joints(gt), geom, limits,
                           PsoConfig(seed=trial, **cfg),
                           rng=np.random.default_rng(trial))
        assert res.evals == 8301
        errors.append(np.linalg.norm(res.joints(geom) - gt, axis=1).mean())
    elapsed = time.monotonic() - start
    errors = np.asarray(errors)
    frac_3mm = float((errors < 3.0).mean())
    assert frac_3mm >= 0.90
    assert np.all(errors < 10.0)
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 ik-round-trip: PASS "
          f"(<3mm on {frac_3mm:.0%}, max {errors.max():.2f}mm, {elapsed:.1f}s)")


def test_criterion_2_hybrid_beats_regression(geom, limits, sequence):
    """fit(k=3) < fit(k=1) < regression-only, significant over 5 seeds."""
    gts, _, psets = sequence
    reg = _regression_error(psets, gts)
    cfg = dict(palm_particles=64, palm_generations=64,
               finger_particles=29, finger_generations=29)
    e3 = [_fit_errors(psets, gts, geom, limits, 3, s, cfg) for s in SEEDS]
    e1 = [_fit_errors(psets, gts, geom, limits, 1, s, cfg) for s in SEEDS]
    assert _significantly_less(e3, e1), (e3, e1)
    assert _significantly_less(e1, [reg] * len(SEEDS)), (e1, reg)
    print(f"\nACCEPTANCE 2 hybrid-beats-regression: PASS "
          f"(k3 {np.mean(e3):.2f}+-{np.std(e3):.2f} < "
          f"k1 {np.mean(e1):.2f}+-{np.std(e1):.2f} < reg {reg:.2f} mm)")


def test_criterion_3_oracle_monotone_in_k(sequence, geom, limits):
    """Oracle error is non-increasing in k on fixed vote sets, exactly."""
    gts, _, psets = sequence
    errors = [_oracle_error(psets, gts, k) for k in (1, 2, 3, 5)]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    print(f"\nACCEPTANCE 3 oracle-monotone: PASS "
          f"(k=1,2,3,5 -> {', '.join(f'{e:.2f}' for e in errors)} mm)")


def test_criterion_4_vote_retention_trend(geom, limits, sequence):
    """More retained votes do not hurt: error(top_n=200) <= error(top_n=25)."""
    gts, votes, _ = sequence
    frames = range(0, 100, 2)
    means = {}
    oracles = {}
    for top_n in (25, 200):
        psets = [F.proposals_from_votes(v, top_n=top_n, k=3) for v in votes]
        oracles[top_n] = _oracle_error(psets, gts, 3)
        errs = [_fit_errors(psets, gts, geom, limits, 3, s, {}, frames)
                for s in SEEDS]
        means[top_n] = float(np.mean(errs))
    assert means[200] <= means[25]
    assert oracles[200] <= oracles[25]
    print(f"\nACCEPTANCE 4 vote-retention: PASS "
          f"(fit: top200 {means[200]:.2f} <= top25 {means[25]:.2f} mm; "
          f"oracle: {oracles[200]:.2f} <= {oracles[25]:.2f} mm)")


def test_criterion_5_stepwise_beats_joint(geom, limits, sequence):
    """Matched budgets (8301 vs 8281): stepwise error strictly lower."""
    gts, _, psets = sequence
    frames = range(0, 100, 2)
    sw_cfg = dict(palm_particles=64, palm_generations=64,
                  finger_particles=29, finger_generations=29)
    sw, jt = [], []
    for seed in SEEDS:
        sw.append(_fit_errors(psets, gts, geom, limits, 3, seed, sw_cfg, frames))
        errs = []
        for i in frames:
            res = joint_fit(psets[i].top_k(3), geom, limits,
                            PsoConfig(seed=seed, joint_particles=91,
                                      joint_generations=91),
                            rng=np.random.default_rng((seed, i)))
            FITTED_POSES.append(res.pose)
            assert res.evals == 8281
            errs.append(np.linalg.norm(res.joints(geom) - gts[i], axis=1).mean())
        jt.append(float(np.mean(errs)))
    assert np.mean(sw) < np.mean(jt), (sw, jt)
    print(f"\nACCEPTANCE 5 stepwise-vs-joint: PASS "
          f"(stepwise {np.mean(sw):.2f} < joint {np.mean(jt):.2f} mm)")


def test_criterion_6_anatomical_validity(geom, limits):
    """Every fitted pose satisfies limits and exact bone lengths."""
    assert len(FITTED_POSES) > 500, "criteria 2 and 5 must run first"
    for pose in FITTED_POSES:
        assert validate_pose(pose, limits)
        joints = forward_kinematics(geom, pose)
        for f in range(5):
            chain = geometry.finger_joint_indices(f)
            for k in range(3):
                seg = np.linalg.norm(joints[chain[k + 1]] - joints[chain[k]])
                assert abs(seg - geom.bone_lengths[f, k]) < 1e-6
    print(f"\nACCEPTANCE 6 anatomical-validity: PASS "
          f"({len(FITTED_POSES)} fitted poses, 100% valid)")


def test_criterion_7_objective_bounds_and_purity(geom, limits):
    """0 <= E <= J on 1e5 random pairs; render-free; fast."""
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(100):  # 100 proposal sets x 1000 hypotheses
        entries = {}
        for j in rng.choice(21, size=int(rng.integers(3, 22)), replace=False):
            r = int(rng.integers(1, 4))
            entries[int(j)] = (rng.uniform(-250, 250, (r, 3)) + [0, 0, 550],
                               rng.uniform(0.05, 1.0, r))
        pset = ProposalSet(entries)
        batch = np.stack([random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
                          .to_vector() for _ in range(1000)])
        scores = fit.objective(pset, batch, geom, 100.0)
        assert np.all(scores >= 0.0) and np.all(scores <= 21.0)
        checked += len(scores)
    assert checked == 100_000

    # render-free: the fitting module never imports the imaging stack, and
    # scoring still works with the renderer poisoned
    import types

    import handfit.depth as depth_module
    import handfit.fit as fit_module

    imported = {m.__name__ for m in vars(fit_module).values()
                if isinstance(m, types.ModuleType)}
    assert "handfit.depth" not in imported
    assert not any(getattr(v, "__module__", "") == "handfit.depth"
                   for v in vars(fit_module).values())

    def _boom(*_args, **_kwargs):
        raise AssertionError("objective evaluation touched the renderer")

    original = depth_module.render_depth
    depth_module.render_depth = _boom
    try:
        pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
        fit.objective(pset, pose.to_vector(), geom, 100.0)
    finally:
        depth_module.render_depth = original

    # 1000 single-hypothesis evaluations comfortably under a second
    pose = random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(forward_kinematics(geom, pose))
    h = pose.to_vector()
    start = time.monotonic()
    for _ in range(1000):
        fit.objective(pset, h, geom, 100.0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 objective-bounds: PASS "
          f"(1e5 pairs in bounds, render-free, 1000 evals in {elapsed * 1000:.0f}ms)")


def test_criterion_8_meanshift_vs_kde_oracle():
    """Reported modes sit within bandwidth/2 of grid-search KDE maxima."""
    rng = np.random.default_rng(99)
    bw = 6.0
    worst = 0.0
    for _ in range(50):
        sep = rng.uniform(4 * bw, 10 * bw)
        n_a = int(rng.integers(25, 60))
        n_b = int(rng.integers(25, 60))
        a = rng.normal(0.0, bw / 4, size=(n_a, 3))
        b = rng.normal(0.0, bw / 4, size=(n_b, 3)) + [sep, 0, 0]
        pts = np.vstack([a, b])
        (modes, support), = mean_shift([pts], bandwidth=bw)
        assert len(modes) == 2
        for blob, n in ((a, n_a), (b, n_b)):
            center = blob.mean(axis=0)
            oracle = kde_grid_mode(pts, np.ones(len(pts)), bw, center,
                                   half_width=bw / 2, step=bw / 12)
            nearest = modes[np.argmin(np.linalg.norm(modes - center, axis=1))]
            worst = max(worst, float(np.linalg.norm(nearest - oracle)))
            assert np.linalg.norm(nearest - oracle) < bw / 2
        # modes are fixed points of one further update
        for mode in modes:
            assert np.linalg.norm(shift_once(mode, pts, None, bw) - mode) \
                < 1e-3 * bw
    print(f"\nACCEPTANCE 8 meanshift-kde-oracle: PASS "
          f"(50 instances, worst gap {worst:.3f}mm < {bw / 2}mm)")


def test_criterion_9_pipeline_determinism(tmp_path):
    """Identical seeds produce byte-identical run directories."""
    tiny = [
        "--set", "synth.articulations=1", "--set", "synth.viewpoints=2",
        "--set", "synth.test_keyposes=3", "--set", "synth.frames_between=3",
        "--set", "synth.subsample=2", "--set", "forest.num_trees=2",
        "--set", "forest.max_depth=8", "--set", "forest.min_samples=15",
        "--set", "forest.node_subsample=200", "--set", "forest.candidates=30",
        "--set", "forest.train_stride=3", "--set", "forest.infer_stride=3",
        "--set", "forest.top_n=60", "--set", "pso.palm_particles=10",
        "--set", "pso.palm_generations=8", "--set", "pso.finger_particles=8",
        "--set", "pso.finger_generations=6", "--set", "eval.seeds=2",
    ]

    def run_and_hash(out):
        rc = cli.main(["pipeline", "--out", str(out), "--seed", "31"] + tiny)
        assert rc == 0
        digest = {}
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                digest[str(path.relative_to(out))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        return digest

    first = run_and_hash(tmp_path / "a")
    second = run_and_hash(tmp_path / "b")
    assert first.keys() == second.keys()
    mismatched = [k for k in first if first[k] != second[k]]
    assert not mismatched, mismatched
    print(f"\nACCEPTANCE 9 determinism: PASS "
          f"({len(first)} files byte-identical across reruns)")
