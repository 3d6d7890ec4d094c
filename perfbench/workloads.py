"""The benchmark's workloads: ``train``, ``track``, ``ik`` and ``ik_joint``.

Each workload is closed-loop and single-threaded: one caller, one
operation at a time, ``threads=1``, default ``RunConfig`` with the
workload seed. A workload builds its inputs in ``setup``, exposes one
fixed pass of operations, times ``run`` per operation and checks every
output in ``check`` outside the timed region. Library functions are
looked up on their modules at call time, so the tracer's wrappers see
every call.

Why these:

* ``train`` is the only workload where split search, leaf building and
  the grouped float32 mean-shift do the work.
* ``track`` is the user-facing depth frame -> pose path: voting, the
  float64 mean-shift, proposals and the stepwise fit share each frame.
* ``ik`` and ``ik_joint`` run only ``fit`` and ``geometry``: ground-truth
  joints as k=1 proposals, a stepwise (``ik``) or whole-vector
  (``ik_joint``) fit per pose at matched budgets. They use the fit layers
  with other swarm sizes than ``track``, a single 27-dim stage in joint
  mode, and no inference-side change can move them. A change that helps
  the stepwise stages but slows joint mode shows on ``ik_joint``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from handfit import fit, geometry, metrics, sweeps, synth
from handfit import forest as F
from handfit.config import RunConfig
from handfit.depth import CameraIntrinsics
from handfit.proposals import ProposalSet


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the measured benchmark, SMOKE its self-test."""

    per_finger: int      # articulation templates per finger in the grid
    views: int           # viewpoints in the grid
    keyposes: int        # track sequence keyposes
    frames_between: int
    subsample: int
    ik_poses: int


# --scale 0.25 grid: 2 templates/finger x 7 viewpoints = 224 poses
FULL = Size(per_finger=2, views=7, keyposes=51, frames_between=9,
            subsample=5, ik_poses=100)
SMOKE = Size(per_finger=1, views=2, keyposes=2, frames_between=1,
             subsample=1, ik_poses=2)
# one tree per forest keeps a training inside the run budget; the sample
# set, tree depth and leaf sizes are those of the 3-tree default
TREES = 1

# swarms of acceptance criteria 1 and 5
IK_STEPWISE = dict(palm_particles=64, palm_generations=64,
                   finger_particles=29, finger_generations=29)
IK_JOINT = dict(joint_particles=91, joint_generations=91)
BONE_TOL_MM = 1e-6
TRAIN_SEED = RunConfig()["seed"]
EVAL_STRIDE = 5


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Outcome:
    """Checked result of one operation: mean joint and fingertip error, mm."""

    joint_error: float
    tip_error: float


class Context:
    """Seeded configuration shared by every workload."""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.cfg = RunConfig()
        self.cfg["seed"] = seed
        cfg = self.cfg
        self.cam = CameraIntrinsics(fx=cfg["camera.fx"], fy=cfg["camera.fy"],
                                    cx=cfg["camera.cx"], cy=cfg["camera.cy"],
                                    width=cfg["camera.width"],
                                    height=cfg["camera.height"])
        self.geom = geometry.HandGeometry.default()
        self.limits = geometry.JointLimits.default()
        self.translation = (0.0, 0.0, cfg["synth.distance_mm"])
        self.arts = synth.load_articulations()[:, :size.per_finger]
        self.views = synth.load_viewpoints()
        self.forest_cfg = F.ForestConfig(
            num_trees=TREES, max_depth=cfg["forest.max_depth"],
            min_samples=cfg["forest.min_samples"],
            node_subsample=cfg["forest.node_subsample"],
            candidates=cfg["forest.candidates"],
            probe_range_px_m=cfg["forest.probe_range_px_m"],
            bg_depth_mm=cfg["forest.bg_depth_mm"],
            leaf_modes=cfg["forest.leaf_modes"],
            leaf_bandwidth_mm=cfg["forest.leaf_bandwidth_mm"],
            leaf_cap=cfg["forest.leaf_cap"],
            meanshift_iters=cfg["forest.meanshift_iters"])

    def training_poses(self):
        return synth.generate_training_poses(
            self.arts, self.views, limits=self.limits,
            translation=self.translation, num_views=self.size.views)

    def keyposes(self, count):
        """Random articulation-grid keyposes under the test viewpoint."""
        return synth.make_track_keyposes(
            np.random.default_rng((self.seed, 2)), count,
            articulations=self.arts, limits=self.limits,
            translation=self.translation,
            orientation=self.views[self.cfg["synth.test_viewpoint"] % len(self.views)])

    def track_sequence(self):
        """The held-out finger-articulation sequence, built as `synth` does."""
        return synth.generate_sequence(self.keyposes(self.size.keyposes),
                                       self.size.frames_between,
                                       self.size.subsample, self.limits)

    def ground_truth(self, poses):
        return [geometry.forward_kinematics(self.geom, p) for p in poses]

    def train(self, poses, gts, forest_path):
        """Render the grid, extract samples, train, save and load back.

        The forest is the system under test, not an input: it is trained
        from the default config seed, as `handfit train` trains it, so the
        error metrics do not swing with the draw of one training run.
        """
        cfg = self.cfg
        images = synth.render_poses(poses, self.geom, self.cam)
        samples = F.build_training_set(images, gts, cfg["forest.train_stride"],
                                       np.random.default_rng((TRAIN_SEED, 3)),
                                       cap=cfg["forest.train_cap"])
        model = F.train_forest(samples, self.forest_cfg,
                               np.random.default_rng((TRAIN_SEED, 4)), threads=1)
        F.save_forest(forest_path, model)
        return model, F.load_forest(forest_path)

    def infer(self, model, img):
        cfg = self.cfg
        votes = F.accumulate_votes(model, img, stride=cfg["forest.infer_stride"],
                                   depth_sq_weight=cfg["forest.depth_sq_weight"])
        return F.proposals_from_votes(votes, top_n=cfg["forest.top_n"],
                                      k=cfg["forest.k"],
                                      bandwidth_mm=cfg["forest.infer_bandwidth_mm"],
                                      max_iters=cfg["forest.meanshift_iters"])

    def check_pose(self, pose):
        """Fitted poses respect the limits and the exact bone lengths."""
        if not geometry.validate_pose(pose, self.limits):
            raise CheckFailed("fitted pose violates joint limits")
        joints = geometry.forward_kinematics(self.geom, pose)
        for f in range(5):
            chain = geometry.finger_joint_indices(f)
            seg = np.linalg.norm(joints[list(chain[1:])] - joints[list(chain[:-1])],
                                 axis=1)
            if np.any(np.abs(seg - self.geom.bone_lengths[f]) >= BONE_TOL_MM):
                raise CheckFailed(f"finger {f} bone lengths off")
        return joints

    def errors(self, joints, gt):
        frame = metrics.FrameResult.compute(0, joints, gt,
                                            sentinel=self.cfg["pso.d_max_mm"])
        return (metrics.mean_joint_error([frame]),
                metrics.fingertip_error([frame]))


class Workload:
    """One fixed pass of operations over inputs made in `setup`."""

    name = ""

    def __init__(self, ctx, workdir):
        self.ctx = ctx
        self.path = Path(workdir) / "forest.bin"

    def finish(self):
        """Whole-run checks after the first pass; True when they hold."""
        return True


class Train(Workload):
    """One op: render the grid, build samples, train, save->load round trip."""

    name = "train"

    def setup(self):
        ctx = self.ctx
        self.poses = ctx.training_poses()
        self.gts = ctx.ground_truth(self.poses)
        # every 5th frame of the default-seed track sequence scores the
        # forest; like the forest itself, this set does not follow --seed
        held = Context(TRAIN_SEED, ctx.size).track_sequence()[::EVAL_STRIDE]
        self.held_images = synth.render_poses(held, ctx.geom, ctx.cam)
        self.held_gts = ctx.ground_truth(held)
        self.scored = None
        self.stats = None

    def items(self):
        return [0]

    def run(self, item):
        return self.ctx.train(self.poses, self.gts, self.path)

    def check(self, item, models):
        trained, model = models
        again = self.path.with_suffix(".again")
        F.save_forest(again, model)
        if again.read_bytes() != self.path.read_bytes():
            raise CheckFailed("re-saved forest differs from the saved bytes")
        if model.stats() != trained.stats():
            raise CheckFailed("forest stats changed across save/load")
        if self.scored is None:
            errs = [self.ctx.errors(metrics.top_proposal_joints(self.ctx.infer(model, img)), gt)
                    for img, gt in zip(self.held_images, self.held_gts)]
            self.scored = Outcome(float(np.mean([e[0] for e in errs])),
                                  float(np.mean([e[1] for e in errs])))
            self.stats = model.stats()
        return self.scored

    def forest_stats(self):
        return self.stats


class Track(Workload):
    """One op: votes -> proposals -> stepwise fit on one sequence frame."""

    name = "track"

    def setup(self):
        ctx = self.ctx
        seq = ctx.track_sequence()
        self.images = synth.render_poses(seq, ctx.geom, ctx.cam)
        self.gts = ctx.ground_truth(seq)
        poses = ctx.training_poses()
        _, self.model = ctx.train(poses, ctx.ground_truth(poses), self.path)
        self.pso = sweeps.pso_config(ctx.cfg, ctx.seed)

    def items(self):
        return list(range(len(self.images)))

    def run(self, i):
        pset = self.ctx.infer(self.model, self.images[i])
        rng = np.random.default_rng((self.ctx.seed, 5, i))
        return fit.stepwise_fit(pset, self.ctx.geom, self.ctx.limits, self.pso,
                                rng=rng)

    def check(self, i, res):
        expected = (self.pso.palm_particles * self.pso.palm_generations
                    + sum(res.finger_fitted) * self.pso.finger_particles
                    * self.pso.finger_generations)
        if res.evals != expected:
            raise CheckFailed(f"{res.evals} evaluations, expected {expected}")
        joints = self.ctx.check_pose(res.pose)
        return Outcome(*self.ctx.errors(joints, self.gts[i]))

    def forest_stats(self):
        return self.model.stats()


class Ik(Workload):
    """One op: a stepwise fit to exact joints given as k=1 proposals, at
    the acceptance criterion 1 budget of 64^2 + 5 x 29^2 = 8301 evals."""

    name = "ik"
    pso = IK_STEPWISE
    evals = 64 * 64 + 5 * 29 * 29

    def setup(self):
        ctx = self.ctx
        rng = np.random.default_rng((ctx.seed, 7))
        poses = [geometry.random_pose(rng, ctx.limits, geometry.DEFAULT_WORKSPACE)
                 for _ in range(ctx.size.ik_poses)]
        self.gts = ctx.ground_truth(poses)
        self.psets = [ProposalSet.from_joints(gt) for gt in self.gts]
        self.cfg = fit.PsoConfig(seed=ctx.seed, **self.pso)
        self.errors = {}

    def items(self):
        return list(range(len(self.psets)))

    def run(self, i):
        ctx = self.ctx
        return fit.stepwise_fit(self.psets[i], ctx.geom, ctx.limits, self.cfg,
                                rng=np.random.default_rng((ctx.seed, 7, i)))

    def check(self, i, res):
        if res.evals != self.evals:
            raise CheckFailed(f"{res.evals} evaluations, expected {self.evals}")
        err, tip = self.ctx.errors(self.ctx.check_pose(res.pose), self.gts[i])
        # acceptance criterion 1: every stepwise fit lands under 10 mm
        if err >= 10.0:
            raise CheckFailed(f"stepwise fit error {err:.2f} mm >= 10 mm")
        self.errors[i] = err
        return Outcome(err, tip)

    def finish(self):
        """Acceptance criterion 1: at least 90 % of poses under 3 mm."""
        errs = np.asarray(list(self.errors.values()))
        return bool(len(errs)) and float((errs < 3.0).mean()) >= 0.90

    def forest_stats(self):
        return None


class IkJoint(Ik):
    """One op: the whole-vector fit of the same poses at 91^2 = 8281 evals,
    the budget matched to `ik` in acceptance criterion 5."""

    name = "ik_joint"
    pso = IK_JOINT
    evals = 91 * 91

    def run(self, i):
        ctx = self.ctx
        return fit.joint_fit(self.psets[i], ctx.geom, ctx.limits, self.cfg,
                             rng=np.random.default_rng((ctx.seed, 7, i)))

    def check(self, i, res):
        if res.evals != self.evals:
            raise CheckFailed(f"{res.evals} evaluations, expected {self.evals}")
        return Outcome(*self.ctx.errors(self.ctx.check_pose(res.pose), self.gts[i]))

    def finish(self):
        return True


WORKLOADS = {w.name: w for w in (Train, Track, Ik, IkJoint)}


def workdir(root):
    """Temporary directory for forest files, under `root`."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root)
