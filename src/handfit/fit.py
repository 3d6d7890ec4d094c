"""Model-based fitting: proposal-distance objective and stepwise PSO.

The objective sums, per joint, the best confidence-weighted agreement
between the hypothesized joint position and that joint's proposals, with
distances clamped so far-off proposals contribute nothing. It needs only
a handful of 3D distances per evaluation: no rendering, no image access.
The 27-parameter search runs as PSO stages over sub-problems: stepwise
fitting is a 7-parameter global stage scored on the palm-rigid joints,
then four parameters per finger; the whole-vector ablation is a single
27-parameter stage. Under the global pose the palm stage fixes, the
finger stages are independent, so they run as one lockstep stack of
swarms (fingers x particles) through the same PSO loop, scored in one
pass per generation. Each finger draws the block of random numbers its
own stage would draw, in finger order, so the outputs are those of the
stages run one after another, bit for bit. One scorer, `_sum_terms`,
sums the per-joint terms of the palm stage, the finger stack and the
final score alike, so a finger's row scores as `objective` scores it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import geometry, metrics, quats
from .config import PsoConfig, write_csv  # PsoConfig: also read as fit.PsoConfig

TRANSLATION_DIMS = np.arange(0, 3)
QUAT_DIMS = np.arange(3, 7)
GLOBAL_DIMS = np.arange(0, 7)
HYP_DIM = 27

PALM_STAGE_JOINTS = geometry.RIGID_JOINTS

log = logging.getLogger(__name__)


class UnderConstrainedError(RuntimeError):
    """Too few palm-region proposals to determine the global pose."""


def finger_dims(finger):
    return np.arange(7 + 4 * finger, 11 + 4 * finger)


def _joint_maxima(joint_positions, padded_pos, padded_w, d_max):
    """Objective terms on precomputed joint positions.

    joint_positions (n, J, 3), padded_pos (J, K, 3), padded_w (J, K) with
    zero weight marking absent proposals -> each joint's best term (n, J).
    The terms are built coordinate-first on the (J, 3, n) buffer `fk_batch`
    returns a view of: one (J, K, 3, n) difference squared in place and
    summed over its length-3 axis, (dx*dx + dy*dy) + dz*dz as a sum over a
    point's last axis adds them, then sqrt, divide, clamp at 1, square and
    weight in place.
    """
    diff = joint_positions.transpose(1, 2, 0)[:, None] - padded_pos[:, :, :, None]
    diff *= diff
    d = diff.sum(axis=2)
    np.sqrt(d, out=d)
    d /= d_max
    np.minimum(d, 1.0, out=d)
    d *= d
    np.subtract(1.0, d, out=d)
    d *= padded_w[:, :, None]
    return d.max(axis=1).T


def _sum_terms(terms, slots, swarms, num_joints):
    """Scores (n, swarms) of `_joint_maxima` terms (n, m): each term goes to
    its flat column `slots` (m,) of a zero row, and each swarm's num_joints
    columns are summed in joint-index order, absent joints adding exact
    zeros as in a masked sum over every joint."""
    per_joint = np.zeros((len(terms), swarms * num_joints))
    per_joint[:, slots] = terms
    return per_joint.reshape(len(terms), swarms, num_joints).sum(axis=2)


def objective(proposal_set, hypothesis, geom, d_max):
    """Proposal-agreement score of hypothesis vectors.

    Accepts one (27,) vector or a (n, 27) batch. Exactly the joints the
    proposal set holds are computed and scored; the others contribute
    zero, so a stage scores its joints through `ProposalSet.only` (the
    palm stage scores the palm and MCPs, whose forward kinematics builds
    no finger chain). Hypotheses with a zero-norm quaternion score -inf.
    """
    h = np.asarray(hypothesis, dtype=float)
    single = h.ndim == 1
    h = np.atleast_2d(h)
    scored, pos, w = proposal_set.held()

    q = h[:, 3:7]
    norms = np.sqrt((q * q).sum(axis=1))  # np.linalg.norm's sum, without its wrapper
    valid = norms > 1e-12
    scores = np.full(len(h), -np.inf)
    if valid.any():
        if not valid.all():
            h, q, norms = h[valid], q[valid], norms[valid]
        joints = geometry.fk_batch(geom, h[:, 0:3], q / norms[:, None],
                                   h[:, 7:].reshape(-1, 5, 4), joints=scored)
        scores[valid] = _sum_terms(_joint_maxima(joints, pos, w, d_max), scored, 1,
                                   proposal_set.num_joints)[:, 0]
    return float(scores[0]) if single else scores


@dataclass
class PsoResult:
    best: np.ndarray
    score: float
    evals: int
    trace: np.ndarray  # global-best score after each generation


def _sanitize_quat(x):
    """Renormalize quaternion dims in-place; zero-norm resets to identity."""
    q = x[..., 3:7]
    norms = np.sqrt((q * q).sum(axis=-1))
    dead = norms < 1e-12
    if dead.any():
        q[dead] = quats.IDENTITY
        norms[dead] = 1.0
    q /= norms[..., None]


def pso_optimize(score_fn, bounds, active_dims, particles, generations,
                 cfg, seeds, rng):
    """Canonical global-best PSO over `active_dims`; other dims stay frozen.

    score_fn maps an (n, 27) batch to (n,) scores (higher is better).
    Particles start from `seeds` (first seed also supplies the frozen
    dims) topped up with uniform draws inside `bounds`; velocities start
    at zero. The initial evaluation counts as generation one, so the
    total evaluation budget is particles * generations.
    """
    if not seeds:
        raise ValueError("pso_optimize needs at least one seed hypothesis")
    x = np.tile(np.asarray(seeds[0], dtype=float), (particles, 1))
    for i, seed in enumerate(seeds[:particles]):
        x[i] = seed
    res = _swarms(lambda batch: score_fn(batch[0])[None], x[None],
                  min(len(seeds), particles), np.asarray(active_dims, dtype=int)[None],
                  bounds, generations, cfg, lambda n: rng.random((1, n)))
    return PsoResult(best=res.best[0], score=float(res.score[0]), evals=res.evals,
                     trace=res.trace[0])


def _swarms(score_fn, x, n_seeded, dims, bounds, generations, cfg, draw):
    """The PSO loop of `pso_optimize`, for s swarms advanced in lockstep.

    x (s, particles, 27) holds the start positions; past the first
    `n_seeded` particles, each swarm's active dims `dims` (s, a) are drawn
    inside `bounds`. score_fn maps (s, particles, 27) positions to
    (s, particles) scores, and draw(n) returns the next n uniforms of each
    swarm's stream, (s, n). The result has a leading swarm axis on best,
    score and trace; evals counts one swarm.
    """
    bounds = np.asarray(bounds, dtype=float)
    if not np.all(np.isfinite(bounds[dims])):
        raise ValueError("bounds must be finite on active dims")
    lo, hi = bounds[dims, 0][:, None], bounds[dims, 1][:, None]
    quat_active = bool(np.intersect1d(dims, QUAT_DIMS).size)
    x = np.ascontiguousarray(x, dtype=float)
    swarms, particles, dim = x.shape
    width = dims.shape[1]
    # flat indices into the C-ordered arrays: each swarm's first particle,
    # the active dims of every particle (s, particles, a) and of every
    # swarm's best (s, 1, a), so a gather or scatter is one 1-D take or put
    first = np.arange(swarms) * particles
    active = (first[:, None] + np.arange(particles))[:, :, None] * dim + dims[:, None, :]
    own = (np.arange(swarms)[:, None] * dim + dims)[:, None]

    if particles > n_seeded:
        u = draw((particles - n_seeded) * width).reshape(swarms, -1, width)
        x.reshape(-1)[active[:, n_seeded:]] = lo + u * (hi - lo)
    if quat_active:
        _sanitize_quat(x)

    v = np.zeros((swarms, particles, width))
    scores = score_fn(x)
    evals = particles
    pbest = x.copy()
    pscore = scores.copy()
    g = first + pscore.argmax(axis=1)
    gbest = pbest.reshape(-1, dim)[g]
    gscore = pscore.reshape(-1)[g]
    trace = [gscore]

    for _ in range(1, generations):
        r = draw(2 * particles * width).reshape(swarms, 2, particles, width)
        xa = x.take(active)
        v = (cfg.inertia * v
             + cfg.cognitive * r[:, 0] * (pbest.take(active) - xa)
             + cfg.social * r[:, 1] * (gbest.take(own) - xa))
        x.reshape(-1)[active] = np.minimum(np.maximum(xa + v, lo), hi)  # np.clip's bits
        if quat_active:
            _sanitize_quat(x)
        scores = score_fn(x)
        evals += particles
        improved = scores > pscore
        np.copyto(pbest, x, where=improved[:, :, None])
        np.copyto(pscore, scores, where=improved)
        g = first + pscore.argmax(axis=1)
        top = pscore.reshape(-1)[g]
        better = top > gscore
        if better.any():
            gbest[better] = pbest.reshape(-1, dim)[g[better]]
            gscore = np.where(better, top, gscore)
        trace.append(gscore)

    return PsoResult(best=gbest, score=gscore, evals=evals,
                     trace=np.stack(trace, axis=1))


def default_bounds(proposal_set, limits, margin):
    """Search box: proposal bounding box +- margin for translation,
    [-1, 1] for quaternion components, joint limits for angles."""
    bounds = np.empty((HYP_DIM, 2))
    all_pos = np.concatenate([proposal_set.positions(j) for j in proposal_set.joints])
    bounds[TRANSLATION_DIMS, 0] = all_pos.min(axis=0) - margin
    bounds[TRANSLATION_DIMS, 1] = all_pos.max(axis=0) + margin
    bounds[QUAT_DIMS, 0] = -1.0
    bounds[QUAT_DIMS, 1] = 1.0
    bounds[7:, 0] = limits.lower.ravel()
    bounds[7:, 1] = limits.upper.ravel()
    return bounds


def _check_palm_constrained(proposal_set):
    pts = [proposal_set.positions(j) for j in PALM_STAGE_JOINTS if j in proposal_set]
    if not pts:
        raise UnderConstrainedError("no palm or MCP proposals at all")
    pts = np.concatenate(pts)
    if len(pts) < 3:
        raise UnderConstrainedError(
            f"only {len(pts)} palm-region proposals; need >= 3 non-collinear")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] < 1e-3:
        raise UnderConstrainedError("palm-region proposals are collinear")


def _warm_start(proposal_set, limits):
    """Neutral-fingers hypothesis translated onto the strongest palm proposal."""
    neutral = np.clip(np.zeros((5, 4)), limits.lower, limits.upper)
    if geometry.PALM in proposal_set:
        t = proposal_set.top(geometry.PALM)
    else:
        mcps = [proposal_set.top(j) for j in PALM_STAGE_JOINTS if j in proposal_set]
        t = np.mean(mcps, axis=0)
    return geometry.PoseParams(t, quats.IDENTITY.copy(), neutral).to_vector()


def _cube_orientations():
    """The 24 rotational symmetries of the cube, as unit quaternions."""
    out = [quats.IDENTITY.copy()]
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for deg in (90.0, 180.0, -90.0):
            out.append(quats.from_axis_angle(axis, np.radians(deg)))
    for sx in (1, -1):
        for sy in (1, -1):
            for deg in (120.0, -120.0):
                out.append(quats.from_axis_angle((sx, sy, 1), np.radians(deg)))
    for axis in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)):
        out.append(quats.from_axis_angle(axis, np.radians(180.0)))
    return np.asarray(out)


_PALM_SEED_ORIENTATIONS = _cube_orientations()


def _palm_seeds(proposal_set, limits):
    """Warm-start seeds: the palm-anchored translation under a coarse
    orientation cover, so the global stage never searches SO(3) blind."""
    base = _warm_start(proposal_set, limits)
    seeds = []
    for q in _PALM_SEED_ORIENTATIONS:
        vec = base.copy()
        vec[QUAT_DIMS] = q
        seeds.append(vec)
    return seeds


@dataclass
class FitResult:
    pose: geometry.PoseParams
    score: float
    evals: int
    finger_fitted: tuple  # 5 bools; False = no proposals, finger left neutral

    def joints(self, geom):
        return geometry.forward_kinematics(geom, self.pose)


def _fit(proposal_set, geom, limits, cfg, rng, stage, fingers, finger_fitted):
    """Run one PSO stage from the palm seeds, then the stages of `fingers`.

    The stage is (dims, the proposal set it scores, particles,
    generations). The finger stages run as one stack under the global
    pose the stage found. The final hypothesis is clamped to the limits
    and scored once on all joints.
    """
    _check_palm_constrained(proposal_set)
    bounds = default_bounds(proposal_set, limits, cfg.translation_margin_mm)
    dims, scored, particles, generations = stage
    res = pso_optimize(
        lambda batch: objective(scored, batch, geom, cfg.d_max_mm),
        bounds, dims, particles, generations, cfg,
        seeds=_palm_seeds(proposal_set, limits), rng=rng)
    best, evals = res.best, res.evals
    if fingers:
        best, finger_evals = _finger_stack(proposal_set, geom, bounds, cfg, rng,
                                           best, fingers)
        evals += finger_evals
    pose = geometry.clamp_to_limits(geometry.PoseParams.from_vector(best), limits)
    score = objective(proposal_set, pose.to_vector(), geom, cfg.d_max_mm)
    return FitResult(pose=pose, score=score, evals=evals, finger_fitted=finger_fitted)


def _finger_stack(proposal_set, geom, bounds, cfg, rng, base, fingers):
    """The finger stages of `fingers` as one lockstep stack of swarms;
    returns `base` with every finger's best angles, and the evals.

    Swarm i moves only finger fingers[i]; the global pose of `base` is
    frozen. Each swarm draws the block of numbers its stage would draw
    alone, the blocks in finger order, so each finger ends where a stage
    of its own, run in that order, would end.
    """
    dims = np.array([finger_dims(f) for f in fingers])
    particles, generations = cfg.finger_particles, cfg.finger_generations
    block = 4 * (particles - 1 + 2 * particles * (max(generations, 1) - 1))
    stream = np.stack([rng.random(block) for _ in fingers])
    used = 0

    def draw(n):
        nonlocal used
        used += n
        return stream[:, used - n:used]

    res = _swarms(_finger_scores(proposal_set, geom, base, fingers, cfg.d_max_mm),
                  np.tile(base, (len(fingers), particles, 1)), 1, dims, bounds,
                  generations, cfg, draw)
    best = base.copy()
    best[dims] = res.best[np.arange(len(fingers))[:, None], dims]
    return best, len(fingers) * res.evals


def _finger_scores(proposal_set, geom, base, fingers, d_max):
    """Score function of a finger stack: row p of swarm i scores as
    `objective` on finger fingers[i]'s joints scores it, to the bit."""
    joints = np.array([geometry.finger_joint_indices(f) for f in fingers]).ravel()
    pos, w = (a[joints] for a in proposal_set.padded())
    swarms = len(fingers)
    slots = np.repeat(np.arange(swarms) * proposal_set.num_joints, 4) + joints
    q = base[QUAT_DIMS]  # made a unit quaternion as objective makes it
    fk = geometry.posed_fingers(geom, base[TRANSLATION_DIMS], q / np.sqrt((q * q).sum()),
                                fingers)
    pick = np.arange(swarms), slice(None), np.asarray(fingers)

    def score(x):
        angles = x[:, :, 7:].reshape(swarms, -1, 5, 4)[pick]
        terms = _joint_maxima(fk(angles.transpose(1, 0, 2)), pos, w, d_max)
        return _sum_terms(terms, slots, swarms, proposal_set.num_joints).T

    return score


def stepwise_fit(proposal_set, geom, limits, cfg, rng):
    """Stepwise fit, drawing from `rng`: global pose from palm-rigid
    joints, then each finger.

    Raises UnderConstrainedError when the palm stage lacks three
    non-collinear proposals. Fingers without any proposals stay neutral
    and are flagged in the result.
    """
    fitted = tuple(any(j in proposal_set for j in geometry.finger_joint_indices(f))
                   for f in range(5))
    stage = (GLOBAL_DIMS, proposal_set.only(PALM_STAGE_JOINTS), cfg.palm_particles,
             cfg.palm_generations)
    return _fit(proposal_set, geom, limits, cfg, rng, stage,
                [f for f in range(5) if fitted[f]], fitted)


def joint_fit(proposal_set, geom, limits, cfg, rng):
    """Ablation baseline: one PSO over all 27 parameters drawing from `rng`."""
    stage = (np.arange(HYP_DIM), proposal_set, cfg.joint_particles, cfg.joint_generations)
    return _fit(proposal_set, geom, limits, cfg, rng, stage, [], (True,) * 5)


FIT_MODES = ("stepwise", "joint", "regression-only")


def fit_frames(psets, geom, limits, cfg, mode):
    """Fit every frame of a sequence; returns (joints, results) per frame.

    Frame i draws from default_rng((cfg.seed, 5, i)), so a frame's fit does
    not depend on which caller runs it or on the frames before it. In
    regression-only mode each joint is its top proposal and every result
    is None. A frame too under-constrained to fit falls back to its top
    proposals too, with a warning naming it, and its result is None.
    """
    if mode not in FIT_MODES:
        raise ValueError(f"unknown fit mode {mode!r}; pick from {FIT_MODES}")
    if mode == "regression-only":
        return [metrics.top_proposal_joints(p) for p in psets], [None] * len(psets)
    fitter = joint_fit if mode == "joint" else stepwise_fit
    joints, results = [], []
    for i, pset in enumerate(psets):
        try:
            res = fitter(pset, geom, limits, cfg,
                         rng=np.random.default_rng((cfg.seed, 5, i)))
        except UnderConstrainedError as exc:
            log.warning("frame %d: %s; using its top proposals", i, exc)
            joints.append(metrics.top_proposal_joints(pset))
            results.append(None)
            continue
        joints.append(res.joints(geom))
        results.append(res)
    return joints, results


FIT_COLUMNS = geometry.POSE_COLUMNS + ["score", "evals"] + \
    [f"fitted_{f}" for f in geometry.FINGERS] + ["fallback"]


def _fit_row(res):
    if res is None:  # fell back to the top proposals: no pose, no score
        return [""] * (HYP_DIM + 1) + [0] + [0] * len(geometry.FINGERS) + [1]
    return ([f"{v:.9g}" for v in res.pose.to_vector()] + [f"{res.score:.9g}", res.evals]
            + [int(flag) for flag in res.finger_fitted] + [0])


def write_fits_csv(path, results):
    """Pose trace: 27 parameters + score + eval count + per-finger flags +
    fallback flag; a None result is a frame that fell back to its top
    proposals."""
    write_csv(path, ["frame"] + FIT_COLUMNS,
              ([frame] + _fit_row(res) for frame, res in enumerate(results)))
