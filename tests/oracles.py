"""Independent reference implementations used to check the fast paths.

These deliberately use different algorithms than the library: grid search
instead of mean-shift, sphere marching instead of analytic intersection,
scalar loops instead of vectorized code.
"""

import numpy as np

from handfit import geometry, quats
from handfit.depth import BONE_RADII_MM, PALM_ELLIPSOID_CENTER, PALM_ELLIPSOID_SEMI_AXES
from handfit.proposals import ProposalSet


def kde_value(query, points, weights, bandwidth):
    d2 = ((points - query) ** 2).sum(axis=1)
    return float((weights * np.exp(-0.5 * d2 / bandwidth ** 2)).sum())


def kde_grid_mode(points, weights, bandwidth, center, half_width, step):
    """Argmax of the Gaussian KDE on a dense grid around `center`."""
    axes = [np.arange(c - half_width, c + half_width + step / 2, step)
            for c in center]
    best_val = -1.0
    best_pos = None
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                v = kde_value(np.array([x, y, z]), points, weights, bandwidth)
                if v > best_val:
                    best_val = v
                    best_pos = np.array([x, y, z])
    return best_pos


def shift_once(point, points, weights, bandwidth):
    """One mean-shift update of `point`; a converged mode is a fixed point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.ones(len(points)) if weights is None else np.asarray(weights, dtype=float)
    d2 = ((points - point) ** 2).sum(axis=1)
    k = np.exp(-0.5 * d2 / (bandwidth * bandwidth)) * weights
    return (k[:, None] * points).sum(axis=0) / k.sum()


def meanshift_iterate(points, weights, bandwidth, max_iters, tol):
    """The allocating form of `meanshift._iterate`: fresh temporaries for
    every step of every iteration, the same floating-point operations."""
    n = len(points)
    shifted = points.copy()
    p_sq = (points * points).sum(axis=1)
    active = np.ones(n, dtype=bool)
    inv_two_bw2 = 0.5 / (bandwidth * bandwidth)
    for _ in range(max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        m = shifted[idx]
        d2 = (m * m).sum(axis=1)[:, None] + p_sq[None, :] - 2.0 * (m @ points.T)
        np.maximum(d2, 0.0, out=d2)
        k = np.exp(-d2 * inv_two_bw2) * weights[None, :]
        new = (k @ points) / k.sum(axis=1)[:, None]
        moved = np.abs(new - m).max(axis=1) >= tol
        shifted[idx] = new
        active[idx] = moved
    return shifted


def quat_multiply(a, b):
    """Hamilton product a*b of (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def translate_proposals(pset, offset):
    """`pset` with every proposal moved by `offset`, confidences unchanged."""
    offset = np.asarray(offset, dtype=float)
    return ProposalSet({j: (pset.positions(j) + offset, pset.weights(j))
                        for j in pset.joints}, num_joints=pset.num_joints)


def masked_objective(proposal_set, hypothesis, geom, d_max, joint_subset=None):
    """Proposal-agreement score by full 21-joint FK and a weight mask.

    The reference for `fit.objective`: every joint is computed and scored,
    and joints outside `joint_subset` get zero weight, so their terms add
    exact zeros to a sum over all joints in index order.
    """
    h = np.asarray(hypothesis, dtype=float)
    single = h.ndim == 1
    h = np.atleast_2d(h)
    pos, w = proposal_set.padded()
    if joint_subset is not None:
        mask = np.zeros(w.shape[0], dtype=bool)
        mask[list(joint_subset)] = True
        w = np.where(mask[:, None], w, 0.0)
    q = h[:, 3:7]
    norms = np.linalg.norm(q, axis=1)
    valid = norms > 1e-12
    scores = np.full(len(h), -np.inf)
    if valid.any():
        joints = geometry.fk_batch(geom, h[valid][:, 0:3], q[valid] / norms[valid, None],
                                   h[valid][:, 7:].reshape(-1, 5, 4))
        diff = joints[:, :, None, :] - pos[None, :, :, :]
        d = np.sqrt((diff * diff).sum(axis=3)) / d_max
        np.clip(d, None, 1.0, out=d)
        terms = w[None, :, :] * (1.0 - d * d)
        scores[valid] = terms.max(axis=2).sum(axis=1)
    return float(scores[0]) if single else scores


def fk_rotation_chain(geom, translations, orientations, finger_angles):
    """All 21 joint positions (n, 21, 3) by chained 3x3 rotation matrices.

    The reference for `geometry.fk_batch`: each finger composes
    rot @ base_frame @ Rz(abduction) @ Rx(flexion) @ Rx(pip) @ Rx(dip)
    one matrix product at a time and steps along the y column.
    """
    t = np.asarray(translations, dtype=float)
    rot = quats.to_matrix_batch(orientations)
    angles = np.asarray(finger_angles, dtype=float)
    positions = {geometry.PALM: t}
    for f in range(geometry.NUM_FINGERS):
        chain = geometry.finger_joint_indices(f)
        positions.update(zip(chain, _finger_chain(geom, f, t, rot, angles, True)))
    return np.stack([positions[j] for j in range(geometry.NUM_JOINTS)], axis=1)


def _finger_chain(geom, f, t, rot, angles, full):
    """Finger f's MCP, then PIP, DIP and TIP only when `full`: (n, 3) each."""
    mcp = t + rot @ geom.finger_base_offsets[f]
    if not full:
        return (mcp,)
    lp, lm, ld = geom.bone_lengths[f]
    flex, abd = angles[:, f, 0], angles[:, f, 1]
    pip, dip = angles[:, f, 2], angles[:, f, 3]
    r = rot @ geom.finger_base_frames[f]
    r = r @ _rz_batch(abd)
    r = np.einsum("nij,njk->nik", r, _rx_batch(flex))
    pip_pos = mcp + lp * r[:, :, 1]
    r = np.einsum("nij,njk->nik", r, _rx_batch(pip))
    dip_pos = pip_pos + lm * r[:, :, 1]
    r = np.einsum("nij,njk->nik", r, _rx_batch(dip))
    tip_pos = dip_pos + ld * r[:, :, 1]
    return mcp, pip_pos, dip_pos, tip_pos


def _rx_batch(theta):
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = c
    m[..., 1, 2] = -s
    m[..., 2, 1] = s
    m[..., 2, 2] = c
    return m


def _rz_batch(theta):
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., 2, 2] = 1.0
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


def _segment_distance(p, a, b):
    ab = b - a
    t = np.clip(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-12), 0.0, 1.0)
    return np.linalg.norm(p - (a + t * ab))


def hand_distance_field(point, geom, pose):
    """Signed distance from `point` to the union of finger capsules.

    The palm ellipsoid is handled with a scaled-space bound that is exact
    on the axes and conservative elsewhere, which suffices for marching.
    """
    joints = geometry.forward_kinematics(geom, pose)
    best = np.inf
    for f in range(5):
        chain = geometry.finger_joint_indices(f)
        for k in range(3):
            d = _segment_distance(point, joints[chain[k]], joints[chain[k + 1]]) \
                - BONE_RADII_MM[k]
            best = min(best, d)
    rot = quats.to_matrix_batch(quats.normalize(pose.orientation))
    center = pose.translation + rot @ np.asarray(PALM_ELLIPSOID_CENTER)
    local = rot.T @ (point - center) / np.asarray(PALM_ELLIPSOID_SEMI_AXES)
    best = min(best, (np.linalg.norm(local) - 1.0) * min(PALM_ELLIPSOID_SEMI_AXES))
    return best


def march_ray_depth(geom, pose, cam, u, v, max_depth=2000.0):
    """Depth (mm) where the ray through pixel (u, v) first meets the hand.

    Conservative sphere marching over the distance field; returns NaN when
    the ray escapes. Independent of the analytic renderer.
    """
    direction = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    direction = direction / np.linalg.norm(direction)
    t = 0.0
    for _ in range(4000):
        p = t * direction
        d = hand_distance_field(p, geom, pose)
        if d < 1e-3:
            return p[2]
        t += max(d * 0.9, 5e-3)
        if t * direction[2] > max_depth:
            return np.nan
    return np.nan
