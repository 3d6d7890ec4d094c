"""Independent reference implementations used to check the fast paths.

These deliberately use different algorithms than the library: grid search
instead of mean-shift, sphere marching instead of analytic intersection,
scalar loops instead of vectorized code.
"""

import functools

import numpy as np

from handfit import fit, forest, geometry, quats
from handfit.depth import BONE_RADII_MM, PALM_ELLIPSOID_CENTER, PALM_ELLIPSOID_SEMI_AXES
from handfit.meanshift import DEDUP_DIVISOR, INFER_DEDUP_DIVISOR, MERGE_FACTOR, TOL_FACTOR
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
    """Mean-shift of one set from the squared distances
    (|m|^2 + |p|^2) - 2 m p^T and the weighted kernel: the accuracy
    reference for `meanshift._shift_sets`."""
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


def meanshift_iterate_lifted(points, weights, bandwidth, max_iters, tol):
    """The allocating, one-set-at-a-time form of `meanshift._shift_sets`:
    the set centred at its mean, the exponents of the active rows from one
    product of [m, |m|^2, 1] with [p / h^2; -1 / 2h^2; log w - |p|^2 / 2h^2],
    their exp, and one product with [p, 1]; fresh temporaries throughout."""
    if max_iters < 1:
        return points.copy()
    n, dim = points.shape
    inv_bw2 = 1.0 / (bandwidth * bandwidth)
    centre = points.mean(axis=0)
    shifted = points - centre
    # C order, as the kernel's: BLAS sums an F-ordered one in another order
    lifted = np.ascontiguousarray(np.vstack([
        (shifted * inv_bw2).T, np.full((1, n), -0.5 * inv_bw2),
        np.log(weights) - (0.5 * inv_bw2) * (shifted * shifted).sum(axis=1)]))
    with_one = np.column_stack([shifted, np.ones(n)])
    active = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        m = shifted[idx]
        aug = np.column_stack([m, (m * m).sum(axis=1), np.ones(idx.size)])
        sums = np.exp(aug @ lifted) @ with_one
        new = sums[:, :dim] / sums[:, dim:]
        moved = np.abs(new - m).max(axis=1) >= tol
        shifted[idx] = new
        active[idx] = moved
    return shifted + centre


def dedup_alone(points, weights, bandwidth, divisor=DEDUP_DIVISOR):
    """One point set pooled on its own grid by np.unique: (cell means, cell
    weights) in grid order, the reference for `meanshift._dedup`."""
    cell = np.round(points * (divisor / bandwidth)).astype(np.int64)
    _, inverse = np.unique(cell, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_cells = int(inverse.max()) + 1
    w = np.bincount(inverse, weights=weights, minlength=n_cells)
    sums = np.stack([np.bincount(inverse, weights=weights * points[:, d],
                                 minlength=n_cells)
                     for d in range(points.shape[1])], axis=1)
    return sums / w[:, None], w


def merge_modes_alone(shifted, weights, merge_radius):
    """Greedy mode merge of one group, its grid collapsed by np.unique: the
    reference for the merge stage of `meanshift`."""
    total = weights.sum()
    center = (weights[:, None] * shifted).sum(axis=0) / total
    spread2 = ((shifted - center) ** 2).sum(axis=1).max()
    if spread2 <= 0.25 * merge_radius * merge_radius:
        return center[None, :], np.array([total])

    dim = shifted.shape[1]
    cell = np.round(shifted / (0.25 * merge_radius)).astype(np.int64)
    _, inverse = np.unique(cell, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_cells = int(inverse.max()) + 1
    cell_w = np.bincount(inverse, weights=weights, minlength=n_cells)
    cell_sum = np.stack([
        np.bincount(inverse, weights=weights * shifted[:, d], minlength=n_cells)
        for d in range(dim)], axis=1)

    order = np.argsort(-cell_w, kind="stable")
    mode_sum = []
    mode_w = []
    r2 = merge_radius * merge_radius
    for c in order:
        p = cell_sum[c] / cell_w[c]
        if mode_sum:
            centers = np.asarray(mode_sum) / np.asarray(mode_w)[:, None]
            d2 = ((centers - p) ** 2).sum(axis=1)
            nearest = int(np.argmin(d2))
            if d2[nearest] <= r2:
                mode_sum[nearest] = mode_sum[nearest] + cell_sum[c]
                mode_w[nearest] += cell_w[c]
                continue
        mode_sum.append(cell_sum[c].copy())
        mode_w.append(cell_w[c])

    modes = np.asarray(mode_sum) / np.asarray(mode_w)[:, None]
    supports = np.asarray(mode_w)
    order = np.argsort(-supports, kind="stable")
    return modes[order], supports[order]


def mean_shift_alone(points, weights, bandwidth, divisor, max_iters):
    """One weighted point set through the reference stages: np.unique
    pooling, the allocating lifted kernel and the one-group merge; the reference
    for every set of a `meanshift.mean_shift` call."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.ones(len(points)) if weights is None else np.asarray(weights, dtype=float)
    keep = weights > 0
    points, weights = points[keep], weights[keep]
    if len(points) == 0:
        return np.empty((0, points.shape[1])), np.empty(0)
    points, weights = dedup_alone(points, weights, bandwidth, divisor)
    shifted = meanshift_iterate_lifted(points, weights, bandwidth, max_iters,
                                       TOL_FACTOR * bandwidth)
    return merge_modes_alone(shifted, weights, MERGE_FACTOR * bandwidth)


def proposals_joint_by_joint(votes, top_n, k, bandwidth_mm, max_iters):
    """`forest.proposals_from_votes` as a loop of one mean-shift per joint,
    each through `mean_shift_alone`."""
    entries = {}
    for j, (pos, w) in votes.items():
        if len(w) > top_n:
            order = np.argsort(-w, kind="stable")[:top_n]
            pos = pos[order]
        modes, support = mean_shift_alone(pos, None, bandwidth_mm,
                                          INFER_DEDUP_DIVISOR, max_iters)
        if len(modes) == 0:
            continue
        entries[j] = (modes[:k], support[:k])
    return ProposalSet(entries)


def build_leaf_per_joint(samples, idx, cfg):
    """The leaf model of the samples `idx` as one `mean_shift_alone` per
    joint: (modes (J, M, 3), weights (J, M)) float32, zero-padded; the
    reference for a leaf of `forest._leaf_models`."""
    n_joints = samples.joints.shape[1]
    modes_out = np.zeros((n_joints, cfg.leaf_modes, 3), dtype=np.float32)
    weights_out = np.zeros((n_joints, cfg.leaf_modes), dtype=np.float32)
    # each sample's patch centre, back-projected from its pixel and depth
    us, vs, depth = (np.asarray(c, dtype=float)
                     for c in (samples.pixel[idx, 0], samples.pixel[idx, 1], samples.depth[idx]))
    cam = samples.images.cam
    centers = np.stack([(us - cam.cx) * depth / cam.fx, (vs - cam.cy) * depth / cam.fy, depth],
                       axis=1)
    for j in range(n_joints):
        # joint j's offsets, rounded once to float32 as `SampleSet.offsets` rounds them
        offsets = samples.joints[samples.img_idx[idx], j] - centers
        modes, support = mean_shift_alone(offsets.astype(np.float32).astype(float), None,
                                          cfg.leaf_bandwidth_mm, DEDUP_DIVISOR,
                                          cfg.meanshift_iters)
        m = min(cfg.leaf_modes, len(modes))
        modes_out[j, :m] = modes[:m]
        weights_out[j, :m] = support[:m]
    return modes_out, weights_out


def full_stack(frames):
    """The (n, h, w) full grids of `frames`, the layout the probe oracles
    below read, built through each frame's `depth`."""
    return np.stack([img.depth for img in frames])


def probe_depth_3index(images, img_idx, probe_px, bg_depth):
    """Depth at float32 probe pixels by a 3-index gather at clipped
    coordinates, then separate out-of-image and background passes, in
    float32: the reference for `forest._probe_depth`."""
    u = np.rint(probe_px[..., 0]).astype(np.int64)
    v = np.rint(probe_px[..., 1]).astype(np.int64)
    h, w = images.shape[1], images.shape[2]
    inb = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    d = images[img_idx, vc, uc].astype(np.float32)
    d[~inb] = bg_depth
    d[d == 0] = bg_depth
    return d


def _float32(*arrays):
    return [np.asarray(a, dtype=np.float32) for a in arrays]


def depth_difference_3index(images, img_idx, pixel, depth, probe_u, probe_v,
                            bg_depth):
    """`forest._depth_difference` through `probe_depth_3index`: the probe
    pixels computed from float32 patch columns and offsets, in float32."""
    pixel, scale, probe_u, probe_v = _float32(pixel, depth[..., None], probe_u, probe_v)
    du = probe_depth_3index(images, img_idx, pixel + probe_u / scale, bg_depth)
    dv = probe_depth_3index(images, img_idx, pixel + probe_v / scale, bg_depth)
    return du - dv


# Frozen copies of the split features as they were computed before they
# were blocked and before frames were stored as crops: each probe allocates
# its (c, n) temporaries and reads the full (n, h, w) grids (`full_stack`)
# once for every candidate-sample pair, candidate-major, at an exact integer
# index from float32 coordinates. The library must keep producing their bits.

def probe_depth_unblocked(images, img_idx, pixel, depth, offset, bg_depth):
    h, w = images.shape[1:]
    pixel, depth, offset = _float32(pixel, depth, offset)
    u = np.rint(pixel[..., 0] + offset[..., 0] / depth)
    v = np.rint(pixel[..., 1] + offset[..., 1] / depth)
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    index = (v.astype(np.int64) * w + u.astype(np.int64)
             + np.asarray(img_idx, dtype=np.int64) * (h * w))
    d = images.reshape(-1).take(np.where(inside, index, 0)).astype(np.float32)
    return np.where(inside & (d != 0), d, np.float32(bg_depth))


def depth_difference_unblocked(images, img_idx, pixel, depth, probe_u, probe_v, bg_depth):
    du = probe_depth_unblocked(images, img_idx, pixel, depth, probe_u, bg_depth)
    dv = probe_depth_unblocked(images, img_idx, pixel, depth, probe_v, bg_depth)
    return du - dv


def features_unblocked(samples, idx, probe_u, probe_v, bg_depth):
    return depth_difference_unblocked(full_stack(samples.images), samples.img_idx[idx][None],
                                      samples.pixel[idx][None], samples.depth[idx][None],
                                      probe_u[:, None], probe_v[:, None], bg_depth)


def route_unblocked(tree, images, img_idx, pixel, depth, bg_depth):
    """`forest.Tree.route` through `depth_difference_unblocked`, reading
    the full (n, h, w) grids `images`."""
    node = np.zeros(len(depth), dtype=np.int64)
    while True:
        act = np.nonzero(tree.leaf_id[node] < 0)[0]
        if act.size == 0:
            return tree.leaf_id[node]
        nd = node[act]
        feats = depth_difference_unblocked(images, img_idx[act], pixel[act], depth[act],
                                           tree.probe_u[nd], tree.probe_v[nd], bg_depth)
        node[act] = np.where(feats < tree.tau[nd], tree.left[nd], tree.right[nd])


# Frozen copies of split scoring as it was before pure nodes stopped early
# and before the entropy skipped absent classes: every node scores its
# candidates, and every class's log is taken and masked. The library must
# keep producing their bits and their draws.

def gains_where(left_counts, total_counts):
    """`forest._gains` with the log of every count, zero ones masked by
    `np.where` under `np.errstate`."""
    counts = np.concatenate([total_counts[None, :], left_counts, total_counts - left_counts])
    sizes = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / np.maximum(sizes, 1)[:, None]
        h = -np.where(counts > 0, p * np.log(p), 0.0).sum(axis=1)
    n, (n_l, n_r), (h_l, h_r) = sizes[0], np.split(sizes[1:], 2), np.split(h[1:], 2)
    gains = h[0] - (n_l * h_l + n_r * h_r) / n
    gains[(n_l == 0) | (n_r == 0)] = -np.inf
    return gains


def best_split_always_scored(samples, idx, cfg, rng, probe_range, n_joints):
    """`forest._best_split` that computes every node's features and gains
    (by `gains_where`), a pure node's too, drawing the threshold indices
    after the features."""
    sub = forest._balanced_subsample(samples.label, idx, cfg.node_subsample, rng)
    probe_u, probe_v = (rng.uniform(-probe_range, probe_range, size=(cfg.candidates, 2))
                        .astype(np.float32) for _ in range(2))
    feats = forest._features(samples, sub, probe_u, probe_v, cfg.bg_depth_mm)
    tau = feats[np.arange(cfg.candidates), rng.integers(0, len(sub), size=cfg.candidates)]
    onehot = np.zeros((len(sub), n_joints), dtype=np.float32)
    onehot[np.arange(len(sub)), samples.label[sub]] = 1.0
    left_counts = (feats < tau[:, None]).astype(np.float32) @ onehot
    gains = gains_where(left_counts.astype(float), onehot.sum(axis=0, dtype=float))
    best = int(np.argmax(gains))
    if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
        return None
    if sub is idx:
        f_all = feats[best]
    else:
        f_all = forest._features(samples, idx, probe_u[best:best + 1],
                                 probe_v[best:best + 1], cfg.bg_depth_mm)[0]
    go_left = f_all < tau[best]
    if not go_left.any() or go_left.all():
        return None
    return probe_u[best], probe_v[best], tau[best], go_left


def train_tree_recursive(samples, cfg, rng):
    """`forest.train_tree` grown by a self-recursive closure: node ids,
    draws from `rng` and leaves in the pre-order of the recursion, each
    leaf's model built at once by `build_leaf_per_joint`."""
    probe_range = cfg.probe_range_px_m * 1000.0
    n_joints = samples.joints.shape[1]
    nodes, leaf_modes, leaf_weights = [], [], []

    def grow(idx, depth):
        split = None
        if depth < cfg.max_depth and len(idx) >= cfg.min_samples:
            split = forest._best_split(samples, idx, cfg, rng, probe_range, n_joints)
        if split is None:
            modes, weights = build_leaf_per_joint(
                samples, forest.build_leaf(samples, idx, cfg, rng), cfg)
            leaf_modes.append(modes)
            leaf_weights.append(weights)
            nodes.append([-1, -1, len(leaf_modes) - 1, 0.0, 0.0, 0.0, 0.0, 0.0])
            return len(nodes) - 1
        u, v, tau, go_left = split
        node_id = len(nodes)
        nodes.append([-2, -2, -1, u[0], u[1], v[0], v[1], tau])
        nodes[node_id][0] = grow(idx[go_left], depth + 1)
        nodes[node_id][1] = grow(idx[~go_left], depth + 1)
        return node_id

    grow(np.arange(len(samples)), 0)
    return np.asarray(nodes, dtype=float), np.stack(leaf_modes), np.stack(leaf_weights)


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


def joint_maxima_point_major(joint_positions, padded_pos, padded_w, d_max):
    """`fit._joint_maxima` on a (n, J, K, 3) difference array, distances
    summed over its length-3 last axis."""
    diff = joint_positions[:, :, None, :] - padded_pos[None, :, :, :]
    d = np.sqrt((diff * diff).sum(axis=3)) / d_max
    np.clip(d, None, 1.0, out=d)
    terms = padded_w[None, :, :] * (1.0 - d * d)
    return terms.max(axis=2)


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
        # row-major joints, so every reduction below runs in the order it
        # runs on a (n, 21, 3) array
        joints = np.ascontiguousarray(geometry.fk_batch(
            geom, h[valid][:, 0:3], q[valid] / norms[valid, None],
            h[valid][:, 7:].reshape(-1, 5, 4)))
        diff = joints[:, :, None, :] - pos[None, :, :, :]
        d = np.sqrt((diff * diff).sum(axis=3)) / d_max
        np.clip(d, None, 1.0, out=d)
        terms = w[None, :, :] * (1.0 - d * d)
        scores[valid] = terms.max(axis=2).sum(axis=1)
    return float(scores[0]) if single else scores


# Frozen copies of the fit's per-generation path as it was computed before
# its numpy calls were cut: the per-entry rotation formula, forward
# kinematics without cached tables, the objective with `np.linalg.norm`
# and per-call indexing, and the out-of-place quaternion renormalization.
# The library must keep producing their bits.

def to_matrix_batch_per_entry(q):
    """(..., 4) unit quaternions -> (..., 3, 3) rotation matrices, one
    textbook expression per entry."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def fk_batch_frozen(geom, translations, orientations, finger_angles):
    """All 21 joints (n, 21, 3) of `geometry.fk_batch`, every constant and
    the rotation built on each call."""
    t = np.asarray(translations, dtype=float)
    n = len(t)
    a = np.asarray(finger_angles, dtype=float).reshape(n, 5, 4).transpose(1, 2, 0)
    abd, bend = a[:, 1], a[:, [0, 2, 3]]
    frames = geom.finger_base_frames[:, :, :, None]
    across = np.cos(abd)[:, None] * frames[:, :, 1] - np.sin(abd)[:, None] * frames[:, :, 0]
    bend[:, 1] += bend[:, 0]
    bend[:, 2] += bend[:, 1]
    bones = np.cos(bend)[:, :, None] * across[:, None] + \
        np.sin(bend)[:, :, None] * frames[:, None, :, 2]
    bones *= geom.bone_lengths[:, :, None, None]
    bones[:, 0] += geom.finger_base_offsets[:, :, None]
    bones[:, 1] += bones[:, 0]
    bones[:, 2] += bones[:, 1]
    local = np.zeros((geometry.NUM_JOINTS, 3, n))
    fingers = local[1:].reshape(5, 4, 3, n)
    fingers[:, 0] = geom.finger_base_offsets[:, :, None]
    fingers[:, 1:] = bones
    rot = to_matrix_batch_per_entry(orientations).transpose(1, 2, 0)
    out = rot[:, 0] * local[:, None, 0]
    out += rot[:, 1] * local[:, None, 1]
    out += rot[:, 2] * local[:, None, 2]
    out += t.T
    return out.transpose(2, 0, 1)


def objective_frozen(proposal_set, hypothesis, geom, d_max):
    """`fit.objective` on `fk_batch_frozen` and `joint_maxima_point_major`."""
    h = np.asarray(hypothesis, dtype=float)
    single = h.ndim == 1
    h = np.atleast_2d(h)
    pos, w = proposal_set.padded()
    scored = proposal_set.joints

    q = h[:, fit.QUAT_DIMS]
    norms = np.linalg.norm(q, axis=1)
    valid = norms > 1e-12
    scores = np.full(len(h), -np.inf)
    if valid.any():
        if not valid.all():
            h, q, norms = h[valid], q[valid], norms[valid]
        joints = fk_batch_frozen(geom, h[:, fit.TRANSLATION_DIMS], q / norms[:, None],
                                 h[:, 7:].reshape(-1, 5, 4))[:, scored]
        per_joint = np.zeros((len(joints), w.shape[0]))
        per_joint[:, scored] = joint_maxima_point_major(joints, pos[scored], w[scored], d_max)
        scores[valid] = per_joint.sum(axis=1)
    return float(scores[0]) if single else scores


def sanitize_quat_frozen(x):
    """`fit._sanitize_quat`: renormalize quaternion dims in place through a
    copy; zero-norm resets to identity."""
    q = x[..., fit.QUAT_DIMS]
    norms = np.linalg.norm(q, axis=-1)
    dead = norms < 1e-12
    if dead.any():
        q[dead] = quats.IDENTITY
        norms[dead] = 1.0
    x[..., fit.QUAT_DIMS] = q / norms[..., None]


def fk_rotation_chain(geom, translations, orientations, finger_angles):
    """All 21 joint positions (n, 21, 3) by chained 3x3 rotation matrices.

    The reference for `geometry.fk_batch`: each finger composes
    rot @ base_frame @ Rz(abduction) @ Rx(flexion) @ Rx(pip) @ Rx(dip)
    one matrix product at a time and steps along the y column.
    """
    t = np.asarray(translations, dtype=float)
    rot = to_matrix_batch_per_entry(orientations)
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
    rot = to_matrix_batch_per_entry(quats.normalize(pose.orientation))
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


# Frozen copies of the renderer's per-primitive helpers from before a pose's
# primitives were rasterised in one batched solve, except that a primitive
# casts every ray of the image rather than those of a pixel box: its rays and
# its z-buffer update.

@functools.lru_cache(maxsize=4)
def image_rays(cam):
    """Every pixel (u, v) of the image and its ray ((u - cx) / fx, (v - cy) / fy, 1),
    read-only."""
    us, vs = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs = np.stack([(us.ravel() - cam.cx) / cam.fx,
                     (vs.ravel() - cam.cy) / cam.fy,
                     np.ones(us.size)], axis=1)
    rays = us.ravel(), vs.ravel(), dirs
    for a in rays:
        a.flags.writeable = False
    return rays


def update_zbuf_one(zbuf, us, vs, t):
    hit = np.isfinite(t)
    if not hit.any():
        return
    flat = zbuf[vs[hit], us[hit]]
    zbuf[vs[hit], us[hit]] = np.minimum(flat, t[hit])


def ray_sphere_own_quadratic(dirs, center, radius):
    """Smallest positive ray parameter hitting the sphere, inf when missed,
    from a ray quadratic of its own."""
    a = np.einsum("ij,ij->i", dirs, dirs)
    b = -2.0 * dirs @ center
    c = center @ center - radius * radius
    disc = b * b - 4.0 * a * c
    t = np.full(len(dirs), np.inf)
    ok = disc >= 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = (-b - sq) / (2.0 * a)
    t_far = (-b + sq) / (2.0 * a)
    near_ok = ok & (t_near > 0.0)
    t[near_ok] = t_near[near_ok]
    far_only = ok & ~ (t_near > 0.0) & (t_far > 0.0)
    t[far_only] = t_far[far_only]
    return t


def raster_capsule_own_quadratic(zbuf, cam, a, b, radius):
    """One capsule rasterised on its own, with its own ray quadratics."""
    us, vs, dirs = image_rays(cam)

    ab = b - a
    length = np.linalg.norm(ab)
    t_best = np.full(len(dirs), np.inf)
    if length > 1e-9:
        axis = ab / length
        d_par = dirs @ axis
        oc = -a
        oc_par = oc @ axis
        d_perp = dirs - d_par[:, None] * axis
        o_perp = oc - oc_par * axis
        qa = np.einsum("ij,ij->i", d_perp, d_perp)
        qb = 2.0 * d_perp @ o_perp
        qc = o_perp @ o_perp - radius * radius
        disc = qb * qb - 4.0 * qa * qc
        ok = (disc >= 0.0) & (qa > 1e-12)
        t = np.full(len(dirs), np.inf)
        sq = np.sqrt(np.maximum(disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cand = (-qb - sq) / (2.0 * qa)
        proj = t_cand * d_par + oc_par
        body = ok & (t_cand > 0.0) & (proj >= 0.0) & (proj <= length)
        t[body] = t_cand[body]
        t_best = t
    t_best = np.minimum(t_best, ray_sphere_own_quadratic(dirs, a, radius))
    t_best = np.minimum(t_best, ray_sphere_own_quadratic(dirs, b, radius))
    update_zbuf_one(zbuf, us, vs, t_best)


def raster_ellipsoid_own_quadratic(zbuf, cam, center, semi_axes, rot):
    """The palm ellipsoid rasterised on its own, with its own ray quadratic."""
    us, vs, dirs = image_rays(cam)
    d_loc = dirs @ rot / semi_axes
    o_loc = (-center) @ rot / semi_axes
    qa = np.einsum("ij,ij->i", d_loc, d_loc)
    qb = 2.0 * d_loc @ o_loc
    qc = o_loc @ o_loc - 1.0
    disc = qb * qb - 4.0 * qa * qc
    t = np.full(len(dirs), np.inf)
    ok = disc >= 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_near = (-qb - sq) / (2.0 * qa)
    hit = ok & (t_near > 0.0)
    t[hit] = t_near[hit]
    update_zbuf_one(zbuf, us, vs, t)


def pso_one_swarm(score_fn, bounds, active_dims, particles, generations,
                  cfg, seeds, rng):
    """`fit.pso_optimize` as one swarm of (particles, 27) positions that
    draws its numbers from `rng` as it goes: the reference for `fit._swarms`."""
    bounds = np.asarray(bounds, dtype=float)
    active = np.asarray(active_dims, dtype=int)
    lo, hi = bounds[active, 0], bounds[active, 1]
    quat_active = bool(np.intersect1d(active, fit.QUAT_DIMS).size)

    x = np.tile(np.asarray(seeds[0], dtype=float), (particles, 1))
    for i, seed in enumerate(seeds[:particles]):
        x[i] = seed
    n_seeded = min(len(seeds), particles)
    if particles > n_seeded:
        u = rng.random((particles - n_seeded, len(active)))
        x[n_seeded:, active] = lo + u * (hi - lo)
    if quat_active:
        sanitize_quat_frozen(x)

    v = np.zeros((particles, len(active)))
    scores = score_fn(x)
    evals = particles
    pbest = x.copy()
    pscore = scores.copy()
    g = int(np.argmax(pscore))
    gbest = pbest[g].copy()
    gscore = float(pscore[g])
    trace = [gscore]

    for _ in range(1, generations):
        r1 = rng.random((particles, len(active)))
        r2 = rng.random((particles, len(active)))
        v = (cfg.inertia * v
             + cfg.cognitive * r1 * (pbest[:, active] - x[:, active])
             + cfg.social * r2 * (gbest[active] - x[:, active]))
        x[:, active] = np.clip(x[:, active] + v, lo, hi)
        if quat_active:
            sanitize_quat_frozen(x)
        scores = score_fn(x)
        evals += particles
        improved = scores > pscore
        pbest[improved] = x[improved]
        pscore[improved] = scores[improved]
        g = int(np.argmax(pscore))
        if pscore[g] > gscore:
            gbest = pbest[g].copy()
            gscore = float(pscore[g])
        trace.append(gscore)

    return fit.PsoResult(best=gbest, score=gscore, evals=evals, trace=np.asarray(trace))


def fit_stages_one_by_one(proposal_set, geom, limits, cfg, rng, stages, finger_fitted):
    """PSO stages run in order, each a `pso_one_swarm` scored by
    `objective_frozen` and started from the best of the one before: the
    reference for `fit.stepwise_fit` and `fit.joint_fit`.

    A stage is (dims, scored joints or None for all, particles,
    generations). The first stage starts from the palm seeds. The final
    hypothesis is clamped to the limits and scored once on all joints.
    """
    fit._check_palm_constrained(proposal_set)
    bounds = fit.default_bounds(proposal_set, limits, cfg.translation_margin_mm)
    seeds = fit._palm_seeds(proposal_set, limits)
    evals = 0
    for dims, joints, particles, generations in stages:
        scored = proposal_set if joints is None else proposal_set.only(joints)
        res = pso_one_swarm(
            lambda batch: objective_frozen(scored, batch, geom, cfg.d_max_mm),
            bounds, dims, particles, generations, cfg, seeds=seeds, rng=rng)
        seeds = [res.best.copy()]
        evals += res.evals
    pose = geometry.clamp_to_limits(geometry.PoseParams.from_vector(seeds[0]), limits)
    score = objective_frozen(proposal_set, pose.to_vector(), geom, cfg.d_max_mm)
    return fit.FitResult(pose=pose, score=score, evals=evals, finger_fitted=finger_fitted)


def stepwise_fit_one_by_one(proposal_set, geom, limits, cfg, rng):
    """`fit.stepwise_fit` as a palm stage, then one stage per fitted finger
    in finger order."""
    fingers = [geometry.finger_joint_indices(f) for f in range(5)]
    fitted = tuple(any(j in proposal_set for j in joints) for joints in fingers)
    stages = [(fit.GLOBAL_DIMS, fit.PALM_STAGE_JOINTS, cfg.palm_particles,
               cfg.palm_generations)]
    stages += [(fit.finger_dims(f), fingers[f], cfg.finger_particles, cfg.finger_generations)
               for f in range(5) if fitted[f]]
    return fit_stages_one_by_one(proposal_set, geom, limits, cfg, rng, stages, fitted)


def joint_fit_one_by_one(proposal_set, geom, limits, cfg, rng):
    """`fit.joint_fit` as one 27-parameter `pso_one_swarm` stage."""
    stages = [(np.arange(fit.HYP_DIM), None, cfg.joint_particles, cfg.joint_generations)]
    return fit_stages_one_by_one(proposal_set, geom, limits, cfg, rng, stages, (True,) * 5)
