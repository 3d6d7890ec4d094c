"""Hough-style regression forest over depth patches.

Each foreground patch carries a part label (nearest joint) and 3D offset
vectors to every joint. Trees split on two-probe depth-difference features
whose pixel offsets are normalized by the patch depth; leaves summarize
the arriving offset distributions per joint by mean-shift modes: after a
tree is grown, its leaves' joint offset sets are condensed by `mean_shift`,
LEAVES_PER_CALL leaves to a call. At test time every patch votes absolute
3D positions for every joint; per joint the strongest votes are condensed
by the same `mean_shift` into a handful of confidence-weighted proposals.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .config import DEFAULTS, ForestConfig  # also read as forest.ForestConfig
from .depth import foreground_mask
# `_dedup` is not called here: perfbench/tracing.py wraps it by this module's name
from .meanshift import INFER_DEDUP_DIVISOR, _dedup, mean_shift  # noqa: F401
from .proposals import ProposalSet

# the leaves call mean-shift by this name: perfbench/tracing.py times them by it
mean_shift_groups = mean_shift

MAGIC = b"HFOR"
FORMAT_VERSION = 1
# leaves condensed per `mean_shift` call, 21 joint sets each. A set gets the
# same bits in any call, so this moves no output, only time and memory. On
# the benchmark `train` tree (923 leaves; 2-vCPU Xeon VM, BLAS 1 thread) the
# leaf models took 2.1 s of CPU at 1 leaf per call, 1.5 s at 16 or 32 and
# 1.6-1.8 s in one call; peak RSS read 132, 132, 134 and 269 MB.
LEAVES_PER_CALL = 16


class ForestFormatError(ValueError):
    """Corrupt or incompatible forest file; carries the failing byte offset."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class SampleSet:
    """Columnar training samples plus the depth images they index into."""

    images: np.ndarray   # (n_img, h, w) uint16
    cam: object
    pixel: np.ndarray    # (n, 2) float, (u, v)
    depth: np.ndarray    # (n,) float mm at the patch centre
    img_idx: np.ndarray  # (n,) int32
    label: np.ndarray    # (n,) int16, nearest joint
    offsets: np.ndarray  # (n, J, 3) float32, joint - patch centre

    def __len__(self):
        return len(self.depth)


def _patch_grid(img, stride, rng=None, cap=None):
    """Foreground patches of one frame on the stride grid.

    `cap` randomly limits the patch count, drawing from `rng`. Returns the
    patch depths (n,) in mm, back-projected centres (n, 3) and (u, v)
    pixels (n, 2).
    """
    vs, us = np.nonzero(foreground_mask(img))
    keep = (us % stride == 0) & (vs % stride == 0)
    us, vs = us[keep], vs[keep]
    if cap is not None and len(us) > cap:
        sel = np.sort(rng.choice(len(us), size=cap, replace=False))
        us, vs = us[sel], vs[sel]
    depths = img.depth[vs, us].astype(float)
    centers = img.cam.backproject(us.astype(float), vs.astype(float), depths)
    return depths, centers, np.stack([us, vs], axis=1).astype(float)


def extract_samples(img, gt_joints, stride, rng, cap=None):
    """Training samples from one rendered frame and its ground-truth joints.

    One sample per foreground pixel on the stride grid; the label is the
    joint nearest to the back-projected patch centre and the offsets point
    from that centre to every joint. `cap` randomly limits samples per image.
    """
    gt_joints = np.asarray(gt_joints, dtype=float)
    depths, centers, pixel = _patch_grid(img, stride, rng, cap)
    diff = gt_joints[None, :, :] - centers[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    labels = dist.argmin(axis=1).astype(np.int16)
    return SampleSet(
        images=img.depth[None, :, :],
        cam=img.cam,
        pixel=pixel,
        depth=depths,
        img_idx=np.zeros(len(depths), dtype=np.int32),
        label=labels,
        offsets=diff.astype(np.float32),
    )


def build_training_set(images, gt_joint_list, stride, rng, cap=None):
    """Pooled SampleSet over many frames sharing one image stack."""
    parts = [extract_samples(img, gt, stride, rng, cap=cap)
             for img, gt in zip(images, gt_joint_list)]
    stack = np.stack([img.depth for img in images])
    return SampleSet(
        images=stack,
        cam=images[0].cam,
        pixel=np.concatenate([p.pixel for p in parts]),
        depth=np.concatenate([p.depth for p in parts]),
        img_idx=np.concatenate([np.full(len(p), i, dtype=np.int32)
                                for i, p in enumerate(parts)]),
        label=np.concatenate([p.label for p in parts]),
        offsets=np.concatenate([p.offsets for p in parts]),
    )


def _probe_depth(images, img_idx, pixel, depth, offset, bg_depth):
    """Depth read by one probe per patch; out-of-image or background reads
    `bg_depth`.

    The probe lands at pixel + offset / depth, rounded, and is read by one
    1-D gather from the raveled (n_img, h, w) image stack.
    """
    h, w = images.shape[1:]
    u = pixel[..., 0] + offset[..., 0] / depth
    v = pixel[..., 1] + offset[..., 1] / depth
    np.rint(u, out=u)
    np.rint(v, out=v)
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    v *= w
    v += u
    v += img_idx * float(h * w)
    d = images.reshape(-1).take(np.where(inside, v, 0).astype(np.intp))
    return np.where(inside & (d != 0), d, bg_depth)


def _depth_difference(images, img_idx, pixel, depth, probe_u, probe_v, bg_depth):
    """The split feature: depth at probe u minus depth at probe v.

    Probe offsets are in px*mm; the pixel displacement is the offset
    divided by the patch depth, so the feature is depth invariant. The
    arguments broadcast against each other: training scores (c, n)
    candidate-sample pairs, routing one probe pair per patch.
    """
    du = _probe_depth(images, img_idx, pixel, depth, probe_u, bg_depth)
    dv = _probe_depth(images, img_idx, pixel, depth, probe_v, bg_depth)
    return du - dv


def _features(samples, idx, probe_u, probe_v, bg_depth):
    """(c, n) features of samples `idx` under c candidate (c, 2) probe pairs."""
    return _depth_difference(samples.images, samples.img_idx[idx][None],
                             samples.pixel[idx][None], samples.depth[idx][None],
                             probe_u[:, None], probe_v[:, None], bg_depth)


def _gains(left_counts, total_counts):
    """Information gain (nats) of many candidate splits over part labels.

    left_counts (c, J) per-class counts on the left side of each candidate,
    total_counts (J,) at the node; an empty side scores -inf so degenerate
    splits are always rejected.
    """
    right_counts = total_counts[None, :] - left_counts
    n = total_counts.sum()
    n_l = left_counts.sum(axis=1)
    n_r = n - n_l

    def entropy(counts):  # of each row; an empty row scores 0
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
            plogp = np.where(counts > 0, p * np.log(p), 0.0)
        return -plogp.sum(axis=1)

    h_parent = entropy(total_counts[None, :])[0]
    gains = h_parent - (n_l * entropy(left_counts) + n_r * entropy(right_counts)) / n
    gains[(n_l == 0) | (n_r == 0)] = -np.inf
    return gains


def _balanced_subsample(labels, idx, size, rng):
    """Class-balanced subsample of node indices, at most `size` entries."""
    if len(idx) <= size:
        return idx
    classes = np.unique(labels[idx])
    quota = max(1, size // len(classes))
    chosen = []
    for c in classes:
        members = idx[labels[idx] == c]
        if len(members) > quota:
            members = rng.choice(members, size=quota, replace=False)
        chosen.append(members)
    out = np.concatenate(chosen)
    out.sort()
    return out


def build_leaf(samples, idx, cfg, rng):
    """The samples a leaf model is built from: `idx`, or a sorted random
    `cfg.leaf_cap` of them drawn from `rng`."""
    if len(idx) > cfg.leaf_cap:
        idx = np.sort(rng.choice(idx, size=cfg.leaf_cap, replace=False))
    return idx


def _leaf_models(samples, leaves, cfg):
    """Leaf models of the sample index sets `leaves`: per leaf and joint the
    top `cfg.leaf_modes` mean-shift modes of the offsets, zero-padded, as
    (modes (L, J, M, 3), weights (L, J, M)) float32; a weight is the
    support of its mode. LEAVES_PER_CALL leaves share a `mean_shift` call.
    """
    n_joints = samples.offsets.shape[1]
    modes_out = np.zeros((len(leaves), n_joints, cfg.leaf_modes, 3), dtype=np.float32)
    weights_out = np.zeros((len(leaves), n_joints, cfg.leaf_modes), dtype=np.float32)
    for lo in range(0, len(leaves), LEAVES_PER_CALL):
        sets = [joint_set for idx in leaves[lo:lo + LEAVES_PER_CALL]
                for joint_set in np.ascontiguousarray(
                    samples.offsets[idx].transpose(1, 0, 2), dtype=float)]
        found = mean_shift_groups(sets, None, bandwidth=cfg.leaf_bandwidth_mm,
                                  max_iters=cfg.meanshift_iters)
        for k, (modes, support) in enumerate(found):
            leaf, j = divmod(k, n_joints)
            m = min(cfg.leaf_modes, len(modes))
            modes_out[lo + leaf, j, :m] = modes[:m]
            weights_out[lo + leaf, j, :m] = support[:m]
    return modes_out, weights_out


@dataclass
class Tree:
    left: np.ndarray      # (n_nodes,) int32, -1 for leaves
    right: np.ndarray     # (n_nodes,) int32
    leaf_id: np.ndarray   # (n_nodes,) int32, -1 for internal nodes
    probe_u: np.ndarray   # (n_nodes, 2) float32, px*mm
    probe_v: np.ndarray   # (n_nodes, 2) float32
    tau: np.ndarray       # (n_nodes,) float32, mm
    leaf_modes: np.ndarray    # (n_leaves, J, M, 3) float32
    leaf_weights: np.ndarray  # (n_leaves, J, M) float32

    @property
    def n_nodes(self):
        return len(self.tau)

    @property
    def n_leaves(self):
        return len(self.leaf_weights)

    def max_depth(self):
        depth = np.zeros(self.n_nodes, dtype=int)
        for i in range(self.n_nodes):
            for child in (self.left[i], self.right[i]):
                if child >= 0:
                    depth[child] = depth[i] + 1
        return int(depth.max()) if self.n_nodes else 0

    def route(self, images, img_idx, pixel, depth, bg_depth):
        """Leaf index for every patch; routing is total and deterministic."""
        m = len(depth)
        node = np.zeros(m, dtype=np.int64)
        while True:
            internal = self.leaf_id[node] < 0
            if not internal.any():
                break
            act = np.nonzero(internal)[0]
            nd = node[act]
            feats = _depth_difference(images, img_idx[act], pixel[act], depth[act],
                                      self.probe_u[nd], self.probe_v[nd], bg_depth)
            go_left = feats < self.tau[nd]
            node[act] = np.where(go_left, self.left[nd], self.right[nd])
        return self.leaf_id[node]


def _best_split(samples, idx, cfg, rng, probe_range, n_joints):
    """The best of `cfg.candidates` random probe triples at a node, as
    (probe_u, probe_v, tau, go_left over idx), or None when no candidate
    separates the node's samples."""
    sub = _balanced_subsample(samples.label, idx, cfg.node_subsample, rng)
    probe_u = rng.uniform(-probe_range, probe_range, size=(cfg.candidates, 2))
    probe_v = rng.uniform(-probe_range, probe_range, size=(cfg.candidates, 2))
    feats = _features(samples, sub, probe_u, probe_v, cfg.bg_depth_mm)
    tau = feats[np.arange(cfg.candidates), rng.integers(0, len(sub), size=cfg.candidates)]

    onehot = np.zeros((len(sub), n_joints))
    onehot[np.arange(len(sub)), samples.label[sub]] = 1.0
    left_counts = (feats < tau[:, None]).astype(float) @ onehot
    gains = _gains(left_counts, onehot.sum(axis=0))
    best = int(np.argmax(gains))
    if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
        return None

    f_all = _features(samples, idx, probe_u[best:best + 1],
                      probe_v[best:best + 1], cfg.bg_depth_mm)[0]
    go_left = f_all < tau[best]
    if not go_left.any() or go_left.all():
        return None
    return probe_u[best], probe_v[best], tau[best], go_left


def train_tree(samples, cfg, rng):
    """Grow one tree by entropy-gain splitting, nodes in pre-order.

    At each node a class-balanced subsample scores `cfg.candidates` random
    (u, v, tau) probe triples; thresholds are drawn from the empirical
    feature values so both fine intra-hand and coarse silhouette splits
    stay reachable.
    """
    if len(samples) == 0:
        raise ValueError("cannot train a tree on an empty sample set")
    probe_range = cfg.probe_range_px_m * 1000.0  # px*m -> px*mm
    n_joints = samples.offsets.shape[1]

    nodes = []   # [left, right, leaf_id, u0, u1, v0, v1, tau]
    leaves = []  # each leaf's sample indices, condensed once the tree is grown
    # pre-order walk: a node takes its id and its draws from `rng` before
    # its left subtree, and the left subtree before the right one
    stack = [(np.arange(len(samples)), 0, None, 0)]  # idx, depth, parent, side
    while stack:
        idx, depth, parent, side = stack.pop()
        node_id = len(nodes)
        if parent is not None:
            nodes[parent][side] = node_id
        split = None
        if depth < cfg.max_depth and len(idx) >= cfg.min_samples:
            split = _best_split(samples, idx, cfg, rng, probe_range, n_joints)
        if split is None:
            leaves.append(build_leaf(samples, idx, cfg, rng))
            nodes.append([-1, -1, len(leaves) - 1, 0.0, 0.0, 0.0, 0.0, 0.0])
            continue
        u, v, tau, go_left = split
        nodes.append([-2, -2, -1, u[0], u[1], v[0], v[1], tau])
        stack.append((idx[~go_left], depth + 1, node_id, 1))
        stack.append((idx[go_left], depth + 1, node_id, 0))
    arr = np.asarray(nodes, dtype=float)
    leaf_modes, leaf_weights = _leaf_models(samples, leaves, cfg)
    return Tree(
        left=arr[:, 0].astype(np.int32),
        right=arr[:, 1].astype(np.int32),
        leaf_id=arr[:, 2].astype(np.int32),
        probe_u=arr[:, 3:5].astype(np.float32),
        probe_v=arr[:, 5:7].astype(np.float32),
        tau=arr[:, 7].astype(np.float32),
        leaf_modes=leaf_modes,
        leaf_weights=leaf_weights,
    )


@dataclass
class Forest:
    trees: list
    num_joints: int = geometry.NUM_JOINTS
    leaf_modes: int = DEFAULTS["forest.leaf_modes"]
    bg_depth_mm: float = DEFAULTS["forest.bg_depth_mm"]

    def stats(self):
        return [{"depth": t.max_depth(), "leaves": t.n_leaves, "nodes": t.n_nodes}
                for t in self.trees]


def train_forest(samples, cfg, rng, threads=1):
    """`cfg.num_trees` trees, each drawing from a stream spawned off `rng`."""
    tree_rngs = rng.spawn(cfg.num_trees)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        trees = list(pool.map(lambda r: train_tree(samples, cfg, r), tree_rngs))
    return Forest(trees, num_joints=samples.offsets.shape[1],
                  leaf_modes=cfg.leaf_modes, bg_depth_mm=cfg.bg_depth_mm)


def accumulate_votes(forest, img, stride=DEFAULTS["forest.infer_stride"],
                     depth_sq_weight=DEFAULTS["forest.depth_sq_weight"]):
    """Absolute 3D votes per joint from every foreground patch and tree.

    Vote weight is the leaf mode support, optionally scaled by the squared
    patch depth to undo the perspective thinning of per-pixel sampling.
    Returns {joint: (positions (v, 3), weights (v,))}.
    """
    depths, centers, pixel = _patch_grid(img, stride)
    if len(depths) == 0:
        return {}
    img_idx = np.zeros(len(depths), dtype=np.int64)
    images = img.depth[None, :, :]
    scale = (depths / 1000.0) ** 2 if depth_sq_weight else np.ones(len(depths))

    pos_parts = []
    w_parts = []
    for tree in forest.trees:
        leaf = tree.route(images, img_idx, pixel, depths, forest.bg_depth_mm)
        modes = tree.leaf_modes[leaf].astype(float)      # (m, J, M, 3)
        weights = tree.leaf_weights[leaf].astype(float)  # (m, J, M)
        pos_parts.append(centers[:, None, None, :] + modes)
        w_parts.append(weights * scale[:, None, None])
    positions = np.concatenate(pos_parts)  # (m*T, J, M, 3)
    weights = np.concatenate(w_parts)

    votes = {}
    for j in range(forest.num_joints):
        pj = positions[:, j].reshape(-1, 3)
        wj = weights[:, j].reshape(-1)
        live = wj > 0
        if live.any():
            votes[j] = (pj[live], wj[live])
    return votes


def proposals_from_votes(votes, top_n=DEFAULTS["forest.top_n"], k=DEFAULTS["forest.k"],
                         bandwidth_mm=DEFAULTS["forest.infer_bandwidth_mm"],
                         max_iters=DEFAULTS["forest.meanshift_iters"]):
    """Condense votes into at most k weighted proposals per joint.

    Per joint the top_n highest-weight votes are retained and pooled on a
    grid of bandwidth / INFER_DEDUP_DIVISOR (7.5 mm at the default 15 mm;
    the leaves keep the finer DEDUP_DIVISOR grid). Mean-shift over the
    pooled votes extracts the modes, and each mode's confidence is the
    number of retained votes that converged to it; ProposalSet then
    normalizes the confidences per joint. All joints go through one
    `mean_shift` call, which pools and merges the frame's vote sets in one
    keyed pass each; every joint gets the modes a call of its own gives.
    """
    retained = []
    for pos, w in votes.values():
        pos = np.atleast_2d(np.asarray(pos, dtype=float))
        if len(w) > top_n:
            pos = pos[np.argsort(-w, kind="stable")[:top_n]]
        retained.append(pos)
    found = mean_shift(retained, None, bandwidth=bandwidth_mm, max_iters=max_iters,
                       dedup_divisor=INFER_DEDUP_DIVISOR)
    return ProposalSet({j: (modes[:k], support[:k])
                        for j, (modes, support) in zip(votes, found) if len(modes)})


# --- serialization ---------------------------------------------------------

def save_forest(path, forest):
    """Versioned little-endian binary dump (magic HFOR)."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<HHIHHd", FORMAT_VERSION, 0, len(forest.trees),
                        forest.num_joints, forest.leaf_modes, forest.bg_depth_mm)
    for tree in forest.trees:
        blob += struct.pack("<II", tree.n_nodes, tree.n_leaves)
        node_block = np.empty((tree.n_nodes, 8), dtype="<f4")
        node_block[:, 0] = tree.left
        node_block[:, 1] = tree.right
        node_block[:, 2] = tree.leaf_id
        node_block[:, 3:5] = tree.probe_u
        node_block[:, 5:7] = tree.probe_v
        node_block[:, 7] = tree.tau
        # child/leaf indices are exactly representable in f4 for any
        # desk-scale tree (< 2**24 nodes)
        blob += node_block.tobytes()
        blob += tree.leaf_modes.astype("<f4").tobytes()
        blob += tree.leaf_weights.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise ForestFormatError(f"truncated while reading {what}", self.offset)
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _check_topology(t, left, right, leaf_id, n_leaves, base):
    """Reject node tables that Tree.route could not walk to a leaf.

    train_tree writes nodes in pre-order, so every internal node's children
    lie after it and inside the table, which makes routing terminate. Leaf
    rows have no children and use each leaf model exactly once.
    """
    n_nodes = len(left)
    if n_nodes == 0:
        raise ForestFormatError(f"tree {t} has no nodes", base)
    i = np.arange(n_nodes)
    internal = leaf_id < 0
    bad = np.where(internal,
                   (left <= i) | (left >= n_nodes) | (right <= i) | (right >= n_nodes),
                   (left != -1) | (right != -1))
    if bad.any():
        k = int(np.argmax(bad))
        raise ForestFormatError(
            f"tree {t} node {k}: children ({left[k]}, {right[k]}) break the "
            f"pre-order layout", base + 32 * k)
    rows = np.nonzero(~internal)[0]
    ids = leaf_id[rows]
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    bad = repeated | (ids >= n_leaves)
    if bad.any():
        k = int(rows[np.argmax(bad)])
        raise ForestFormatError(
            f"tree {t} node {k}: leaf id {leaf_id[k]} repeated or not below "
            f"{n_leaves}", base + 32 * k)
    if len(ids) != n_leaves:
        raise ForestFormatError(
            f"tree {t}: {len(ids)} leaf nodes for {n_leaves} leaf models", base)


def load_forest(path):
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise ForestFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version, _, n_trees, n_joints, n_modes, bg_depth = reader.unpack("<HHIHHd", "header")
    if version != FORMAT_VERSION:
        raise ForestFormatError(
            f"unsupported forest format version {version}, expected {FORMAT_VERSION}", 4)
    if n_joints > geometry.NUM_JOINTS:
        raise ForestFormatError(
            f"joint count {n_joints} exceeds the hand's {geometry.NUM_JOINTS} joints", 12)
    trees = []
    for t in range(n_trees):
        n_nodes, n_leaves = reader.unpack("<II", f"tree {t} sizes")
        base = reader.offset
        raw = reader.take(n_nodes * 32, f"tree {t} nodes")
        node_block = np.frombuffer(raw, dtype="<f4").reshape(n_nodes, 8)
        left, right, leaf_id = (node_block[:, c].astype(np.int32) for c in range(3))
        _check_topology(t, left, right, leaf_id, n_leaves, base)
        raw = reader.take(n_leaves * n_joints * n_modes * 3 * 4, f"tree {t} leaf modes")
        modes = np.frombuffer(raw, dtype="<f4").reshape(n_leaves, n_joints, n_modes, 3)
        raw = reader.take(n_leaves * n_joints * n_modes * 4, f"tree {t} leaf weights")
        weights = np.frombuffer(raw, dtype="<f4").reshape(n_leaves, n_joints, n_modes)
        trees.append(Tree(
            left=left,
            right=right,
            leaf_id=leaf_id,
            probe_u=node_block[:, 3:5].astype(np.float32),
            probe_v=node_block[:, 5:7].astype(np.float32),
            tau=node_block[:, 7].astype(np.float32),
            leaf_modes=modes.astype(np.float32),
            leaf_weights=weights.astype(np.float32),
        ))
    if reader.offset != len(reader.data):
        raise ForestFormatError("trailing bytes after forest payload", reader.offset)
    return Forest(trees, num_joints=n_joints, leaf_modes=n_modes, bg_depth_mm=bg_depth)
