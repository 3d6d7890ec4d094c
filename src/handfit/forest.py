"""Hough-style regression forest over depth patches.

Each foreground patch carries a part label (nearest joint) and 3D offset
vectors to every joint; the sample table keeps each frame's joints once,
and the patch centre and its offsets are derived where they are read.
Trees split on two-probe depth-difference features whose pixel offsets are
normalized by the patch depth; leaves summarize the arriving offset
distributions per joint by mean-shift modes: after a tree is grown, its
leaves' joint offset sets are derived and condensed by the two steps of
`mean_shift` in two passes, pooled LEAVES_PER_CALL leaves a call, then
shifted and merged in order of pooled size, so that the many sets of one
size share one stacked product. A node scores its candidate splits on
features computed candidate-major, PROBE_BLOCK candidate-sample pairs at a
time; a probe reads its frame's foreground crop from the split's flat crop
buffer, and routing reads one probe pair per patch through the same probe
code. That code computes the probe coordinates and the features in float32
and the read index in intp, exact at any buffer size; probes are drawn in
float64 and rounded to float32 at once, so a node scores the probe the
file stores. At test time every patch votes absolute 3D positions for
every joint; per joint the strongest votes are condensed by the same
`mean_shift` into a handful of confidence-weighted proposals. A forest's
joint and mode counts are its trees' leaf arrays'. A tree holds its node
table as the forest file stores it (see `Tree`), so saving writes it as it
is, and a loaded forest's arrays view the file's bytes.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry, workers
from .config import DEFAULTS, ConfigError, ForestConfig, check_setting  # ForestConfig re-exported
from .depth import Frames
# `_dedup` is not called here: perfbench/tracing.py wraps it by this module's name
from .meanshift import INFER_DEDUP_DIVISOR, _dedup, mean_shift, pool_sets, pooled_modes  # noqa: F401
from .proposals import ProposalSet

# the leaves' modes step goes by this name: perfbench/tracing.py times it by it
mean_shift_groups = pooled_modes

MAGIC = b"HFOR"
FORMAT_VERSION = 1
# leaves pooled per `pool_sets` call, 21 joint sets each. A set gets the
# same bits in any call, so this and the two sizes below move no output,
# only time and memory. On the benchmark `train` tree (923 leaves, 92,580
# pooled points; 2-vCPU Xeon VM, BLAS 1 thread) the leaf models traced a
# 5.4 MB peak at 8 leaves a call and 5.7 MB at 16, in the same CPU time.
LEAVES_PER_CALL = 8
# pooled points that `_leaf_models` holds between its two passes (a chunk),
# and at most in one block that `_chunk_modes` shifts and merges. On the
# same tree, against these: 16384 and 4096 traced a 3.6 MB peak in ~1.15x
# the CPU time; the whole tree in one chunk traced 8.3 MB in ~0.9x the CPU
# time, and raised the `train` op's peak RSS by 4 %.
MODES_CHUNK = 32768
MODES_BLOCK = 8192
# candidate-sample pairs whose split features `_features` computes per
# block (~32 bytes a pair of temporaries, so a block stays in L2). The work
# is elementwise, so this moves no output, only time.
PROBE_BLOCK = 16384


class ForestFormatError(ValueError):
    """Corrupt or incompatible forest file; carries the failing byte offset."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class SampleSet:
    """Columnar training samples plus the frames and ground-truth joints
    they index into: 18 bytes a sample and one joint set a frame. The
    frames are read where they are, one flat buffer of foreground crops.

    The pixel and depth columns are float32, as the split features read
    them; they hold integer pixels and uint16 depths, so they are exact.
    Neither a sample's patch centre nor its offsets to the joints are
    stored: `offsets(idx)` back-projects the centre from the pixel and
    depth with the frames' camera, in float64 as the sampling did.
    """

    images: Frames       # n_img frames, one crop buffer
    pixel: np.ndarray    # (n, 2) float32, (u, v)
    depth: np.ndarray    # (n,) float32 mm at the patch centre
    img_idx: np.ndarray  # (n,) int32
    label: np.ndarray    # (n,) int16, nearest joint
    joints: np.ndarray   # (n_img, J, 3) float mm, each frame's ground truth

    def __len__(self):
        return len(self.depth)

    def offsets(self, idx):
        """(len(idx), J, 3) float32 offsets joint - patch centre of samples
        `idx`, rounded once from the float64 difference."""
        centers = self.images.cam.backproject(*self.pixel[idx].T, self.depth[idx])
        return (self.joints[self.img_idx[idx]] - centers[:, None]).astype(np.float32)

    @property
    def table_bytes(self):
        """Bytes of the sample columns and joint sets, the frames' crops not counted."""
        return sum(a.nbytes for a in (self.pixel, self.depth, self.img_idx, self.label,
                                      self.joints))


def _stride_grid(img, stride):
    """The frame's crop on the full frame's stride grid (the pixels whose u
    and v are multiples of `stride`), a view; nonzero is foreground."""
    return img.crop[-img.y0 % stride::stride, -img.x0 % stride::stride]


def _patch_grid(img, stride, rng=None, cap=None):
    """Foreground patches of one frame on the stride grid, row by row.

    `cap` randomly limits the patch count, drawing from `rng`. Returns the
    patch depths (n,) in mm, back-projected centres (n, 3) and (u, v)
    pixels (n, 2).
    """
    grid = _stride_grid(img, stride)
    vs, us = np.nonzero(grid)
    if cap is not None and len(us) > cap:
        sel = np.sort(rng.choice(len(us), size=cap, replace=False))
        us, vs = us[sel], vs[sel]
    depths = grid[vs, us].astype(float)
    vs = vs * stride + (img.y0 + -img.y0 % stride)
    us = us * stride + (img.x0 + -img.x0 % stride)
    centers = img.cam.backproject(us.astype(float), vs.astype(float), depths)
    return depths, centers, np.stack([us, vs], axis=1).astype(float)


def extract_samples(img, gt_joints, stride, rng, cap=None):
    """Training samples from one rendered frame and its ground-truth joints.

    One sample per foreground pixel on the stride grid; the label is the
    joint nearest to the back-projected patch centre, and the offsets
    (`SampleSet.offsets`) point from that centre to every joint. `cap`
    randomly limits samples per image.
    """
    return build_training_set([img], [gt_joints], stride, rng, cap)


def build_training_set(images, gt_joint_list, stride, rng, cap=None):
    """Pooled SampleSet over many frames of one camera.

    Frames as `render_poses` and `read_split` return them are read from
    their crop buffer in place; a list of DepthImages is packed into a
    buffer of its own first. Every frame's joint set is checked before any
    frame is sampled.
    """
    if not len(images):
        raise ValueError("no frames given to build a training set from")
    if len(images) != len(gt_joint_list):
        raise ValueError(f"{len(images)} frames but {len(gt_joint_list)} "
                         "ground-truth joint sets")
    joints = _joint_table(gt_joint_list)
    if not isinstance(images, Frames):
        images = Frames.pack(images, images[0].cam)
    return _sample_table(images, joints, stride, rng, cap)


def _joint_table(gt_joint_list):
    """The frames' ground-truth joint sets as one (n_frames, J, 3) float64
    array. A set that is not (J, 3) with frame 0's J, J at most the hand's
    (as `load_forest` reads it), or that holds a non-finite value, raises a
    ValueError naming its frame."""
    sets = [np.asarray(gt, dtype=float) for gt in gt_joint_list]
    for i, gt in enumerate(sets):
        if gt.ndim != 2 or gt.shape[1:] != (3,) or not 1 <= len(gt) <= geometry.NUM_JOINTS:
            raise ValueError(f"frame {i}: ground-truth joint set has shape {gt.shape}, "
                             f"not (J, 3) with 1 <= J <= {geometry.NUM_JOINTS}")
        if len(gt) != len(sets[0]):
            raise ValueError(f"frame {i}: {len(gt)} ground-truth joints, but frame 0 "
                             f"has {len(sets[0])}")
        if not np.isfinite(gt).all():
            raise ValueError(f"frame {i}: ground-truth joint set holds a non-finite value")
    return np.stack(sets)


def _sample_table(frames, joints, stride, rng, cap):
    """SampleSet of `frames` (frame i's joints joints[i]) as
    `extract_samples` describes it, frame after frame. A count pass sizes
    the columns, and each frame's samples are then written into its rows
    in place."""
    counts = np.array([np.count_nonzero(_stride_grid(img, stride)) for img in frames])
    if cap is not None:
        np.minimum(counts, cap, out=counts)
    ends = np.cumsum(counts)
    n = int(ends[-1])
    samples = SampleSet(
        images=frames,
        pixel=np.empty((n, 2), dtype=np.float32),
        depth=np.empty(n, dtype=np.float32),
        img_idx=np.repeat(np.arange(len(frames), dtype=np.int32), counts),
        label=np.empty(n, dtype=np.int16),
        joints=joints,
    )
    for img, gt, end, count in zip(frames, joints, ends, counts):
        rows = slice(end - count, end)
        depths, centers, pixel = _patch_grid(img, stride, rng, cap)
        samples.pixel[rows], samples.depth[rows] = pixel, depths
        # squared distances to the joints, x, y and z summed in the order a norm sums them
        dist = sum((gt[None, :, a] - centers[:, a, None]) ** 2 for a in range(3))
        samples.label[rows] = dist.argmin(axis=1)
    return samples


def _crop_bounds(frames, img_idx):
    """The crops of frames `img_idx` as a pair: the (4,) + img_idx.shape
    float32 rows u0, u1, v0, v1, and the (2,) + img_idx.shape intp rows w,
    base. A crop spans u0 <= u < u1 and v0 <= v < v1, w is its width, and
    its pixel (u, v) sits at v * w + u + base of the frames' flat buffer.
    The edges are image coordinates, exact in float32."""
    y0, x0, h, w, offset = frames.boxes.T
    edges = np.stack([x0, x0 + w, y0, y0 + h]).astype(np.float32)
    layout = np.stack([w, offset - y0 * w - x0]).astype(np.intp)
    return edges.take(img_idx, axis=1), layout.take(img_idx, axis=1)


def _probe_depth(pixels, bounds, pixel, depth, offset, bg_depth):
    """Depth read by one probe per patch, in float32; a read outside the
    patch's frame crop, on or off the image, or of background reads
    `bg_depth`.

    The probe lands at pixel + offset / depth, computed and rounded in
    float32, and is read by one 1-D gather from the flat crop buffer
    `pixels` at the intp index intp(v) * w + intp(u) + base, which is exact
    at any buffer size; `bounds` is the (edges, layout) pair of
    `_crop_bounds`. A probe outside the crop reads whatever pixel the
    clipped index names, and is then read as background. The arguments
    broadcast against each other.
    """
    (u0, u1, v0, v1), (w, base) = bounds
    # u, v, the mask and the index are each made once and then updated in
    # place: a new array per step took ~9 % longer on a node of 1000 samples
    # and 200 candidates (2-vCPU VM)
    u, v = (np.divide(offset[..., a], depth, dtype=np.float32) for a in (0, 1))
    for a, landed in enumerate((u, v)):
        np.add(pixel[..., a], landed, out=landed, dtype=np.float32)
        np.rint(landed, out=landed)
    inside = u >= u0
    inside &= u < u1
    inside &= v >= v0
    inside &= v < v1
    index = v.astype(np.intp)
    index *= w
    index += base
    index += u.astype(np.intp)
    read = pixels.take(index, mode="clip")
    read *= inside
    out = read.astype(np.float32)
    np.putmask(out, read == 0, bg_depth)
    return out


def _depth_difference(pixels, bounds, pixel, depth, probe_u, probe_v, bg_depth):
    """The split feature: depth at probe u minus depth at probe v, in float32.

    Probe offsets are in px*mm; the pixel displacement is the offset
    divided by the patch depth, so the feature is depth invariant. The
    patches' frames are read from the flat crop buffer `pixels` through
    their `_crop_bounds` pair `bounds`. The arguments broadcast against
    each other: training scores (c, n) candidate-sample pairs, routing one
    probe pair per patch. A feature is a difference of uint16 reads or
    `bg_depth`, so at an integer `bg_depth` it is an integer and exact in
    float32.
    """
    feats = _probe_depth(pixels, bounds, pixel, depth, probe_u, bg_depth)
    feats -= _probe_depth(pixels, bounds, pixel, depth, probe_v, bg_depth)
    return feats


def _features(samples, idx, probe_u, probe_v, bg_depth):
    """(c, n) float32 features of samples `idx` under c candidate (c, 2)
    float32 probe pairs.

    They are computed candidate-major, so that every per-sample column
    (pixel, depth and crop bounds) runs contiguous along a block's rows, a
    block of at most PROBE_BLOCK pairs at a time: the samples of whole
    candidates when they fit, else slices of one candidate's samples.
    """
    n, c = len(idx), len(probe_u)
    edges, layout = _crop_bounds(samples.images, samples.img_idx[idx])
    depth = samples.depth[idx]
    # each coordinate contiguous over the samples
    pixel = np.ascontiguousarray(samples.pixel[idx].T).T
    probe_u, probe_v = probe_u[:, None], probe_v[:, None]
    cols = min(n, PROBE_BLOCK)
    rows = max(1, PROBE_BLOCK // cols)
    feats = np.empty((c, n), dtype=np.float32)
    for lo in range(0, c, rows):
        hi = lo + rows
        for left in range(0, n, cols):
            right = left + cols
            feats[lo:hi, left:right] = _depth_difference(
                samples.images.pixels, (edges[:, left:right], layout[:, left:right]),
                pixel[left:right], depth[left:right], probe_u[lo:hi], probe_v[lo:hi],
                bg_depth)
    return feats


def _gains(left_counts, total_counts):
    """Information gain (nats) of many candidate splits over part labels.

    left_counts (c, J) per-class counts on the left side of each candidate,
    total_counts (J,) at the node, which holds a sample; an empty side
    scores -inf so degenerate splits are always rejected. The entropy takes
    the log of the classes present only: an absent class adds an exact +0.0
    to its row's sum, as p log p -> 0 says.
    """
    # the sizes and entropies of the parent, left and right rows at once (an
    # empty row scores 0); a row's sums do not depend on the stacking
    counts = np.concatenate([total_counts[None, :], left_counts, total_counts - left_counts])
    sizes = counts.sum(axis=1)
    p = counts / np.maximum(sizes, 1)[:, None]
    plogp = np.log(p, out=np.zeros_like(p), where=counts > 0)
    plogp *= p
    h = -plogp.sum(axis=1)
    c = len(left_counts)
    n_l, n_r, h_l, h_r = sizes[1:c + 1], sizes[c + 1:], h[1:c + 1], h[c + 1:]
    gains = h[0] - (n_l * h_l + n_r * h_r) / sizes[0]
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
    support of its mode.

    The leaves go in chunks of about MODES_CHUNK pooled points, each in two
    passes. The first derives the joint offsets of LEAVES_PER_CALL leaves
    by one `SampleSet.offsets` gather, pools their joint sets in one
    `pool_sets` call and keeps only the pooled points and weights. The
    second, `_chunk_modes`, shifts and merges the chunk's sets.
    """
    n_joints = samples.joints.shape[1]
    modes_out = np.zeros((len(leaves), n_joints, cfg.leaf_modes, 3), dtype=np.float32)
    weights_out = np.zeros((len(leaves), n_joints, cfg.leaf_modes), dtype=np.float32)
    chunk, held, first = [], 0, 0
    for lo in range(0, len(leaves), LEAVES_PER_CALL):
        hi = min(lo + LEAVES_PER_CALL, len(leaves))
        block = leaves[lo:hi]
        # (J, the block's samples, 3), split into each leaf's (J, n, 3)
        offsets = np.ascontiguousarray(
            samples.offsets(np.concatenate(block)).transpose(1, 0, 2), dtype=float)
        per_leaf = np.split(offsets, np.cumsum([len(idx) for idx in block])[:-1], axis=1)
        chunk.append(pool_sets([joint_set for leaf in per_leaf for joint_set in leaf],
                               bandwidth=cfg.leaf_bandwidth_mm))
        held += len(chunk[-1][0])
        if held >= MODES_CHUNK or hi == len(leaves):
            points, weights, counts = (np.concatenate(parts) for parts in zip(*chunk))
            chunk, held = [], 0
            _chunk_modes(points, weights, counts, cfg,
                         modes_out[first:hi].reshape(-1, cfg.leaf_modes, 3),
                         weights_out[first:hi].reshape(-1, cfg.leaf_modes))
            first = hi
    return modes_out, weights_out


def _chunk_modes(points, weights, counts, cfg, modes_out, weights_out):
    """The second pass of `_leaf_models` over pooled sets of `counts` points:
    set k's top modes and supports into row k of `modes_out` (S, M, 3) and
    `weights_out` (S, M).

    The sets go in order of size, in blocks of at most MODES_BLOCK pooled
    points (or one set), one `mean_shift_groups` call a block. A block then
    holds few sizes, and the many sets of each go through one stacked
    product (see `meanshift._shift_sets`).
    """
    order = np.argsort(counts, kind="stable")
    starts = np.cumsum(counts) - counts
    done = np.concatenate([[0], np.cumsum(counts[order])])  # points before each set in order
    lo = 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] + MODES_BLOCK, side="right")) - 1)
        sets, sizes = order[lo:hi], counts[order[lo:hi]]
        # each set's rows, from where its points start to where they go in the block
        rows = np.repeat(starts[sets] - (done[lo:hi] - done[lo]), sizes) + np.arange(sizes.sum())
        modes, supports, n_modes = mean_shift_groups(points[rows], weights[rows], sizes,
                                                     bandwidth=cfg.leaf_bandwidth_mm,
                                                     max_iters=cfg.meanshift_iters)
        rank = np.arange(len(supports)) - np.repeat(np.cumsum(n_modes) - n_modes, n_modes)
        top = rank < cfg.leaf_modes
        at = np.repeat(sets, n_modes)[top], rank[top]
        modes_out[at], weights_out[at] = modes[top], supports[top]
        lo = hi


def _links(nodes):
    """The left, right and leaf-id columns of a node table, as int32."""
    return nodes[:, :3].T.astype(np.int32)


@dataclass
class Tree:
    """A grown tree: its node table as the forest file stores it, and its
    leaf models. `nodes` has one little-endian float32 row a node, in
    pre-order: left, right, leaf_id, u0, u1, v0, v1, tau. An internal node
    has its children after it and leaf_id -1; a leaf has children -1, its
    model's index and 0 for the probes (u0, u1), (v0, v1) in px*mm and the
    threshold tau in mm. Indices are exact in float32 below 2**24 nodes (a
    depth of at most 23, or fewer than 2**23 samples). `left`, `right` and
    `leaf_id` are int32 copies of their columns, made once; `probe_u`,
    `probe_v` and `tau` are views of the table."""

    nodes: np.ndarray         # (n_nodes, 8) <f4
    leaf_modes: np.ndarray    # (n_leaves, J, M, 3) float32
    leaf_weights: np.ndarray  # (n_leaves, J, M) float32

    def __post_init__(self):
        self.left, self.right, self.leaf_id = _links(self.nodes)
        self.probe_u, self.probe_v = self.nodes[:, 3:5], self.nodes[:, 5:7]
        self.tau = self.nodes[:, 7]

    @property
    def n_nodes(self):
        return len(self.nodes)

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

    def route(self, frames, img_idx, pixel, depth, bg_depth):
        """Leaf index for every patch, its frame `frames[img_idx]` read from
        the frames' crop buffer; routing is total and deterministic. The
        patch columns are read as float32, the split features' precision."""
        pixel = np.asarray(pixel, dtype=np.float32)
        depth = np.asarray(depth, dtype=np.float32)
        node = np.zeros(len(depth), dtype=np.int64)
        edges, layout = _crop_bounds(frames, img_idx)
        while True:
            act = np.flatnonzero(self.leaf_id[node] < 0)
            if not len(act):
                break
            nd = node[act]
            feats = _depth_difference(frames.pixels, (edges[:, act], layout[:, act]),
                                      pixel[act], depth[act], self.probe_u[nd],
                                      self.probe_v[nd], bg_depth)
            node[act] = np.where(feats < self.tau[nd], self.left[nd], self.right[nd])
        return self.leaf_id[node]


def _best_split(samples, idx, cfg, rng, probe_range, n_joints):
    """The best of `cfg.candidates` random probe triples at a node, as
    (probe_u, probe_v, tau, go_left over idx), or None when no candidate
    separates the node's samples.

    Every node makes the same draws from `rng`, in this order: its
    class-balanced subsample, both probe arrays and the threshold indices.
    A node whose subsample holds one label then stops: each candidate's
    gain would be 0 or -inf, so it is a leaf, and its features are never
    computed.
    """
    sub = _balanced_subsample(samples.label, idx, cfg.node_subsample, rng)
    # rounded to float32 at the draw, so the probes scored are those the file stores
    probe_u, probe_v = (rng.uniform(-probe_range, probe_range, size=(cfg.candidates, 2))
                        .astype(np.float32) for _ in range(2))
    at = rng.integers(0, len(sub), size=cfg.candidates)
    labels = samples.label[sub]
    if (labels == labels[0]).all():
        return None
    feats = _features(samples, sub, probe_u, probe_v, cfg.bg_depth_mm)
    tau = feats[np.arange(cfg.candidates), at]

    # float32 counts are exact below 2**24 samples a node: `_gains` gets the
    # bits of a float64 product
    onehot = np.zeros((len(sub), n_joints), dtype=np.float32)
    onehot[np.arange(len(sub)), labels] = 1.0
    left_counts = (feats < tau[:, None]).astype(np.float32) @ onehot
    gains = _gains(left_counts.astype(float), onehot.sum(axis=0, dtype=float))
    best = int(np.argmax(gains))
    if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
        return None

    if sub is idx:  # the node scored whole: features go pair by pair, so these are its bits
        f_all = feats[best]
    else:
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
    stay reachable. A node whose subsample holds one label makes the same
    draws and becomes a leaf unscored (see `_best_split`), so the tree is
    the one that scoring every node would grow.
    """
    if len(samples) == 0:
        raise ValueError("cannot train a tree on an empty sample set")
    probe_range = cfg.probe_range_px_m * 1000.0  # px*m -> px*mm
    n_joints = samples.joints.shape[1]

    nodes = []   # rows as `Tree` lays them out
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
    return Tree(np.asarray(nodes, dtype="<f4"), *_leaf_models(samples, leaves, cfg))


@dataclass
class Forest:
    """Trees and the background depth they were trained with. The joint
    and mode counts are those of the trees' leaf arrays (tree 0's; every
    tree's must match for `save_forest`)."""

    trees: list
    bg_depth_mm: float = DEFAULTS["forest.bg_depth_mm"]

    @property
    def num_joints(self):
        return self.trees[0].leaf_weights.shape[1]

    @property
    def leaf_modes(self):
        return self.trees[0].leaf_weights.shape[2]

    def stats(self):
        return [{"depth": t.max_depth(), "leaves": t.n_leaves, "nodes": t.n_nodes}
                for t in self.trees]


def train_forest(samples, cfg, rng, threads=1):
    """`cfg.num_trees` trees, each drawing from a stream spawned off `rng`,
    in up to `threads` forked workers that share `samples` copy-on-write."""
    trees = workers.map_ordered(functools.partial(train_tree, samples, cfg),
                                rng.spawn(cfg.num_trees), threads)
    return Forest(trees, bg_depth_mm=cfg.bg_depth_mm)


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
    frames = Frames.pack([img], img.cam)
    scale = (depths / 1000.0) ** 2 if depth_sq_weight else np.ones(len(depths))

    # each tree's leaves gathered once, every joint's modes in float32 and
    # their scaled weights, (patches, J, M, 3) and (patches, J, M)
    reached = []
    for tree in forest.trees:
        leaf = tree.route(frames, img_idx, pixel, depths, forest.bg_depth_mm)
        reached.append((tree.leaf_modes[leaf], tree.leaf_weights[leaf] * scale[:, None, None]))
    votes = {}
    for j in range(forest.num_joints):
        # tree after tree, patch after patch: float64 sums of the float32 leaf
        # modes, with no float64 copy of them
        pj = np.concatenate([centers[:, None] + modes[:, j]
                             for modes, _ in reached]).reshape(-1, 3)
        wj = np.concatenate([weights[:, j] for _, weights in reached]).reshape(-1)
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
    retained = [np.atleast_2d(np.asarray(pos, dtype=float))
                for pos, _ in top_votes(votes, top_n).values()]
    found = mean_shift(retained, None, bandwidth=bandwidth_mm, max_iters=max_iters,
                       dedup_divisor=INFER_DEDUP_DIVISOR)
    return ProposalSet({j: (modes[:k], support[:k])
                        for j, (modes, support) in zip(votes, found) if len(modes)})


def top_votes(votes, m):
    """Each joint's m highest-weight votes of `votes` ({joint: (positions,
    weights)}), in stable `argsort(-w)` order; a joint with m votes or
    fewer keeps its votes in their own order. `proposals_from_votes`
    retains its top_n votes with it, so proposals at any top_n <= m are
    those of the whole set."""
    kept = {}
    for j, (pos, w) in votes.items():
        if len(w) > m:
            order = np.argsort(-w, kind="stable")[:m]
            pos, w = pos[order], w[order]
        kept[j] = (pos, w)
    return kept


# --- serialization ---------------------------------------------------------

def save_forest(path, forest):
    """Versioned little-endian binary dump (magic HFOR): a header, then per
    tree its sizes, its node table as `Tree` holds it and its leaf blocks.
    The header's joint and mode counts are the trees' leaf arrays' own; a
    forest with no trees, or whose trees' leaf arrays differ in shape past
    the leaf count, raises ValueError before a byte is written."""
    if not forest.trees:
        raise ValueError("a forest with no trees cannot be saved")
    shape = forest.trees[0].leaf_weights.shape[1:]
    for t, tree in enumerate(forest.trees):
        if tree.leaf_weights.shape[1:] != shape or \
                tree.leaf_modes.shape != tree.leaf_weights.shape + (3,):
            raise ValueError(f"tree {t}: leaf modes {tree.leaf_modes.shape} and weights "
                             f"{tree.leaf_weights.shape} are not (L, J, M, 3) and (L, J, M) "
                             f"with tree 0's (J, M) = {shape}")
    blob = bytearray(MAGIC)
    blob += struct.pack("<HHIHHd", FORMAT_VERSION, 0, len(forest.trees),
                        forest.num_joints, forest.leaf_modes, forest.bg_depth_mm)
    for tree in forest.trees:
        blob += struct.pack("<II", tree.n_nodes, tree.n_leaves)
        for block in (tree.nodes, tree.leaf_modes, tree.leaf_weights):
            blob += np.asarray(block, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


class _Reader:
    """Reads a file's bytes front to back; every block is a view of them."""

    def __init__(self, data):
        self.data = memoryview(data)
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise ForestFormatError(f"truncated while reading {what}", self.offset)
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape, what):
        """The next `shape` block of little-endian float32, a read-only view."""
        return np.frombuffer(self.take(4 * math.prod(shape), what), dtype="<f4").reshape(shape)


# a node row's fields, the magnitude each must stay below and the rule that
# makes: a link an int32 holds; a probe offset (px*mm) that lands inside
# intp at a 1 mm patch depth, for `_probe_depth`'s index cast; a finite tau
NODE_FIELDS = ("left", "right", "leaf_id", "u0", "u1", "v0", "v1", "tau")
_FIELD_BOUNDS = np.array([2.0 ** 31] * 3 + [2.0 ** 62] * 4 + [np.inf], dtype=np.float32)
_FIELD_RULES = (("an int32 index",) * 3
                + ("a finite offset below 2**62 px*mm in magnitude",) * 4 + ("finite",))


def _check_fields(t, nodes, base):
    """Reject a node table holding a value routing cannot use: a link field
    that is not an integer an int32 holds, a probe offset that is not
    finite or too large for the index cast, or a tau that is not finite."""
    ok = np.abs(nodes) < _FIELD_BOUNDS  # NaN compares False
    integral = nodes == np.trunc(nodes)
    integral[:, 3:] = True  # only the link fields must be integers
    ok &= integral
    if not ok.all():
        k, field = divmod(int(np.argmin(ok)), len(NODE_FIELDS))
        raise ForestFormatError(f"tree {t} node {k}: {NODE_FIELDS[field]} "
                                f"{float(nodes[k, field])!r} is not {_FIELD_RULES[field]}",
                                base + 32 * k + 4 * field)


def _check_leaves(t, modes, weights, base):
    """Reject leaf models whose votes are not numbers: a mode coordinate
    that is not finite, or a weight that is not finite or is negative.
    `base` is the byte offset of the modes block, which the weights block
    follows. A block in range costs a min and a max, which carry any NaN."""
    for block, low, rule, at in ((modes, np.finfo(np.float32).min, "finite", base),
                                 (weights, 0.0, "finite and non-negative", base + modes.nbytes)):
        if low <= block.min(initial=low) and block.max(initial=low) < np.inf:
            continue
        k = int(np.argmin((block >= low) & (block < np.inf)))
        leaf, joint, mode, *axis = np.unravel_index(k, block.shape)
        what = "xyz"[axis[0]] if axis else "weight"
        raise ForestFormatError(f"tree {t} leaf {leaf} joint {joint} mode {mode}: {what} "
                                f"{float(block.flat[k])!r} is not {rule}", at + 4 * k)


def _check_topology(t, tree, base):
    """Reject node tables that Tree.route could not walk to a leaf.

    train_tree writes nodes in pre-order, so every internal node's children
    lie after it and inside the table, which makes routing terminate. Leaf
    rows have no children and use each leaf model exactly once.
    """
    left, right, leaf_id, n_leaves = tree.left, tree.right, tree.leaf_id, tree.n_leaves
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
    """The forest `save_forest` wrote to `path`. Every tree array but the
    int32 link columns is a read-only view of the file's bytes. A file that
    is not such a forest raises ForestFormatError with its byte offset:
    each tree's node fields and leaf blocks are checked as they are read,
    and its topology once it is a `Tree`. The error's message starts with
    `path`."""
    try:
        return _read_forest(_Reader(Path(path).read_bytes()))
    except ForestFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_forest(reader):
    magic = bytes(reader.take(4, "magic"))
    if magic != MAGIC:
        raise ForestFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version, _, n_trees, n_joints, n_modes, bg_depth = reader.unpack("<HHIHHd", "header")
    if version != FORMAT_VERSION:
        raise ForestFormatError(
            f"unsupported forest format version {version}, expected {FORMAT_VERSION}", 4)
    # a header no training run writes: a setting out of its run-config
    # range, or a joint count the hand does not have
    for key, value, offset in (("num_trees", n_trees, 8), ("leaf_modes", n_modes, 14),
                               ("bg_depth_mm", bg_depth, 16)):
        try:
            check_setting(f"forest.{key}", value)
        except ConfigError as exc:
            raise ForestFormatError(f"header {exc}", offset) from None
    if not 1 <= n_joints <= geometry.NUM_JOINTS:
        raise ForestFormatError(
            f"joint count {n_joints} is outside the hand's 1..{geometry.NUM_JOINTS}", 12)
    trees = []
    for t in range(n_trees):
        n_nodes, n_leaves = reader.unpack("<II", f"tree {t} sizes")
        base = reader.offset
        nodes = reader.floats((n_nodes, 8), f"tree {t} nodes")
        _check_fields(t, nodes, base)
        modes = reader.floats((n_leaves, n_joints, n_modes, 3), f"tree {t} leaf modes")
        weights = reader.floats((n_leaves, n_joints, n_modes), f"tree {t} leaf weights")
        _check_leaves(t, modes, weights, base + nodes.nbytes)
        trees.append(Tree(nodes, modes, weights))
        _check_topology(t, trees[-1], base)
    if reader.offset != len(reader.data):
        raise ForestFormatError("trailing bytes after forest payload", reader.offset)
    return Forest(trees, bg_depth_mm=bg_depth)
