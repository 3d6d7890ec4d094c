import gc
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handfit import forest as F
from handfit import geometry, meanshift, synth
from handfit.depth import CameraIntrinsics, DepthImage, Frames, read_pgm, render_depth, write_pgm
from handfit.geometry import PoseParams, forward_kinematics
from handfit.meanshift import mean_shift

from oracles import (build_leaf_per_joint, depth_difference_3index,
                     depth_difference_unblocked, features_unblocked, full_stack,
                     proposals_joint_by_joint, route_unblocked, train_tree_recursive)


@pytest.fixture(scope="module")
def rest_frame(geom, cam):
    pose = PoseParams.rest((0.0, 0.0, 550.0))
    img = render_depth(geom, pose, cam)
    return img, forward_kinematics(geom, pose)


@pytest.fixture(scope="module")
def tiny_forest(geom, cam, rest_frame):
    """Single-image forest, enough to memorize the frame it saw."""
    img, gt = rest_frame
    rng = np.random.default_rng(0)
    samples = F.build_training_set([img], [gt], stride=2, rng=rng, cap=4000)
    cfg = F.ForestConfig(num_trees=2, max_depth=12, min_samples=10,
                         node_subsample=400, candidates=60)
    return F.train_forest(samples, cfg, np.random.default_rng(1)), samples


def test_extract_zero_offset_on_joint(cam, rest_frame):
    # craft ground truth so one joint coincides exactly with a patch centre
    img, _ = rest_frame
    vs, us = np.nonzero(img.depth)
    u, v = int(us[len(us) // 2]), int(vs[len(us) // 2])
    center = cam.backproject(np.array([float(u)]), np.array([float(v)]),
                             np.array([float(img.depth[v, u])]))[0]
    gt = np.tile(center + np.array([500.0, 0, 0]), (21, 1))
    gt[7] = center  # joint 7 sits exactly on the patch centre
    samples = F.extract_samples(img, gt, stride=1, rng=np.random.default_rng(0))
    hit = (samples.pixel == [u, v]).all(axis=1)
    assert hit.sum() == 1
    idx = int(np.nonzero(hit)[0][0])
    assert samples.label[idx] == 7
    np.testing.assert_allclose(samples.offsets([idx])[0, 7], [0, 0, 0], atol=1e-6)


def test_extract_stride_counting(cam, rest_frame):
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=cam.width,
                                rng=np.random.default_rng(0))
    assert len(samples) <= cam.height


def test_labels_match_brute_force_nearest(cam, rest_frame):
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=4, rng=np.random.default_rng(0))
    # independent nearest-joint check over every extracted pixel
    for i in range(len(samples)):
        u, v = samples.pixel[i]
        z = samples.depth[i]
        center = cam.backproject(np.array([u]), np.array([v]), np.array([z]))[0]
        dists = [np.linalg.norm(gt[j] - center) for j in range(21)]
        assert samples.label[i] == int(np.argmin(dists))
    assert len(np.unique(samples.label)) >= 2


SAMPLE_FIELDS = ("pixel", "depth", "img_idx", "label", "centers", "joints")


@pytest.mark.parametrize("jitter_mm, stride, cap", [(0.0, 3, None), (3.0, 2, 40)],
                         ids=["clean", "jittered-capped"])
def test_training_set_reads_the_frame_stack_in_place(tmp_path, geom, limits, cam,
                                                     jitter_mm, stride, cap):
    poses = synth.generate_training_poses(limits=limits, per_finger=1, num_views=4)
    images = synth.render_poses(poses, geom, cam, jitter_mm=jitter_mm,
                                rng=np.random.default_rng(0))
    synth.write_split(tmp_path, poses, images)
    _, read = synth.read_split(tmp_path, cam)
    gts = [forward_kinematics(geom, p) for p in poses]

    def build(frames, joints=gts):
        return F.build_training_set(frames, joints, stride, np.random.default_rng(1), cap=cap)

    # a list of frames, here whole-image crops, is packed into a buffer of its own
    copies = build([DepthImage(np.array(img.depth), cam) for img in images])
    assert not np.shares_memory(copies.images.pixels, images.pixels)
    grids = [img.depth.tobytes() for img in copies.images]
    assert grids == [img.depth.tobytes() for img in images]
    for frames in (images, read):
        samples = build(frames)
        assert samples.images.pixels is frames.pixels  # read in place
        assert not samples.images.pixels.flags.writeable
        for name in SAMPLE_FIELDS:
            got, want = getattr(samples, name), getattr(copies, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    # out of order, the split's frames are packed into a buffer of their own
    backwards = build([images[i] for i in reversed(range(len(images)))], gts[::-1])
    assert not np.shares_memory(backwards.images.pixels, images.pixels)
    assert [img.depth.tobytes() for img in backwards.images] == grids[::-1]

    # the columns keep the dtypes SampleSet documents
    assert copies.images.pixels.dtype == np.uint16
    assert [getattr(copies, name).dtype for name in SAMPLE_FIELDS] == [
        np.float64, np.float64, np.int32, np.int16, np.float64, np.float64]
    # the derived offsets are each frame's (gt - centre) table rounded to
    # float32, byte for byte, for unsorted and repeated samples; the centre
    # is back-projected with the frame's own camera
    table = np.concatenate([
        (gts[i] - img.cam.backproject(*copies.pixel[rows].T, copies.depth[rows])[:, None])
        .astype(np.float32)
        for i, img in enumerate(images) for rows in [copies.img_idx == i]])
    idx = np.random.default_rng(2).integers(0, len(copies), 3 * len(copies))
    assert len(np.unique(idx)) < len(idx) and (np.diff(idx) < 0).any()
    for index in (idx, np.arange(len(copies))):
        got = copies.offsets(index)
        assert got.dtype == np.float32 and got.tobytes() == table[index].tobytes()
    # the pooled table is the per-frame sets one after another
    rng = np.random.default_rng(1)
    parts = [F.extract_samples(img, gt, stride, rng, cap=cap) for img, gt in zip(images, gts)]
    if cap is not None:
        assert all(len(part) == cap for part in parts)
    for name in SAMPLE_FIELDS:
        joined = np.concatenate([getattr(part, name) for part in parts])
        if name == "img_idx":
            joined += np.repeat(np.arange(len(parts), dtype=np.int32),
                                [len(part) for part in parts])
        assert np.array_equal(getattr(copies, name), joined), name


def test_training_set_needs_frames_with_one_joint_set_each(rest_frame):
    img, gt = rest_frame
    with pytest.raises(ValueError, match="no frames given"):
        F.build_training_set([], [], stride=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="2 frames but 1 ground-truth joint sets"):
        F.build_training_set([img, img], [gt], stride=4, rng=np.random.default_rng(0))


@pytest.mark.parametrize("case, message", [
    ("nan", "frame 1: ground-truth joint set holds a non-finite value"),
    ("inf", "frame 1: ground-truth joint set holds a non-finite value"),
    ("20_joints", "frame 1: 20 ground-truth joints, but frame 0 has 21"),
    ("2d_joints", r"frame 1: ground-truth joint set has shape \(21, 2\), not \(J, 3\)"),
    ("no_joints", r"frame 0: ground-truth joint set has shape \(0, 3\), not \(J, 3\)"),
    ("22_joints", r"frame 0: .* shape \(22, 3\), not \(J, 3\) with 1 <= J <= 21"),
])
def test_training_set_rejects_a_bad_joint_set_before_sampling(rest_frame, monkeypatch,
                                                             case, message):
    # a NaN joint used to train through the whole split search and fail at
    # the leaf stage in mean_shift; a 20-joint set failed in numpy's
    # broadcast into the 21-joint offset table
    img, gt = rest_frame
    gts = [gt, gt.copy(), gt]
    if case == "nan":
        gts[1][4, 2] = np.nan
    elif case == "inf":
        gts[1][0, 0] = -np.inf
    elif case == "20_joints":
        gts[1] = gt[:20]
    elif case == "2d_joints":
        gts[1] = gt[:, :2]
    elif case == "no_joints":
        gts[0] = gt[:0]
    else:  # used to train and save a forest that load_forest refuses
        gts = [np.vstack([g, g[:1]]) for g in gts]
    sampled = []
    monkeypatch.setattr(F, "_patch_grid", lambda *args: sampled.append(args))
    with pytest.raises(ValueError, match=message):
        F.build_training_set([img] * 3, gts, stride=4, rng=np.random.default_rng(0))
    assert not sampled


def test_training_set_allocates_no_per_sample_joint_table(geom, limits, cam):
    # the traced peak of building a multi-frame set is its 54-byte-a-sample
    # table plus one frame's temporaries: a (samples, J, 3) table of any
    # dtype would add at least 252 bytes a sample, several frames' worth
    poses = synth.generate_training_poses(limits=limits, per_finger=2, num_views=4)
    images = synth.render_poses(poses, geom, cam, rng=np.random.default_rng(0))
    gts = [forward_kinematics(geom, p) for p in poses]
    # one frame's temporaries, about 0.7 kB a sample: the (count, J)
    # float64 squared distances and their terms, the stride grid's
    # foreground indices and the patch columns
    frame_slack = 1024 * max(np.count_nonzero(img.depth[::2, ::2]) for img in images)
    tracemalloc.start()
    try:
        samples = F.build_training_set(images, gts, stride=2, rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.images is images  # no packed copy
    # 54 bytes a sample (pixel, depth, image index, label, patch centre) and
    # one float64 joint set a frame
    table = len(samples) * (16 + 8 + 4 + 2 + 24) + len(images) * 21 * 3 * 8
    assert samples.table_bytes == table
    assert len(samples) * 21 * 3 * 4 > 3 * frame_slack
    assert peak <= table + frame_slack + 65536, (peak, table)


def test_split_score_arithmetic():
    # _gains scores candidate splits from per-class counts: left side of
    # each candidate (c, J) against the node's totals (J,)
    def gain(left, total):
        return F._gains(np.array([left], dtype=float), np.array(total, dtype=float))[0]

    # perfect separation of a two-class node recovers the parent entropy
    parent_entropy = -(5 / 8 * np.log(5 / 8) + 3 / 8 * np.log(3 / 8))
    assert gain([5, 0], [5, 3]) == pytest.approx(parent_entropy, abs=1e-12)

    # identical class mixtures on both sides gain nothing
    assert gain([2, 2], [4, 4]) == pytest.approx(0.0, abs=1e-12)

    # 3-class node isolating one class: ln(3) - (2/3) ln(2), frozen from
    # direct evaluation of the entropy formula
    assert gain([0, 0, 4], [4, 4, 4]) == pytest.approx(0.6365141682948129,
                                                       abs=1e-12)
    assert gain([0, 0], [2, 2]) == -np.inf
    assert gain([2, 2], [2, 2]) == -np.inf


def test_training_samples_route_to_their_leaf(cam, rest_frame, monkeypatch):
    # training splits and test-time routing must evaluate one feature: every
    # training sample routes back to the leaf that was built from it
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=2, rng=np.random.default_rng(0))
    built = []
    build_leaf = F.build_leaf

    def recording(samples, idx, cfg, rng):
        built.append(idx)
        return build_leaf(samples, idx, cfg, rng)

    monkeypatch.setattr(F, "build_leaf", recording)
    cfg = F.ForestConfig(max_depth=10, min_samples=10, node_subsample=300,
                         candidates=40)
    tree = F.train_tree(samples, cfg, np.random.default_rng(3))
    assert len(built) == tree.n_leaves > 10
    leaf = tree.route(samples.images, samples.img_idx, samples.pixel,
                      samples.depth, cfg.bg_depth_mm)
    expected = np.empty(len(samples), dtype=int)
    for leaf_id, idx in enumerate(built):
        expected[idx] = leaf_id
    assert sorted(np.concatenate(built).tolist()) == list(range(len(samples)))
    assert np.array_equal(leaf, expected)


def _leaf_model(samples, idx, cfg, rng):
    """One leaf's (modes (J, M, 3), weights (J, M)) as `train_tree` builds it."""
    modes, weights = F._leaf_models(samples, [F.build_leaf(samples, idx, cfg, rng)], cfg)
    return modes[0], weights[0]


def test_build_leaf_single_and_duplicate_samples(geom, cam, rest_frame):
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=3, rng=np.random.default_rng(0))
    cfg = F.ForestConfig()
    modes, weights = _leaf_model(samples, np.array([0]), cfg,
                                 np.random.default_rng(0))
    for j in range(21):
        np.testing.assert_allclose(modes[j, 0], samples.offsets([0])[0, j], atol=1e-4)
        assert weights[j, 0] == pytest.approx(1.0)
        assert weights[j, 1] == 0.0
    # two identical samples: one mode, weight 2
    dup = F.SampleSet(samples.images,
                      np.repeat(samples.pixel[:1], 2, axis=0),
                      np.repeat(samples.depth[:1], 2),
                      np.zeros(2, dtype=np.int32),
                      np.repeat(samples.label[:1], 2),
                      np.repeat(samples.centers[:1], 2, axis=0), samples.joints)
    modes, weights = _leaf_model(dup, np.array([0, 1]), cfg,
                                 np.random.default_rng(0))
    assert weights[0, 0] == pytest.approx(2.0)
    assert weights[0, 1] == 0.0


def test_build_leaf_two_clusters_weighted_mean_oracle(cam, rest_frame):
    img, gt = rest_frame
    base = F.extract_samples(img, gt, stride=3, rng=np.random.default_rng(0))
    rng = np.random.default_rng(4)
    n = 30
    offs = np.zeros((n, 21, 3), dtype=np.float32)
    cluster_a = rng.normal((0, 0, 0), 1.0, size=(20, 3))
    cluster_b = rng.normal((120, 0, 0), 1.0, size=(10, 3))
    offs[:20, 5] = cluster_a
    offs[20:, 5] = cluster_b
    crafted = _leaf_samples(base, offs)
    cfg = F.ForestConfig(leaf_bandwidth_mm=20.0)
    modes, weights = _leaf_model(crafted, np.arange(n), cfg,
                                 np.random.default_rng(0))
    np.testing.assert_allclose(modes[5, 0], cluster_a.mean(axis=0), atol=0.5)
    np.testing.assert_allclose(modes[5, 1], cluster_b.mean(axis=0), atol=0.5)
    assert weights[5, 0] == pytest.approx(20, abs=0.5)
    assert weights[5, 1] == pytest.approx(10, abs=0.5)


def test_train_tree_degenerate_cases(cam, rest_frame):
    img, gt = rest_frame
    rng = np.random.default_rng(0)
    samples = F.extract_samples(img, gt, stride=3, rng=rng, cap=200)
    # min_samples above the sample count: the root is a leaf
    cfg = F.ForestConfig(min_samples=len(samples) + 1)
    tree = F.train_tree(samples, cfg, np.random.default_rng(0))
    assert tree.n_nodes == 1 and tree.n_leaves == 1
    with pytest.raises(ValueError):
        F.train_tree(samples.__class__(samples.images,
                                       samples.pixel[:0], samples.depth[:0],
                                       samples.img_idx[:0], samples.label[:0],
                                       samples.centers[:0], samples.joints),
                     cfg, np.random.default_rng(0))

    # identical appearance everywhere: no split can gain, root stays a leaf
    flat = F.SampleSet(
        images=Frames.pack([DepthImage(np.full((10, 10), 500, dtype=np.uint16), cam)], cam),
        pixel=np.tile(np.array([[5.0, 5.0]]), (50, 1)),
        depth=np.full(50, 500.0), img_idx=np.zeros(50, dtype=np.int32),
        label=np.zeros(50, dtype=np.int16), centers=np.zeros((50, 3)),
        joints=np.zeros((1, 21, 3)))
    tree = F.train_tree(flat, F.ForestConfig(min_samples=10), np.random.default_rng(0))
    assert tree.n_leaves == 1


def test_train_tree_deterministic(cam, rest_frame):
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=3, rng=np.random.default_rng(0))
    cfg = F.ForestConfig(num_trees=1, max_depth=8, min_samples=20,
                         node_subsample=200, candidates=40)
    t1 = F.train_tree(samples, cfg, np.random.default_rng(9))
    t2 = F.train_tree(samples, cfg, np.random.default_rng(9))
    assert np.array_equal(t1.left, t2.left)
    assert np.array_equal(t1.tau, t2.tau)
    assert np.array_equal(t1.leaf_modes, t2.leaf_modes)


def test_train_tree_equals_recursive_oracle(cam, rest_frame):
    # the work stack must give the recursion's node ids, rng draws and leaves
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=3, rng=np.random.default_rng(0))
    cfg = F.ForestConfig(max_depth=9, min_samples=15, node_subsample=200,
                         candidates=30, leaf_cap=40)
    tree = F.train_tree(samples, cfg, np.random.default_rng(5))
    nodes, leaf_modes, leaf_weights = train_tree_recursive(
        samples, cfg, np.random.default_rng(5))
    assert tree.n_leaves > 20 and tree.max_depth() > 5
    np.testing.assert_array_equal(tree.left, nodes[:, 0].astype(np.int32))
    np.testing.assert_array_equal(tree.right, nodes[:, 1].astype(np.int32))
    np.testing.assert_array_equal(tree.leaf_id, nodes[:, 2].astype(np.int32))
    assert tree.probe_u.tobytes() == nodes[:, 3:5].astype(np.float32).tobytes()
    assert tree.probe_v.tobytes() == nodes[:, 5:7].astype(np.float32).tobytes()
    assert tree.tau.tobytes() == nodes[:, 7].astype(np.float32).tobytes()
    assert tree.leaf_modes.tobytes() == leaf_modes.tobytes()
    assert tree.leaf_weights.tobytes() == leaf_weights.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_train_forest_frees_samples_when_caller_drops_them(rest_frame, threads):
    # with the cyclic collector off, nothing train_forest leaves behind may
    # keep the sample set (frames and sample table) alive
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=4, rng=np.random.default_rng(0))
    alive = weakref.ref(samples)
    cfg = F.ForestConfig(num_trees=2, max_depth=4, min_samples=10,
                         node_subsample=100, candidates=10)
    gc.disable()
    try:
        model = F.train_forest(samples, cfg, np.random.default_rng(0),
                               threads=threads)
        del samples
        freed = alive() is None
    finally:
        gc.enable()
    assert freed
    assert all(t.n_leaves > 1 for t in model.trees)


def _probe_layout(images, layout, rng):
    """Patches and probes that land off every edge of the (n_img, 6, 8)
    stack, on its last row and column and on zero-depth pixels."""
    n_img, h, w = images.shape
    m = 400
    pixel = np.column_stack([rng.integers(0, w, m), rng.integers(0, h, m)]).astype(float)
    depth = rng.uniform(200.0, 900.0, m)
    img_idx = rng.integers(0, n_img, m).astype(np.int32)
    # displacements of up to 4 px past the image, some of them exact
    # half-pixel ties and exact landings on the last row and column
    shift = rng.uniform(-w - 4, w + 4, (m, 2))
    shift[:40] = np.round(shift[:40]) + 0.5
    shift[40:60] = np.array([w - 1, h - 1]) - pixel[40:60]
    shift[60:80, 0] = -pixel[60:80, 0] - 1
    shift[80:100, 1] = h - pixel[80:100, 1]
    probe_u = (shift * depth[:, None]).astype(np.float32)
    probe_v = rng.uniform(-3000.0, 3000.0, (m, 2)).astype(np.float32)
    if layout == "route":
        return img_idx.astype(np.int64), pixel, depth, probe_u, probe_v
    # training: c candidates (c, 1, 2) in float64 against n samples (1, n)
    return (img_idx[None], pixel[None], depth[None],
            probe_u[:50, None].astype(float), probe_v[:50, None].astype(float))


@pytest.mark.parametrize("layout", ["route", "training"])
@pytest.mark.parametrize("n_img", [1, 3])
def test_depth_difference_equals_three_index_oracle(layout, n_img):
    rng = np.random.default_rng(n_img)
    images = rng.integers(300, 900, (n_img, 6, 8)).astype(np.uint16)
    images[rng.random(images.shape) < 0.3] = 0  # background inside the image
    images[0, :2] = 0                           # frame 0 cropped below row 2
    images[:, -1, -1] = 777                     # last row and column read
    cam = CameraIntrinsics(fx=10.0, fy=10.0, cx=4.0, cy=3.0, width=8, height=6)
    frames = Frames.pack([DepthImage.from_grid(grid, cam) for grid in images], cam)
    assert frames.boxes[0, 0] == 2 and np.array_equal(full_stack(frames), images)
    img_idx, *args = _probe_layout(images, layout, rng)
    got = F._depth_difference(frames.pixels, F._crop_bounds(frames, img_idx), *args, 10000.0)
    args = (img_idx, *args)
    want = depth_difference_3index(images, *args, 10000.0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # every kind of read happened: off each edge, background, last cell
    img_idx, pixel, depth, probe_u, _ = args
    landed = np.rint(pixel + probe_u / depth[..., None])
    u, v = landed[..., 0], landed[..., 1]
    assert (u < 0).any() and (u >= 8).any() and (v < 0).any() and (v >= 6).any()
    inside = (u >= 0) & (u < 8) & (v >= 0) & (v < 6)
    ui, vi = u[inside].astype(int), v[inside].astype(int)
    hit = images[np.broadcast_to(img_idx, u.shape)[inside], vi, ui]
    assert (hit == 0).any() and ((ui == 7) & (vi == 5)).any()


def test_crop_probes_equal_full_frame_oracle(geom, cam):
    # frames kept as crops read what their full grids read, bit for bit:
    # probes inside a crop, in the image outside it and off the image
    poses = [PoseParams.rest((0.0, 0.0, 550.0)), PoseParams.rest((-190.0, 30.0, 450.0)),
             PoseParams.rest((200.0, -200.0, 450.0))]
    frames = synth.render_poses(poses, geom, cam)
    y0, x0, h, w, _ = frames.boxes.T
    assert ((y0 == 0) | (x0 == 0) | (y0 + h == cam.height) | (x0 + w == cam.width)).sum() == 2
    samples = F.build_training_set(frames, [forward_kinematics(geom, p) for p in poses],
                                   stride=3, rng=np.random.default_rng(0))
    images = full_stack(frames)
    rng = np.random.default_rng(5)
    n = len(samples)
    box = frames.boxes[samples.img_idx]
    in_crop = np.column_stack([box[:, 1] + rng.integers(0, box[:, 3]),
                               box[:, 0] + rng.integers(0, box[:, 2])])
    in_image = np.column_stack([rng.integers(0, cam.width, n), rng.integers(0, cam.height, n)])
    off_image = in_image + rng.choice([-1, 1], (n, 2)) * [cam.width, cam.height]
    # and every pixel just outside each crop's edges, from one patch of its frame
    edges, first = [], np.searchsorted(samples.img_idx, np.arange(len(frames)))
    for (y0, x0, h, w, _), s in zip(frames.boxes, first):
        rows, cols = np.arange(y0, y0 + h), np.arange(x0, x0 + w)
        ring = np.concatenate([np.column_stack([np.full(h, x), rows]) for x in (x0 - 1, x0 + w)]
                              + [np.column_stack([cols, np.full(w, y)]) for y in (y0 - 1, y0 + h)])
        edges.append(np.column_stack([ring, np.full(len(ring), s)]))
    edges = np.concatenate(edges)
    sample = np.concatenate([np.tile(np.arange(n), 3), edges[:, 2]])
    targets = np.concatenate([in_crop, in_image, off_image, edges[:, :2]]).astype(float)
    targets += rng.uniform(-0.45, 0.45, targets.shape)
    img_idx, pixel, depth = samples.img_idx[sample], samples.pixel[sample], samples.depth[sample]
    probe_u = (targets - pixel) * depth[:, None]
    probe_v = probe_u[rng.permutation(len(sample))]
    got = F._depth_difference(frames.pixels, F._crop_bounds(frames, img_idx), pixel, depth,
                              probe_u, probe_v, 10000.0)
    want = depth_difference_3index(images, img_idx, pixel, depth, probe_u, probe_v, 10000.0)
    assert got.tobytes() == want.tobytes()
    # every kind of landing happened, on foreground and background alike
    u, v = np.rint(pixel + probe_u / depth[:, None]).T
    box = frames.boxes[img_idx]
    crop = (u >= box[:, 1]) & (u < box[:, 1] + box[:, 3]) & (v >= box[:, 0]) & (v < box[:, 0] + box[:, 2])
    image = (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    fg = np.zeros_like(crop)
    fg[image] = images[img_idx[image], v[image].astype(int), u[image].astype(int)] > 0
    assert (crop & fg).any() and (crop & ~fg).any()
    assert (image & ~crop).any() and (~image).any()
    # routing reads crops as the full-frame reference reads grids
    tree = F.train_tree(samples, F.ForestConfig(max_depth=8, min_samples=10,
                                                node_subsample=200, candidates=30),
                        np.random.default_rng(2))
    args = (samples.img_idx, samples.pixel, samples.depth, 10000.0)
    leaf = tree.route(frames, *args)
    assert np.array_equal(leaf, route_unblocked(tree, images, *args))
    assert len(np.unique(leaf)) == tree.n_leaves > 10


def test_all_background_pgm_reads_as_an_empty_crop(tmp_path, cam, tiny_forest, rest_frame):
    write_pgm(tmp_path / "blank.pgm", DepthImage(np.zeros((5, 7), dtype=np.uint16), cam, 3, 4))
    blank = read_pgm(tmp_path / "blank.pgm", cam)
    assert blank.crop.shape == (0, 0) and not blank.depth.any()
    assert len(F.extract_samples(blank, rest_frame[1], stride=2,
                                 rng=np.random.default_rng(0))) == 0
    assert F.accumulate_votes(tiny_forest[0], blank) == {}
    frames = Frames.pack([blank, rest_frame[0], blank], cam)
    assert frames.nbytes == rest_frame[0].crop.nbytes
    assert frames[2].crop.shape == (0, 0)
    assert np.array_equal(frames[1].depth, rest_frame[0].depth)


@pytest.fixture(scope="module")
def wide_samples(geom, cam):
    """Samples of two frames, one of them shifted towards the image corner,
    so that wide probes land off every edge and on background."""
    poses = [PoseParams.rest((0.0, 0.0, 550.0)), PoseParams.rest((-60.0, -50.0, 450.0))]
    images = [render_depth(geom, p, cam) for p in poses]
    return F.build_training_set(images, [forward_kinematics(geom, p) for p in poses],
                                stride=2, rng=np.random.default_rng(0))


def _assert_every_read_kind(samples, idx, probe_u):
    """Some probe landed off each image edge and some read background."""
    landed = np.rint(samples.pixel[idx][None] + probe_u[:, None] / samples.depth[idx][None, :, None])
    u, v = landed[..., 0], landed[..., 1]
    images = full_stack(samples.images)
    h, w = images.shape[1:]
    assert (u < 0).any() and (u >= w).any() and (v < 0).any() and (v >= h).any()
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    img = np.broadcast_to(samples.img_idx[idx][None], u.shape)[inside]
    assert (images[img, v[inside].astype(int), u[inside].astype(int)] == 0).any()


@pytest.mark.parametrize("n, c, block", [
    (1, 50, None),      # one sample
    (150, 60, None),    # below one block
    (1001, 37, 100),    # slices of 100 of one candidate's samples, the last ragged
    (None, 200, None),  # every sample: many blocks at the default size
    (333, 37, 16),      # each candidate's samples in 20 slices of 16 and one of 13
    (1001, 1, 100),     # one candidate, as a node's best split is applied
])
def test_features_equal_unblocked_oracle(wide_samples, monkeypatch, n, c, block):
    # blocked, candidate-major features in reused buffers must give the bits
    # of one allocating (c, n) pass, whatever the block bounds
    samples = wide_samples
    if block is not None:
        monkeypatch.setattr(F, "PROBE_BLOCK", block)
    rng = np.random.default_rng(c)
    n = len(samples) if n is None else n
    idx = np.sort(rng.choice(len(samples), n, replace=False))
    probe_u = rng.uniform(-120000.0, 120000.0, (c, 2))
    probe_v = rng.uniform(-120000.0, 120000.0, (c, 2))
    got = F._features(samples, idx, probe_u, probe_v, 10000.0)
    want = features_unblocked(samples, idx, probe_u, probe_v, 10000.0)
    assert got.shape == want.shape == (c, n) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert (n * c > F.PROBE_BLOCK) == (block is not None or n == len(samples))
    if n > 1 and c > 1:
        _assert_every_read_kind(samples, idx, np.concatenate([probe_u, probe_v]))


def test_route_equals_unblocked_oracle(wide_samples):
    # routing reads one probe pair per patch through the same probe code:
    # the bits of the features and the leaves match the allocating form
    samples = wide_samples
    cfg = F.ForestConfig(max_depth=8, min_samples=10, node_subsample=200,
                         candidates=30)
    tree = F.train_tree(samples, cfg, np.random.default_rng(4))
    args = (samples.img_idx, samples.pixel, samples.depth)
    images = full_stack(samples.images)
    leaf = tree.route(samples.images, *args, cfg.bg_depth_mm)
    np.testing.assert_array_equal(leaf, route_unblocked(tree, images, *args, cfg.bg_depth_mm))
    assert len(np.unique(leaf)) == tree.n_leaves > 10
    node = np.random.default_rng(1).integers(0, tree.n_nodes, len(samples))
    got = F._depth_difference(samples.images.pixels,
                              F._crop_bounds(samples.images, samples.img_idx), *args[1:],
                              tree.probe_u[node], tree.probe_v[node], cfg.bg_depth_mm)
    want = depth_difference_unblocked(images, *args, tree.probe_u[node], tree.probe_v[node],
                                      cfg.bg_depth_mm)
    assert got.tobytes() == want.tobytes()


def test_train_tree_with_blocked_root_equals_recursive_unblocked_oracle(wide_samples,
                                                                         monkeypatch):
    # a root whose candidate features and best split span many blocks: the
    # tree equals the recursion's computed with the allocating features
    samples = wide_samples
    cfg = F.ForestConfig(max_depth=12, min_samples=15, node_subsample=400,
                         candidates=50, leaf_cap=40)
    monkeypatch.setattr(F, "PROBE_BLOCK", 128)
    assert len(samples) > cfg.node_subsample and cfg.node_subsample * cfg.candidates > 100 * 128
    tree = F.train_tree(samples, cfg, np.random.default_rng(6))
    monkeypatch.setattr(F, "_features", features_unblocked)
    nodes, leaf_modes, leaf_weights = train_tree_recursive(samples, cfg,
                                                           np.random.default_rng(6))
    assert tree.n_leaves > 20 and tree.max_depth() > 6
    np.testing.assert_array_equal(tree.left, nodes[:, 0].astype(np.int32))
    np.testing.assert_array_equal(tree.right, nodes[:, 1].astype(np.int32))
    assert tree.probe_u.tobytes() == nodes[:, 3:5].astype(np.float32).tobytes()
    assert tree.probe_v.tobytes() == nodes[:, 5:7].astype(np.float32).tobytes()
    assert tree.tau.tobytes() == nodes[:, 7].astype(np.float32).tobytes()
    assert tree.leaf_modes.tobytes() == leaf_modes.tobytes()
    assert tree.leaf_weights.tobytes() == leaf_weights.tobytes()


def _leaf_samples(base, offsets):
    """Samples whose derived offsets are `offsets` (n, 21, 3) rounded to
    float32: sample i is the one sample of frame i, its centre at zero."""
    n = len(offsets)
    return F.SampleSet(Frames(base.images.pixels, np.repeat(base.images.boxes[:1], n, axis=0),
                              base.images.cam),
                       np.tile(base.pixel[:1], (n, 1)),
                       np.full(n, base.depth[0]), np.arange(n, dtype=np.int32),
                       np.zeros(n, dtype=np.int16), np.zeros((n, 3)),
                       np.asarray(offsets, dtype=float))


@pytest.mark.parametrize("case", ["one_sample", "all_duplicates", "above_leaf_cap",
                                  "no_pooling", "some_joints_pool"])
def test_build_leaf_equals_per_joint_oracle(rest_frame, case):
    # a leaf's 21 joint sets in one mean_shift call must give the bytes of
    # one mean-shift per joint
    img, gt = rest_frame
    base = F.extract_samples(img, gt, stride=2, rng=np.random.default_rng(0))
    rng = np.random.default_rng(7)
    cfg = F.ForestConfig()
    if case == "one_sample":
        samples, idx = base, np.array([11])
    elif case == "all_duplicates":
        samples = _leaf_samples(base, np.repeat(base.offsets([3]), 40, axis=0))
        idx = np.arange(40)
    elif case == "above_leaf_cap":
        samples, idx = base, np.arange(cfg.leaf_cap + 150)
    elif case == "no_pooling":
        samples = _leaf_samples(base, rng.uniform(-300, 300, (60, 21, 3)))
        idx = np.arange(60)
    else:
        offs = rng.uniform(-300, 300, (60, 21, 3))
        offs[:, :9] = np.round(offs[:, :9] / 100) * 100  # coarse: pools
        samples, idx = _leaf_samples(base, offs), np.arange(60)
    assert len(samples) >= len(idx)

    drawn = F.build_leaf(samples, idx, cfg, np.random.default_rng(3))
    if case == "above_leaf_cap":
        want_idx = np.sort(np.random.default_rng(3).choice(idx, cfg.leaf_cap, replace=False))
        np.testing.assert_array_equal(drawn, want_idx)
    else:
        assert drawn is idx
    got = _leaf_model(samples, idx, cfg, np.random.default_rng(3))
    want = build_leaf_per_joint(samples, drawn, cfg)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()

    if case in ("one_sample", "all_duplicates"):  # one mode holding every sample
        assert (got[1][:, 0] == len(idx)).all() and (got[1][:, 1] == 0).all()


def test_leaf_models_of_many_calls_equal_per_joint_oracle(rest_frame, monkeypatch):
    # a tree with more leaves than one mean_shift call holds: every leaf
    # gets the bytes of one mean-shift per joint, and calls of one leaf
    # give the same tree
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=2, rng=np.random.default_rng(0))
    cfg = F.ForestConfig(max_depth=10, min_samples=10, node_subsample=300,
                         candidates=40, leaf_cap=60)
    built = []
    build_leaf = F.build_leaf

    def recording(samples, idx, cfg, rng):
        built.append(build_leaf(samples, idx, cfg, rng))
        return built[-1]

    monkeypatch.setattr(F, "build_leaf", recording)
    tree = F.train_tree(samples, cfg, np.random.default_rng(3))
    assert tree.n_leaves == len(built) > 2 * F.LEAVES_PER_CALL
    assert max(len(idx) for idx in built) == cfg.leaf_cap
    for leaf, idx in enumerate(built):
        modes, weights = build_leaf_per_joint(samples, idx, cfg)
        assert tree.leaf_modes[leaf].tobytes() == modes.tobytes()
        assert tree.leaf_weights[leaf].tobytes() == weights.tobytes()

    monkeypatch.setattr(F, "LEAVES_PER_CALL", 1)
    one = F.train_tree(samples, cfg, np.random.default_rng(3))
    assert one.leaf_modes.tobytes() == tree.leaf_modes.tobytes()
    assert one.leaf_weights.tobytes() == tree.leaf_weights.tobytes()
    assert one.tau.tobytes() == tree.tau.tobytes()


@pytest.mark.parametrize("chunk, block", [(10 ** 9, 60), (300, 60), (1, 1)])
def test_leaf_models_in_small_blocks_equal_per_joint_oracle(rest_frame, monkeypatch,
                                                            chunk, block):
    # leaf sets held in one chunk or many and shifted and merged in many
    # small blocks: every leaf gets the bytes of one mean-shift per joint,
    # and no block holds more pooled points than the bound unless it is a
    # single set
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=2, rng=np.random.default_rng(0))
    rng = np.random.default_rng(8)
    cfg = F.ForestConfig(leaf_cap=60)
    leaves = [np.sort(rng.choice(len(samples), size=k, replace=False))
              for k in rng.choice([1, 2, 3, 8, 20, 60], size=40)]
    blocks = []  # (sets, pooled points) per call
    groups = F.mean_shift_groups

    def recording(points, weights, sizes, **kwargs):
        blocks.append((len(sizes), int(np.sum(sizes))))
        return groups(points, weights, sizes, **kwargs)

    monkeypatch.setattr(F, "mean_shift_groups", recording)
    monkeypatch.setattr(F, "MODES_CHUNK", chunk)
    monkeypatch.setattr(F, "MODES_BLOCK", block)
    modes, weights = F._leaf_models(samples, leaves, cfg)
    for leaf, idx in enumerate(leaves):
        want_modes, want_weights = build_leaf_per_joint(samples, idx, cfg)
        assert modes[leaf].tobytes() == want_modes.tobytes()
        assert weights[leaf].tobytes() == want_weights.tobytes()
    assert sum(sets for sets, _ in blocks) == 21 * len(leaves) and len(blocks) > 10
    assert all(points <= block or sets == 1 for sets, points in blocks)
    assert block == 1 or any(sets >= meanshift.STACK_MIN for sets, _ in blocks)


def test_a_node_scored_whole_takes_one_features_call(rest_frame, monkeypatch):
    # a node of at most node_subsample samples is its own subsample, so the
    # best split's go_left comes from the features it was scored on: one
    # _features call a node, and the tree a second call would give
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=3, rng=np.random.default_rng(0))
    cfg = F.ForestConfig(max_depth=9, min_samples=15, node_subsample=200,
                         candidates=30, leaf_cap=40)
    calls = []  # per _best_split call: [node size, _features calls]
    features, best_split = F._features, F._best_split

    def counting_features(*args):
        calls[-1][1] += 1
        return features(*args)

    def counting_best_split(samples, idx, *args):
        calls.append([len(idx), 0])
        return best_split(samples, idx, *args)

    monkeypatch.setattr(F, "_features", counting_features)
    monkeypatch.setattr(F, "_best_split", counting_best_split)
    tree = F.train_tree(samples, cfg, np.random.default_rng(5))
    whole = [n for size, n in calls if size <= cfg.node_subsample]
    assert len(whole) > 20 and set(whole) == {1}
    assert any(n == 2 for size, n in calls if size > cfg.node_subsample)
    # a subsample that is a copy of the node takes the second call
    subsample = F._balanced_subsample
    monkeypatch.setattr(F, "_balanced_subsample", lambda *args: subsample(*args).copy())
    two = F.train_tree(samples, cfg, np.random.default_rng(5))
    for name in ("left", "right", "leaf_id", "probe_u", "probe_v", "tau",
                 "leaf_modes", "leaf_weights"):
        assert getattr(tree, name).tobytes() == getattr(two, name).tobytes()


def test_routing_total_and_deterministic(tiny_forest, rest_frame):
    (model, samples), (img, _) = tiny_forest, rest_frame
    for tree in model.trees:
        leaf = tree.route(samples.images, samples.img_idx.astype(np.int64),
                          samples.pixel, samples.depth, model.bg_depth_mm)
        assert np.all(leaf >= 0)
        again = tree.route(samples.images, samples.img_idx.astype(np.int64),
                           samples.pixel, samples.depth, model.bg_depth_mm)
        assert np.array_equal(leaf, again)


def test_depth_invariant_features(geom, cam):
    # the same physical probe on a hand translated in z reads the same
    # feature value: pixel offsets shrink as 1/depth while relief is rigid
    near = render_depth(geom, PoseParams.rest((0.0, 0.0, 500.0)), cam)
    far = render_depth(geom, PoseParams.rest((0.0, 0.0, 650.0)), cam)
    anchor = np.array([5.0, 40.0, 500.0])  # palm interior point
    probe_u = np.array([[4000.0, 2000.0]])
    probe_v = np.array([[-3000.0, 5000.0]])

    feats = []
    for img, z in ((near, 500.0), (far, 650.0)):
        u, v = img.cam.project(np.array([[anchor[0], anchor[1], z]]))[0]
        d = float(img.depth[int(round(v)), int(round(u))])
        sample = F.SampleSet(Frames.pack([img], img.cam),
                             np.array([[round(u), round(v)]], dtype=float),
                             np.array([d]), np.zeros(1, dtype=np.int64),
                             np.zeros(1, dtype=np.int16), np.zeros((1, 3)),
                             np.zeros((1, 21, 3)))
        feats.append(F._features(sample, np.array([0]), probe_u, probe_v,
                                 10000.0)[0, 0])
    assert abs(feats[0] - feats[1]) < 3.0  # rounding + resampling slack


def _infer(model, img, stride, top_n, k):
    # the inference path of `handfit infer` and the benchmark
    votes = F.accumulate_votes(model, img, stride=stride)
    return F.proposals_from_votes(votes, top_n=top_n, k=k)


def test_infer_memorizes_training_frame(geom, tiny_forest, rest_frame):
    (model, _), (img, gt) = tiny_forest, rest_frame
    pset = _infer(model, img, stride=2, top_n=200, k=3)
    assert pset.count() <= 3 * 21  # at most k x J proposals
    for j in pset.joints:
        best = np.linalg.norm(pset.positions(j) - gt[j], axis=1).min()
        assert best < 20.0
    for j in pset.joints:
        assert pset.weights(j).sum() == pytest.approx(1.0, abs=1e-9)


def test_infer_k1_single_unit_proposal(tiny_forest, rest_frame):
    (model, _), (img, _) = tiny_forest, rest_frame
    pset = _infer(model, img, stride=3, top_n=100, k=1)
    for j in pset.joints:
        assert len(pset.weights(j)) == 1
        assert pset.weights(j)[0] == pytest.approx(1.0)


def test_zero_vote_joint_omitted():
    votes = {2: (np.array([[0.0, 0.0, 500.0]]), np.array([1.0])),
             5: (np.empty((0, 3)), np.empty(0))}
    pset = F.proposals_from_votes(votes, top_n=10, k=3)
    assert 2 in pset and 5 not in pset


def _vote_sets(case, seed, top_n=40):
    """A frame's vote dict: every joint a cloud of weighted votes around
    its own centre, two to four blobs, some joints short of top_n votes."""
    rng = np.random.default_rng(seed)
    votes = {}
    if case == "empty":
        return votes
    for j in range(21):
        if rng.random() < 0.15:
            continue  # a joint that got no votes
        n = int(rng.integers(1, 3 * top_n))
        if case == "single_votes" and j % 3 == 0:
            n = 1
        centres = rng.uniform(-150, 150, (int(rng.integers(2, 5)), 3)) + [0, 0, 500]
        pos = centres[rng.integers(0, len(centres), n)] + rng.normal(0, 6, (n, 3))
        votes[j] = (pos, rng.uniform(0.1, 2.0, n))
    if case == "pools_nothing":
        # two lattices of votes 10 mm apart, shuffled: no two share a
        # 7.5 mm cell, and each lattice converges to one mode
        grid = np.stack(np.meshgrid(*[np.arange(3)] * 3), axis=-1).reshape(-1, 3)
        pos = np.concatenate([10.0 * grid, 10.0 * grid[:12] + 100.0]) + [0, 0, 500]
        votes[7] = (rng.permutation(pos), np.ones(len(pos)))
    return votes


@pytest.mark.parametrize("case", ["short_sets", "single_votes", "pools_nothing", "empty"])
@pytest.mark.parametrize("seed", range(3))
def test_proposals_from_votes_equal_joint_by_joint_oracle(case, seed):
    # one keyed pool and merge over the frame's sets gives every joint the
    # bytes of its own mean-shift, through the reference stages
    votes = _vote_sets(case, seed)
    bw = F.DEFAULTS["forest.infer_bandwidth_mm"]
    got = F.proposals_from_votes(votes, top_n=40, k=3, bandwidth_mm=bw)
    want = proposals_joint_by_joint(votes, 40, 3, bw, F.DEFAULTS["forest.meanshift_iters"])
    assert got.joints == want.joints
    for j in got.joints:
        assert np.array_equal(got.positions(j), want.positions(j))
        assert np.array_equal(got.weights(j), want.weights(j))
    sizes = [len(w) for _, w in votes.values()]
    if case == "empty":
        assert len(got) == 0
    elif case == "short_sets":
        assert min(sizes) < 40 < max(sizes)
    elif case == "single_votes":
        assert sizes.count(1) >= 3
    else:
        pos = votes[7][0]
        cells = np.round(pos * (meanshift.INFER_DEDUP_DIVISOR / bw))
        assert len(np.unique(cells, axis=0)) == len(pos)
        assert np.array_equal(got.weights(7), [27 / 39, 12 / 39])


def test_proposals_from_votes_shifts_a_frame_in_one_mean_shift_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return mean_shift(*args, **kwargs)

    monkeypatch.setattr(F, "mean_shift", counted)
    for case in ("short_sets", "empty"):
        calls.clear()
        votes = _vote_sets(case, 0)
        F.proposals_from_votes(votes, top_n=40, k=3)
        assert len(calls) == 1 and len(calls[0]) == len(votes)


def _blob_votes(n_blobs, seed, bandwidth):
    # blobs of 200 votes in all, spread by bandwidth / 2, whose centres lie
    # too close (1 to 1.5 bandwidths) for separate modes: where the coarse
    # grid puts the one mode is what the bound below measures
    sep, spread = {2: (1.5, 0.5), 3: (1.0, 0.4)}[n_blobs]
    rng = np.random.default_rng(seed)
    centres = [np.array([100.0 + sep * bandwidth * i, 100.0 + 0.3 * bandwidth * (i % 2),
                         500.0]) for i in range(n_blobs)]
    pos = np.concatenate([rng.normal(c, spread * bandwidth, (200 // n_blobs, 3))
                          for c in centres])
    return pos, np.ones(len(pos))


@pytest.mark.parametrize("n_blobs", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_coarse_vote_grid_stays_close_to_the_exact_kernel(n_blobs, seed):
    bw = F.DEFAULTS["forest.infer_bandwidth_mm"]
    pos, w = _blob_votes(n_blobs, seed, bw)
    (fine, _), = mean_shift([pos], None, bandwidth=bw)
    pset = F.proposals_from_votes({4: (pos, w)}, top_n=len(w), k=10, bandwidth_mm=bw)
    coarse = pset.positions(4)
    assert len(coarse) == len(fine)
    nearest = np.linalg.norm(coarse[:, None] - fine[None], axis=2).min(axis=1)
    assert nearest.max() <= bw / 10


def test_leaves_keep_the_fine_grid(rest_frame, monkeypatch):
    # the leaf oracle reads DEDUP_DIVISOR too, so it cannot see a leaf-grid
    # change; forest files depend on that grid, not on the inference one
    assert meanshift.DEDUP_DIVISOR == 20.0
    img, gt = rest_frame
    samples = F.extract_samples(img, gt, stride=2, rng=np.random.default_rng(0))
    cfg = F.ForestConfig()
    idx = np.arange(cfg.leaf_cap)
    votes = {4: _blob_votes(2, 0, F.DEFAULTS["forest.infer_bandwidth_mm"])}

    def run():
        leaf = _leaf_model(samples, idx, cfg, np.random.default_rng(3))
        pset = F.proposals_from_votes(votes, top_n=200, k=10)
        return leaf[0].tobytes() + leaf[1].tobytes(), pset.positions(4).tobytes()

    leaf, proposals = run()
    for owner in (meanshift, F):
        monkeypatch.setattr(owner, "INFER_DEDUP_DIVISOR", 0.5)
    patched_leaf, patched_proposals = run()
    assert patched_proposals != proposals  # the patch reaches inference
    assert patched_leaf == leaf


def test_empty_foreground_gives_no_votes(cam, tiny_forest):
    (model, _) = tiny_forest
    blank = DepthImage(np.zeros((cam.height, cam.width), dtype=np.uint16), cam)
    assert F.accumulate_votes(model, blank) == {}


def test_save_load_round_trip(tmp_path, tiny_forest, rest_frame):
    (model, _), (img, _) = tiny_forest, rest_frame
    path = tmp_path / "forest.bin"
    F.save_forest(path, model)
    again = F.load_forest(path)
    a = _infer(model, img, stride=3, top_n=100, k=3)
    b = _infer(again, img, stride=3, top_n=100, k=3)
    assert a.joints == b.joints
    for j in a.joints:
        assert np.array_equal(a.positions(j), b.positions(j))
        assert np.array_equal(a.weights(j), b.weights(j))


def test_load_rejects_bad_files(tmp_path, tiny_forest):
    (model, _) = tiny_forest
    path = tmp_path / "forest.bin"
    F.save_forest(path, model)
    blob = path.read_bytes()

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(F.ForestFormatError, match="byte"):
        F.load_forest(truncated)

    wrong_magic = tmp_path / "magic.bin"
    wrong_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(F.ForestFormatError, match="magic"):
        F.load_forest(wrong_magic)

    bad_version = tmp_path / "ver.bin"
    bad_version.write_bytes(blob[:4] + struct.pack("<H", 99) + blob[6:])
    with pytest.raises(F.ForestFormatError, match="version"):
        F.load_forest(bad_version)


def _one_leaf_forest(num_joints=21, modes=1, trees=1, bg_depth_mm=10000.0):
    """A forest of `trees` one-leaf trees whose header says what the
    arguments say, every block sized to match."""
    tree = F.Tree(nodes=np.array([[-1, -1, 0, 0, 0, 0, 0, 0]], "<f4"),
                  leaf_modes=np.ones((1, num_joints, modes, 3), np.float32),
                  leaf_weights=np.ones((1, num_joints, modes), np.float32))
    return F.Forest([tree] * trees, num_joints=num_joints, leaf_modes=modes,
                    bg_depth_mm=bg_depth_mm)


def test_load_rejects_more_joints_than_the_hand(tmp_path):
    # the joint count is the header's u16 at byte 12; a count above the
    # hand's must fail on load, naming the field, not later at inference
    path = tmp_path / "forest.bin"
    F.save_forest(path, _one_leaf_forest(21))
    assert F.load_forest(path).num_joints == 21
    F.save_forest(path, _one_leaf_forest(22))
    with pytest.raises(F.ForestFormatError, match=r"joint count 22 .*\(at byte 12\)"):
        F.load_forest(path)


@pytest.mark.parametrize("header, offset, message", [
    (dict(trees=0), 8, "header forest.num_trees: must be >= 1, got 0"),
    (dict(num_joints=0), 12, "joint count 0 is outside the hand's 1..21"),
    (dict(modes=0), 14, "header forest.leaf_modes: must be >= 1, got 0"),
    (dict(bg_depth_mm=float("nan")), 16, "header forest.bg_depth_mm: must be finite, got nan"),
    (dict(bg_depth_mm=float("inf")), 16, "header forest.bg_depth_mm: must be finite, got inf"),
    (dict(bg_depth_mm=0.0), 16, "header forest.bg_depth_mm: must be > 0, got 0.0"),
    (dict(bg_depth_mm=-5.0), 16, "header forest.bg_depth_mm: must be > 0, got -5.0"),
], ids=["no_trees", "no_joints", "no_modes", "bg_nan", "bg_inf", "bg_zero", "bg_negative"])
def test_load_rejects_header_no_training_run_writes(tmp_path, header, offset, message):
    # each of these used to load: no trees failed later in accumulate_votes,
    # no joints or modes gave every frame no proposals, and routing ran on
    # the background depth
    path = tmp_path / "forest.bin"
    F.save_forest(path, _one_leaf_forest())
    assert F.load_forest(path).num_joints == 21
    F.save_forest(path, _one_leaf_forest(**header))
    with pytest.raises(F.ForestFormatError) as exc:
        F.load_forest(path)
    assert str(exc.value) == f"{message} (at byte {offset})"


# tree 0's node table follows the file header and the tree's size pair;
# each node row is eight little-endian float32 fields: left, right, leaf id, ...
NODE_TABLE = 4 + struct.calcsize("<HHIHHd") + struct.calcsize("<II")


@pytest.mark.parametrize("case", ["self_loop", "child_out_of_range",
                                  "duplicate_leaf_id"])
def test_load_rejects_unroutable_node_table(tmp_path, tiny_forest, case):
    tree = tiny_forest[0].trees[0]
    assert tree.leaf_id[0] < 0  # the root is an internal node
    leaves = np.nonzero(tree.leaf_id >= 0)[0]
    node, column, value = {
        "self_loop": (0, 0, 0),
        "child_out_of_range": (0, 1, tree.n_nodes),
        "duplicate_leaf_id": (int(leaves[1]), 2, int(tree.leaf_id[leaves[0]])),
    }[case]
    path = tmp_path / "forest.bin"
    F.save_forest(path, tiny_forest[0])
    blob = bytearray(path.read_bytes())
    offset = NODE_TABLE + 32 * node
    struct.pack_into("<f", blob, offset + 4 * column, float(value))
    path.write_bytes(bytes(blob))
    with pytest.raises(F.ForestFormatError, match=f"node {node}: .*at byte {offset}"):
        F.load_forest(path)


def test_save_writes_each_node_table_verbatim(tmp_path, tiny_forest):
    model = tiny_forest[0]
    path = tmp_path / "forest.bin"
    F.save_forest(path, model)
    blob = path.read_bytes()
    offset = NODE_TABLE
    for tree in model.trees:
        assert tree.nodes.dtype == np.dtype("<f4") and tree.nodes.shape == (tree.n_nodes, 8)
        assert np.array_equal(tree.nodes[:, :3], np.stack([tree.left, tree.right, tree.leaf_id], 1))
        assert blob[offset - 8:offset] == struct.pack("<II", tree.n_nodes, tree.n_leaves)
        assert blob[offset:offset + tree.nodes.nbytes] == tree.nodes.tobytes()
        offset += tree.nodes.nbytes + tree.leaf_modes.nbytes + tree.leaf_weights.nbytes + 8
    assert offset - 8 == len(blob)


def _owner(array):
    """The object whose memory `array` views, past any arrays and memoryviews."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def test_loaded_tree_arrays_are_read_only_views_of_the_file(tmp_path, tiny_forest):
    path = tmp_path / "forest.bin"
    F.save_forest(path, tiny_forest[0])
    model = F.load_forest(path)
    views = [getattr(tree, name) for tree in model.trees for name in
             ("nodes", "probe_u", "probe_v", "tau", "leaf_modes", "leaf_weights")]
    assert not any(a.flags.writeable for a in views)
    [owner] = {id(_owner(a)): _owner(a) for a in views}.values()
    assert owner == path.read_bytes()
    for tree, trained in zip(model.trees, tiny_forest[0].trees):
        assert tree.nodes.tobytes() == trained.nodes.tobytes()
        assert np.array_equal(tree.leaf_id, trained.leaf_id) and tree.leaf_id.dtype == np.int32


def test_load_forest_peak_is_the_file_and_a_little_per_node(tmp_path, tiny_forest):
    # the file's bytes are read once and every block is a view of them; the
    # slack holds the int32 link columns and the topology check's arrays.
    # Copying each block traced about three times the file.
    path = tmp_path / "forest.bin"
    F.save_forest(path, tiny_forest[0])
    size, nodes = path.stat().st_size, sum(t.n_nodes for t in tiny_forest[0].trees)
    tracemalloc.start()
    try:
        F.load_forest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= size + 64 * nodes + 16384, (peak, size, nodes)


def test_load_rejects_empty_node_table(tmp_path):
    empty = F.Tree(nodes=np.zeros((0, 8), "<f4"),
                   leaf_modes=np.zeros((0, 21, 2, 3), np.float32),
                   leaf_weights=np.zeros((0, 21, 2), np.float32))
    path = tmp_path / "forest.bin"
    F.save_forest(path, F.Forest([empty]))
    with pytest.raises(F.ForestFormatError, match=f"no nodes .*at byte {NODE_TABLE}"):
        F.load_forest(path)


def _small_forest_bytes(tmp_path):
    """A valid two-joint, one-mode forest of one three-node tree."""
    tree = F.Tree(nodes=np.array([[1, 2, -1, 1, 1, 1, 1, 0],
                                  [-1, -1, 0, 1, 1, 1, 1, 0],
                                  [-1, -1, 1, 1, 1, 1, 1, 0]], "<f4"),
                  leaf_modes=np.ones((2, 2, 1, 3), np.float32),
                  leaf_weights=np.ones((2, 2, 1), np.float32))
    path = tmp_path / "small.bin"
    F.save_forest(path, F.Forest([tree], num_joints=2, leaf_modes=1))
    blob = path.read_bytes()
    assert F.load_forest(path).stats() == F.Forest([tree], num_joints=2,
                                                   leaf_modes=1).stats()
    return blob


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_load_forest_returns_or_raises_format_error_on_any_bytes(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    blob = _small_forest_bytes(base)
    # a valid file with a few bytes overwritten, cut short or extended
    # reaches the size fields and the topology check, which random bytes
    # past the magic rarely do
    edits = st.dictionaries(st.integers(0, len(blob) - 1), st.integers(0, 255),
                            max_size=4)
    near_valid = st.tuples(edits, st.integers(0, len(blob)), st.binary(max_size=8)).map(
        lambda e: bytes(e[0].get(i, b) for i, b in enumerate(blob))[:e[1]] + e[2])
    path = base / "fuzz_forest.bin"
    path.write_bytes(data.draw(st.binary(max_size=512) | near_valid
                               | st.binary(max_size=512).map(lambda b: F.MAGIC + b)))
    try:
        F.load_forest(path)
    except F.ForestFormatError:
        pass
