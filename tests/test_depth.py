import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handfit import depth, geometry, synth
from handfit.depth import (CameraIntrinsics, DepthImage, RenderError,
                           foreground_mask, read_pgm, render_depth, write_pgm)
from handfit.geometry import PoseParams

from oracles import (march_ray_depth, raster_capsule_own_quadratic,
                     raster_ellipsoid_own_quadratic, ray_sphere_own_quadratic)


@pytest.fixture(scope="module")
def rest_render(geom, cam):
    pose = PoseParams.rest((0.0, 0.0, 500.0))
    return pose, render_depth(geom, pose, cam)


def test_render_foreground_and_depth_bound(geom, cam, rest_render):
    pose, img = rest_render
    mask = foreground_mask(img)
    assert mask.sum() > 0
    # nothing can be nearer than the palm root minus the hand's reach
    near_bound = 500.0 - geom.max_extent() - 20.0
    assert img.depth[mask].min() >= near_bound


def test_render_deterministic(geom, cam, rest_render):
    pose, img = rest_render
    again = render_depth(geom, pose, cam)
    assert np.array_equal(img.depth, again.depth)


def test_depth_shift_matches_marching_oracle(geom, cam):
    # translating the hand +50mm in z must raise hit depths by ~50mm; the
    # expected depths come from an independent sphere-marching oracle
    pose_a = PoseParams.rest((0.0, 0.0, 500.0))
    pose_b = PoseParams.rest((0.0, 0.0, 550.0))
    img_a = render_depth(geom, pose_a, cam)
    img_b = render_depth(geom, pose_b, cam)

    joints_a = geometry.forward_kinematics(geom, pose_a)
    # aim rays at bone midpoints of a few fingers: guaranteed capsule hits
    targets = []
    for f in range(5):
        mcp, pip, dip, tip = geometry.finger_joint_indices(f)
        targets.append(0.5 * (joints_a[mcp] + joints_a[pip]))
        targets.append(0.5 * (joints_a[dip] + joints_a[tip]))
    checked = 0
    for target in targets:
        u, v = np.rint(cam.project(target[None])[0]).astype(int)
        da = img_a.depth[v, u]
        if da == 0:
            continue
        oracle_a = march_ray_depth(geom, pose_a, cam, u, v)
        oracle_b = march_ray_depth(geom, pose_b, cam, u, v)
        assert abs(da - oracle_a) < 1.5  # rounding + marching tolerance
        db = img_b.depth[v, u]
        if not np.isnan(oracle_b) and db > 0:
            assert abs(db - oracle_b) < 1.5
            assert abs((db - float(da)) - (oracle_b - oracle_a)) < 2.0
        checked += 1
    assert checked >= 10


def test_foreground_mask_contract(cam, rest_render):
    _, img = rest_render
    empty = DepthImage(np.zeros((cam.height, cam.width), dtype=np.uint16), cam)
    assert foreground_mask(empty).sum() == 0
    mask = foreground_mask(img)
    assert np.array_equal(mask, img.depth != 0)


def test_foreground_backprojects_onto_hand(geom, cam, rest_render):
    # any foreground pixel's 3D point lies within capsule reach of the skeleton
    pose, img = rest_render
    from oracles import hand_distance_field

    mask = foreground_mask(img)
    vs, us = np.nonzero(mask)
    rng = np.random.default_rng(3)
    sel = rng.choice(len(us), size=40, replace=False)
    pts = cam.backproject(us[sel].astype(float), vs[sel].astype(float),
                          img.depth[vs[sel], us[sel]].astype(float))
    for p in pts:
        assert hand_distance_field(p, geom, pose) < 2.5  # rounding slack


def test_hand_behind_camera_errors(geom, cam):
    pose = PoseParams.rest((0.0, 0.0, -800.0))
    with pytest.raises(RenderError):
        render_depth(geom, pose, cam)


def _zbuffer_grid(cam, primitives):
    """`depth._zbuffer` of the primitives placed in a full grid of inf, after
    checking that its box is tight: each edge of the box sees a surface."""
    zbuf, v0, u0 = depth._zbuffer(cam, *primitives, depth.RenderWork(cam))
    seen = np.isfinite(zbuf)
    if zbuf.size:
        assert seen[0].any() and seen[-1].any() and seen[:, 0].any() and seen[:, -1].any()
    grid = np.full((cam.height, cam.width), np.inf)
    grid[v0:v0 + zbuf.shape[0], u0:u0 + zbuf.shape[1]] = zbuf
    return grid


def _zbuf(cam, primitives, raster_capsule, raster_ellipsoid):
    segs, radii, ellipsoid = primitives
    zbuf = np.full((cam.height, cam.width), np.inf)
    for (a, b), r in zip(segs, radii):
        raster_capsule(zbuf, cam, a, b, r)
    raster_ellipsoid(zbuf, cam, *ellipsoid)
    return zbuf


@pytest.mark.parametrize("seed", range(4))
def test_shared_ray_quadric_rasterises_every_primitive_bit_for_bit(geom, limits, cam, seed):
    # every other pose sits 5-150 mm from the camera, so some primitives
    # straddle the image plane or hold the camera, where the sphere takes
    # its far root; the oracles solve each primitive's quadratic on its own
    rng = np.random.default_rng(seed)
    hits = np.zeros(2, dtype=int)  # far, near poses with foreground
    for i in range(24):
        pose = geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
        if i % 2:
            t = [0.1, 0.1, 0.0] * pose.translation + [0.0, 0.0, rng.uniform(5.0, 150.0)]
            pose = PoseParams(t, pose.orientation, pose.finger_angles)
        primitives = depth.hand_primitives(geom, pose)
        got = _zbuffer_grid(cam, primitives)
        want = _zbuf(cam, primitives, raster_capsule_own_quadratic,
                     raster_ellipsoid_own_quadratic)
        assert np.array_equal(got, want)
        hits[i % 2] += np.isfinite(got).any()
    assert hits[0] == 12 and hits[1] >= 8


def test_pixel_boxes_hold_off_axis_silhouettes(geom, limits, cam):
    # hands far off the optical axis, whose spheres' silhouettes reach past
    # (x +- r) / (z - r): 37 pixels went missing from the first, and the
    # second showed a surface 62 mm too deep at 5 pixels
    rng = np.random.default_rng(5)
    poses = [geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE) for _ in range(143)]
    for i, t in [(34, (101.8, 46.2, 454.3)), (142, (-103.8, 90.9, 473.8))]:
        np.testing.assert_allclose(poses[i].translation, t, atol=0.05)
        primitives = depth.hand_primitives(geom, poses[i])
        got = _zbuffer_grid(cam, primitives)
        want = _zbuf(cam, primitives, raster_capsule_own_quadratic,
                     raster_ellipsoid_own_quadratic)
        assert got.tobytes() == want.tobytes()


def test_pixel_boxes_bound_every_sphere_ray(cam, rng):
    # spheres in front of, across and behind the image plane, on and far
    # off the optical axis: every pixel whose ray meets a sphere lies in
    # its box, and the box of a sphere in front of the camera whose
    # silhouette is not cut by the image edge reaches at most 2 pixels past
    us, vs = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs = np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones(us.shape)], -1)
    unit = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    centers = np.column_stack([rng.uniform(-400.0, 400.0, (60, 2)),
                               rng.uniform(-60.0, 900.0, 60)])
    radii = rng.uniform(5.0, 60.0, 60)
    boxes, seen = depth._pixel_boxes(cam, centers[:, None, :], radii)
    for c, r, (u0, u1, v0, v1), kept in zip(centers, radii, boxes, seen):
        along = unit @ c
        hit = (along > 0.0) & (c @ c - along * along <= r * r)
        if not hit.any():
            continue
        assert kept
        rows, cols = np.nonzero(hit)
        assert u0 <= cols.min() and cols.max() <= u1 and v0 <= rows.min() and rows.max() <= v1
        inside = 0 < cols.min() and cols.max() < cam.width - 1 \
            and 0 < rows.min() and rows.max() < cam.height - 1
        if c[2] - r > 1.0 and inside:
            assert (u0 >= cols.min() - 2 and u1 <= cols.max() + 2
                    and v0 >= rows.min() - 2 and v1 <= rows.max() + 2)


def test_one_solve_rasterises_cut_primitives_bit_for_bit(cam):
    # capsules partly behind the camera, partly out of frame, wholly out of
    # sight and of zero length, and an ellipsoid cut by the image edge, all
    # in one batched solve: the bits of each primitive rasterised alone
    segs = np.array([
        [[-10.0, 5.0, -60.0], [15.0, -5.0, 120.0]],   # crosses the camera plane
        [[-20.0, 0.0, 300.0], [420.0, 30.0, 300.0]],  # runs off the right edge
        [[0.0, -200.0, 250.0], [0.0, -20.0, 260.0]],  # runs off the top edge
        [[0.0, 0.0, -300.0], [30.0, 0.0, -200.0]],    # behind the camera
        [[5000.0, 0.0, 300.0], [5100.0, 0.0, 300.0]],  # beside the frustum
        [[40.0, 40.0, 400.0], [40.0, 40.0, 400.0]],   # zero length: two spheres
        [[-60.0, 10.0, 500.0], [-30.0, 40.0, 450.0]],
    ])
    radii = np.array([8.0, 7.0, 6.0, 8.0, 8.0, 6.0, 7.0])
    rot = np.eye(3)
    for center in ([-150.0, -100.0, 320.0], [0.0, 0.0, -500.0]):
        primitives = (segs, radii, (np.array(center), np.array([45.0, 40.0, 15.0]), rot))
        got = _zbuffer_grid(cam, primitives)
        want = _zbuf(cam, primitives, raster_capsule_own_quadratic,
                     raster_ellipsoid_own_quadratic)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[:, -1]).any() and np.isfinite(got[0]).any()
    # the capsule through the camera plane shows in front of the camera only
    near = _zbuffer_grid(cam, (segs[:1], radii[:1], (np.array([0.0, 0.0, -500.0]),
                                                      np.array([45.0, 40.0, 15.0]), rot)))
    assert np.isfinite(near).any() and (near[np.isfinite(near)] > 0).all()


def _ray_sphere(dirs, center, radius):
    # the coefficients as the renderer forms them for a capsule's end sphere
    qa = np.einsum("ij,ij->i", dirs, dirs)
    qb = (2.0 * dirs) @ -center
    qc4 = 4.0 * qa * (-center @ -center - radius * radius)
    hit, far, mask = np.empty(len(dirs), bool), np.empty(len(dirs)), np.empty(len(dirs), bool)
    depth._ray_quadric(qa, qb, qc4, hit, far)
    depth._sphere_depth(qb, far, hit, mask)
    return qb


def test_ray_sphere_takes_the_far_root_from_inside(rng):
    # the camera inside, on and outside spheres ahead of and behind it
    dirs = np.column_stack([rng.uniform(-1.0, 1.0, (500, 2)), np.ones(500)])
    for center, radius in [((0.0, 0.0, 10.0), 30.0), ((5.0, -3.0, -10.0), 30.0),
                           ((0.0, 0.0, 30.0), 30.0), ((20.0, 10.0, 400.0), 60.0),
                           ((0.0, 0.0, -400.0), 60.0)]:
        center = np.array(center)
        got = _ray_sphere(dirs, center, radius)
        assert np.array_equal(got, ray_sphere_own_quadratic(dirs, center, radius))
    assert np.isfinite(_ray_sphere(dirs, np.array([0.0, 0.0, 10.0]), 30.0)).all()


def test_pgm_round_trip(tmp_path, cam, rest_render):
    _, img = rest_render
    write_pgm(tmp_path / "f.pgm", img)
    again = read_pgm(tmp_path / "f.pgm", cam)
    assert np.array_equal(img.depth, again.depth)
    raw = (tmp_path / "f.pgm").read_bytes()
    assert raw.startswith(b"P5\n320 240\n65535\n")


@pytest.mark.parametrize("body, reason", [
    (b"P5\n3 2\n65535\n" + bytes(5), "pixel data truncated, 5 of 12 bytes"),
    (b"P5\n3 2\n65535", "pixel data truncated, 0 of 12 bytes"),
    (b"P5\n3 x\n65535\n" + bytes(12), "header field b'x' is not an integer"),
    (b"P5\n3 2.0\n65535\n" + bytes(12), "header field b'2.0' is not an integer"),
    (b"P5\n0 2\n65535\n", "image size 0x2 is not positive"),
    (b"P5\n3 -2\n65535\n" + bytes(12), "image size 3x-2 is not positive"),
    (b"P5\n3 2", "header ends after 3 of 4 fields"),
    (b"P5\n3 2\n# maxval was here\n", "header ends after 3 of 4 fields"),
    (b"", "header ends after 0 of 4 fields"),
], ids=["truncated_pixels", "no_pixels", "letter", "fraction", "zero_width",
        "negative_height", "short_header", "comment_then_end", "empty"])
def test_read_pgm_names_file_and_reason(tmp_path, body, reason):
    path = tmp_path / "frame_00000.pgm"
    path.write_bytes(body)
    with pytest.raises(ValueError) as exc:
        read_pgm(path)
    assert str(exc.value) == f"{path}: {reason}"


def test_read_pgm_rejects_size_other_than_intrinsics(tmp_path, cam, rest_render):
    _, img = rest_render
    write_pgm(tmp_path / "f.pgm", img)
    small = CameraIntrinsics(fx=280.0, fy=280.0, cx=80.0, cy=60.0, width=160, height=120)
    with pytest.raises(ValueError, match=r"f\.pgm: image is 320x240, the intrinsics are 160x120"):
        read_pgm(tmp_path / "f.pgm", small)


HEADER_TOKENS = st.sampled_from([b"P5", b"P2", b"0", b"1", b"2", b"3", b"-2",
                                  b"65535", b"255", b"99999999999", b"x", b"#c\n", b""])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_read_pgm_returns_or_raises_value_error_on_any_bytes(tmp_path_factory, data):
    # near-valid files: a 3x2 image whose header tokens, separators and
    # pixel bytes vary, so parsing reaches the size checks and the pixel read
    header = st.lists(HEADER_TOKENS, min_size=0, max_size=5).map(b" ".join)
    valid = st.tuples(HEADER_TOKENS, HEADER_TOKENS, HEADER_TOKENS).map(
        lambda t: b"P5\n%s %s\n%s\n" % t)
    pixels = st.binary(max_size=16)
    body = data.draw(st.binary(max_size=256)
                     | st.tuples(header | valid, st.sampled_from([b"", b"\n", b" "]),
                                 pixels).map(b"".join))
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(body)
    try:
        read_pgm(path)
    except ValueError:
        pass


def test_intrinsics_round_trip(tmp_path, cam):
    cam.save(tmp_path / "intr.txt")
    again = CameraIntrinsics.from_file(tmp_path / "intr.txt")
    assert again == cam


def test_project_backproject_inverse(cam, rng):
    pts = np.column_stack([rng.uniform(-100, 100, 20), rng.uniform(-100, 100, 20),
                           rng.uniform(400, 700, 20)])
    px = cam.project(pts)
    back = cam.backproject(px[:, 0], px[:, 1], pts[:, 2])
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_depth_image_validation(cam):
    with pytest.raises(ValueError, match="uint16"):
        DepthImage(np.zeros((cam.height, cam.width), dtype=np.float32), cam)
    with pytest.raises(ValueError, match="size"):
        DepthImage(np.zeros((10, 10), dtype=np.uint16), cam, y0=cam.height - 9)
    with pytest.raises(ValueError, match="size"):
        DepthImage(np.zeros((cam.height, cam.width + 1), dtype=np.uint16), cam)
    with pytest.raises(ValueError, match="size"):
        DepthImage(np.zeros(10, dtype=np.uint16), cam)


def test_depth_image_copies_writable_crops_and_keeps_read_only_ones(geom, cam, rest_render):
    pose, img = rest_render
    crop = np.array(img.crop)  # writable
    kept = DepthImage(crop, cam, img.y0, img.x0)
    assert not np.shares_memory(kept.crop, crop)
    crop[:] = 7
    assert np.array_equal(kept.depth, img.depth)
    # a rendered frame is read-only, alone or in its split, and so is its full grid
    split = synth.render_poses([pose] * 2, geom, cam)
    for frame in (img, split[1]):
        for array in (frame.crop, frame.depth):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        split.pixels[0] = 1
    assert np.array_equal(split[1].depth, img.depth)
    # a read-only crop is kept, not copied
    first = split[0]
    assert DepthImage(first.crop, cam, first.y0, first.x0).crop is first.crop
    assert DepthImage(img.crop, cam, img.y0, img.x0).crop is img.crop


@pytest.fixture(scope="module")
def far_grid(limits):
    # 32 poses 700 mm away, a 4.9 MB split as full grids
    return synth.generate_training_poses(limits=limits, per_finger=2, num_views=1,
                                         translation=(0.0, 0.0, 700.0))


def test_rendered_split_owns_exactly_its_crop_bytes(geom, cam, far_grid):
    frames = synth.render_poses(far_grid, geom, cam)
    assert len(frames) == len(far_grid) == 32
    # each crop is its frame's foreground bounding box, and the split's one
    # buffer holds nothing else: 2 bytes a pixel of every box
    areas = 0
    for img in frames:
        rows, cols = np.nonzero(img.depth)
        assert (img.y0, img.x0) == (rows.min(), cols.min())
        assert img.crop.shape == (rows.max() + 1 - img.y0, cols.max() + 1 - img.x0)
        areas += img.crop.size
    assert frames.pixels.base is None and frames.pixels.ndim == 1
    assert frames.nbytes == frames.pixels.nbytes == 2 * areas
    assert frames.nbytes < len(frames) * cam.height * cam.width * 2 // 8


def test_split_frames_are_read_only_views_of_one_buffer(geom, cam, far_grid):
    frames = synth.render_poses(far_grid, geom, cam)
    assert not frames.pixels.flags.writeable and not frames.boxes.flags.writeable
    for i in (0, len(frames) - 1):
        y0, x0, h, w, offset = frames.boxes[i]
        frame = frames[i]
        assert np.shares_memory(frame.crop, frames.pixels[offset:offset + h * w])
        assert DepthImage(frame.crop, cam, y0, x0).crop is frame.crop
        assert np.array_equal(frame.depth, render_depth(geom, far_grid[i], cam).depth)
    with pytest.raises(ValueError, match="read-only"):
        frames[3].crop[10, 10] = 1
    assert np.array_equal(frames[-1].crop, frames[len(frames) - 1].crop)


def test_render_and_read_into_a_split_buffer_equal_a_fresh_frame(geom, cam, tmp_path,
                                                                 rest_render):
    # a frame packed into a split's buffer, among frames of other box sizes
    # and after a repeat of itself, equals a fresh render and a fresh read
    pose, img = rest_render
    other = PoseParams.rest((40.0, -30.0, 450.0))
    poses = [other, pose, other, pose]
    synth.write_split(tmp_path, poses, synth.render_poses(poses, geom, cam))
    _, read = synth.read_split(tmp_path, cam)
    fresh = read_pgm(tmp_path / "frame_00001.pgm", cam)
    for frame in (synth.render_poses(poses, geom, cam)[3], read[1], read[3], fresh):
        assert (frame.y0, frame.x0) == (img.y0, img.x0)
        assert frame.crop.tobytes() == img.crop.tobytes()
        assert frame.depth.tobytes() == img.depth.tobytes()


def _oracle_frame(cam, primitives):
    """The frame of the primitives from the per-primitive oracles: their
    full-image z-buffer rounded to uint16 mm and cropped to its foreground."""
    zbuf = _zbuf(cam, primitives, raster_capsule_own_quadratic, raster_ellipsoid_own_quadratic)
    fg = np.isfinite(zbuf)
    grid = np.zeros(zbuf.shape, dtype=np.uint16)
    grid[fg] = np.clip(np.rint(zbuf[fg]), 1, 65534)
    return DepthImage.from_grid(grid, cam)


def _jitter_frame_by_frame(frames, jitter_mm, rng):
    """Each frame's crop with uniform noise on its foreground pixels, drawn
    frame after frame."""
    out = []
    for img in frames:
        crop = np.array(img.crop)
        fg = crop > 0
        noise = rng.uniform(-jitter_mm, jitter_mm, size=int(fg.sum()))
        crop[fg] = np.clip(crop[fg].astype(np.int32) + np.rint(noise).astype(np.int32),
                           1, 65534)
        out.append(DepthImage(crop, cam=img.cam, y0=img.y0, x0=img.x0))
    return out


@pytest.fixture(scope="module")
def run_poses(geom, limits, cam):
    # hands across the workspace, and at index 5 one 60 mm from the camera
    # whose rays alone (~100k) outgrow a RenderWork's first arrays; with
    # each pose, its frame from the oracles
    rng = np.random.default_rng(21)
    poses = [geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE) for _ in range(10)]
    near = poses[5]
    poses[5] = PoseParams([0.0, 0.0, 60.0], near.orientation, near.finger_angles)
    frames = [_oracle_frame(cam, depth.hand_primitives(geom, p)) for p in poses]
    return poses, frames


@pytest.mark.parametrize("ray_block", [None, 1], ids=["default", "growing"])
def test_render_poses_equals_the_oracle_frames(geom, cam, run_poses, monkeypatch, ray_block):
    # at a 1-ray start the work arrays grow at the first pose and at every
    # later pose that needs more; the frames do not depend on it
    if ray_block is not None:
        monkeypatch.setattr(depth, "RAY_BLOCK", ray_block)
    poses, want = run_poses
    work = depth.RenderWork(cam)
    sizes = [work.size]
    for p in poses:
        render_depth(geom, p, cam, work=work)
        sizes.append(work.size)
    assert sizes[6] > sizes[5] >= depth.RAY_BLOCK  # the near pose grows them
    got = synth.render_poses(poses, geom, cam)
    for frames in (got, [render_depth(geom, p, cam) for p in poses]):
        assert len(frames) == len(want)
        for img, ref in zip(frames, want):
            assert (img.y0, img.x0) == (ref.y0, ref.x0)
            assert img.crop.shape == ref.crop.shape
            assert img.crop.tobytes() == ref.crop.tobytes()
    # jitter draws its numbers frame after frame
    noisy = synth.render_poses(poses, geom, cam, jitter_mm=2.5, rng=np.random.default_rng(9))
    for img, ref in zip(noisy, _jitter_frame_by_frame(want, 2.5, np.random.default_rng(9))):
        assert (img.y0, img.x0, img.crop.shape) == (ref.y0, ref.x0, ref.crop.shape)
        assert img.crop.tobytes() == ref.crop.tobytes()


def test_render_poses_renders_each_frame_through_synth_render_depth(geom, cam, run_poses,
                                                                     monkeypatch):
    # the benchmark times and counts renders by wrapping `synth.render_depth`:
    # each frame is one call of it, and the calls share one RenderWork
    poses = run_poses[0]
    works = []

    def counted(*args, **kwargs):
        works.append(kwargs["work"])
        return render_depth(*args, **kwargs)

    monkeypatch.setattr(synth, "render_depth", counted)
    synth.render_poses(poses, geom, cam)
    assert len(works) == len(poses)
    assert all(w is works[0] for w in works)


def test_render_error_names_the_first_pose_without_foreground(geom, cam, run_poses):
    poses = list(run_poses[0])
    behind = PoseParams.rest((0.0, 0.0, -800.0))
    aside = PoseParams.rest((5000.0, 0.0, 500.0))  # beside the frustum
    for bad in ([7], [2, 7], [0, 9], [3, 4]):
        split = list(poses)
        for i in bad:
            split[i] = behind if i % 2 else aside
        with pytest.raises(RenderError, match=rf"^pose {bad[0]}: hand produced no foreground"):
            synth.render_poses(split, geom, cam)
    with pytest.raises(RenderError, match=r"^hand produced no foreground"):
        render_depth(geom, aside, cam)


def test_render_work_of_another_camera_is_refused(geom, cam, rest_render):
    other = dataclasses.replace(cam, fx=cam.fx + 1.0)
    with pytest.raises(ValueError, match="another camera"):
        render_depth(geom, rest_render[0], cam, work=depth.RenderWork(other))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_render_poses_peak_memory_does_not_grow_with_its_frames(geom, limits, cam):
    # the work arrays are made once a call and reused frame after frame,
    # and each crop goes into the split's buffer as it is made: 36 more
    # frames cost their crop bytes and little else (the per-frame table)
    poses = synth.generate_training_poses(limits=limits, per_finger=2, num_views=2)[:40]
    synth.render_poses(poses[:2], geom, cam)  # imports and caches settled
    peak_4, few = _traced_peak(lambda: synth.render_poses(poses[:4], geom, cam))
    peak_40, many = _traced_peak(lambda: synth.render_poses(poses, geom, cam))
    assert many.nbytes - few.nbytes > 300_000
    assert peak_40 <= peak_4 + (many.nbytes - few.nbytes) + 64 * 1024
