"""Synthetic depth imaging: pinhole camera, capsule/ellipsoid z-buffer renderer.

Depth images hold 16-bit millimetre depths with 0 as the background
sentinel. Rendering casts one ray per pixel and intersects it analytically
with a capsule per finger bone plus a palm ellipsoid, keeping the nearest
surface. A pose's primitives are rasterised together: their pixel boxes
(bounded by each sphere's exact tangent planes) and rays are built in one
pass, every capsule's end spheres and body and the ellipsoid go through
one ray-quadric solve, and one z-buffer pass takes the nearest hit per
pixel. Every per-ray array is a view of the work arrays of a
`RenderWork`, which `synth.render_poses` makes once for a split and
passes to each frame's `render_depth`, so a split's page faults do not
grow with its frames. Each primitive's own scalars and BLAS products keep
the bits they have when it is solved alone, so no depth depends on the
batching. A frame is stored as the crop of its foreground bounding box
(`DepthImage`), and a split's frames as one flat buffer of their crops
with a per-frame (y0, x0, h, w, offset) table (`Frames`), which training
and routing read in place; a full grid is built only on demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry, quats
from .config import DEFAULTS, ConfigError, RunConfig, check_fields, read_keyvalue, write_keyvalue

# Surface proportions matched to the default skeleton: finger capsules
# taper 8 -> 6 mm from proximal to distal, palm ellipsoid semi-axes in mm.
BONE_RADII_MM = (8.0, 7.0, 6.0)
PALM_ELLIPSOID_SEMI_AXES = (45.0, 40.0, 15.0)
PALM_ELLIPSOID_CENTER = (0.0, 42.0, 0.0)

BACKGROUND = 0

# Rays (and box pixels) a RenderWork holds at first; a pose that needs
# more grows it
RAY_BLOCK = 1 << 14

# each finger's bones as (joint, joint) pairs, with their capsule radii
_BONES = np.array([(chain[k], chain[k + 1]) for f in range(geometry.NUM_FINGERS)
                   for chain in [geometry.finger_joint_indices(f)] for k in range(3)])
_BONE_RADII = np.tile(np.asarray(BONE_RADII_MM), geometry.NUM_FINGERS)
_SEMI_AXES = np.asarray(PALM_ELLIPSOID_SEMI_AXES, dtype=float)
_BONE_RADII.flags.writeable = _SEMI_AXES.flags.writeable = False


class RenderError(RuntimeError):
    """Raised when a pose cannot produce any foreground pixel."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        check_fields(self, "camera")

    @classmethod
    def default(cls):
        return RunConfig().build(cls, "camera")

    def project(self, points):
        """(n, 3) camera-frame mm points -> (n, 2) pixel coordinates."""
        points = np.asarray(points, dtype=float)
        z = points[..., 2]
        return np.stack([self.fx * points[..., 0] / z + self.cx,
                         self.fy * points[..., 1] / z + self.cy], axis=-1)

    def backproject(self, us, vs, depths):
        """Pixel coordinates + depths (mm) -> (n, 3) camera-frame points."""
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        z = np.asarray(depths, dtype=float)
        return np.stack([(us - self.cx) * z / self.fx,
                         (vs - self.cy) * z / self.fy, z], axis=-1)

    def save(self, path):
        write_keyvalue(path, {
            "fx": repr(self.fx), "fy": repr(self.fy),
            "cx": repr(self.cx), "cy": repr(self.cy),
            "width": str(self.width), "height": str(self.height),
        }, header="camera intrinsics (px), depth unit mm")

    @classmethod
    def from_file(cls, path):
        kv = read_keyvalue(path)
        values = dict(fx=kv.number("fx"), fy=kv.number("fy"), cx=kv.number("cx"),
                      cy=kv.number("cy"), width=kv.number("width", kind=int),
                      height=kv.number("height", kind=int))
        try:
            return cls(**values)
        except ConfigError as exc:  # names the setting; add the file
            raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class DepthImage:
    """One frame: the (h, w) uint16 `crop` of mm depths whose top-left pixel
    is (x0, y0) of the camera's image. Every pixel outside the crop, and
    every 0 in it, is background; `depth` builds the full grid on demand.

    The crop is read-only. A writable one is copied; a read-only one is
    kept as it is, so the frames of one `Frames` buffer are views of it.
    """

    crop: np.ndarray
    cam: CameraIntrinsics
    y0: int = 0
    x0: int = 0

    def __post_init__(self):
        c = np.asarray(self.crop)
        if c.dtype != np.uint16:
            raise ValueError("depth grid must be uint16 millimetres")
        y0, x0 = int(self.y0), int(self.x0)
        if c.ndim != 2 or min(y0, x0) < 0 or y0 + c.shape[0] > self.cam.height \
                or x0 + c.shape[1] > self.cam.width:
            raise ValueError(f"depth crop {c.shape} at ({x0}, {y0}) does not fit the "
                             f"intrinsics size {self.cam.width}x{self.cam.height}")
        if c.flags.writeable:
            c = c.copy()
            c.flags.writeable = False
        object.__setattr__(self, "crop", c)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "x0", x0)

    @classmethod
    def from_grid(cls, grid, cam):
        """The frame of a full (height, width) grid, cropped to the bounding
        box of its non-background pixels (an empty crop when it has none)."""
        fg = grid != BACKGROUND
        rows, cols = np.flatnonzero(fg.any(axis=1)), np.flatnonzero(fg.any(axis=0))
        y0, y1 = (rows[0], rows[-1] + 1) if len(rows) else (0, 0)
        x0, x1 = (cols[0], cols[-1] + 1) if len(cols) else (0, 0)
        crop = grid[y0:y1, x0:x1].astype(np.uint16)
        crop.flags.writeable = False
        return cls(crop, cam, y0, x0)

    @property
    def depth(self):
        """The full (height, width) grid, built anew on each read."""
        grid = np.zeros((self.cam.height, self.cam.width), dtype=np.uint16)
        h, w = self.crop.shape
        grid[self.y0:self.y0 + h, self.x0:self.x0 + w] = self.crop
        grid.flags.writeable = False
        return grid


@dataclass(frozen=True, eq=False)
class Frames:
    """A split's frames: their crops one after another, each row-major, in
    one flat read-only uint16 buffer `pixels`, and an (n, 5) int64 table
    `boxes` of each frame's (y0, x0, h, w, offset into `pixels`). Frame i
    is a DepthImage whose crop is a view of `pixels`."""

    pixels: np.ndarray
    boxes: np.ndarray
    cam: CameraIntrinsics

    @classmethod
    def pack(cls, images, cam):
        """The DepthImages `images`, all of camera `cam`, copied into one buffer."""
        boxes = np.zeros((len(images), 5), dtype=np.int64)
        for i, img in enumerate(images):
            if img.cam != cam:
                raise ValueError(f"frame {i}: its camera is not the split's")
            boxes[i, :4] = (img.y0, img.x0) + img.crop.shape
        sizes = boxes[:, 2] * boxes[:, 3]
        boxes[:, 4] = np.cumsum(sizes) - sizes
        pixels = np.empty(int(sizes.sum()), dtype=np.uint16)
        for img, offset, size in zip(images, boxes[:, 4], sizes):
            pixels[offset:offset + size] = img.crop.reshape(-1)
        pixels.flags.writeable = boxes.flags.writeable = False
        return cls(pixels, boxes, cam)

    def __len__(self):
        return len(self.boxes)

    def __getitem__(self, i):
        y0, x0, h, w, offset = self.boxes[i].tolist()
        return DepthImage(self.pixels[offset:offset + h * w].reshape(h, w), self.cam, y0, x0)

    @property
    def nbytes(self):
        """Bytes of the crop buffer: what the frames' pixels take."""
        return self.pixels.nbytes


def foreground_mask(img):
    """Boolean (h, w) mask of non-background pixels."""
    return img.depth != BACKGROUND


def hand_primitives(geom, pose):
    """Render primitives for a pose: list of capsules plus one ellipsoid.

    Returns (segments (m, 2, 3), radii (m,), ellipsoid (center, semi_axes, rot)).
    """
    joints = geometry.forward_kinematics(geom, pose)
    rot = quats.to_matrix_batch(quats.normalize(pose.orientation))
    center = pose.translation + rot @ np.asarray(PALM_ELLIPSOID_CENTER)
    return joints[_BONES], _BONE_RADII, (center, _SEMI_AXES, rot)


class RenderWork:
    """The work arrays of renders with camera `cam`: every per-ray array
    of a render is a view of them, so renders that share one reuse its
    memory instead of making and faulting in a dozen arrays each. They
    hold RAY_BLOCK rays at first and grow to the most one pose needs."""

    def __init__(self, cam):
        self.cam = cam
        self.xs = (np.arange(cam.width) - cam.cx) / cam.fx
        self.ys = (np.arange(cam.height) - cam.cy)[:, None] / cam.fy
        self.size = 0
        self.reserve(RAY_BLOCK)

    def reserve(self, size):
        """Make the arrays hold at least `size` rays and box pixels."""
        if size <= self.size:
            return
        self.size = size
        self.dirs = np.empty((size, 3))   # pixel rays
        # 2 dirs of the capsule rays; then every ray in its body's frame (at
        # right angles to the axis) or the ellipsoid's, and 2 of it in `two`
        self.local = np.empty((size, 3))
        self.two = np.empty((size, 3))
        self.d_par = np.empty(size)
        self.rowid = np.empty(size, dtype=np.intp)
        # one row per ray and quadric: both end spheres, then body or ellipsoid
        self.qa, self.qb, self.qc4, self.far = (np.empty(3 * size) for _ in range(4))
        self.hit, self.mask = np.empty(3 * size, dtype=bool), np.empty(3 * size, dtype=bool)
        self.canvas = np.empty(size)
        self.fg = np.empty(size, dtype=bool)


def render_depth(geom, pose, cam, *, work=None):
    """Z-buffered depth render of the hand surface. Deterministic.

    Returns a DepthImage cropped to the hand's bounding box; raises
    RenderError when the hand shows no pixel. The rays are cast in the
    arrays of `work`, a RenderWork of `cam` (one made for the call when
    None), so renders that share one take no new memory for their rays.
    """
    if work is None:
        work = RenderWork(cam)
    elif work.cam != cam:
        raise ValueError("the render work arrays are of another camera")
    zbuf, v0, u0 = _zbuffer(cam, *hand_primitives(geom, pose), work)
    if not zbuf.size:
        raise RenderError("hand produced no foreground pixels (behind camera or "
                          "outside the frustum)")
    crop = np.empty(zbuf.shape, dtype=np.uint16)
    _round_into(crop, zbuf, work.mask[:zbuf.size].reshape(zbuf.shape))
    crop.flags.writeable = False
    return DepthImage(crop, cam, v0, u0)


def _round_into(crop, zbuf, mask):
    """The uint16 crop of the depths `zbuf`, rounded and clipped to
    1..65534, and 0 where they are inf; `zbuf` and `mask` are spent."""
    np.isfinite(zbuf, out=mask)
    np.rint(zbuf, out=zbuf)
    np.clip(zbuf, 1, 65534, out=zbuf)
    np.multiply(zbuf, mask, out=zbuf)
    np.copyto(crop, zbuf, casting="unsafe")


def _pixel_boxes(cam, points, radii):
    """Pixel bounding boxes of primitives, primitive i the hull of spheres
    of radius radii[i] around its points (p, k, 3): a (p, 4) int array of
    (u0, u1, v0, v1) rows and a (p,) mask of the non-empty boxes.

    A sphere whose near side is over 1 mm in front of the camera is bounded
    by its tangent planes through the camera's x and y axes: the ray slopes
    t = (c_a c_z +- r sqrt(c_a^2 + c_z^2 - r^2)) / (c_z^2 - r^2), a = x, y,
    exact wherever the sphere sits off the optical axis; a primitive's box
    spans its spheres' boxes. A primitive with every sphere behind the
    camera has an empty box. Any other primitive with a sphere not over
    1 mm in front reaches the image plane, and its box is the whole image.
    """
    r = radii[:, None]
    cz = points[..., 2]
    front = cz - r > 1.0
    fit = front.all(axis=1)
    seen = ~(cz + r <= 0.0).all(axis=1)
    czr = np.where(front, cz * cz - r * r, 1.0)
    box = []
    for a, f, c in ((0, cam.fx, cam.cx), (1, cam.fy, cam.cy)):
        ca = points[..., a]
        half = r * np.sqrt(np.where(front, ca * ca + czr, 0.0))
        lo = np.where(front, (ca * cz - half) / czr, np.inf).min(axis=1)
        hi = np.where(front, (ca * cz + half) / czr, -np.inf).max(axis=1)
        # a pixel past the spheres' silhouettes on either side
        box += [np.floor(f * lo + c) - 1, np.ceil(f * hi + c) + 1]
    u0, u1, v0, v1 = (np.where(fit, b, 0).astype(np.int64) for b in box)
    whole = seen & ~fit
    u1[whole], v1[whole] = cam.width - 1, cam.height - 1
    u0, u1 = np.maximum(u0, 0), np.minimum(u1, cam.width - 1)
    v0, v1 = np.maximum(v0, 0), np.minimum(v1, cam.height - 1)
    return np.stack([u0, u1, v0, v1], axis=1), seen & (u0 <= u1) & (v0 <= v1)


def _dots(x, y):
    """Row-by-row dot products of (n, 3) arrays, each the BLAS dot of
    `x[i] @ y[i]`."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _ray_quadric(qa, qb, qc4, hit, far):
    """Roots of qa t^2 + qb t + qc = 0 row by row, given qc4 = 4 qa qc, in
    place: hit where the discriminant is non-negative, qb becomes the near
    root and far the far root, near <= far wherever hit; qc4 is spent."""
    np.multiply(qb, qb, out=far)
    np.subtract(far, qc4, out=qc4)  # the discriminant
    np.greater_equal(qc4, 0.0, out=hit)
    np.maximum(qc4, 0.0, out=qc4)
    np.sqrt(qc4, out=qc4)
    np.negative(qb, out=qb)
    np.add(qb, qc4, out=far)
    np.subtract(qb, qc4, out=qb)
    np.multiply(qa, 2.0, out=qc4)
    np.divide(qb, qc4, out=qb)
    np.divide(far, qc4, out=far)


def _sphere_depth(near, far, hit, mask):
    """Smallest positive ray parameter on a sphere from its roots, inf when
    missed, in place of `near`: the far root counts when the camera is
    inside the sphere. `mask` is spent."""
    np.greater(near, 0.0, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(near, far, where=mask)
    _keep_ahead(near, hit, mask)


def _keep_ahead(t, hit, mask):
    """t where hit and t > 0, inf elsewhere, in place. `mask` is spent."""
    np.greater(t, 0.0, out=mask)
    np.logical_and(mask, hit, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(t, np.inf, where=mask)


def _quadrics(segs, radii, ellipsoid):
    """The constants of a pose's quadrics, by primitive index j: capsule j
    < m and then the ellipsoid m. Per capsule: its end-sphere origins
    `ends` (m, 2, 3) (minus its end points), its unit `axis`, the axial
    offset `oc_par` of its start and its `length` (nan where it has no
    body); per primitive, the `origins` of its body or ellipsoid quadric;
    and `qc`, the constant terms of the end-sphere, end-sphere and
    body-or-ellipsoid quadratics. Each is the primitive's alone: the dots
    are its own BLAS dots, as `x @ y` gives them."""
    center, semi_axes, rot = ellipsoid
    ends = np.negative(segs)
    r2 = radii * radii
    ab = segs[:, 1] - segs[:, 0]
    length = np.sqrt(_dots(ab, ab))
    body = length > 1e-9  # a shorter capsule is its end spheres alone
    axis = np.divide(ab, length[:, None], out=np.zeros_like(ab), where=body[:, None])
    oc_par = _dots(ends[:, 0], axis)
    origins = np.concatenate([ends[:, 0] - oc_par[:, None] * axis,
                              [(-center) @ rot / semi_axes]])
    qc = [_dots(ends[:, e], ends[:, e]) - r2 for e in (0, 1)]
    qc.append(_dots(origins, origins) - np.append(r2, 1.0))
    return ends, axis, oc_par, np.where(body, length, np.nan), origins, qc


def _zbuffer(cam, segs, radii, ellipsoid, work):
    """Depth of the nearest surface along every pixel ray, inf where there
    is none, of the capsules `segs` (m, 2, 3) with `radii` (m,) and the
    ellipsoid (center, semi_axes, rot), in one ray pass, one ray-quadric
    solve and one z-buffer pass, over the bounding box of the pixels that
    see a surface: (zbuf, v0, u0), zbuf the box's depths and (u0, v0) its
    top-left pixel. Every pixel outside the box sees none; with no such
    pixel the box is empty at (0, 0). Every per-ray array is a view of
    `work`, a RenderWork of `cam`, and so is zbuf, valid until the next
    use of `work`.

    A capsule is its two end spheres and the infinite cylinder around its
    axis, cut to the segment; the ellipsoid is the unit sphere in its own
    scaled frame. Each primitive casts the rays of its pixel box (bounded
    by its spheres' exact tangent planes), and rays have unit z component,
    so a ray parameter is a depth in mm. The per-primitive scalars and
    BLAS products are those of the primitive alone, so no depth depends
    on the batching.
    """
    center, semi_axes, rot = ellipsoid
    m = len(segs)
    boxes, seen = _pixel_boxes(cam, np.concatenate([segs, [[center, center]]]),
                               np.append(radii, float(np.max(semi_axes))))
    if not seen.any():
        return np.empty((0, 0)), 0, 0
    u0, u1, v0, v1 = boxes.T
    # rays: every capsule's, then the ellipsoid's
    counts = np.where(seen, (u1 - u0 + 1) * (v1 - v0 + 1), 0)
    starts = np.cumsum(counts) - counts
    nc, n = int(counts[:m].sum()), int(counts.sum())
    q = 2 * nc + n
    x0, x1 = int(u0[seen].min()), int(u1[seen].max()) + 1
    y0, y1 = int(v0[seen].min()), int(v1[seen].max()) + 1
    work.reserve(max(n, (y1 - y0) * (x1 - x0)))
    ends, axis, oc_par, length, origins, qc = _quadrics(segs, radii, ellipsoid)

    # each primitive that casts rays: its index, its rays' range and its
    # box (columns a0:a1, rows b0:b1); ray i has row id j
    prims = np.flatnonzero(counts)
    casts = list(zip(prims.tolist(), starts[prims].tolist(), (starts + counts)[prims].tolist(),
                     u0[prims].tolist(), (u1[prims] + 1).tolist(),
                     v0[prims].tolist(), (v1[prims] + 1).tolist()))
    s = work
    dirs, local, two, d_par, rowid = s.dirs, s.local, s.two, s.d_par, s.rowid
    dirs[:n, 2] = 1.0
    for j, lo, hi, a0, a1, b0, b1 in casts:
        shape = (b1 - b0, a1 - a0)
        dirs[lo:hi, 0].reshape(shape)[...] = s.xs[a0:a1]
        dirs[lo:hi, 1].reshape(shape)[...] = s.ys[b0:b1]
        rowid[lo:hi] = j
    np.multiply(dirs[:nc], 2.0, out=local[:nc])
    qa, qb, qc4, far, hit, mask = s.qa, s.qb, s.qc4, s.far, s.hit, s.mask
    for j, lo, hi, *_ in casts:
        if j < m:
            np.matmul(dirs[lo:hi], axis[j], out=d_par[lo:hi])
            np.matmul(local[lo:hi], ends[j, 0], out=qb[lo:hi])
            np.matmul(local[lo:hi], ends[j, 1], out=qb[nc + lo:nc + hi])
        else:
            np.matmul(dirs[lo:hi], rot, out=local[lo:hi])
    # each body's rays perpendicular to its axis; the ellipsoid's, scaled
    np.take(axis, rowid[:nc], axis=0, out=local[:nc])
    np.multiply(local[:nc], d_par[:nc, None], out=local[:nc])
    np.subtract(dirs[:nc], local[:nc], out=local[:nc])
    np.divide(local[nc:n], semi_axes, out=local[nc:n])
    np.multiply(local[:n], 2.0, out=two[:n])
    for j, lo, hi, *_ in casts:
        np.matmul(two[lo:hi], origins[j], out=qb[2 * nc + lo:2 * nc + hi])
    np.einsum("ij,ij->i", dirs[:nc], dirs[:nc], out=qa[:nc])
    qa[nc:2 * nc] = qa[:nc]
    np.einsum("ij,ij->i", local[:n], local[:n], out=qa[2 * nc:q])
    np.take(qc[0], rowid[:nc], out=far[:nc])
    np.take(qc[1], rowid[:nc], out=far[nc:2 * nc])
    np.take(qc[2], rowid[:n], out=far[2 * nc:q])
    np.multiply(qa[:q], 4.0, out=qc4[:q])
    np.multiply(qc4[:q], far[:q], out=qc4[:q])
    with np.errstate(divide="ignore", invalid="ignore"):
        _ray_quadric(qa[:q], qb[:q], qc4[:q], hit[:q], far[:q])
        near, sph, cyl = qb, slice(0, 2 * nc), slice(2 * nc, 3 * nc)
        _sphere_depth(near[sph], far[sph], hit[sph], mask[sph])
        # a body hit counts where the ray is not along the axis and the
        # hit projects onto the segment
        proj = far[cyl]
        np.multiply(near[cyl], d_par[:nc], out=proj)
        np.add(proj, np.take(oc_par, rowid[:nc], out=qc4[cyl]), out=proj)
        np.greater(qa[cyl], 1e-12, out=mask[cyl])
        np.logical_and(hit[cyl], mask[cyl], out=hit[cyl])
        np.greater_equal(proj, 0.0, out=mask[cyl])
        np.logical_and(hit[cyl], mask[cyl], out=hit[cyl])
        np.less_equal(proj, np.take(length, rowid[:nc], out=qc4[cyl]), out=mask[cyl])
        np.logical_and(hit[cyl], mask[cyl], out=hit[cyl])
    _keep_ahead(near[2 * nc:q], hit[2 * nc:q], mask[2 * nc:q])
    # the nearest hit per ray of a capsule, then per pixel: ray i's depth
    # is near[2 nc + i], whichever primitive cast it
    np.minimum(near[:nc], near[nc:2 * nc], out=near[:nc])
    np.minimum(near[cyl], near[:nc], out=near[cyl])
    depths = near[2 * nc:q]
    canvas = s.canvas[:(y1 - y0) * (x1 - x0)].reshape(y1 - y0, x1 - x0)
    canvas.fill(np.inf)
    for j, lo, hi, a0, a1, b0, b1 in casts:
        view = canvas[b0 - y0:b1 - y0, a0 - x0:a1 - x0]
        np.minimum(view, depths[lo:hi].reshape(view.shape), out=view)
    fg = np.isfinite(canvas, out=s.fg[:canvas.size].reshape(canvas.shape))
    rows = np.flatnonzero(fg.any(axis=1))
    cols = np.flatnonzero(fg.any(axis=0))
    if not len(rows):
        return canvas[:0, :0], 0, 0
    return (canvas[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1],
            y0 + int(rows[0]), x0 + int(cols[0]))


def write_pgm(path, img):
    """16-bit binary PGM (P5, maxval 65535, big-endian samples) of the
    frame's full grid."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.cam.width} {img.cam.height}\n65535\n".encode())
        fh.write(np.ascontiguousarray(img.depth, dtype=">u2").tobytes())


def read_pgm(path, cam=None):
    """Read a 16-bit PGM as a DepthImage cropped to the bounding box of its
    non-background pixels; `cam` defaults to intrinsics matching its size.

    A malformed file raises ValueError("path: reason").
    """
    data = Path(path).read_bytes()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(data):
            raise ValueError(f"{path}: header ends after {len(tokens)} of 4 fields")
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    for token in tokens[1:]:
        if re.fullmatch(rb"[+-]?[0-9]+", token) is None:
            raise ValueError(f"{path}: header field {token!r} is not an integer")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: image size {width}x{height} is not positive")
    if maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit maxval 65535, got {maxval}")
    if cam is not None and (cam.width, cam.height) != (width, height):
        raise ValueError(f"{path}: image is {width}x{height}, the intrinsics "
                         f"are {cam.width}x{cam.height}")
    pos += 1  # single whitespace after maxval
    size = 2 * width * height
    if len(data) - pos < size:
        raise ValueError(f"{path}: pixel data truncated, "
                         f"{max(len(data) - pos, 0)} of {size} bytes")
    grid = np.frombuffer(data, dtype=">u2", count=width * height, offset=pos)
    if cam is None:
        cam = CameraIntrinsics(fx=DEFAULTS["camera.fx"], fy=DEFAULTS["camera.fy"],
                               cx=width / 2, cy=height / 2, width=width, height=height)
    return DepthImage.from_grid(grid.reshape(height, width), cam)
