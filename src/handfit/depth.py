"""Synthetic depth imaging: pinhole camera, capsule/ellipsoid z-buffer renderer.

Depth images hold 16-bit millimetre depths with 0 as the background
sentinel. Rendering casts one ray per pixel and intersects it analytically
with a capsule per finger bone plus a palm ellipsoid, keeping the nearest
surface. A pose's primitives are rasterised together: their pixel boxes
(bounded by each sphere's exact tangent planes) and rays are built in one
pass, and every capsule's end spheres and body and the ellipsoid go
through one batched ray-quadric solve. Each primitive's own products keep
the bits they have when it is solved alone, so the depths do not depend
on the batching. A frame is stored as the crop of its foreground bounding
box (`DepthImage`), and a split's frames as one flat buffer of their crops
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
    segs = []
    radii = []
    for f in range(geometry.NUM_FINGERS):
        chain = geometry.finger_joint_indices(f)
        for k in range(3):
            segs.append((joints[chain[k]], joints[chain[k + 1]]))
            radii.append(BONE_RADII_MM[k])
    rot = quats.to_matrix_batch(quats.normalize(pose.orientation))
    center = pose.translation + rot @ np.asarray(PALM_ELLIPSOID_CENTER)
    ellipsoid = (center, np.asarray(PALM_ELLIPSOID_SEMI_AXES, dtype=float), rot)
    return np.asarray(segs, dtype=float), np.asarray(radii, dtype=float), ellipsoid


def render_depth(geom, pose, cam):
    """Z-buffered depth render of the hand surface. Deterministic.

    Returns a DepthImage cropped to the hand's bounding box.
    """
    zbuf, v0, u0 = _zbuffer(cam, *hand_primitives(geom, pose))
    if not zbuf.size:
        raise RenderError("hand produced no foreground pixels (behind camera or "
                          "outside the frustum)")
    fg = np.isfinite(zbuf)
    crop = np.zeros(zbuf.shape, dtype=np.uint16)
    crop[fg] = np.clip(np.rint(zbuf[fg]), 1, 65534)
    crop.flags.writeable = False
    return DepthImage(crop, cam, v0, u0)


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


def _box_rays(cam, boxes):
    """Every pixel of the boxes (b, 4) of (u0, u1, v0, v1) rows, box after
    box and row by row in each: its (u, v), its ray direction
    ((u - cx) / fx, (v - cy) / fy, 1), and the pixel count of each box."""
    u0, u1, v0, v1 = boxes.T
    width = u1 - u0 + 1
    counts = width * (v1 - v0 + 1)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    width = np.repeat(width, counts)
    us = np.repeat(u0, counts) + k % width
    vs = np.repeat(v0, counts) + k // width
    dirs = np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones(len(us))], axis=1)
    return us, vs, dirs, counts


def _ray_quadric(dirs, origins, c, counts):
    """Roots of |dirs * t + origin|^2 = c for every ray, the rays in blocks
    of `counts` and block i meeting origins[i] and c[i]: (hit, qa, near,
    far), hit where the discriminant is non-negative, qa the quadratic's
    leading coefficient, near <= far the two roots wherever hit.

    A block's linear coefficients come from one BLAS product of its own, as
    they do when the block is solved alone; every other step runs over all
    rays at once.
    """
    qa = np.einsum("ij,ij->i", dirs, dirs)
    two = 2.0 * dirs
    qb = np.empty(len(dirs))
    qc = np.empty(len(counts))
    lo = 0
    for i, n in enumerate(counts):
        np.matmul(two[lo:lo + n], origins[i], out=qb[lo:lo + n])
        qc[i] = origins[i] @ origins[i] - c[i]
        lo += n
    qc = np.repeat(qc, counts)
    disc = qb * qb - 4.0 * qa * qc
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        near = (-qb - sq) / (2.0 * qa)
        far = (-qb + sq) / (2.0 * qa)
    return disc >= 0.0, qa, near, far


def _sphere_depth(hit, near, far):
    """Smallest positive ray parameter on a sphere from its roots; inf when
    missed. The far root counts when the camera is inside the sphere."""
    t = np.where(near > 0.0, near, far)
    return np.where(hit & (t > 0.0), t, np.inf)


def _zbuffer(cam, segs, radii, ellipsoid):
    """Depth of the nearest surface along every pixel ray, inf where there
    is none, of the capsules `segs` (m, 2, 3) with `radii` (m,) and the
    ellipsoid (center, semi_axes, rot), in one batched ray solve, over the
    bounding box of the pixels that see a surface: (zbuf, v0, u0), zbuf
    the box's depths and (u0, v0) its top-left pixel. Every pixel outside
    the box sees none; with no such pixel the box is empty at (0, 0).

    A capsule is its two end spheres and the infinite cylinder around its
    axis, cut to the segment; the ellipsoid is the unit sphere in its own
    scaled frame. Each primitive casts the rays of its pixel box, and rays
    have unit z component, so a ray parameter is a depth in mm. The
    per-primitive scalars and products are computed as for the primitive
    alone, so no depth depends on the batching.
    """
    center, semi_axes, rot = ellipsoid
    boxes, seen = _pixel_boxes(cam, np.concatenate([segs, [[center, center]]]),
                               np.append(radii, float(np.max(semi_axes))))
    us, vs, dirs, counts = _box_rays(cam, boxes[seen])
    caps = np.flatnonzero(seen[:-1])
    starts = (np.cumsum(counts) - counts).tolist()
    counts = counts.tolist()
    n = sum(counts[:len(caps)])  # the capsules' rays, then the ellipsoid's
    # (origin, c, ray count) of each quadric: the capsules' end spheres,
    # then the body of each capsule longer than 1e-9 mm
    quadrics = [(-segs[k, end], radii[k] * radii[k], counts[i])
                for end in (0, 1) for i, k in enumerate(caps)]
    d_par = np.empty(n)
    rows, axes, oc_par, lengths = [], [], [], []
    for i, k in enumerate(caps):
        a, b = segs[k]
        ab = b - a
        length = np.linalg.norm(ab)
        if length > 1e-9:
            lo, hi = starts[i], starts[i] + counts[i]
            axis = ab / length
            np.matmul(dirs[lo:hi], axis, out=d_par[lo:hi])
            oc = -a @ axis
            quadrics.append((-a - oc * axis, radii[k] * radii[k], counts[i]))
            rows.append(np.arange(lo, hi))
            axes.append(axis)
            oc_par.append(oc)
            lengths.append(length)
    sizes = [len(r) for r in rows]
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
    rays = [dirs[:n], dirs[:n],
            dirs[rows] - d_par[rows, None] * np.repeat(np.reshape(axes, (-1, 3)), sizes, axis=0)]
    if seen[-1]:
        quadrics.append(((-center) @ rot / semi_axes, 1.0, counts[-1]))
        rays.append(dirs[n:] @ rot / semi_axes)
    origins, c, ray_counts = zip(*quadrics) if quadrics else ((), (), ())
    hit, qa, near, far = _ray_quadric(np.concatenate(rays), origins, c, ray_counts)

    t = np.minimum(_sphere_depth(hit[:n], near[:n], far[:n]),
                   _sphere_depth(hit[n:2 * n], near[n:2 * n], far[n:2 * n]))
    body = slice(2 * n, 2 * n + len(rows))
    proj = near[body] * d_par[rows] + np.repeat(oc_par, sizes)
    on_body = (hit[body] & (qa[body] > 1e-12) & (near[body] > 0.0) & (proj >= 0.0)
               & (proj <= np.repeat(lengths, sizes)))
    t[rows] = np.minimum(t[rows], np.where(on_body, near[body], np.inf))
    ell = slice(body.stop, None)
    t = np.concatenate([t, np.where(hit[ell] & (near[ell] > 0.0), near[ell], np.inf)])
    # the nearest hit per pixel, whichever primitive's ray made it
    hit = np.isfinite(t)
    us, vs, t = us[hit], vs[hit], t[hit]
    v0, u0 = (int(vs.min()), int(us.min())) if len(t) else (0, 0)
    h, w = (int(vs.max()) + 1 - v0, int(us.max()) + 1 - u0) if len(t) else (0, 0)
    zbuf = np.full((h, w), np.inf)
    np.minimum.at(zbuf.reshape(-1), (vs - v0) * w + (us - u0), t)
    return zbuf, v0, u0


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
