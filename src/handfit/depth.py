"""Synthetic depth imaging: pinhole camera, capsule/ellipsoid z-buffer renderer.

Depth images hold 16-bit millimetre depths with 0 as the background
sentinel. Rendering casts one ray per pixel and intersects it analytically
with a capsule per finger bone plus a palm ellipsoid, keeping the nearest
surface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry, quats
from .config import RunConfig, load_keyvalue, write_keyvalue

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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

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
        return load_keyvalue(path, lambda kv: cls(
            fx=kv.number("fx"), fy=kv.number("fy"), cx=kv.number("cx"),
            cy=kv.number("cy"), width=kv.number("width", kind=int),
            height=kv.number("height", kind=int)))


@dataclass(frozen=True)
class DepthImage:
    """(h, w) uint16 grid of mm depths; 0 marks background."""

    depth: np.ndarray
    cam: CameraIntrinsics

    def __post_init__(self):
        d = np.asarray(self.depth)
        if d.dtype != np.uint16:
            raise ValueError("depth grid must be uint16 millimetres")
        if d.shape != (self.cam.height, self.cam.width):
            raise ValueError("depth grid does not match intrinsics size")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "depth", d)


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
    """Z-buffered depth render of the hand surface. Deterministic and pure."""
    segs, radii, ellipsoid = hand_primitives(geom, pose)
    zbuf = np.full((cam.height, cam.width), np.inf)

    for (a, b), r in zip(segs, radii):
        _raster_capsule(zbuf, cam, a, b, r)
    _raster_ellipsoid(zbuf, cam, *ellipsoid)

    fg = np.isfinite(zbuf)
    if not fg.any():
        raise RenderError("hand produced no foreground pixels (behind camera or "
                          "outside the frustum)")
    out = np.zeros((cam.height, cam.width), dtype=np.uint16)
    out[fg] = np.clip(np.rint(zbuf[fg]), 1, 65534).astype(np.uint16)
    return DepthImage(out, cam)


def _pixel_box(cam, points, radius):
    """Conservative pixel bounding box of spheres at `points`; None if empty."""
    points = np.asarray(points, dtype=float)
    z = points[:, 2] - radius
    if np.all(z <= 1.0):
        return None
    keep = z > 1.0
    pts = points[keep]
    z = z[keep]
    us = cam.fx * pts[:, 0] / z + cam.cx
    vs = cam.fy * pts[:, 1] / z + cam.cy
    pr_u = radius * cam.fx / z
    pr_v = radius * cam.fy / z
    u0 = int(np.floor((us - pr_u).min())) - 1
    u1 = int(np.ceil((us + pr_u).max())) + 1
    v0 = int(np.floor((vs - pr_v).min())) - 1
    v1 = int(np.ceil((vs + pr_v).max())) + 1
    u0, u1 = max(u0, 0), min(u1, cam.width - 1)
    v0, v1 = max(v0, 0), min(v1, cam.height - 1)
    if u0 > u1 or v0 > v1:
        return None
    return u0, u1, v0, v1


def _box_rays(cam, box):
    u0, u1, v0, v1 = box
    us, vs = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    dirs = np.stack([(us.ravel() - cam.cx) / cam.fx,
                     (vs.ravel() - cam.cy) / cam.fy,
                     np.ones(us.size)], axis=1)
    return us.ravel(), vs.ravel(), dirs


def _update_zbuf(zbuf, us, vs, t):
    hit = np.isfinite(t)
    if not hit.any():
        return
    flat = zbuf[vs[hit], us[hit]]
    zbuf[vs[hit], us[hit]] = np.minimum(flat, t[hit])


def _ray_quadric(dirs, origin, c):
    """Roots of |dirs * t + origin|^2 = c for every ray, as (hit, qa, near,
    far): hit where the discriminant is non-negative, qa the quadratic's
    leading coefficient, near <= far the two roots wherever hit."""
    qa = np.einsum("ij,ij->i", dirs, dirs)
    qb = 2.0 * dirs @ origin
    qc = origin @ origin - c
    disc = qb * qb - 4.0 * qa * qc
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        near = (-qb - sq) / (2.0 * qa)
        far = (-qb + sq) / (2.0 * qa)
    return disc >= 0.0, qa, near, far


def _ray_sphere(dirs, center, radius):
    """Smallest positive ray parameter hitting the sphere; inf when missed."""
    hit, _, near, far = _ray_quadric(dirs, -center, radius * radius)
    t = np.where(near > 0.0, near, far)
    return np.where(hit & (t > 0.0), t, np.inf)


def _raster_capsule(zbuf, cam, a, b, radius):
    box = _pixel_box(cam, np.stack([a, b]), radius)
    if box is None:
        return
    us, vs, dirs = _box_rays(cam, box)

    # rays have unit z component, so the parameter is the depth in mm
    t = np.minimum(_ray_sphere(dirs, a, radius), _ray_sphere(dirs, b, radius))
    ab = b - a
    length = np.linalg.norm(ab)
    if length > 1e-9:
        # the infinite cylinder around the axis, cut to the segment
        axis = ab / length
        d_par = dirs @ axis
        oc_par = -a @ axis
        hit, qa, near, _ = _ray_quadric(dirs - d_par[:, None] * axis,
                                        -a - oc_par * axis, radius * radius)
        proj = near * d_par + oc_par
        body = hit & (qa > 1e-12) & (near > 0.0) & (proj >= 0.0) & (proj <= length)
        t = np.minimum(t, np.where(body, near, np.inf))
    _update_zbuf(zbuf, us, vs, t)


def _raster_ellipsoid(zbuf, cam, center, semi_axes, rot):
    box = _pixel_box(cam, center[None, :], float(np.max(semi_axes)))
    if box is None:
        return
    us, vs, dirs = _box_rays(cam, box)
    # the ellipsoid is the unit sphere in its own scaled frame
    hit, _, near, _ = _ray_quadric(dirs @ rot / semi_axes,
                                   (-center) @ rot / semi_axes, 1.0)
    _update_zbuf(zbuf, us, vs, np.where(hit & (near > 0.0), near, np.inf))


def write_pgm(path, img):
    """16-bit binary PGM (P5, maxval 65535, big-endian samples)."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.cam.width} {img.cam.height}\n65535\n".encode())
        fh.write(np.ascontiguousarray(img.depth, dtype=">u2").tobytes())


def read_pgm(path, cam=None):
    """Read a 16-bit PGM; `cam` defaults to intrinsics matching its size.

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
    grid = grid.reshape(height, width).astype(np.uint16)
    if cam is None:
        cam = CameraIntrinsics(fx=280.0, fy=280.0, cx=width / 2, cy=height / 2,
                               width=width, height=height)
    return DepthImage(grid, cam)
