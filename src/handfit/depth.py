"""Synthetic depth imaging: pinhole camera, capsule/ellipsoid z-buffer renderer.

Depth images hold 16-bit millimetre depths with 0 as the background
sentinel. Rendering casts one ray per pixel and intersects it analytically
with a capsule per finger bone plus a palm ellipsoid, keeping the nearest
surface. A pose's primitives are rasterised together: their pixel boxes
(bounded by each sphere's exact tangent planes) and rays are built in one
pass, and every capsule's end spheres and body and the ellipsoid go
through one batched ray-quadric solve. Each primitive's own products keep
the bits they have when it is solved alone, so the depths do not depend
on the batching. The frames of a split are the rows of one read-only
stack (`stack_frames`), which training reads in place (`shared_stack`).
The stack comes from `zero_stack` and frames are rendered or read into it
foreground pixels only, so a large stack's background pages are never
backed by memory of their own.
"""

from __future__ import annotations

import mmap
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

# A frame stack of at least this many bytes gets a mapping of its own.
MAPPED_STACK_BYTES = 1 << 22


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
    """(h, w) uint16 grid of mm depths; 0 marks background.

    The grid is read-only. One that nothing can write (it is read-only,
    so is every array it is a view of, and its memory is a numpy array's
    own or a `zero_stack` mapping) is kept as it is, so the frames of one
    stack share its memory; any other grid, say one over a caller's own
    `mmap`, is copied.
    """

    depth: np.ndarray
    cam: CameraIntrinsics

    def __post_init__(self):
        d = np.asarray(self.depth)
        if d.dtype != np.uint16:
            raise ValueError("depth grid must be uint16 millimetres")
        if d.shape != (self.cam.height, self.cam.width):
            raise ValueError("depth grid does not match intrinsics size")
        if not _read_only(d):
            d = d.copy()
            d.flags.writeable = False
        object.__setattr__(self, "depth", d)


def _read_only(array):
    """True when `array` and every array whose memory it views are read-only,
    and that memory is a numpy array's own or a `zero_stack` mapping."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None or isinstance(array, _StackPages)


class _StackPages(mmap.mmap):
    """The private anonymous mapping behind a `zero_stack`: the one buffer
    other than numpy's own memory that a DepthImage keeps uncopied."""


def zero_stack(n, height, width):
    """A writable (n, height, width) uint16 stack of zeros (background)
    whose pages take resident memory only once a pixel on them is written.

    A stack of at least MAPPED_STACK_BYTES (4 MiB) is a private anonymous
    mapping with transparent huge pages refused, so each untouched page
    reads from the kernel's shared zero page: writing only the foreground
    of its frames leaves the background pages unbacked, and reading them
    adds nothing. numpy asks for huge pages on allocations of 4 MiB or
    more, which makes a `np.zeros` stack that size as resident as a filled
    one. A smaller stack, or any stack where `mmap` has no MAP_PRIVATE,
    comes from `np.zeros`: a mapping of its own costs more set-up time than
    its pages save.
    """
    shape = (n, height, width)
    size = n * height * width * np.dtype(np.uint16).itemsize
    if size < MAPPED_STACK_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype=np.uint16)
    pages = _StackPages(-1, size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, np.uint16, buffer=pages)


def stack_frames(stack, cam):
    """The rows of an (n, h, w) uint16 stack as n DepthImages that share its
    memory. The stack is made read-only first, so nothing writes them."""
    stack.flags.writeable = False
    return [DepthImage(grid, cam) for grid in stack]


def shared_stack(images):
    """The (n, h, w) stack whose rows, in order, are the grids of the n
    `images` (as `stack_frames` returns them), or None when there is none."""
    stack = images[0].depth.base if images else None
    if not isinstance(stack, np.ndarray) or stack.shape[:1] != (len(images),):
        return None
    row = stack.strides[0]
    for i, img in enumerate(images):
        if img.depth.base is not stack or img.depth.strides != stack.strides[1:] \
                or img.depth.ctypes.data != stack.ctypes.data + i * row:
            return None
    return stack


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


def render_depth(geom, pose, cam, out=None):
    """Z-buffered depth render of the hand surface. Deterministic.

    Returns a DepthImage. Given `out`, a writable (h, w) uint16 grid such
    as a row of a `zero_stack`, the depths are written into it and `out` is
    returned instead. Only the hand's pixels and the other pixels of `out`
    that are not background are written, so the background pages of a
    fresh stack row are read but never written.
    """
    zbuf = _zbuffer(cam, *hand_primitives(geom, pose))
    fg = np.isfinite(zbuf)
    if not fg.any():
        raise RenderError("hand produced no foreground pixels (behind camera or "
                          "outside the frustum)")
    if out is None:
        grid = np.zeros((cam.height, cam.width), dtype=np.uint16)
    else:
        grid = out
        np.copyto(grid, BACKGROUND, where=grid != BACKGROUND)
    grid[fg] = np.clip(np.rint(zbuf[fg]), 1, 65534)
    if out is not None:
        return out
    grid.flags.writeable = False
    return DepthImage(grid, cam)


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
    """(h, w) depth of the nearest surface along every pixel ray, inf where
    there is none, of the capsules `segs` (m, 2, 3) with `radii` (m,) and
    the ellipsoid (center, semi_axes, rot), in one batched ray solve.

    A capsule is its two end spheres and the infinite cylinder around its
    axis, cut to the segment; the ellipsoid is the unit sphere in its own
    scaled frame. Each primitive casts the rays of its pixel box, and rays
    have unit z component, so a ray parameter is a depth in mm. The
    per-primitive scalars and products are computed as for the primitive
    alone, so no depth depends on the batching.
    """
    center, semi_axes, rot = ellipsoid
    zbuf = np.full((cam.height, cam.width), np.inf)
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
    np.minimum.at(zbuf.reshape(-1), (vs * cam.width + us)[hit], t[hit])
    return zbuf


def write_pgm(path, img):
    """16-bit binary PGM (P5, maxval 65535, big-endian samples)."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.cam.width} {img.cam.height}\n65535\n".encode())
        fh.write(np.ascontiguousarray(img.depth, dtype=">u2").tobytes())


def read_pgm(path, cam=None, out=None):
    """Read a 16-bit PGM as a DepthImage; `cam` defaults to intrinsics
    matching its size. Given `out`, a writable uint16 grid of the camera's
    size such as a row of a `zero_stack`, the depths are written into it
    and `out` is returned instead. Only the pixels of `out` that differ
    from the file's are written, so a fresh stack row takes pages for the
    foreground only.

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
    grid = grid.reshape(height, width)
    if out is not None:
        np.copyto(out, grid, where=out != grid)
        return out
    grid = grid.astype(np.uint16)
    grid.flags.writeable = False
    if cam is None:
        cam = CameraIntrinsics(fx=DEFAULTS["camera.fx"], fy=DEFAULTS["camera.fy"],
                               cx=width / 2, cy=height / 2, width=width, height=height)
    return DepthImage(grid, cam)
