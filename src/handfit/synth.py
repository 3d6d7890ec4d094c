"""Training/test corpora: articulation grids, interpolated sequences, datasets.

The training grid follows the protocol of combining a handful of named
articulation templates per finger under a small set of whole-hand
viewpoints; the test material is a keypose-interpolated sequence with the
global pose held fixed, subsampled to simulate faster motion.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from . import geometry, quats
from .config import DEFAULTS, read_keyvalue
from .depth import Frames, RenderError, RenderWork, read_pgm, render_depth, write_pgm

TEMPLATE_NAMES = ("extended", "flexed", "half", "spread")


def load_articulations(path=None):
    """Per-finger articulation templates -> (5, n_templates, 4) radians."""
    if path is None:
        return geometry.load_data("articulations.txt", load_articulations)
    kv = read_keyvalue(path)
    out = np.zeros((5, len(TEMPLATE_NAMES), 4))
    for f, finger in enumerate(geometry.FINGERS):
        for t, tmpl in enumerate(TEMPLATE_NAMES):
            for a, angle in enumerate(geometry.ANGLE_NAMES):
                out[f, t, a] = np.radians(kv.number(f"{finger}.{tmpl}.{angle}_deg"))
    return out


def load_viewpoints(path=None):
    """Whole-hand orientations -> (n_views, 4) unit quaternions."""
    if path is None:
        return geometry.load_data("viewpoints.txt", load_viewpoints)
    kv = read_keyvalue(path)
    views = []
    i = 0
    while f"view{i}.angle_deg" in kv:
        axis = np.array([kv.number(f"view{i}.axis.{ax}") for ax in "xyz"])
        angle = np.radians(kv.number(f"view{i}.angle_deg"))
        views.append(quats.from_axis_angle(axis, angle))
        i += 1
    if not views:
        raise ValueError(f"{path}: no viewpoints found")
    return np.asarray(views)


def generate_training_poses(articulations=None, viewpoints=None, *, limits,
                            translation=(0.0, 0.0, DEFAULTS["synth.distance_mm"]),
                            per_finger=None, num_views=None):
    """Cartesian articulation grid under every viewpoint.

    With the default 4 templates per finger and 7 viewpoints this yields
    4**5 * 7 = 7168 poses. Every pose is validated against the limits.
    """
    if articulations is None:
        articulations = load_articulations()
    if viewpoints is None:
        viewpoints = load_viewpoints()
    if per_finger is not None:
        articulations = articulations[:, :per_finger]
    if num_views is not None:
        viewpoints = viewpoints[:num_views]
    translation = np.asarray(translation, dtype=float)

    n_templates = articulations.shape[1]
    poses = []
    for view in viewpoints:
        for combo in itertools.product(range(n_templates), repeat=5):
            angles = np.stack([articulations[f, c] for f, c in enumerate(combo)])
            pose = geometry.PoseParams(translation, view, angles)
            if not geometry.validate_pose(pose, limits):
                raise ValueError("articulation template violates joint limits")
            poses.append(pose)
    return poses


def interpolate_pose(a, b, t, limits):
    """Parameter-space interpolation: slerp orientation, lerp the rest."""
    trans = (1.0 - t) * a.translation + t * b.translation
    quat = quats.slerp(quats.normalize(a.orientation),
                       quats.normalize(b.orientation), t)
    angles = (1.0 - t) * a.finger_angles + t * b.finger_angles
    return geometry.clamp_to_limits(geometry.PoseParams(trans, quat, angles), limits)


def generate_sequence(keyposes, frames_between, subsample, limits):
    """Interpolated sequence through `keyposes`, then every subsample-th frame.

    Each keypose segment contributes frames_between + 1 frames (start
    inclusive, end exclusive), so n keyposes make (n-1)*(frames_between+1)
    frames before subsampling; every frame is clamped to `limits`. Only
    the kept frames are interpolated: frame f lies on segment f // steps
    at t = (f % steps) / steps, with steps = frames_between + 1.
    """
    if len(keyposes) < 2:
        raise ValueError("need at least 2 keyposes")
    if frames_between < 1:
        raise ValueError("frames_between must be >= 1")
    if subsample < 1:
        raise ValueError("subsample must be >= 1")
    steps = frames_between + 1
    return [interpolate_pose(keyposes[f // steps], keyposes[f // steps + 1],
                             (f % steps) / steps, limits)
            for f in range(0, (len(keyposes) - 1) * steps, subsample)]


def make_track_keyposes(rng, count, *, limits, articulations=None, orientation=None,
                        translation=(0.0, 0.0, DEFAULTS["synth.distance_mm"])):
    """Random articulation-grid keyposes with a fixed global pose.

    The tracked-sequence analog articulates fingers while position and
    orientation stay constant, so keyposes share one translation/quaternion.
    """
    if articulations is None:
        articulations = load_articulations()
    if orientation is None:
        orientation = quats.IDENTITY.copy()
    translation = np.asarray(translation, dtype=float)
    n_templates = articulations.shape[1]
    keyposes = []
    for _ in range(count):
        combo = rng.integers(0, n_templates, size=5)
        angles = np.stack([articulations[f, c] for f, c in enumerate(combo)])
        pose = geometry.PoseParams(translation, orientation, angles)
        keyposes.append(geometry.clamp_to_limits(pose, limits))
    return keyposes


def render_poses(poses, geom, cam, *, jitter_mm=0.0, rng=None):
    """Render each pose and return the split as Frames: one flat buffer of
    the frames' foreground bounding-box crops. Optional uniform depth
    jitter on foreground pixels, drawn frame after frame.

    Every frame is one `render_depth` call, and all of them cast their
    rays in one RenderWork; each crop is appended to the split's buffer as
    it is made, so a call holds its frames' pixels once. A pose that shows
    no pixel raises RenderError naming it, the first such pose in order.
    """
    if jitter_mm > 0.0 and rng is None:
        raise ValueError("depth jitter requires an rng")
    work = RenderWork(cam)
    boxes = []
    pixels = np.empty(0, dtype=np.uint16)
    for i, pose in enumerate(poses):
        try:
            img = render_depth(geom, pose, cam, work=work)
        except RenderError as exc:
            raise RenderError(f"pose {i}: {exc}") from None
        crop = _jittered(img.crop, jitter_mm, rng) if jitter_mm > 0.0 else img.crop
        offset = len(pixels)
        boxes.append((img.y0, img.x0, *crop.shape, offset))
        # the buffer grows in place, so no view of it is made in this loop;
        # numpy's reference check would refuse under any profiler or tracer
        pixels.resize(offset + crop.size, refcheck=False)
        pixels[offset:] = crop.reshape(-1)
    boxes = np.array(boxes, dtype=np.int64).reshape(-1, 5)
    pixels.flags.writeable = boxes.flags.writeable = False
    return Frames(pixels, boxes, cam)


def _jittered(crop, jitter_mm, rng):
    """A copy of `crop` with uniform integer-rounded noise of up to
    jitter_mm on its foreground pixels, clipped to 1..65534."""
    crop = np.array(crop)
    fg = crop > 0
    noise = rng.uniform(-jitter_mm, jitter_mm, size=int(fg.sum()))
    crop[fg] = np.clip(crop[fg].astype(np.int32) + np.rint(noise).astype(np.int32),
                       1, 65534)
    return crop


def write_split(split_dir, poses, images):
    """Persist one dataset split: poses.csv plus frame_%05d.pgm files."""
    split_dir = Path(split_dir)
    split_dir.mkdir(parents=True, exist_ok=True)
    geometry.write_poses_csv(split_dir / "poses.csv", poses)
    for i, img in enumerate(images):
        write_pgm(split_dir / f"frame_{i:05d}.pgm", img)


def read_split(split_dir, cam):
    """One split's poses, and its frames as Frames: each frame is read and
    cropped to its foreground bounding box, then the crops are packed into
    one flat buffer, as `render_poses` returns them."""
    split_dir = Path(split_dir)
    poses_path = split_dir / "poses.csv"
    if not poses_path.exists():
        raise FileNotFoundError(str(poses_path))
    poses = geometry.read_poses_csv(poses_path)
    images = []
    for i in range(len(poses)):
        frame = split_dir / f"frame_{i:05d}.pgm"
        if not frame.exists():
            raise FileNotFoundError(str(frame))
        images.append(read_pgm(frame, cam))
    return poses, Frames.pack(images, cam)
