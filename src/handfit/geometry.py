"""26-DoF kinematic hand skeleton: geometry, pose parameters, forward kinematics.

The hand is parameterized by 27 values (3 translation + 4 quaternion + 5x4
finger angles) driving 21 keypoints: the palm root plus MCP/PIP/DIP/TIP for
each of five fingers. Palm frame convention: +x lateral (thumb side),
+y forward along extended fingers, +z palmar normal. The MCP carries two
DoFs (abduction about the local +z, then flexion about the local +x);
PIP and DIP are hinges about the local +x.

The palm root and the five MCPs (`RIGID_JOINTS`) are fixed in the palm
frame. Flexion, PIP and DIP all turn about the local x axis, so a finger is
a planar chain: with base frame F, bone b points along
cos(a_b) u + sin(a_b) v, where u = cos(abd) F[:, 1] - sin(abd) F[:, 0],
v = F[:, 2] and a_b sums the bend angles up to bone b; PIP, DIP and TIP add
bone length x direction to the MCP. `fk_batch` takes the rigid points alone
when only rigid joints are asked for, and otherwise builds the whole hand in
the palm frame at once; it then rotates and translates every requested point
in one pass. `posed_fingers` does the same for hypotheses that share one
global pose, whose rotation and MCPs it computes once. Both build their
points coordinate-first, (joints, 3, rows), and return them as a
(rows, joints, 3) view of that buffer, which the objective reads in that
layout. The palm-frame constants they use are built once per
`HandGeometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import quats
from .config import (ANGLE_LIMIT_DEG, GEOMETRY_LIMIT_MM, csv_floats, load_keyvalue, read_csv,
                     write_csv, write_keyvalue)

FINGERS = ("thumb", "index", "middle", "ring", "pinky")
SEGMENTS = ("proximal", "middle", "distal")
ANGLE_NAMES = ("mcp_flexion", "mcp_abduction", "pip_flexion", "dip_flexion")
NUM_FINGERS = 5
NUM_JOINTS = 21
PALM = 0
TIP_INDICES = (4, 8, 12, 16, 20)

JOINT_NAMES = ["palm"] + [f"{f}_{p}" for f in FINGERS
                          for p in ("mcp", "pip", "dip", "tip")]

POSE_COLUMNS = ["tx", "ty", "tz", "qw", "qx", "qy", "qz"] + [
    f"{f}_{a}" for f in FINGERS for a in ANGLE_NAMES]


def mcp_index(finger):
    return 1 + 4 * finger


# the palm root and the five MCPs: the joints rigid with the palm
RIGID_JOINTS = (PALM,) + tuple(mcp_index(f) for f in range(NUM_FINGERS))
_JOINT_SET = frozenset(range(NUM_JOINTS))
_RIGID_SET = frozenset(RIGID_JOINTS)


# the geometry file's key of each length `HandGeometry` bounds by
# GEOMETRY_LIMIT_MM: the finger base offsets, the bone lengths, the wrist offset
_LENGTH_KEYS = ([f"{name}.base.{ax}" for name in FINGERS for ax in "xyz"]
                + [f"{name}.{seg}" for name in FINGERS for seg in SEGMENTS]
                + [f"wrist.offset.{ax}" for ax in "xyz"])

# the limits file's key of each bound `JointLimits` holds, min then max
_LIMIT_KEYS = [f"{name}.{angle}.{end}_deg" for end in ("min", "max")
               for name in FINGERS for angle in ANGLE_NAMES]


def finger_joint_indices(finger):
    """MCP, PIP, DIP, TIP keypoint indices for one finger."""
    base = 1 + 4 * finger
    return (base, base + 1, base + 2, base + 3)


def _read_only(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def load_data(name, load):
    """`load(path)` of the packaged data file `name`."""
    with resources.as_file(resources.files("handfit") / "data" / name) as path:
        return load(path)


@dataclass(frozen=True)
class HandGeometry:
    """Fixed skeleton of one subject: finger base placement and bone lengths.

    finger_base_offsets: (5, 3) mm, MCP positions in the palm frame.
    bone_lengths: (5, 3) mm, proximal/middle/distal segment lengths.
    finger_base_frames: (5, 3, 3) rotations reorienting each finger's
        articulation axes (identity for index..pinky, tilted for the thumb).
    palm_root_to_wrist: (3,) mm, wrist marker offset in the palm frame.
    """

    finger_base_offsets: np.ndarray
    bone_lengths: np.ndarray
    finger_base_frames: np.ndarray
    palm_root_to_wrist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "finger_base_offsets",
                           _read_only(np.reshape(self.finger_base_offsets, (5, 3))))
        object.__setattr__(self, "bone_lengths",
                           _read_only(np.reshape(self.bone_lengths, (5, 3))))
        object.__setattr__(self, "finger_base_frames",
                           _read_only(np.reshape(self.finger_base_frames, (5, 3, 3))))
        object.__setattr__(self, "palm_root_to_wrist",
                           _read_only(np.reshape(self.palm_root_to_wrist, (3,))))
        if not np.all(self.bone_lengths > 0):
            raise ValueError("bone lengths must be strictly positive")
        lengths = np.concatenate([self.finger_base_offsets.ravel(), self.bone_lengths.ravel(),
                                  self.palm_root_to_wrist])
        ok = np.abs(lengths) <= GEOMETRY_LIMIT_MM  # False at NaN too
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"key {_LENGTH_KEYS[k]!r}: must be at most "
                             f"{GEOMETRY_LIMIT_MM:g} mm in magnitude, got {float(lengths[k])!r}")
        for f in range(5):
            frame = self.finger_base_frames[f]
            if not np.allclose(frame @ frame.T, np.eye(3), atol=1e-9):
                raise ValueError(f"finger {f} base frame is not a rotation")
        # the constant palm-frame tables of forward kinematics, built once:
        # the rigid joints' points by joint index, (21, 3, 1), the palm root
        # at the origin (the other joints' rows are never read), and each
        # finger's base frame, bone lengths and base offset for `_planar_chains`
        rigid = np.zeros((NUM_JOINTS, 3, 1))
        rigid[list(RIGID_JOINTS[1:]), :, 0] = self.finger_base_offsets
        object.__setattr__(self, "_rigid_points", _read_only(rigid))
        object.__setattr__(self, "_chains", _FingerChains(
            _read_only(self.finger_base_frames[:, :, :, None]),
            _read_only(self.bone_lengths[:, :, None, None]),
            _read_only(self.finger_base_offsets[:, :, None])))

    def max_extent(self):
        """Upper bound (mm) on any joint's distance from the palm root."""
        reach = np.linalg.norm(self.finger_base_offsets, axis=1) + \
            self.bone_lengths.sum(axis=1)
        return float(reach.max())

    @classmethod
    def from_file(cls, path):
        return load_keyvalue(path, _geometry_from_kv)

    @classmethod
    def default(cls):
        return load_data("default_geometry.txt", cls.from_file)

    def save(self, path):
        kv = {}
        for i, ax in enumerate("xyz"):
            kv[f"wrist.offset.{ax}"] = repr(float(self.palm_root_to_wrist[i]))
        for f, name in enumerate(FINGERS):
            for i, ax in enumerate("xyz"):
                kv[f"{name}.base.{ax}"] = repr(float(self.finger_base_offsets[f, i]))
            for i, seg in enumerate(SEGMENTS):
                kv[f"{name}.{seg}"] = repr(float(self.bone_lengths[f, i]))
            yaw, roll = _frame_to_yaw_roll(self.finger_base_frames[f])
            kv[f"{name}.frame_yaw_deg"] = repr(round(float(np.degrees(yaw)), 9))
            kv[f"{name}.frame_roll_deg"] = repr(round(float(np.degrees(roll)), 9))
        write_keyvalue(path, kv, header="hand geometry (mm, degrees)")


class _FingerChains(NamedTuple):
    """Per-finger constants of `_planar_chains`, one leading finger axis."""

    frames: np.ndarray   # (k, 3, 3, 1) base frames
    lengths: np.ndarray  # (k, 3, 1, 1) bone lengths
    offsets: np.ndarray  # (k, 3, 1) MCP positions in the palm frame


def _yaw_roll_to_frame(yaw_rad, roll_rad):
    cy, sy = np.cos(yaw_rad), np.sin(yaw_rad)
    cr, sr = np.cos(roll_rad), np.sin(roll_rad)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cr, 0.0, sr], [0.0, 1.0, 0.0], [-sr, 0.0, cr]])
    return rz @ ry


def _frame_to_yaw_roll(frame):
    # inverse of _yaw_roll_to_frame; frame column 1 is unaffected by roll
    fwd = frame[:, 1]
    yaw = np.arctan2(-fwd[0], fwd[1])
    rz = _yaw_roll_to_frame(yaw, 0.0)
    ry = rz.T @ frame
    roll = np.arctan2(ry[0, 2], ry[0, 0])
    return yaw, roll


def _geometry_from_kv(kv):
    bases = np.zeros((5, 3))
    bones = np.zeros((5, 3))
    frames = np.zeros((5, 3, 3))
    for f, name in enumerate(FINGERS):
        for i, ax in enumerate("xyz"):
            bases[f, i] = kv.number(f"{name}.base.{ax}")
        for i, seg in enumerate(SEGMENTS):
            bones[f, i] = kv.number(f"{name}.{seg}")
        yaw = np.radians(kv.number(f"{name}.frame_yaw_deg", "0"))
        roll = np.radians(kv.number(f"{name}.frame_roll_deg", "0"))
        frames[f] = _yaw_roll_to_frame(yaw, roll)
    wrist = np.array([kv.number(f"wrist.offset.{ax}") for ax in "xyz"])
    return HandGeometry(bases, bones, frames, wrist)


@dataclass(frozen=True)
class JointLimits:
    """Per-DoF [min, max] radians for the 20 finger DoFs, shape (5, 4),
    each at most `config.ANGLE_LIMIT_DEG` in magnitude."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _read_only(np.reshape(self.lower, (5, 4))))
        object.__setattr__(self, "upper", _read_only(np.reshape(self.upper, (5, 4))))
        bounds = np.concatenate([self.lower.ravel(), self.upper.ravel()])
        ok = np.abs(bounds) <= np.radians(ANGLE_LIMIT_DEG)  # False at NaN too
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"key {_LIMIT_KEYS[k]!r}: must be at most {ANGLE_LIMIT_DEG:g} "
                             f"degrees in magnitude, got {float(np.degrees(bounds[k]))!r}")
        if not np.all(self.lower < self.upper):
            raise ValueError("every DoF needs min < max")

    @classmethod
    def from_file(cls, path):
        return load_keyvalue(path, lambda kv: cls(*(
            np.radians([[kv.number(f"{name}.{angle}.{end}_deg") for angle in ANGLE_NAMES]
                        for name in FINGERS]) for end in ("min", "max"))))

    @classmethod
    def default(cls):
        return load_data("default_limits.txt", cls.from_file)

    def save(self, path):
        kv = {}
        for f, name in enumerate(FINGERS):
            for a, angle in enumerate(ANGLE_NAMES):
                kv[f"{name}.{angle}.min_deg"] = repr(round(float(np.degrees(self.lower[f, a])), 9))
                kv[f"{name}.{angle}.max_deg"] = repr(round(float(np.degrees(self.upper[f, a])), 9))
        write_keyvalue(path, kv, header="anatomical joint limits (degrees)")


@dataclass(frozen=True)
class PoseParams:
    """One hand hypothesis: translation (mm), unit quaternion, 5x4 angles (rad)."""

    translation: np.ndarray
    orientation: np.ndarray
    finger_angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", _read_only(np.reshape(self.translation, (3,))))
        object.__setattr__(self, "orientation", _read_only(np.reshape(self.orientation, (4,))))
        object.__setattr__(self, "finger_angles", _read_only(np.reshape(self.finger_angles, (5, 4))))

    def to_vector(self):
        """Flat 27-vector: tx ty tz qw qx qy qz then 5x4 finger angles."""
        return np.concatenate([self.translation, self.orientation,
                               self.finger_angles.ravel()])

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (27,):
            raise ValueError(f"pose vector must have 27 values, got {vec.shape}")
        return cls(vec[0:3], vec[3:7], vec[7:27].reshape(5, 4))

    @classmethod
    def rest(cls, translation=(0.0, 0.0, 0.0)):
        return cls(np.asarray(translation, dtype=float), quats.IDENTITY.copy(),
                   np.zeros((5, 4)))


def forward_kinematics(geom, pose):
    """21 joint positions (mm) of `pose`; raises on a zero-norm quaternion."""
    q = quats.normalize(pose.orientation)
    out = fk_batch(geom, pose.translation[None, :], q[None, :],
                   pose.finger_angles[None, :, :])
    return out[0]


def fk_batch(geom, translations, orientations, finger_angles, joints=None):
    """Vectorized forward kinematics.

    translations (n, 3), orientations (n, 4) already unit-norm,
    finger_angles (n, 5, 4) -> joint positions (n, 21, 3), or
    (n, len(joints), 3) in the order of the joint indices `joints`, as a
    transposed view of a C-contiguous (joints, 3, n) buffer.
    When every requested joint is rigid with the palm, each is one
    palm-frame point and no finger chain is built; otherwise the whole
    hand is built and the requested joints are taken from it.
    """
    everything = list(range(NUM_JOINTS))
    rows = everything if joints is None else list(joints)
    if not _JOINT_SET.issuperset(rows):
        raise ValueError(f"joint indices must lie in range({NUM_JOINTS})")
    t = np.asarray(translations, dtype=float)
    n = t.shape[0]
    if _RIGID_SET.issuperset(rows):
        local = geom._rigid_points[rows]
    else:
        # palm-frame points in joint order, coordinate axis before the row
        # axis: the palm root, then MCP, PIP, DIP and TIP of each finger
        a = np.asarray(finger_angles, dtype=float).reshape(n, 5, 4).transpose(1, 2, 0)
        local = np.empty((NUM_JOINTS, 3, n))
        local[PALM] = 0.0
        fingers = local[1:].reshape(NUM_FINGERS, 4, 3, n)
        fingers[:, 0] = geom._chains.offsets
        fingers[:, 1:] = _planar_chains(geom._chains, a[:, 1], a[:, [0, 2, 3]])
        if rows != everything:
            local = local[rows]
    return _to_world(quats.rotation_table(orientations), local, t.T).transpose(2, 0, 1)


def posed_fingers(geom, translation, orientation, fingers):
    """Forward kinematics of `fingers` under one fixed global pose.

    translation (3,), orientation (4,) already unit-norm, fingers (k,).
    Returns fk(angles), which maps the k fingers' angles (n, k, 4) to their
    MCP, PIP, DIP and TIP positions (n, 4k, 3), a view in `fk_batch`'s
    layout: the values `fk_batch` gives for those joints, to the bit. The
    rotation and the MCPs are computed once here, not once per call, for
    searches that move only finger angles.
    """
    fingers = np.asarray(fingers, dtype=np.intp)
    consts = _FingerChains(*(a[fingers] for a in geom._chains))
    t = np.asarray(translation, dtype=float)[:, None]
    rot = quats.rotation_table(np.asarray(orientation, dtype=float)[None])
    mcps = _to_world(rot, consts.offsets, t)

    def fk(angles):
        a = np.asarray(angles, dtype=float).transpose(1, 2, 0)  # (k, 4, n)
        n = a.shape[2]
        chains = _planar_chains(consts, a[:, 1], a[:, [0, 2, 3]])
        out = np.empty((len(fingers), 4, 3, n))
        out[:, 0] = mcps
        out[:, 1:] = _to_world(rot, chains.reshape(-1, 3, n), t).reshape(-1, 3, 3, n)
        return out.reshape(-1, 3, n).transpose(2, 0, 1)

    return fk


def _planar_chains(consts, abd, bend):
    """Palm-frame PIP, DIP and TIP of the k fingers of `consts`, the
    coordinate axis before the row axis: (k, 3, 3, n). abd (k, n) holds the
    abductions and bend (k, 3, n) the flexion, PIP and DIP angles, which
    are overwritten by their running sums."""
    frames = consts.frames
    across = np.cos(abd)[:, None] * frames[:, :, 1] - \
        np.sin(abd)[:, None] * frames[:, :, 0]
    bend[:, 1] += bend[:, 0]
    bend[:, 2] += bend[:, 1]
    bones = np.cos(bend)[:, :, None] * across[:, None] + \
        np.sin(bend)[:, :, None] * frames[:, None, :, 2]
    bones *= consts.lengths
    bones[:, 0] += consts.offsets
    bones[:, 1] += bones[:, 0]
    bones[:, 2] += bones[:, 1]
    return bones


def _to_world(rot, points, t):
    """Palm-frame points (m, 3, n) rotated by `rot` (3, 3, n) and moved by
    `t` (3, n); a row axis of length 1 in `rot` and `t` is shared by all."""
    out = rot[:, 0] * points[:, None, 0]
    out += rot[:, 1] * points[:, None, 1]
    out += rot[:, 2] * points[:, None, 2]
    out += t
    return out


def clamp_to_limits(pose, limits):
    """Project a pose into the valid set: clip angles, renormalize quaternion.

    Translation is untouched. A zero-norm quaternion resets to identity.
    """
    angles = np.clip(pose.finger_angles, limits.lower, limits.upper)
    q = np.asarray(pose.orientation, dtype=float)
    norm = np.linalg.norm(q)
    q = quats.IDENTITY.copy() if norm < 1e-12 else q / norm
    return PoseParams(pose.translation.copy(), q, angles)


def validate_pose(pose, limits, angle_tol=1e-9):
    """True when all angles lie inside limits and the quaternion is unit."""
    angles_ok = np.all(pose.finger_angles >= limits.lower - angle_tol) and \
        np.all(pose.finger_angles <= limits.upper + angle_tol)
    quat_ok = abs(np.linalg.norm(pose.orientation) - 1.0) < 1e-6
    return bool(angles_ok and quat_ok)


def random_pose(rng, limits, workspace):
    """Uniform pose: angles within limits, translation in `workspace` (3, 2)."""
    workspace = np.asarray(workspace, dtype=float)
    if workspace.shape != (3, 2) or np.any(workspace[:, 1] < workspace[:, 0]):
        raise ValueError("workspace must be (3, 2) with low <= high")
    t = workspace[:, 0] + rng.random(3) * (workspace[:, 1] - workspace[:, 0])
    angles = limits.lower + rng.random((5, 4)) * (limits.upper - limits.lower)
    return PoseParams(t, quats.random_unit(rng), angles)


DEFAULT_WORKSPACE = np.array([[-120.0, 120.0], [-120.0, 120.0], [420.0, 700.0]])


def write_poses_csv(path, poses):
    """One row of 27 values per pose, fixed column order (POSE_COLUMNS)."""
    write_csv(path, POSE_COLUMNS, ([f"{v:.9g}" for v in p.to_vector()] for p in poses))


def read_poses_csv(path):
    """The poses `write_poses_csv` writes. A value that is not finite or is
    above `config.CSV_LIMIT` in magnitude, or a quaternion `quats.normalize`
    cannot normalize, raises ValueError at `path:line`."""
    def parse(row):
        vec = np.array(csv_floats(row, POSE_COLUMNS))
        quats.normalize(vec[3:7])  # raises on a (near-)zero norm, as FK would
        return PoseParams.from_vector(vec)

    return read_csv(path, POSE_COLUMNS, parse)
