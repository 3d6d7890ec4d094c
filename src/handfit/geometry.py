"""26-DoF kinematic hand skeleton: geometry, pose parameters, forward kinematics.

The hand is parameterized by 27 values (3 translation + 4 quaternion + 5x4
finger angles) driving 21 keypoints: the palm root plus MCP/PIP/DIP/TIP for
each of five fingers. Palm frame convention: +x lateral (thumb side),
+y forward along extended fingers, +z palmar normal. The MCP carries two
DoFs (abduction about the local +z, then flexion about the local +x);
PIP and DIP are hinges about the local +x.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import quats
from .config import read_csv, read_keyvalue, write_csv, write_keyvalue

FINGERS = ("thumb", "index", "middle", "ring", "pinky")
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


def finger_joint_indices(finger):
    """MCP, PIP, DIP, TIP keypoint indices for one finger."""
    base = 1 + 4 * finger
    return (base, base + 1, base + 2, base + 3)


def _read_only(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _data_file(name):
    return resources.files("handfit") / "data" / name


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
        for f in range(5):
            frame = self.finger_base_frames[f]
            if not np.allclose(frame @ frame.T, np.eye(3), atol=1e-9):
                raise ValueError(f"finger {f} base frame is not a rotation")

    def max_extent(self):
        """Upper bound (mm) on any joint's distance from the palm root."""
        reach = np.linalg.norm(self.finger_base_offsets, axis=1) + \
            self.bone_lengths.sum(axis=1)
        return float(reach.max())

    @classmethod
    def from_file(cls, path):
        return _geometry_from_kv(read_keyvalue(path))

    @classmethod
    def default(cls):
        with resources.as_file(_data_file("default_geometry.txt")) as p:
            return cls.from_file(p)

    def save(self, path):
        kv = {}
        for i, ax in enumerate("xyz"):
            kv[f"wrist.offset.{ax}"] = repr(float(self.palm_root_to_wrist[i]))
        for f, name in enumerate(FINGERS):
            for i, ax in enumerate("xyz"):
                kv[f"{name}.base.{ax}"] = repr(float(self.finger_base_offsets[f, i]))
            for i, seg in enumerate(("proximal", "middle", "distal")):
                kv[f"{name}.{seg}"] = repr(float(self.bone_lengths[f, i]))
            yaw, roll = _frame_to_yaw_roll(self.finger_base_frames[f])
            kv[f"{name}.frame_yaw_deg"] = repr(round(float(np.degrees(yaw)), 9))
            kv[f"{name}.frame_roll_deg"] = repr(round(float(np.degrees(roll)), 9))
        write_keyvalue(path, kv, header="hand geometry (mm, degrees)")


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
            bases[f, i] = float(kv[f"{name}.base.{ax}"])
        for i, seg in enumerate(("proximal", "middle", "distal")):
            bones[f, i] = float(kv[f"{name}.{seg}"])
        yaw = np.radians(float(kv.get(f"{name}.frame_yaw_deg", "0")))
        roll = np.radians(float(kv.get(f"{name}.frame_roll_deg", "0")))
        frames[f] = _yaw_roll_to_frame(yaw, roll)
    wrist = np.array([float(kv[f"wrist.offset.{ax}"]) for ax in "xyz"])
    return HandGeometry(bases, bones, frames, wrist)


@dataclass(frozen=True)
class JointLimits:
    """Per-DoF [min, max] radians for the 20 finger DoFs, shape (5, 4)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _read_only(np.reshape(self.lower, (5, 4))))
        object.__setattr__(self, "upper", _read_only(np.reshape(self.upper, (5, 4))))
        if not np.all(self.lower < self.upper):
            raise ValueError("every DoF needs min < max")

    @classmethod
    def from_file(cls, path):
        kv = read_keyvalue(path)
        lo = np.zeros((5, 4))
        hi = np.zeros((5, 4))
        for f, name in enumerate(FINGERS):
            for a, angle in enumerate(ANGLE_NAMES):
                lo[f, a] = np.radians(float(kv[f"{name}.{angle}.min_deg"]))
                hi[f, a] = np.radians(float(kv[f"{name}.{angle}.max_deg"]))
        return cls(lo, hi)

    @classmethod
    def default(cls):
        with resources.as_file(_data_file("default_limits.txt")) as p:
            return cls.from_file(p)

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
    (n, len(joints), 3) in the order of the joint indices `joints`.
    Only what the requested joints need is computed: the palm is the
    translation, a finger whose only requested joint is its MCP stops
    there, and any other finger joint costs that finger's whole chain.
    """
    joints = range(NUM_JOINTS) if joints is None else joints
    wanted = set(joints)
    if not all(0 <= j < NUM_JOINTS for j in wanted):
        raise ValueError(f"joint indices must lie in range({NUM_JOINTS})")
    t = np.asarray(translations, dtype=float)
    rot = quats.to_matrix_batch(orientations)
    angles = np.asarray(finger_angles, dtype=float)
    positions = {PALM: t}
    for f in range(NUM_FINGERS):
        chain = finger_joint_indices(f)
        if not wanted.isdisjoint(chain):
            full = not wanted.isdisjoint(chain[1:])
            positions.update(zip(chain, _finger_chain(geom, f, t, rot, angles, full)))
    out = np.empty((t.shape[0], len(joints), 3))
    for i, j in enumerate(joints):
        out[:, i] = positions[j]
    return out


def _finger_chain(geom, f, t, rot, angles, full):
    """Finger f's MCP, then PIP, DIP and TIP only when `full`: (n, 3) each."""
    mcp = t + rot @ geom.finger_base_offsets[f]
    if not full:
        return (mcp,)
    lp, lm, ld = geom.bone_lengths[f]
    flex, abd = angles[:, f, 0], angles[:, f, 1]
    pip, dip = angles[:, f, 2], angles[:, f, 3]
    r = rot @ geom.finger_base_frames[f]
    r = r @ _rz_batch(abd)
    r = np.einsum("nij,njk->nik", r, _rx_batch(flex))
    pip_pos = mcp + lp * r[:, :, 1]
    r = np.einsum("nij,njk->nik", r, _rx_batch(pip))
    dip_pos = pip_pos + lm * r[:, :, 1]
    r = np.einsum("nij,njk->nik", r, _rx_batch(dip))
    tip_pos = dip_pos + ld * r[:, :, 1]
    return mcp, pip_pos, dip_pos, tip_pos


def _rx_batch(theta):
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = c
    m[..., 1, 2] = -s
    m[..., 2, 1] = s
    m[..., 2, 2] = c
    return m


def _rz_batch(theta):
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(theta.shape + (3, 3))
    m[..., 2, 2] = 1.0
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


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
    return read_csv(path, POSE_COLUMNS,
                    lambda row: PoseParams.from_vector([float(v) for v in row]))
