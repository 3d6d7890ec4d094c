"""Quaternion helpers, (w, x, y, z) convention throughout."""

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q):
    """Unit quaternion from q; raises ValueError on (near-)zero norm."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("zero-norm quaternion has no orientation")
    return q / n


def to_matrix_batch(q):
    """(..., 4) unit quaternions -> (..., 3, 3) rotation matrices."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def from_axis_angle(axis, angle_rad):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        return IDENTITY.copy()
    half = 0.5 * angle_rad
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / n))


def slerp(a, b, t):
    """Spherical interpolation between unit quaternions, shortest arc."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 1.0 - 1e-10:
        # nearly parallel: lerp and renormalize
        out = a + t * (b - a)
        return out / np.linalg.norm(out)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(theta)
    return (np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / s


def random_unit(rng):
    """Uniform random unit quaternion (Shoemake subgroup algorithm)."""
    u1, u2, u3 = rng.random(3)
    a = np.sqrt(1.0 - u1)
    b = np.sqrt(u1)
    return np.array([
        a * np.sin(2 * np.pi * u2),
        a * np.cos(2 * np.pi * u2),
        b * np.sin(2 * np.pi * u3),
        b * np.cos(2 * np.pi * u3),
    ])
