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


# Entry (i, j) of the rotation matrix of a unit quaternion (w, x, y, z) is
# C0 + C1 (q_a q_b + S q_c q_d): 1 - 2 (y y + z z) on the diagonal, where
# C0 = 1 is added as 1 + (-2) (...), and 2 (x y - w z) and the like off it,
# where - w z is taken as + (-1) w z. Both give the bits of the textbook
# expressions. Off the diagonal C0 = 0 is not added, so a -0 stays -0.
_W, _X, _Y, _Z = range(4)
_FACTORS = np.array([  # (a, b, c, d) of each entry, then moved to the front
    [[_Y, _Y, _Z, _Z], [_X, _Y, _W, _Z], [_X, _Z, _W, _Y]],
    [[_X, _Y, _W, _Z], [_X, _X, _Z, _Z], [_Y, _Z, _W, _X]],
    [[_X, _Z, _W, _Y], [_Y, _Z, _W, _X], [_X, _X, _Y, _Y]],
]).transpose(2, 0, 1)
_SIGNS = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])[:, :, None]
_SCALES = np.array([[-2.0, 2.0, 2.0], [2.0, -2.0, 2.0], [2.0, 2.0, -2.0]])[:, :, None]


def rotation_table(q):
    """(n, 4) unit quaternions -> (3, 3, n) rotation matrices, row axis last."""
    a, b, c, d = np.asarray(q, dtype=float).T[_FACTORS]
    m = np.multiply(a, b, out=a)
    c *= d
    c *= _SIGNS
    m += c
    m *= _SCALES
    m.reshape(9, -1)[::4] += 1.0  # the diagonal
    return m


def to_matrix_batch(q):
    """(..., 4) unit quaternions -> (..., 3, 3) rotation matrices."""
    q = np.asarray(q, dtype=float)
    m = rotation_table(q.reshape(-1, 4))
    return np.ascontiguousarray(np.moveaxis(m, 2, 0)).reshape(q.shape[:-1] + (3, 3))


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
