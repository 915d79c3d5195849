"""Unit-quaternion helpers, [w, x, y, z] convention."""

from __future__ import annotations

import numpy as np


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def check_unit(q, tol=1e-6):
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
    if not abs(np.linalg.norm(q) - 1.0) <= tol:  # also rejects NaN and inf
        raise ValueError(f"quaternion is not unit norm: {q}")
    return q


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(R):
    """Rotation matrix to unit quaternion, w >= 0."""
    R = np.asarray(R, dtype=float)
    # Shepperd's method: pick the largest diagonal combination for stability.
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def quat_from_axis_angle(axis, angle_rad):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    axis = axis / n
    half = 0.5 * angle_rad
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def quat_rotate(q, points):
    """Rotate one point or an (N, 3) array by unit quaternion q."""
    return np.asarray(points, dtype=float) @ quat_to_matrix(q).T


def geodesic_angle(q1, q2):
    """Rotation angle in radians between the two orientations."""
    q1 = check_unit(q1)
    q2 = check_unit(q2)
    d = abs(float(np.dot(q1, q2)))
    return 2.0 * np.arccos(min(d, 1.0))


def random_quat(rng):
    """Uniform random rotation (Shoemake subgroup algorithm)."""
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    q = np.array([a * np.sin(2 * np.pi * u2),
                  a * np.cos(2 * np.pi * u2),
                  b * np.sin(2 * np.pi * u3),
                  b * np.cos(2 * np.pi * u3)])
    # reorder so the scalar part comes first
    q = np.array([q[1], q[0], q[2], q[3]])
    return quat_normalize(q)


IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
