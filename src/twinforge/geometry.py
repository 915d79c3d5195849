"""Core geometric types: rigid poses, point clouds, meshes, boxes, spatial index.

All coordinates are meters. Types are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quaternions as quat
from .errors import RejectedInput


@dataclass(frozen=True)
class RigidPose:
    """SE(3) transform: unit quaternion [w x y z] plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = quat.check_unit(self.rotation, tol=1e-6)
        q = quat.quat_normalize(q)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise RejectedInput("non-finite translation")
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(quat.IDENTITY.copy(), np.zeros(3))

    @staticmethod
    def from_rotation_matrix(R, t) -> "RigidPose":
        return RigidPose(quat.matrix_to_quat(R), np.asarray(t, dtype=float))

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = quat.quat_to_matrix(self.rotation)
        T[:3, 3] = self.translation
        return T

    def compose(self, other: "RigidPose") -> "RigidPose":
        """self after other: (self o other)(x) = self(other(x))."""
        q = quat.quat_multiply(self.rotation, other.rotation)
        t = quat.quat_rotate(self.rotation, other.translation) + self.translation
        return RigidPose(quat.quat_normalize(q), t)

    def inverse(self) -> "RigidPose":
        qi = quat.quat_conjugate(self.rotation)
        return RigidPose(qi, -quat.quat_rotate(qi, self.translation))

    def apply(self, points):
        """Transform one point or an (N, 3) array."""
        return quat.quat_rotate(self.rotation, points) + self.translation


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if p.size and not np.all(np.isfinite(p)):
            raise RejectedInput("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", p)
        p.setflags(write=False)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray
    triangles: np.ndarray
    vertex_colors: np.ndarray | None = None
    # optional per-triangle labels (e.g. named faces); carried through untouched
    face_labels: tuple = field(default=None, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if not np.all(np.isfinite(v)):
            raise RejectedInput("mesh vertices must be finite")
        if t.size and t.max() >= len(v):
            raise RejectedInput("triangle index out of range")
        if t.size and t.min() < 0:
            raise RejectedInput("negative triangle index")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        v.setflags(write=False)
        t.setflags(write=False)
        if self.vertex_colors is not None:
            c = np.asarray(self.vertex_colors, dtype=float).reshape(-1, 3)
            if len(c) != len(v):
                raise RejectedInput("vertex_colors length must equal vertex count")
            object.__setattr__(self, "vertex_colors", c)
            c.setflags(write=False)

    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def transformed(self, pose: RigidPose) -> "TriangleMesh":
        return TriangleMesh(pose.apply(self.vertices), self.triangles,
                            self.vertex_colors, self.face_labels)

    def scaled(self, factors) -> "TriangleMesh":
        factors = np.broadcast_to(np.asarray(factors, dtype=float), (3,))
        return TriangleMesh(self.vertices * factors, self.triangles,
                            self.vertex_colors, self.face_labels)


@dataclass(frozen=True)
class Aabb:
    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=float).reshape(3)
        hi = np.asarray(self.max, dtype=float).reshape(3)
        if np.any(lo > hi):
            raise RejectedInput("Aabb min must be <= max component-wise")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    @property
    def extents(self) -> np.ndarray:
        return self.max - self.min

    def contains(self, points, margin=0.0) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.all((p >= self.min - margin) & (p <= self.max + margin), axis=1)


def compute_aabb(cloud) -> Aabb:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if len(pts) == 0:
        raise RejectedInput("cannot compute AABB of an empty cloud")
    return Aabb(pts.min(axis=0), pts.max(axis=0))


def sample_mesh_surface(mesh: TriangleMesh, n: int, seed: int) -> PointCloud:
    """Area-weighted surface sampling via barycentric coordinates.

    Deterministic for a given seed.
    """
    if n <= 0:
        raise RejectedInput("sample count must be positive")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if len(mesh.triangles) == 0 or total <= 0:
        raise RejectedInput("cannot sample an empty or degenerate mesh")
    rng = np.random.default_rng(seed)
    tri_idx = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a = mesh.vertices[mesh.triangles[tri_idx, 0]]
    b = mesh.vertices[mesh.triangles[tri_idx, 1]]
    c = mesh.vertices[mesh.triangles[tri_idx, 2]]
    return PointCloud(a + u[:, None] * (b - a) + v[:, None] * (c - a))
