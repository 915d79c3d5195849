"""Manipulation strategy sampling around the interaction region.

Translations are constrained to a low-discrepancy disc of horizontal
offsets around the region centroid, lifted so the object starts just above
the region; rotations come from ``rest_yaw_grid`` (rest orientations x
yaws), as the coarse pose search's do. Unreachable samples are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import quaternions as quat
from .camera import BinaryMask, CameraIntrinsics, DepthImage, backproject
from .errors import RejectedInput
from .geometry import Aabb, PointCloud, RigidPose

DEFAULT_OFFSET_RADIUS = 0.03
CLEARANCE = 0.005        # release height above the lifted offset
REST_TOLERANCE_DEG = 5.0

UP = np.array([0.0, 0.0, 1.0])


def rest_orientations():
    """Identity, +/-90 degree rolls about x and y, and the 180 degree flip."""
    return (
        quat.IDENTITY.copy(),
        quat.quat_from_axis_angle([1, 0, 0], np.pi / 2),
        quat.quat_from_axis_angle([1, 0, 0], -np.pi / 2),
        quat.quat_from_axis_angle([0, 1, 0], np.pi / 2),
        quat.quat_from_axis_angle([0, 1, 0], -np.pi / 2),
        quat.quat_from_axis_angle([1, 0, 0], np.pi),
    )


def rest_yaw_grid(yaws: int) -> np.ndarray:
    """The (6, yaws, 4) products yaw o rest of ``rest_orientations()`` and
    ``yaws`` evenly spaced yaws about world up, rest-major with yaw 0 first;
    C-contiguous rows, not normalized."""
    half = np.pi * np.arange(yaws) / yaws  # half of each yaw angle
    yaw = np.concatenate([np.cos(half)[None], np.sin(half) * UP[:, None]])
    rests = np.array(rest_orientations()).T[:, None]
    return np.ascontiguousarray(quat.quat_multiply(yaw[..., None], rests).T)


@dataclass(frozen=True)
class InteractionRegion:
    cloud: PointCloud
    centroid: np.ndarray


@dataclass(frozen=True)
class StrategySample:
    object_pose: RigidPose
    sample_id: int
    outcome: object = None
    weak_label: bool | None = None
    success_prob: float | None = None
    failure_reason: str | None = None

    def with_outcome(self, outcome, weak_label, failure_reason=None):
        return replace(self, outcome=outcome, weak_label=weak_label,
                       failure_reason=failure_reason)

    def with_prob(self, prob):
        return replace(self, success_prob=float(prob))


def interaction_region(mask: BinaryMask, depth: DepthImage,
                       intrinsics: CameraIntrinsics,
                       world_from_camera: RigidPose | None = None) -> InteractionRegion:
    """Back-project the region mask; centroid is the arithmetic mean.

    With world_from_camera given, cloud and centroid are in the world frame.
    """
    cloud = backproject(depth, intrinsics, mask)
    if len(cloud) == 0:
        raise RejectedInput("interaction region mask selects no valid depth pixels")
    if world_from_camera is not None:
        cloud = PointCloud(world_from_camera.apply(cloud.points))
    return InteractionRegion(cloud, cloud.points.mean(axis=0))


def _halton(index, base):
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_disc_offsets(n, radius):
    """n low-discrepancy points in a disc of the given radius (z = 0)."""
    out = np.zeros((n, 3))
    for k in range(n):
        u, v = _halton(k + 1, 2), _halton(k + 1, 3)
        r = radius * np.sqrt(u)
        a = 2 * np.pi * v
        out[k] = [r * np.cos(a), r * np.sin(a), 0.0]
    return out


def builtin_reachability(pose: RigidPose, workspace: Aabb) -> bool:
    """Workspace box plus a 60 degree tilt limit; exact rest orientations
    always pass."""
    if not workspace.contains(pose.translation)[0]:
        return False
    tilt = np.arccos(np.clip(float(quat.quat_rotate(pose.rotation, UP) @ UP), -1, 1))
    if np.rad2deg(tilt) <= 60.0:
        return True
    tol = np.deg2rad(REST_TOLERANCE_DEG)
    return any(quat.geodesic_angle(pose.rotation, rq) <= tol
               for rq in rest_orientations())


def sample_strategies(region: InteractionRegion, n_rotations: int, n_offsets: int,
                      offset_radius: float, reach,
                      vertical_offset=0.0) -> list[StrategySample]:
    """Deterministic 6-DoF placement samples near the region centroid.

    vertical_offset may be a scalar (object half-height) or a callable
    mapping a rotation quaternion to the rotated half-height along gravity;
    each sample starts CLEARANCE above it. Samples failing the reachability predicate are dropped; surviving
    sample_ids are sequential.
    """
    if n_rotations < 1 or n_offsets < 1:
        raise RejectedInput("rotation and offset counts must be >= 1")
    if offset_radius < 0:
        raise RejectedInput("offset radius must be >= 0")
    offsets = halton_disc_offsets(n_offsets, offset_radius)
    samples = []
    for q in map(quat.quat_normalize, rest_yaw_grid(n_rotations).reshape(-1, 4)):
        lift = vertical_offset(q) if callable(vertical_offset) else vertical_offset
        for off in offsets:
            pose = RigidPose(q, region.centroid + off + (lift + CLEARANCE) * UP)
            if reach is None or reach(pose):
                samples.append(StrategySample(pose, len(samples)))
    return samples
