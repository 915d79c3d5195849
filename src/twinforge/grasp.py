"""Grasp candidate filtering: top-K by confidence, the object-proximity
rule, and the ASCII candidate file format.

Candidate files are whitespace-separated records, one per line:
qw qx qy qz tx ty tz gx gy gz width confidence
with '#' starting a comment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import RejectedInput
from .geometry import PointCloud, RigidPose

DEFAULT_TOP_K = 1000
DEFAULT_PROXIMITY = 0.01  # meters


@dataclass(frozen=True)
class GraspCandidate:
    pose: RigidPose
    grasp_point: np.ndarray
    width: float
    confidence: float

    def __post_init__(self):
        gp = np.asarray(self.grasp_point, dtype=float).reshape(3)
        object.__setattr__(self, "grasp_point", gp)
        if not np.isfinite(gp).all():
            raise RejectedInput("grasp point must be finite")
        # written so that NaN fails too
        if not 0 <= self.width < np.inf:
            raise RejectedInput("grasp width must be finite and >= 0")
        if not 0 <= self.confidence < np.inf:
            raise RejectedInput("grasp confidence must be finite and >= 0")


def load_grasp_candidates(path) -> list[GraspCandidate]:
    candidates = []
    with open(path, "r") as f:
        for ln, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if len(fields) != 12:
                raise RejectedInput(f"{path}:{ln}: expected 12 fields, got {len(fields)}")
            # a field that is not a number, a quaternion that is not unit
            # or a bad width, confidence or point raises a ValueError
            try:
                vals = [float(x) for x in fields]
                pose = RigidPose(np.array(vals[0:4]), np.array(vals[4:7]))
                candidates.append(GraspCandidate(pose, np.array(vals[7:10]),
                                                 vals[10], vals[11]))
            except ValueError as exc:
                raise RejectedInput(f"{path}:{ln}: {exc}") from None
    return candidates


def top_k_by_confidence(candidates, k: int = DEFAULT_TOP_K) -> list:
    """k highest-confidence candidates, descending, input order on ties."""
    if k < 1:
        raise RejectedInput("k must be >= 1")
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].confidence, i))
    return [candidates[i] for i in order[:k]]


def filter_by_object_proximity(candidates, object_cloud: PointCloud,
                               threshold: float = DEFAULT_PROXIMITY) -> list:
    """Keep candidates whose grasp point lies within threshold of the object
    surface cloud (<= semantics); input order preserved."""
    if len(object_cloud) == 0:
        raise RejectedInput("object cloud is empty")
    if threshold <= 0:
        raise RejectedInput("proximity threshold must be positive")
    if not candidates:
        return []
    dist, _ = cKDTree(object_cloud.points).query(
        np.array([c.grasp_point for c in candidates]))
    return [c for c, d in zip(candidates, dist) if d <= threshold]


def synthetic_grasp_provider(object_cloud: PointCloud, n: int = 50, seed: int = 0):
    """Built-in GraspProvider stand-in: top-down pinch candidates on the
    highest (smallest camera-y / world-z agnostic) object points, confidence
    decreasing with distance from the cloud centroid."""
    if len(object_cloud) == 0:
        raise RejectedInput("object cloud is empty")
    rng = np.random.default_rng(seed)
    pts = object_cloud.points
    idx = rng.choice(len(pts), size=min(n, len(pts)), replace=False)
    centroid = pts.mean(axis=0)
    out = []
    for i in idx:
        p = pts[i]
        conf = float(np.exp(-np.linalg.norm(p - centroid) / 0.05))
        pose = RigidPose(np.array([1.0, 0.0, 0.0, 0.0]), p)
        out.append(GraspCandidate(pose, p, 0.04, conf))
    return out
