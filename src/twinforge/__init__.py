"""twinforge: digital-twin reconstruction, alignment and manipulation
strategy ranking for desk-scale tabletop scenes."""

__version__ = "0.1.0"

from ._heap import apply_heap_policy

# fixed malloc thresholds for the whole process (see _heap): True where the
# C library took them
HEAP_POLICY = apply_heap_policy()

from .camera import BinaryMask, CameraIntrinsics, ColorImage, DepthImage, backproject
from .errors import RejectedInput, StageFailureError
from .geometry import (Aabb, PointCloud, RigidPose, TriangleMesh, compute_aabb,
                       sample_mesh_surface)

__all__ = [
    "Aabb", "BinaryMask", "CameraIntrinsics", "ColorImage", "DepthImage",
    "PointCloud", "RejectedInput", "RigidPose", "StageFailureError",
    "TriangleMesh", "backproject", "compute_aabb", "sample_mesh_surface",
]
