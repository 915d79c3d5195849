"""Pinhole camera model and RGB-D image types.

Camera frame convention: +x right, +y down, +z forward. Depth values of 0 or
NaN mark invalid pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, RejectedInput


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise RejectedInput("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise RejectedInput("principal point must lie inside the image")


def _check_image(values, ndim, name):
    v = np.asarray(values, dtype=float)
    if v.ndim != ndim:
        raise RejectedInput(f"{name} must be {ndim}-dimensional, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class DepthImage:
    values: np.ndarray  # (H, W), meters; 0 or NaN = invalid

    def __post_init__(self):
        v = _check_image(self.values, 2, "depth image")
        with np.errstate(invalid="ignore"):
            if np.any(v[np.isfinite(v)] < 0):
                raise RejectedInput("valid depths must be positive")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def height(self):
        return self.values.shape[0]

    def valid_mask(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.isfinite(self.values) & (self.values > 0)


@dataclass(frozen=True)
class ColorImage:
    values: np.ndarray  # (H, W, 3), RGB in [0, 1]

    def __post_init__(self):
        v = _check_image(self.values, 3, "color image")
        if v.shape[2] != 3:
            raise RejectedInput("color image must have 3 channels")
        if v.size and (v.min() < -1e-9 or v.max() > 1 + 1e-9):
            raise RejectedInput("color channel values must lie in [0, 1]")
        object.__setattr__(self, "values", np.clip(v, 0.0, 1.0))
        self.values.setflags(write=False)

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def height(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class BinaryMask:
    values: np.ndarray  # (H, W) booleans

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise RejectedInput("mask must be 2-dimensional")
        object.__setattr__(self, "values", v.astype(bool))
        self.values.setflags(write=False)

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def height(self):
        return self.values.shape[0]

    def count(self):
        return int(self.values.sum())


def backproject(depth: DepthImage, intrinsics: CameraIntrinsics,
                mask: BinaryMask | None = None) -> PointCloud:
    """Back-project valid (optionally masked) depth pixels to camera-frame points.

    Pixel index (u, v) samples the continuous image point (u+0.5, v+0.5),
    matching the renderer's pixel-center convention, so a pixel whose center
    sits at the principal point maps to the optical axis. A pixel center at
    continuous position (a, b) with depth z maps to
    ((a-cx)*z/fx, (b-cy)*z/fy, z).
    """
    if depth.width != intrinsics.width or depth.height != intrinsics.height:
        raise RejectedInput("depth dimensions do not match intrinsics")
    valid = depth.valid_mask()
    if mask is not None:
        if mask.width != depth.width or mask.height != depth.height:
            raise RejectedInput("mask dimensions do not match depth")
        valid = valid & mask.values
    v_idx, u_idx = np.nonzero(valid)
    z = depth.values[v_idx, u_idx]
    x = (u_idx + 0.5 - intrinsics.cx) * z / intrinsics.fx
    y = (v_idx + 0.5 - intrinsics.cy) * z / intrinsics.fy
    return PointCloud(np.stack([x, y, z], axis=1))
