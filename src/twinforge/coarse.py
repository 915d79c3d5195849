"""Coarse pose alignment: hypothesis generation, view features, best-pose search.

Stage 1 of the two-stage alignment. The hypotheses are rest poses under
gravity, seen from the camera. All rotation hypotheses are rendered
into one stack of small tiles, the stack is described by appearance
feature vectors in one batched pass, and each vector is scored by cosine
similarity against the (masked) observation's; the winner seeds the fine
registration stage with a rendered partial cloud.

The batched descriptors and similarities are bit-identical to describing
and scoring one image at a time, so the winner never depends on how the
hypotheses are batched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .camera import BinaryMask, CameraIntrinsics, ColorImage, backproject
from .geometry import PointCloud, RejectedInput, RigidPose, TriangleMesh
from .render import BACKGROUND, render, render_batch
from .strategy import UP, rest_orientations

DESCRIPTOR_GRID = 8          # cells per side
DESCRIPTOR_BINS = 8          # gradient orientation bins per cell
DESCRIPTOR_DIM = DESCRIPTOR_GRID * DESCRIPTOR_GRID * (DESCRIPTOR_BINS + 1)
_RESIZE_TO = 32

_LUMA = np.array([0.299, 0.587, 0.114])
_SOBEL = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_PAD_IDX = np.clip(np.arange(-1, _RESIZE_TO + 1), 0, _RESIZE_TO - 1)
_CELL_IDX = ((np.arange(_RESIZE_TO)[:, None] // (_RESIZE_TO // DESCRIPTOR_GRID))
             * DESCRIPTOR_GRID
             + np.arange(_RESIZE_TO)[None, :] // (_RESIZE_TO // DESCRIPTOR_GRID))


@dataclass(frozen=True)
class CoarseAlignment:
    best_pose: RigidPose
    similarity: float
    rendered_partial: PointCloud
    all_scores: tuple  # (hypothesis index, similarity) pairs


def check_rotation_count(n) -> None:
    """RejectedInput unless n is a positive multiple of 6: n / 6 yaws of each
    rest orientation."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or n <= 0 or n % 6):
        raise RejectedInput(
            f"rotation_count must be a positive multiple of 6, got {n!r}")


def generate_hypotheses(anchor_translation, rotation_count: int,
                        world_from_camera: RigidPose | None = None) -> tuple:
    """Rest-pose rotation hypotheses in the camera frame at one anchor
    translation, as a tuple of poses: each of the six
    ``strategy.rest_orientations()`` under ``rotation_count / 6`` evenly
    spaced yaws about world +z (rest-major, yaw 0 first), composed with the
    inverse of ``world_from_camera``'s rotation (None: identity, so the yaws
    turn about the optical axis)."""
    check_rotation_count(rotation_count)
    yaws = rotation_count // 6
    camera_from_world = (quat.IDENTITY if world_from_camera is None
                         else quat.quat_conjugate(world_from_camera.rotation))
    anchor = np.asarray(anchor_translation, dtype=float).reshape(3)
    return tuple(
        RigidPose(quat.quat_normalize(quat.quat_multiply(
            camera_from_world, quat.quat_multiply(
                quat.quat_from_axis_angle(UP, 2 * np.pi * k / yaws), rest))),
            anchor)
        for rest in rest_orientations() for k in range(yaws))


@functools.lru_cache(maxsize=64)
def _resize_weights(n_in, n_out):
    Wm = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for i in range(n_out):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(np.floor(lo)), int(np.ceil(hi))
        for j in range(j0, min(j1, n_in)):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                Wm[i, j] = overlap
        Wm[i] /= Wm[i].sum()
    Wm.setflags(write=False)
    return Wm


def _area_resize(images, out_h, out_w):
    """Exact area-weighted resampling of (..., H, W) images via
    interval-overlap averaging matrices."""
    return (_resize_weights(images.shape[-2], out_h) @ images
            @ _resize_weights(images.shape[-1], out_w).T)


def grid_descriptor(images) -> np.ndarray:
    """Luminance grid descriptors of a (B, H, W, 3) RGB stack, as (B, 576).

    Each image is area-averaged to 32x32 and cut into an 8x8 grid; a cell
    holds its mean intensity and an 8-bin histogram of Sobel gradient
    orientations weighted by magnitude. Rows are L2-normalized (all-zero
    images stay zero). Every array step runs over the whole stack at once.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 4 or images.shape[3] != 3:
        raise RejectedInput(f"need a (B, H, W, 3) image stack, got {images.shape}")
    if not np.all(np.isfinite(images)):
        raise RejectedInput("images must be finite")
    B = len(images)
    small = _area_resize(images @ _LUMA, _RESIZE_TO, _RESIZE_TO)

    padded = small[:, _PAD_IDX][:, :, _PAD_IDX]  # edge-replicating pad by one
    # zero taps add an exact zero, so skipping them leaves every sum unchanged
    gx = np.zeros_like(small)
    gy = np.zeros_like(small)
    for dy in range(3):
        for dx in range(3):
            block = padded[:, dy:dy + _RESIZE_TO, dx:dx + _RESIZE_TO]
            for grad, k in ((gx, _SOBEL[dy, dx]), (gy, _SOBEL[dx, dy])):
                if k:
                    grad += k * block
    mag = np.hypot(gx, gy)
    orient = np.arctan2(gy, gx)  # [-pi, pi]
    bins = np.clip(((orient + np.pi) / (2 * np.pi) * DESCRIPTOR_BINS).astype(int),
                   0, DESCRIPTOR_BINS - 1)

    cell = _RESIZE_TO // DESCRIPTOR_GRID
    nhist = DESCRIPTOR_GRID ** 2 * DESCRIPTOR_BINS
    slots = np.arange(B)[:, None, None] * nhist + _CELL_IDX * DESCRIPTOR_BINS + bins
    hists = np.bincount(slots.ravel(), weights=mag.ravel(), minlength=B * nhist)
    hists = hists.reshape(B, DESCRIPTOR_GRID ** 2, DESCRIPTOR_BINS)
    means = (small.reshape(B, DESCRIPTOR_GRID, cell, DESCRIPTOR_GRID, cell)
             .mean(axis=(2, 4)).reshape(B, -1, 1))
    vecs = np.concatenate([means, hists], axis=2).reshape(B, DESCRIPTOR_DIM)
    norms = _row_norms(vecs)
    nz = norms > 0
    vecs[nz] /= norms[nz, None]
    return vecs


def _row_norms(vecs):
    """L2 norm of each row, summed the way np.linalg.norm sums one 1-D
    vector (a BLAS dot), so a row's norm never depends on the batch."""
    return np.sqrt([np.dot(v, v) for v in vecs])


def _cosine_similarities(vecs, ref) -> np.ndarray:
    """Cosine similarity of each row of ``vecs`` with the vector ``ref``."""
    norms = _row_norms(vecs)
    ref_norm = _row_norms(ref[None])[0]
    if ref_norm == 0 or not norms.all():
        raise RejectedInput("cosine similarity undefined for zero vectors")
    return np.array([np.dot(v, ref) for v in vecs]) / (norms * ref_norm)


def mask_observation(observation: ColorImage, mask: BinaryMask) -> ColorImage:
    """Replace background pixels with the renderer's background color."""
    out = np.empty_like(observation.values)
    out[:] = BACKGROUND
    out[mask.values] = observation.values[mask.values]
    return ColorImage(out)


def partial_cloud_from_pose(mesh: TriangleMesh, pose: RigidPose,
                            intrinsics: CameraIntrinsics) -> PointCloud:
    """Render the posed mesh and back-project its depth to a partial cloud."""
    view = render(mesh, pose, intrinsics)
    return backproject(view.depth, intrinsics)


_SCORE_MAX_DIM = 40


def _scoring_intrinsics(intrinsics: CameraIntrinsics) -> CameraIntrinsics:
    """Downscale so max(width, height) <= _SCORE_MAX_DIM.

    The descriptor area-averages every image down to 32x32 before scoring,
    so rendering hypotheses above ~40 px per side only costs time.
    """
    s = _SCORE_MAX_DIM / max(intrinsics.width, intrinsics.height)
    if s >= 1.0:
        return intrinsics
    cx, cy = intrinsics.cx * s, intrinsics.cy * s

    def size(n, c):
        # rounding down may cut off a principal point near the far edge
        n = max(1, round(n * s))
        return n if c < n else int(np.floor(c)) + 1

    return CameraIntrinsics(intrinsics.fx * s, intrinsics.fy * s, cx, cy,
                            size(intrinsics.width, cx),
                            size(intrinsics.height, cy))


def select_coarse_pose(mesh: TriangleMesh, hypotheses,
                       observation: ColorImage, obs_mask: BinaryMask,
                       intrinsics: CameraIntrinsics) -> CoarseAlignment:
    """Render and score every hypothesis pose against the masked observation.

    Hypotheses are rendered at a scoring resolution capped at 40 px per
    side (the descriptor resamples to 32x32 regardless), described as one
    stack and scored in one pass. Ties are broken by lowest hypothesis
    index. The winning hypothesis's rendered depth is
    back-projected at full resolution into the stage-2 partial cloud.
    """
    if len(hypotheses) == 0:
        raise RejectedInput("empty hypothesis set")
    obs_feat = grid_descriptor(
        mask_observation(observation, obs_mask).values[None])[0]
    views = render_batch(mesh, hypotheses, _scoring_intrinsics(intrinsics))
    sims = _cosine_similarities(grid_descriptor(views.rgb), obs_feat)
    best_idx = int(np.argmax(sims))
    best_pose = hypotheses[best_idx]
    partial = partial_cloud_from_pose(mesh, best_pose, intrinsics)
    return CoarseAlignment(best_pose, float(sims[best_idx]), partial,
                           tuple(enumerate(float(s) for s in sims)))
