"""Coarse pose alignment: hypothesis generation, view features, best-pose search.

Stage 1 of the two-stage alignment. The hypotheses are rest poses under
gravity, seen from the camera: six rests, each under evenly spaced yaws.
The search is coarse to fine. It first scores every
``COARSE_YAW_STEP``-th yaw of each rest, then the yaws around the
``COARSE_TOP`` best of those, and keeps the best pose scored. A level is
scored one ``render_batch`` pass at a time: the pass draws each hypothesis
into its own small luminance image (exactly the luminance of ``render``'s
colour for it alone), the stack is described by appearance feature
vectors, and each vector gets one cosine similarity against the (masked)
observation's. So the search's memory does not grow with the hypothesis
count. The winner seeds the fine registration stage with a rendered
partial cloud.

The observation is an RGB image; ``grid_descriptor`` checks it and takes
its luminance. Rendered hypotheses arrive as luminance and go straight to
the descriptor's core, unchecked. The batched descriptors and similarities
are bit-identical to describing and scoring one image at a time, so a
scored hypothesis's similarity never depends on how the hypotheses are
batched or which others are scored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .camera import BinaryMask, CameraIntrinsics, ColorImage, backproject
from .errors import RejectedInput, check_int
from .geometry import PointCloud, RigidPose, TriangleMesh
from .render import (_LUMA, BACKGROUND, poses_per_pass, render,
                     render_batch)
from .strategy import rest_yaw_grid

DESCRIPTOR_GRID = 8          # cells per side
DESCRIPTOR_BINS = 8          # gradient orientation bins per cell
DESCRIPTOR_DIM = DESCRIPTOR_GRID * DESCRIPTOR_GRID * (DESCRIPTOR_BINS + 1)
COARSE_YAW_STEP = 4          # the first search level scores every 4th yaw
COARSE_TOP = 16              # first-level poses whose near yaws come next
_RESIZE_TO = 32

_CELL_IDX = ((np.arange(_RESIZE_TO)[:, None] // (_RESIZE_TO // DESCRIPTOR_GRID))
             * DESCRIPTOR_GRID
             + np.arange(_RESIZE_TO)[None, :] // (_RESIZE_TO // DESCRIPTOR_GRID))


@dataclass(frozen=True)
class CoarseAlignment:
    best_pose: RigidPose
    similarity: float
    rendered_partial: PointCloud
    # (hypothesis index, similarity) of every hypothesis the search scored,
    # in index order
    all_scores: tuple


def check_rotation_count(n) -> None:
    """RejectedInput unless n is a positive multiple of 6: n / 6 yaws of each
    rest orientation."""
    if check_int("rotation_count", n, 1) % 6:
        raise RejectedInput(
            f"rotation_count must be a positive multiple of 6, got {n!r}")


def generate_hypotheses(rotation_count: int,
                        world_from_camera: RigidPose | None = None):
    """Rest-pose rotation hypotheses in the camera frame: the (6, Y, 4)
    ``strategy.rest_yaw_grid`` of Y = ``rotation_count / 6`` yaws, composed
    with the inverse of ``world_from_camera``'s rotation (None: identity, so
    the yaws turn about the optical axis) and normalized."""
    check_rotation_count(rotation_count)
    camera_from_world = (quat.IDENTITY if world_from_camera is None
                         else quat.quat_conjugate(world_from_camera.rotation))
    hyps = quat.quat_multiply(camera_from_world,
                              rest_yaw_grid(rotation_count // 6).T).T
    return _unit_rows(hyps).reshape(hyps.shape)


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
    return _describe(images @ _LUMA)


def _describe(lum) -> np.ndarray:
    """``grid_descriptor`` of the images whose luminance is the C-contiguous
    (B, H, W) stack ``lum``, taken as valid."""
    B, R = len(lum), _RESIZE_TO
    small = _area_resize(lum, R, R)

    # Sobel on one edge-replicating copy, in place; each sum adds its taps
    # in the kernel's row-major order, from 0, and a weight-2 tap as c + c
    padded = np.pad(small, ((0, 0), (1, 1), (1, 1)), mode="edge")

    def tap(dy, dx):
        return padded[:, dy:dy + R, dx:dx + R]

    twice = np.empty_like(small)
    gx = np.subtract(0.0, tap(0, 0))
    gx += tap(0, 2)
    gx -= np.add(tap(1, 0), tap(1, 0), out=twice)
    gx += np.add(tap(1, 2), tap(1, 2), out=twice)
    gx -= tap(2, 0)
    gx += tap(2, 2)
    gy = np.subtract(0.0, tap(0, 0))
    gy -= np.add(tap(0, 1), tap(0, 1), out=twice)
    gy -= tap(0, 2)
    gy += tap(2, 0)
    gy += np.add(tap(2, 1), tap(2, 1), out=twice)
    gy += tap(2, 2)
    mag = np.hypot(gx, gy)
    orient = np.arctan2(gy, gx)  # [-pi, pi]
    bins = np.clip(((orient + np.pi) / (2 * np.pi) * DESCRIPTOR_BINS).astype(int),
                   0, DESCRIPTOR_BINS - 1)

    cell = R // DESCRIPTOR_GRID
    nhist = DESCRIPTOR_GRID ** 2 * DESCRIPTOR_BINS
    slots = np.arange(B)[:, None, None] * nhist + _CELL_IDX * DESCRIPTOR_BINS + bins
    hists = np.bincount(slots.ravel(), weights=mag.ravel(), minlength=B * nhist)
    hists = hists.reshape(B, DESCRIPTOR_GRID ** 2, DESCRIPTOR_BINS)
    means = (small.reshape(B, DESCRIPTOR_GRID, cell, DESCRIPTOR_GRID, cell)
             .mean(axis=(2, 4)).reshape(B, DESCRIPTOR_GRID ** 2, 1))
    vecs = np.concatenate([means, hists], axis=2).reshape(B, DESCRIPTOR_DIM)
    norms = _row_norms(vecs)
    nz = norms > 0
    vecs[nz] /= norms[nz, None]
    return vecs


def _row_norms(vecs):
    """L2 norm of each row, summed the way np.linalg.norm sums one 1-D
    vector (a BLAS dot), so a row's norm never depends on the batch."""
    return np.sqrt([np.dot(v, v) for v in vecs])


def _unit_rows(quats):
    """The quaternions of a (..., 4) array as (N, 4) rows, each bit for bit
    as quat_normalize gives it (a norm over a strided row can differ)."""
    quats = np.ascontiguousarray(quats).reshape(-1, 4)
    return quats / _row_norms(quats)[:, None]


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


def select_coarse_pose(mesh: TriangleMesh, hypotheses, anchor,
                       observation: ColorImage, obs_mask: BinaryMask,
                       intrinsics: CameraIntrinsics) -> CoarseAlignment:
    """Search the (6, Y, 4) grid of ``generate_hypotheses``, each rotation
    at the ``anchor``, coarse to fine against the masked observation.

    The first level scores yaws 0, 4, 8, ... (``COARSE_YAW_STEP``) of
    every rest. The second scores, around each of the ``COARSE_TOP`` (16)
    best of those (ties to the lower index), the yaws within 3 steps in the
    same rest, wrapping mod Y, that are not yet scored. The winner is the
    best pose scored, ties to the lowest index rest * Y + yaw. At 384
    hypotheses that renders at most 192; at Y <= 4 it scores every one.

    Hypotheses are rendered as the poses they become, at a scoring
    resolution capped at 40 px per side (the descriptor resamples to 32x32
    regardless), and each level is rendered, described and scored one
    ``render_batch`` pass at a time, so memory stays flat however many
    hypotheses there are. Only the winner is made a pose; its rendered depth
    is back-projected at full resolution into the stage-2 partial cloud."""
    yaws = hypotheses.shape[1]
    obs_feat = grid_descriptor(
        mask_observation(observation, obs_mask).values[None])[0]
    small = _scoring_intrinsics(intrinsics)
    per_pass = poses_per_pass(small)

    def score(cells):
        sims = {}
        for c0 in range(0, len(cells), per_pass):
            chunk = cells[c0:c0 + per_pass]
            lum = render_batch(mesh, _unit_rows([hypotheses[c] for c in chunk]),
                               np.broadcast_to(anchor, (len(chunk), 3)), small)
            sims.update(zip(chunk, _cosine_similarities(
                _describe(lum), obs_feat).tolist()))
            del lum  # freed before the next pass draws its own stack
        return sims

    sims = score([(r, y) for r in range(6)
                  for y in range(0, yaws, COARSE_YAW_STEP)])
    top = sorted(sims, key=lambda cell: -sims[cell])[:COARSE_TOP]
    # the yaws the first level skipped on either side of a top pose
    reach = range(1 - COARSE_YAW_STEP, COARSE_YAW_STEP)
    near = {(r, (y + d) % yaws) for r, y in top for d in reach}
    sims.update(score(sorted(near - sims.keys())))
    all_scores = tuple((r * yaws + y, s) for (r, y), s in sorted(sims.items()))
    best_idx, best_sim = max(all_scores, key=lambda item: item[1])
    best_pose = RigidPose(hypotheses[divmod(best_idx, yaws)], anchor)
    partial = partial_cloud_from_pose(mesh, best_pose, intrinsics)
    return CoarseAlignment(best_pose, best_sim, partial, all_scores)
