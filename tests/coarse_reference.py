"""Reference coarse scoring. The grid descriptor of a single (H, W, 3)
image and the scalar cosine similarity of two descriptors, as
``twinforge.coarse`` computed them before it described and scored whole
stacks in one pass; the exhaustive search that scored every hypothesis
before the search went coarse to fine; and the hypothesis generator that
built one pose per rest and yaw in a loop before the grid became one
quaternion array. Kept only to cross-check ``grid_descriptor``,
``select_coarse_pose`` and ``generate_hypotheses``.
"""

import numpy as np

from twinforge.coarse import (_CELL_IDX, _LUMA, _RESIZE_TO, DESCRIPTOR_BINS,
                              DESCRIPTOR_GRID, _cosine_similarities, _describe,
                              _resize_weights, _scoring_intrinsics,
                              grid_descriptor, mask_observation)
from twinforge import quaternions as quat
from twinforge.errors import RejectedInput
from twinforge.geometry import RigidPose
from twinforge.render import render_batch
from twinforge.strategy import UP, rest_orientations

_SOBEL = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_PAD_IDX = np.clip(np.arange(-1, _RESIZE_TO + 1), 0, _RESIZE_TO - 1)


def ref_grid_descriptor(image):
    """576-vector descriptor of one (H, W, 3) image, L2-normalized."""
    lum = np.asarray(image, dtype=float) @ _LUMA
    small = (_resize_weights(lum.shape[0], _RESIZE_TO) @ lum
             @ _resize_weights(lum.shape[1], _RESIZE_TO).T)

    padded = small[_PAD_IDX][:, _PAD_IDX]
    gx = np.zeros_like(small)
    gy = np.zeros_like(small)
    for dy in range(3):
        for dx in range(3):
            block = padded[dy:dy + _RESIZE_TO, dx:dx + _RESIZE_TO]
            gx += _SOBEL[dy, dx] * block
            gy += _SOBEL[dx, dy] * block
    mag = np.hypot(gx, gy)
    orient = np.arctan2(gy, gx)
    bins = np.clip(((orient + np.pi) / (2 * np.pi) * DESCRIPTOR_BINS).astype(int),
                   0, DESCRIPTOR_BINS - 1)

    cell = _RESIZE_TO // DESCRIPTOR_GRID
    hists = np.bincount((_CELL_IDX * DESCRIPTOR_BINS + bins).ravel(),
                        weights=mag.ravel(),
                        minlength=DESCRIPTOR_GRID ** 2 * DESCRIPTOR_BINS)
    hists = hists.reshape(DESCRIPTOR_GRID ** 2, DESCRIPTOR_BINS)
    means = (small.reshape(DESCRIPTOR_GRID, cell, DESCRIPTOR_GRID, cell)
             .mean(axis=(1, 3)).reshape(-1, 1))
    vec = np.concatenate([means, hists], axis=1).ravel()
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = vec / norm
    if not np.all(np.isfinite(vec)):
        raise RejectedInput("feature vector must be finite")
    return vec


def ref_cosine_similarity(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise RejectedInput("cosine similarity undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def ref_select_exhaustive(mesh, hypotheses, anchor, observation, obs_mask,
                          intrinsics):
    """The search before it went coarse to fine: render every hypothesis of
    the (6, Y, 4) grid, as the pose it becomes, in one luminance stack and
    score it; take the argmax, ties to the lowest flat index rest * Y + yaw.
    Returns (winner index, similarity of every hypothesis)."""
    poses = [RigidPose(q, anchor) for q in hypotheses.reshape(-1, 4)]
    obs_feat = grid_descriptor(
        mask_observation(observation, obs_mask).values[None])[0]
    lum = render_batch(mesh, np.array([p.rotation for p in poses]),
                       np.array([p.translation for p in poses]),
                       _scoring_intrinsics(intrinsics))
    sims = _cosine_similarities(_describe(lum), obs_feat)
    return int(np.argmax(sims)), sims


def ref_generate_hypotheses(anchor_translation, rotation_count,
                            world_from_camera=None):
    """The hypotheses as a tuple of poses, one per rest and yaw, rest-major
    with yaw 0 first, each composed with the inverse camera rotation."""
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
