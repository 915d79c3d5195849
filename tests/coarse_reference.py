"""Reference coarse scoring. The grid descriptor of a single (H, W, 3)
image and the scalar cosine similarity of two descriptors, as
``twinforge.coarse`` computed them before it described and scored whole
stacks in one pass; and the exhaustive search that scored every hypothesis
before the search went coarse to fine. Kept only to cross-check
``grid_descriptor`` and ``select_coarse_pose``.
"""

import numpy as np

from twinforge.coarse import (_CELL_IDX, _LUMA, _PAD_IDX, _RESIZE_TO, _SOBEL,
                              DESCRIPTOR_BINS, DESCRIPTOR_GRID,
                              _cosine_similarities, _resize_weights,
                              _scoring_intrinsics, grid_descriptor,
                              mask_observation)
from twinforge.errors import RejectedInput
from twinforge.render import render_batch


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


def ref_select_exhaustive(mesh, hypotheses, observation, obs_mask, intrinsics):
    """The search before it went coarse to fine: render and score every
    hypothesis in one stack and take the argmax, ties to the lowest index.
    Returns (winner index, similarity of every hypothesis)."""
    obs_feat = grid_descriptor(
        mask_observation(observation, obs_mask).values[None])[0]
    views = render_batch(mesh, hypotheses, _scoring_intrinsics(intrinsics))
    sims = _cosine_similarities(grid_descriptor(views.rgb), obs_feat)
    return int(np.argmax(sims)), sims
