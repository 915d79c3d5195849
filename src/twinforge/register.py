"""Two-stage alignment of one object: ``coarse_align`` (rest-pose search and
one similarity scale), then ``fine_register`` (FPFH + RANSAC, then ICP).

All randomized steps take explicit seeds and are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from . import quaternions as quat
from .camera import BinaryMask, CameraIntrinsics, ColorImage, DepthImage, backproject
from .coarse import (CoarseAlignment, check_rotation_count,
                     generate_hypotheses, partial_cloud_from_pose,
                     select_coarse_pose)
from .errors import RejectedInput, StageFailureError
from .geometry import PointCloud, RigidPose, TriangleMesh, compute_aabb

SCALE_CLAMP = (0.2, 5.0)
RMSE_INF = np.finfo(float).max
# points per cloud for normals, FPFH, RANSAC and ICP, drawn with seeds 1
# (the coarse partial) and 2 (the observed cloud)
SUBSAMPLE = 1200
# fewest valid (masked, finite-depth) pixels an observation may have
MIN_MASK_PIXELS = 100
# RANSAC trials scored per block
_SCORE_BLOCK = 512


@dataclass(frozen=True)
class RegistrationResult:
    pose: RigidPose
    rmse: float
    inlier_fraction: float
    converged: bool
    iterations: int
    rmse_history: tuple = ()


@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 50
    max_correspondence_distance: float = 0.02
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations <= 0 or self.max_correspondence_distance <= 0 \
                or self.tolerance <= 0:
            raise RejectedInput("IcpParams must all be positive")


@dataclass(frozen=True)
class RansacParams:
    """RejectedInput unless ``trials`` is an int >= 1 and ``seed`` an int
    >= 0 (a bool is not an int here), and ``inlier_threshold`` is finite
    and > 0."""
    trials: int = 4096
    inlier_threshold: float = 0.015
    min_inlier_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name, low in (("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer)) or value < low):
                raise RejectedInput(
                    f"RansacParams {name} must be an int >= {low}, got {value!r}")
        t = self.inlier_threshold
        if (isinstance(t, bool) or not isinstance(t, (int, float, np.number))
                or not math.isfinite(t) or t <= 0):
            raise RejectedInput("RansacParams inlier_threshold must be finite "
                                f"and > 0, got {t!r}")


def estimate_scale(rendered_partial: PointCloud, observed_partial: PointCloud) -> float:
    """One scale factor: the median ratio (observed / rendered) of the AABB
    extents in the shared camera frame, over the axes the rendered cloud
    spans, clamped to SCALE_CLAMP."""
    if len(rendered_partial) == 0 or len(observed_partial) == 0:
        raise RejectedInput("cannot estimate scale from an empty cloud")
    ren = compute_aabb(rendered_partial).extents
    obs = compute_aabb(observed_partial).extents
    ok = ren >= 1e-4
    if not ok.any():
        raise RejectedInput("rendered cloud is degenerate on all axes")
    return float(np.clip(np.median(obs[ok] / ren[ok]), *SCALE_CLAMP))


def estimate_normals(cloud: PointCloud, k: int = 15):
    """Per-point unit normals from k-NN covariance, oriented toward the
    camera origin. Returns (normals, valid) where degenerate neighborhoods
    are flagged invalid."""
    pts = cloud.points
    if len(pts) <= k:
        raise RejectedInput(f"need more than k={k} points for normal estimation")
    tree = cKDTree(pts)
    _, nbr = tree.query(pts, k=k + 1)
    neighborhoods = pts[nbr]  # (N, k+1, 3)
    centered = neighborhoods - neighborhoods.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]  # smallest-eigenvalue eigenvector
    # rank < 2 neighborhoods (two near-zero eigenvalues) give no stable normal
    scale = np.maximum(eigvals[:, 2], 1e-30)
    valid = eigvals[:, 1] / scale > 1e-8
    flip = np.einsum("ni,ni->n", normals, pts) > 0
    normals[flip] *= -1.0
    return normals, valid


def _pair_features(p1, p2, n1, n2):
    """Darboux-frame angle features (alpha, phi, theta) for point pairs.

    Returns (alpha, phi, theta, ok, tie, d). The source of a pair is the
    point whose normal makes the larger angle with the line between the
    points, so (p2, p1) gives the same features bit for bit unless
    ``tie`` (|n1.d| == |n2.d|). ``d`` is |p2 - p1|.
    """
    dp = p2 - p1
    d = np.linalg.norm(dp, axis=1)
    ok = d > 1e-12
    dpn = np.divide(dp, d[:, None], out=np.zeros_like(dp), where=ok[:, None])
    a1 = np.abs(np.einsum("ni,ni->n", n1, dpn))
    a2 = np.abs(np.einsum("ni,ni->n", n2, dpn))
    swap = a1 < a2
    src_n = np.where(swap[:, None], n2, n1)
    tgt_n = np.where(swap[:, None], n1, n2)
    dpn = np.where(swap[:, None], -dpn, dpn)
    phi = np.einsum("ni,ni->n", src_n, dpn)
    v = np.cross(dpn, src_n)
    vnorm = np.linalg.norm(v, axis=1)
    ok &= vnorm > 1e-12
    np.divide(v, vnorm[:, None], out=v, where=ok[:, None])
    w = np.cross(src_n, v)
    alpha = np.einsum("ni,ni->n", v, tgt_n)
    theta = np.arctan2(np.einsum("ni,ni->n", w, tgt_n),
                       np.einsum("ni,ni->n", src_n, tgt_n))
    return alpha, phi, theta, ok, a1 == a2, d


_BINS = 11


def _bin_index(values, lo, hi):
    return np.clip(((values - lo) / (hi - lo) * _BINS).astype(int), 0, _BINS - 1)


def compute_fpfh(cloud: PointCloud, normals, radius: float | None = None,
                 valid=None) -> np.ndarray:
    """Fast point feature histograms, 33 bins per point, L1-normalized.

    Two passes: per-point simplified histograms (SPFH) over the Darboux
    angles, then distance-weighted aggregation over each point's
    neighborhood. Each unordered neighbour pair within ``radius`` (default:
    5x the mean nearest-neighbour distance, which needs 2 points) is described once and counted
    in both points' SPFH; only a pair whose normals make equal angles with
    the line between them is described again in reverse. Points with
    invalid normals or no neighbors get all-zero descriptors.

    ``normals`` is (N, 3), finite wherever ``valid`` (a boolean (N,) mask,
    default all True) holds; a given ``radius`` must be finite and
    positive. Anything else raises RejectedInput.
    """
    pts = cloud.points
    n = len(pts)
    normals = np.asarray(normals, dtype=float)
    if normals.shape != (n, 3):
        raise RejectedInput(f"normals must have shape ({n}, 3), got {normals.shape}")
    if valid is None:
        valid = np.ones(n, dtype=bool)
    valid = np.asarray(valid)
    if valid.dtype != bool or valid.shape != (n,):
        raise RejectedInput(f"valid must be a boolean mask of shape ({n},)")
    if not np.isfinite(normals[valid]).all():
        raise RejectedInput("normals flagged valid must be finite")
    if radius is not None and not (np.isfinite(radius) and radius > 0):
        raise RejectedInput(f"radius must be finite and positive, got {radius}")
    tree = cKDTree(pts)
    if radius is None:
        if n < 2:
            raise RejectedInput("the default radius needs at least 2 points")
        d1, _ = tree.query(pts, k=2)
        radius = 5.0 * float(np.mean(d1[:, 1]))

    # unordered pairs i < j with both normals valid, each described once
    pi, pj = tree.query_pairs(radius, output_type="ndarray").T
    use = valid[pi] & valid[pj]
    pi, pj = pi[use], pj[use]
    alpha, phi, theta, ok, tie, dist = _pair_features(
        pts.take(pi, axis=0), pts.take(pj, axis=0),
        normals.take(pi, axis=0), normals.take(pj, axis=0))
    # a pair enters row i as read from i and row j as read from j; the two
    # readings differ only for a tied pair, which is described again from j
    m = len(pi)
    rows, cols = np.concatenate([pi, pj]), np.concatenate([pj, pi])
    alpha, phi, theta, ok, dist = (np.concatenate([x, x])
                                   for x in (alpha, phi, theta, ok, dist))
    tied = np.flatnonzero(tie)
    i, j = pi[tied], pj[tied]
    back = m + tied
    alpha[back], phi[back], theta[back], ok[back], _, _ = _pair_features(
        pts[j], pts[i], normals[j], normals[i])
    keep = np.flatnonzero(ok)
    rows, cols, dist = rows[keep], cols[keep], dist[keep]
    cells = rows * (3 * _BINS)
    cells = np.concatenate([cells + _bin_index(alpha[keep], -1.0, 1.0),
                            cells + _BINS + _bin_index(phi[keep], -1.0, 1.0),
                            cells + 2 * _BINS + _bin_index(theta[keep], -np.pi, np.pi)])
    spfh = np.bincount(cells, minlength=n * 3 * _BINS)
    spfh = spfh.reshape(n, 3 * _BINS).astype(float)

    # fpfh[i] = spfh[i] + sum_j w_ij spfh[j] as one CSR product; each row
    # holds its unit self weight first, then its neighbours in ascending
    # order, the order the sum is taken in
    counts = np.bincount(rows, minlength=n)
    weights = 1.0 / np.maximum(dist, 1e-9) / counts[rows]
    order = np.argsort(rows * n + cols)
    starts = np.concatenate([[0], np.cumsum(counts)])
    weight_matrix = csr_matrix(
        (np.insert(weights[order], starts[:-1], 1.0),
         np.insert(cols[order], starts[:-1], np.arange(n)),
         starts + np.arange(n + 1)), shape=(n, n))
    fpfh = weight_matrix @ spfh

    sums = fpfh.sum(axis=1, keepdims=True)
    nz = sums[:, 0] > 0
    fpfh[nz] = fpfh[nz] / sums[nz]
    return fpfh


def kabsch(src, tgt):
    """Least-squares rigid transform (R, t) with R @ src + t ~= tgt."""
    src = np.asarray(src, dtype=float)
    tgt = np.asarray(tgt, dtype=float)
    cs = src.mean(axis=0)
    ct = tgt.mean(axis=0)
    H = (src - cs).T @ (tgt - ct)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    t = ct - R @ cs
    return R, t


def mutual_correspondences(desc_src, desc_tgt):
    """Indices (i, j) where src i and tgt j are mutual nearest descriptors.

    All-zero descriptors (no neighbors / invalid normals) are excluded.
    """
    src_ok = np.nonzero(desc_src.sum(axis=1) > 0)[0]
    tgt_ok = np.nonzero(desc_tgt.sum(axis=1) > 0)[0]
    if len(src_ok) == 0 or len(tgt_ok) == 0:
        return np.empty(0, int), np.empty(0, int)
    ts = cKDTree(desc_src[src_ok])
    tt = cKDTree(desc_tgt[tgt_ok])
    _, fwd = tt.query(desc_src[src_ok])
    _, bwd = ts.query(desc_tgt[tgt_ok])
    mutual = bwd[fwd] == np.arange(len(src_ok))
    return src_ok[mutual], tgt_ok[fwd[mutual]]


def _squared_limit(threshold):
    """The largest float whose sqrt is <= ``threshold`` (finite, >= 0).
    sqrt is correctly rounded and monotone, so sqrt(s) <= threshold exactly
    when s <= this limit."""
    threshold = float(threshold)
    s = threshold * threshold
    while math.sqrt(s) > threshold:
        s = math.nextafter(s, 0.0)
    while math.sqrt(math.nextafter(s, math.inf)) <= threshold:
        s = math.nextafter(s, math.inf)
    return s


def _trial_inliers(R, t, src, tgt, threshold):
    """(T, C) mask: |R[k] @ src[c] + t[k] - tgt[c]| <= threshold.

    Residuals are formed one output axis at a time and summed left to
    right (over j, then t, then -tgt; the squares over the axes likewise),
    with plain array ops, so every distance is the same on any machine.
    Blocks of trials are scored in place in (block, C) buffers that stay
    in cache, and the squared distance is compared with the squared limit
    instead of taking its sqrt.
    """
    limit = _squared_limit(threshold)
    s = [np.ascontiguousarray(c) for c in src.T]
    g = [np.ascontiguousarray(c) for c in tgt.T]
    buffers = [np.empty((min(len(R), _SCORE_BLOCK), len(src)))
               for _ in range(3)]
    inliers = np.empty((len(R), len(src)), dtype=bool)
    for lo in range(0, len(R), _SCORE_BLOCK):
        Rk, tk = R[lo:lo + _SCORE_BLOCK], t[lo:lo + _SCORE_BLOCK]
        r, term, sq = (b[:len(Rk)] for b in buffers)
        for i in range(3):
            np.multiply(Rk[:, i, 0, None], s[0], out=r)
            r += np.multiply(Rk[:, i, 1, None], s[1], out=term)
            r += np.multiply(Rk[:, i, 2, None], s[2], out=term)
            r += tk[:, i, None]
            r -= g[i]
            if i == 0:
                np.multiply(r, r, out=sq)
            else:
                sq += np.multiply(r, r, out=term)
        np.less_equal(sq, limit, out=inliers[lo:lo + len(Rk)])
    return inliers


def ransac_register(source: PointCloud, target: PointCloud,
                    source_desc, target_desc,
                    params: RansacParams = RansacParams()) -> RegistrationResult:
    """Global registration by RANSAC over mutual-nearest FPFH correspondences.

    Fixed trial count with a fixed seed; ties in inlier count go to the
    lowest trial index, so the result is order-independent.
    """
    si, ti = mutual_correspondences(source_desc, target_desc)
    if len(si) < 3:
        return RegistrationResult(RigidPose.identity(), RMSE_INF, 0.0, False, 0)
    src = source.points[si]
    tgt = target.points[ti]
    C = len(src)
    rng = np.random.default_rng(params.seed)
    T = params.trials
    idx = rng.integers(0, C, size=(T, 3))
    distinct = (idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2]) & (idx[:, 1] != idx[:, 2])

    a = src[idx]  # (T, 3, 3)
    b = tgt[idx]
    ca = a.mean(axis=1, keepdims=True)
    cb = b.mean(axis=1, keepdims=True)
    H = np.einsum("tki,tkj->tij", a - ca, b - cb)
    U, _, Vt = np.linalg.svd(H)
    # R = V diag(1, 1, sign det(V U^T)) U^T: flip V's last column to avoid
    # a reflection
    V = Vt.transpose(0, 2, 1).copy()
    V[:, :, 2] *= np.sign(np.linalg.det(U) * np.linalg.det(Vt))[:, None]
    R = np.matmul(V, U.transpose(0, 2, 1))
    t = cb[:, 0, :] - np.einsum("tij,tj->ti", R, ca[:, 0, :])

    inliers = (_trial_inliers(R, t, src, tgt, params.inlier_threshold)
               & distinct[:, None])
    counts = inliers.sum(axis=1)
    best = int(np.argmax(counts))
    if counts[best] < 3:
        return RegistrationResult(RigidPose.identity(), RMSE_INF, 0.0, False, params.trials)

    mask = inliers[best]
    Rb, tb = kabsch(src[mask], tgt[mask])
    resid = src[mask] @ Rb.T + tb - tgt[mask]
    rmse = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    frac = float(counts[best] / C)
    pose = RigidPose.from_rotation_matrix(Rb, tb)
    return RegistrationResult(pose, rmse, frac, frac >= params.min_inlier_fraction,
                              params.trials)


def icp_refine(source: PointCloud, target: PointCloud, init: RigidPose,
               params: IcpParams = IcpParams()) -> RegistrationResult:
    """Point-to-point ICP with nearest-neighbor correspondences.

    Stops on max iterations, RMSE change below tolerance, or an RMSE
    increase (the previous pose is kept, so reported RMSE never worsens).
    """
    if len(source) == 0 or len(target) == 0:
        raise RejectedInput("ICP needs non-empty clouds")
    tree = cKDTree(target.points)
    pose = init
    history = []
    best_pose, best_rmse, best_frac = init, None, 0.0
    converged = False
    iterations = 0
    for it in range(1, params.max_iterations + 1):
        moved = pose.apply(source.points)
        d, j = tree.query(moved)
        mask = d <= params.max_correspondence_distance
        if not mask.any():
            if best_rmse is None:
                return RegistrationResult(init, RMSE_INF, 0.0, False, 0)
            break
        rmse = float(np.sqrt(np.mean(d[mask] ** 2)))
        if best_rmse is not None and rmse > best_rmse + 1e-12:
            break  # keep the previous (better) pose
        delta = None if best_rmse is None else best_rmse - rmse
        best_pose, best_rmse, best_frac = pose, rmse, float(np.mean(mask))
        history.append(rmse)
        iterations = it
        if delta is not None and abs(delta) < params.tolerance:
            converged = True
            break
        R, t = kabsch(moved[mask], target.points[j[mask]])
        pose = RigidPose.from_rotation_matrix(R, t).compose(pose)
    return RegistrationResult(best_pose, best_rmse, best_frac, converged,
                              iterations, tuple(history))


@dataclass(frozen=True)
class AlignConfig:
    rotation_count: int = 384   # finest coarse grid: rest orientations x yaws
    skip_coarse: bool = False  # direct-alignment ablation: identity coarse pose

    def __post_init__(self):
        check_rotation_count(self.rotation_count)
        if not isinstance(self.skip_coarse, bool):
            raise RejectedInput(
                f"skip_coarse must be true or false, got {self.skip_coarse!r}")


@dataclass(frozen=True)
class TwoStageResult:
    scaled_mesh: TriangleMesh
    final_pose: RigidPose
    registration: RegistrationResult
    coarse: CoarseAlignment
    scale: float
    ransac: RegistrationResult


def _subsample(cloud: PointCloud, n: int, seed: int) -> PointCloud:
    if len(cloud) <= n:
        return cloud
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(cloud), size=n, replace=False))
    colors = cloud.colors[idx] if cloud.colors is not None else None
    return PointCloud(cloud.points[idx], colors)


def _crop_to_mask(color: ColorImage, mask: BinaryMask,
                  intrinsics: CameraIntrinsics, pad: float = 0.25):
    """Crop the observation to the mask's padded bounding square so the
    object dominates the coarse-scoring images. Returns (color, mask,
    intrinsics) for the cropped viewport (same camera, shifted principal
    point); coordinates and back-projections remain consistent."""
    rows = np.flatnonzero(mask.values.any(axis=1))
    cols = np.flatnonzero(mask.values.any(axis=0))
    side = max(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    side = int(np.ceil(side * (1 + 2 * pad)))
    side = min(side, mask.height, mask.width)
    r0 = int(np.clip((rows[0] + rows[-1] + 1 - side) // 2, 0, mask.height - side))
    c0 = int(np.clip((cols[0] + cols[-1] + 1 - side) // 2, 0, mask.width - side))
    # the viewport must keep the principal point inside it
    r1, c1 = r0 + side, c0 + side
    r0 = min(r0, int(np.floor(intrinsics.cy)))
    c0 = min(c0, int(np.floor(intrinsics.cx)))
    r1 = max(r1, int(np.ceil(intrinsics.cy)) + 1)
    c1 = max(c1, int(np.ceil(intrinsics.cx)) + 1)
    r0, c0 = max(r0, 0), max(c0, 0)
    r1, c1 = min(r1, mask.height), min(c1, mask.width)
    cropped_intr = CameraIntrinsics(
        fx=intrinsics.fx, fy=intrinsics.fy,
        cx=intrinsics.cx - c0, cy=intrinsics.cy - r0,
        width=c1 - c0, height=r1 - r0)
    return (ColorImage(color.values[r0:r1, c0:c1]),
            BinaryMask(mask.values[r0:r1, c0:c1]),
            cropped_intr)


def coarse_align(mesh: TriangleMesh, color: ColorImage, depth: DepthImage,
                 mask: BinaryMask, intrinsics: CameraIntrinsics,
                 config: AlignConfig = AlignConfig(),
                 world_from_camera: RigidPose | None = None):
    """The coarse step: (observed camera-frame cloud, the best rest-pose
    hypothesis by appearance at the cloud's centroid, one scale for the
    mesh). ``world_from_camera`` gives gravity, see ``generate_hypotheses``.
    StageFailureError when the mask is too small or the posed mesh is not
    visible."""
    valid = depth.valid_mask() & mask.values
    if valid.sum() < MIN_MASK_PIXELS:
        raise StageFailureError("segmentation-load", "segmentation-too-small")
    observed = backproject(depth, intrinsics, mask)
    anchor = observed.points.mean(axis=0)

    if config.skip_coarse:
        pose0 = RigidPose(quat.IDENTITY.copy(), anchor)
        partial = partial_cloud_from_pose(mesh, pose0, intrinsics)
        coarse = CoarseAlignment(pose0, 1.0, partial, ((0, 1.0),))
    else:
        c_color, c_mask, c_intr = _crop_to_mask(color, mask, intrinsics)
        hyps = generate_hypotheses(config.rotation_count, world_from_camera)
        coarse = select_coarse_pose(mesh, hyps, anchor, c_color, c_mask,
                                    c_intr)
    if len(coarse.rendered_partial) == 0:
        raise StageFailureError("coarse-align", "mesh-not-visible")
    return observed, coarse, estimate_scale(coarse.rendered_partial, observed)


def fine_register(mesh: TriangleMesh, observed: PointCloud,
                  coarse: CoarseAlignment, scale: float) -> TwoStageResult:
    """The fine step after ``coarse_align``: RANSAC over FPFH
    correspondences, then ICP, from the scaled coarse partial cloud to the
    observed one. The final pose maps the scaled mesh into the camera frame.
    StageFailureError when a cloud is too small to describe."""
    anchor = coarse.best_pose.translation
    scaled_partial = PointCloud(
        anchor + (coarse.rendered_partial.points - anchor) * scale)
    src = _subsample(scaled_partial, SUBSAMPLE, 1)
    tgt = _subsample(observed, SUBSAMPLE, 2)
    try:
        sn, sv = estimate_normals(src)
        tn, tv = estimate_normals(tgt)
    except RejectedInput as exc:
        raise StageFailureError("fine-register", f"too-few-points: {exc}")
    sd = compute_fpfh(src, sn, valid=sv)
    td = compute_fpfh(tgt, tn, valid=tv)
    ransac = ransac_register(src, tgt, sd, td)
    # ICP from RANSAC's pose and from the coarse pose itself: the smaller
    # mean squared residual wins, an unmatched point counting as the
    # correspondence cap, so a false RANSAC match cannot pull a good coarse
    # pose away. With no RANSAC model both starts are the identity, so ICP
    # runs once.
    cap = IcpParams().max_correspondence_distance
    starts = ((RigidPose.identity(),) if ransac.rmse == RMSE_INF
              else (ransac.pose, RigidPose.identity()))
    icp = min((icp_refine(src, tgt, init) for init in starts),
              key=lambda fit: fit.inlier_fraction
              * (min(fit.rmse, cap) ** 2 - cap ** 2))
    final_pose = icp.pose.compose(coarse.best_pose)
    return TwoStageResult(mesh.scaled(scale), final_pose, icp, coarse, scale,
                          ransac)


def two_stage_align(mesh: TriangleMesh, color: ColorImage, depth: DepthImage,
                    mask: BinaryMask, intrinsics: CameraIntrinsics,
                    config: AlignConfig = AlignConfig(),
                    world_from_camera: RigidPose | None = None) -> TwoStageResult:
    """``coarse_align`` then ``fine_register``. Only the frozen perfbench
    ``align-trials`` workload leaves ``world_from_camera`` at None."""
    return fine_register(mesh, *coarse_align(mesh, color, depth, mask,
                                             intrinsics, config,
                                             world_from_camera))


def alignment_success(estimated: RigidPose, truth: RigidPose,
                      object_diameter: float) -> bool:
    """Rotation geodesic error <= 15 degrees and translation error <=
    max(0.01 m, 10% of the object diameter)."""
    if object_diameter <= 0:
        raise RejectedInput("object diameter must be positive")
    rot_err = quat.geodesic_angle(estimated.rotation, truth.rotation)
    trans_err = float(np.linalg.norm(estimated.translation - truth.translation))
    return (rot_err <= np.deg2rad(15.0) + 1e-12
            and trans_err <= max(0.01, 0.1 * object_diameter) + 1e-12)
