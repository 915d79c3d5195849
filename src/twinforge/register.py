"""Two-stage alignment of one object: ``coarse_align`` (rest-pose search and
one similarity scale), then ``fine_register`` (FPFH + RANSAC, then
point-to-plane ICP).

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
from .errors import RejectedInput, StageFailureError, check_int
from .geometry import PointCloud, RigidPose, TriangleMesh, compute_aabb

# the scales the coarse step accepts; one outside fails coarse-align
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


def _check_positive(what: str, value):
    """RejectedInput unless ``value`` is a finite real > 0 (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.number))
            or not math.isfinite(value) or value <= 0):
        raise RejectedInput(f"{what} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class IcpParams:
    """RejectedInput unless ``max_iterations`` is an int >= 1 (a bool is
    not an int here) and the two distances are finite and > 0."""
    max_iterations: int = 50
    max_correspondence_distance: float = 0.02
    tolerance: float = 1e-6

    def __post_init__(self):
        check_int("IcpParams max_iterations", self.max_iterations, 1)
        _check_positive("IcpParams max_correspondence_distance",
                        self.max_correspondence_distance)
        _check_positive("IcpParams tolerance", self.tolerance)


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
        check_int("RansacParams trials", self.trials, 1)
        check_int("RansacParams seed", self.seed, 0)
        _check_positive("RansacParams inlier_threshold", self.inlier_threshold)


def estimate_scale(rendered_partial: PointCloud, observed_partial: PointCloud) -> float:
    """One scale factor: the median ratio (observed / rendered) of the AABB
    extents in the shared camera frame, over the axes the rendered cloud
    spans."""
    if len(rendered_partial) == 0 or len(observed_partial) == 0:
        raise RejectedInput("cannot estimate scale from an empty cloud")
    ren = compute_aabb(rendered_partial).extents
    obs = compute_aabb(observed_partial).extents
    ok = ren >= 1e-4
    if not ok.any():
        raise RejectedInput("rendered cloud is degenerate on all axes")
    return float(np.median(obs[ok] / ren[ok]))


# neighbours per point for a normal's covariance, not counting the point
NORMAL_K = 15


@dataclass(frozen=True)
class Neighbours:
    """One k-d tree over a cloud and one query of each point's NORMAL_K + 1
    nearest points (the point itself or an exact duplicate first). Normals
    read ``index``, FPFH's default radius reads ``dist[:, 1]`` and its pairs
    come from ``tree``, and ICP queries the tree of its target."""
    tree: cKDTree
    dist: np.ndarray
    index: np.ndarray

    @staticmethod
    def of(cloud: PointCloud) -> "Neighbours":
        tree = cKDTree(cloud.points)
        return Neighbours(tree, *tree.query(cloud.points, k=NORMAL_K + 1))


def estimate_normals(cloud: PointCloud, neighbours: Neighbours | None = None):
    """Per-point unit normals from k-NN covariance, oriented toward the
    camera origin. Returns (normals, valid) where degenerate neighborhoods
    are flagged invalid. ``neighbours`` is the cloud's own, built here when
    not given."""
    pts = cloud.points
    if len(pts) <= NORMAL_K:
        raise RejectedInput(
            f"need more than k={NORMAL_K} points for normal estimation")
    nbr = (neighbours or Neighbours.of(cloud)).index
    neighborhoods = pts[nbr]  # (N, k+1, 3)
    centered = neighborhoods - neighborhoods.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (NORMAL_K + 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]  # smallest-eigenvalue eigenvector
    # rank < 2 neighborhoods (two near-zero eigenvalues) give no stable normal
    scale = np.maximum(eigvals[:, 2], 1e-30)
    valid = eigvals[:, 1] / scale > 1e-8
    flip = np.einsum("ni,ni->n", normals, pts) > 0
    normals[flip] *= -1.0
    return normals, valid


def _dot(a, b):
    """Row dot products of coordinate-major triples, summed as (x + z) + y,
    the order ``np.einsum("ni,ni->n")`` takes on rows of three."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _cross(a, b):
    """Row cross products of coordinate-major triples, as ``np.cross``."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _norm(a):
    """Row norms of a coordinate-major triple, as ``np.linalg.norm``."""
    return np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])


def _pair_features(p1, p2, n1, n2):
    """Darboux-frame angle features (alpha, phi, theta) for point pairs.

    ``p1, p2, n1, n2`` are (M, 3), read one coordinate at a time: the
    transpose of a (3, M) array is read without a copy. Returns (alpha,
    phi, theta, ok, tie, d). The source of a pair is the point whose normal
    makes the larger angle with the line between the points, so (p2, p1)
    gives the same features bit for bit unless ``tie`` (|n1.d| == |n2.d|).
    ``d`` is |p2 - p1|.
    """
    p1, p2, n1, n2 = p1.T, p2.T, n1.T, n2.T
    dp = (p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2])
    d = _norm(dp)
    ok = d > 1e-12
    # a zero-length line reads as the zero vector (its pair is dropped)
    length = np.where(ok, d, np.inf)
    dpn = [c / length for c in dp]
    b1, b2 = _dot(n1, dpn), _dot(n2, dpn)
    a1, a2 = np.abs(b1), np.abs(b2)
    swap = a1 < a2
    # the source's normal, the target's, and the line from the source; a
    # negated line negates each dot product with it exactly
    pick = _bit_mask(swap)
    src_n, tgt_n = zip(*(_swap_where(pick, c1, c2) for c1, c2 in zip(n1, n2)))
    phi = _swap_where(pick, b1, -b2)[0]
    sign = 1.0 - 2.0 * swap
    v = _cross([c * sign for c in dpn], src_n)
    vnorm = _norm(v)
    ok &= vnorm > 1e-12
    # an unnormalizable v is kept as it is (its pair is dropped)
    scale = np.where(ok, vnorm, 1.0)
    v = [c / scale for c in v]
    w = _cross(src_n, v)
    alpha = _dot(v, tgt_n)
    theta = np.arctan2(_dot(w, tgt_n), _dot(src_n, tgt_n))
    return alpha, phi, theta, ok, a1 == a2, d


def _bit_mask(mask):
    """A boolean mask as 64-bit words, all ones where it holds."""
    return -mask.view(np.uint8).astype(np.uint64)


def _swap_where(bits, a, b):
    """(b, a) where ``bits`` (from ``_bit_mask``) is set, else (a, b), bit
    for bit, for float64 arrays. A bitwise select costs no branch per
    element; ``np.where`` branches, which a random mask makes slow."""
    a, b = a.view(np.uint64), b.view(np.uint64)
    diff = a ^ b
    first = a ^ (diff & bits)
    return first.view(np.float64), (first ^ diff).view(np.float64)


_BINS = 11


def _bin_index(values, lo, hi):
    return np.clip(((values - lo) / (hi - lo) * _BINS).astype(int), 0, _BINS - 1)


def _bins(alpha, phi, theta):
    """(3, M) SPFH cells within a point's 33: alpha's, phi's, theta's."""
    return np.stack([_bin_index(alpha, -1.0, 1.0),
                     _BINS + _bin_index(phi, -1.0, 1.0),
                     2 * _BINS + _bin_index(theta, -np.pi, np.pi)])


def _row_dtype(n):
    """The smallest integer dtype that holds 0..n-1; numpy sorts 16-bit
    integers stably by radix."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.int64


def compute_fpfh(cloud: PointCloud, normals, radius: float | None = None,
                 valid=None, neighbours: Neighbours | None = None) -> np.ndarray:
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
    positive. Anything else raises RejectedInput. ``neighbours`` is the
    cloud's own, built here when not given.
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
    if radius is None and n < 2:
        raise RejectedInput("the default radius needs at least 2 points")
    neighbours = neighbours or Neighbours.of(cloud)
    if radius is None:
        radius = 5.0 * float(np.mean(neighbours.dist[:, 1]))

    # unordered pairs i < j with both normals valid, each described once,
    # in ascending (i, j) order
    pairs = neighbours.tree.query_pairs(radius, output_type="ndarray")
    pi, pj = np.divmod(np.sort(pairs[:, 0] * n + pairs[:, 1]), n)
    use = valid[pi] & valid[pj]
    pi, pj = pi[use], pj[use]
    coords, dirs = np.ascontiguousarray(pts.T), np.ascontiguousarray(normals.T)
    alpha, phi, theta, ok, tie, dist = _pair_features(
        coords.take(pi, axis=1).T, coords.take(pj, axis=1).T,
        dirs.take(pi, axis=1).T, dirs.take(pj, axis=1).T)
    bins = _bins(alpha, phi, theta)
    # a pair enters row i as read from i and row j as read from j; the two
    # readings differ only for a tied pair, which is described again from j
    tied = np.flatnonzero(tie)
    i, j = pi[tied], pj[tied]
    alpha, phi, theta, ok_from_j, _, _ = _pair_features(
        coords.take(j, axis=1).T, coords.take(i, axis=1).T,
        dirs.take(j, axis=1).T, dirs.take(i, axis=1).T)
    back_bins, back_ok = bins.copy(), ok.copy()
    back_bins[:, tied], back_ok[tied] = _bins(alpha, phi, theta), ok_from_j

    # a reading that is not ok goes to a dropped row n
    rows = np.concatenate([np.arange(n), np.where(back_ok, pj, n),
                           np.where(ok, pi, n)])
    cols = np.concatenate([np.arange(n), pi, pj])
    cells = rows[n:] * (3 * _BINS) + np.concatenate([back_bins, bins], axis=1)
    spfh = np.bincount(cells.ravel(), minlength=(n + 1) * 3 * _BINS)
    spfh = spfh[:n * 3 * _BINS].reshape(n, 3 * _BINS).astype(float)

    # fpfh[i] = spfh[i] + sum_j w_ij spfh[j] as one CSR product. Each row
    # holds its unit self weight first, then its neighbours in ascending
    # order, the order the sum is taken in: pairs (i, r) come before pairs
    # (r, j) and each run is ascending, so a stable sort by row alone puts
    # every entry in place, and the dropped row last.
    counts = np.bincount(rows[n:], minlength=n + 1)
    weights = np.concatenate([np.ones(n), 1.0 / np.maximum(np.concatenate(
        [dist, dist]), 1e-9) / counts[rows[n:]]])
    order = np.argsort(rows.astype(_row_dtype(n + 1)), kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts[:n] + 1)])
    order = order[:starts[-1]]
    weight_matrix = csr_matrix((weights[order], cols[order], starts),
                               shape=(n, n))
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
    Only the tgt rows that some src row chose are queried back: a few
    percent of them on alignment clouds.
    """
    src_ok = np.nonzero(desc_src.sum(axis=1) > 0)[0]
    tgt_ok = np.nonzero(desc_tgt.sum(axis=1) > 0)[0]
    if len(src_ok) == 0 or len(tgt_ok) == 0:
        return np.empty(0, int), np.empty(0, int)
    ts = cKDTree(desc_src[src_ok])
    tt = cKDTree(desc_tgt[tgt_ok])
    _, fwd = tt.query(desc_src[src_ok])
    chosen, of_src = np.unique(fwd, return_inverse=True)
    _, bwd = ts.query(desc_tgt[tgt_ok[chosen]])
    mutual = bwd[of_src] == np.arange(len(src_ok))
    return src_ok[mutual], tgt_ok[fwd[mutual]]


# a triangle is thin when twice its area, |(b - a) x (c - b)|, is at most
# this share of its longest edge squared: its points are nearly collinear or
# coincident, which leaves the rotation about their line free
_THIN = 1e-3


def _thin(p):
    """(U,) True where the triangle of each (3, 3) row of points is thin,
    one with coincident points included."""
    ab, bc, ca = p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]
    twice_area = np.linalg.norm(np.cross(ab, bc), axis=1)
    longest = np.max([np.sum(e * e, axis=1) for e in (ab, bc, ca)], axis=0)
    return ~(twice_area > _THIN * longest)


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adjugate_column(N, shift):
    """The unit largest column of adj(N - shift I): N's eigenvector for the
    eigenvalue at the shift, as QCP takes it."""
    shifted = [[N[i][j] - shift if i == j else N[i][j] for j in range(4)]
               for i in range(4)]
    cof = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            minor = [[shifted[r][c] for c in range(4) if c != j]
                     for r in range(4) if r != i]
            cof[i][j] = cof[j][i] = (-1.0) ** (i + j) * _det3(minor)
    pick = np.argmax(np.abs(np.stack([cof[i][i] for i in range(4)])), axis=0)
    q = [np.choose(pick, [cof[i][k] for i in range(4)]) for k in range(4)]
    size = np.sqrt((q[0] * q[0] + q[1] * q[1]) + (q[2] * q[2] + q[3] * q[3]))
    return [c / size for c in q]


def _fit_closed_form(H):
    """Horn's closed-form rotation fit (JOSA A 4(4), 1987) of each (3, 3)
    H = sum (a - ca)(b - cb)^T: R = R(q) for the unit eigenvector q of the
    largest eigenvalue lambda1 of Horn's symmetric 4x4 N(H). As in QCP
    (Theobald, Acta Cryst. A61, 2005), lambda1 comes from Newton's method on
    det(N - x I) = x^4 + c2 x^2 + c1 x + c0, started above it, and q is the
    largest column of the adjugate of N - lambda1 I.

    Where H's second singular value exceeds 1e-3 of its first, R was within
    1.1e-10 (operator norm) of the least-squares SVD rotation on 2.7 M
    random triples, and a test holds it to 1e-9. A thin triangle leaves
    the rotation free: its R is arbitrary, or NaN where the adjugate
    vanishes, so RANSAC fits no thin triangle.
    """
    h = H.reshape(-1, 9).T
    (xx, xy, xz, yx, yy, yz, zx, zy, zz) = h
    N = [[xx + yy + zz, yz - zy, zx - xz, xy - yx],
         [None, xx - yy - zz, xy + yx, zx + xz],
         [None, None, yy - xx - zz, yz + zy],
         [None, None, None, zz - xx - yy]]
    for i in range(4):
        for j in range(i):
            N[i][j] = N[j][i]
    fro2 = np.einsum("kt,kt->t", h, h)
    # A = H^T H; c0 = prod lambda_j = 2 tr(A^2) - tr(A)^2
    cols = (h[0::3], h[1::3], h[2::3])
    gram = [_dot(cols[i], cols[j]) for i in range(3) for j in range(i, 3)]
    tr_a2 = (gram[0] ** 2 + gram[3] ** 2 + gram[5] ** 2
             + 2.0 * (gram[1] ** 2 + gram[2] ** 2 + gram[4] ** 2))
    c2 = -2.0 * fro2
    c1 = -8.0 * _det3((h[0:3], h[3:6], h[6:9]))
    c0 = 2.0 * tr_a2 - fro2 * fro2
    with np.errstate(all="ignore"):
        # sqrt(3) |H|_F >= sum of H's singular values >= lambda1, and P is
        # convex above lambda1, so the steps fall monotonically onto it
        lam = np.sqrt(3.0 * fro2)
        for _ in range(100):
            step = lam - (((lam * lam + c2) * lam + c1) * lam + c0) \
                / ((4.0 * lam * lam + 2.0 * c2) * lam + c1)
            falls = step < lam
            if not falls.any():
                break
            lam = np.where(falls, step, lam)
        else:
            lam = np.full_like(lam, np.nan)
        w, x, y, z = _adjugate_column(N, lam)
    return np.stack(
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
         2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
         2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        axis=1).reshape(-1, 3, 3)


def _triple_inliers(src, tgt, triples, threshold):
    """(U, C) masks |R @ src[c] + t - tgt[c]| <= threshold for the
    closed-form fit (R, t = cb - R ca) of each triple of correspondence
    indices. A triple whose source or target triangle is thin is neither
    fitted nor scored: it has no inliers.

    With s, g the coordinates centred on each cloud's mean and u = R mean(src)
    + t - mean(tgt), the squared residual |R s + u - g|^2 expands to
    |s|^2 + |g|^2 + |u|^2 + 2 (R^T u).s - 2 g^T R s - 2 u.g: one (U, 15) @
    (15, C) product, compared with threshold^2 in blocks of triples.
    """
    a, b = src[triples], tgt[triples]
    fair = ~(_thin(a) | _thin(b))
    a, b = a[fair], b[fair]
    ca, cb = a.mean(axis=1, keepdims=True), b.mean(axis=1, keepdims=True)
    H = np.einsum("tki,tkj->tij", a - ca, b - cb)
    R = _fit_closed_form(H)
    t = cb[:, 0, :] - np.einsum("tij,tj->ti", R, ca[:, 0, :])
    s = src - src.mean(axis=0)
    g = tgt - tgt.mean(axis=0)
    u = np.einsum("tij,j->ti", R, src.mean(axis=0)) + t - tgt.mean(axis=0)
    features = np.concatenate(
        [s.T, (g[:, :, None] * s[:, None, :]).reshape(-1, 9).T, g.T])
    weights = np.concatenate(
        [2.0 * np.einsum("tij,ti->tj", R, u), -2.0 * R.reshape(-1, 9),
         -2.0 * u], axis=1)
    base = np.einsum("ci,ci->c", s, s) + np.einsum("ci,ci->c", g, g)
    lift = np.einsum("ti,ti->t", u, u) - threshold * threshold
    scored = np.empty((len(R), len(src)), dtype=bool)
    for lo in range(0, len(R), _SCORE_BLOCK):
        hi = lo + _SCORE_BLOCK
        gap = weights[lo:hi] @ features
        gap += base
        gap += lift[lo:hi, None]
        np.less_equal(gap, 0.0, out=scored[lo:hi])
    inliers = np.zeros((len(triples), len(src)), dtype=bool)
    inliers[fair] = scored
    return inliers


def ransac_register(source: PointCloud, target: PointCloud,
                    source_desc, target_desc,
                    params: RansacParams = RansacParams()) -> RegistrationResult:
    """Global registration by RANSAC over mutual-nearest FPFH correspondences.

    Fixed trial count with a fixed seed; ties in inlier count go to the
    lowest trial index, so the result is order-independent. A trial whose
    source or target triangle is thin counts no inliers, as does one whose
    three draws are not distinct (a repeated draw makes a thin triangle).
    A trial's model depends on its ordered triple alone, so each distinct
    triple is fitted and scored once.
    """
    si, ti = mutual_correspondences(source_desc, target_desc)
    if len(si) < 3:
        return RegistrationResult(RigidPose.identity(), RMSE_INF, 0.0, False, 0)
    src = source.points[si]
    tgt = target.points[ti]
    C = len(src)
    rng = np.random.default_rng(params.seed)
    idx = rng.integers(0, C, size=(params.trials, 3))
    codes, of_trial = np.unique((idx[:, 0] * C + idx[:, 1]) * C + idx[:, 2],
                                return_inverse=True)
    inliers = _triple_inliers(
        src, tgt, np.stack(np.unravel_index(codes, (C, C, C)), axis=1),
        params.inlier_threshold)
    counts = inliers.sum(axis=1)[of_trial]
    best = int(np.argmax(counts))
    if counts[best] < 3:
        return RegistrationResult(RigidPose.identity(), RMSE_INF, 0.0, False, params.trials)

    mask = inliers[of_trial[best]]
    Rb, tb = kabsch(src[mask], tgt[mask])
    resid = src[mask] @ Rb.T + tb - tgt[mask]
    rmse = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    frac = float(counts[best] / C)
    pose = RigidPose.from_rotation_matrix(Rb, tb)
    return RegistrationResult(pose, rmse, frac, frac >= params.min_inlier_fraction,
                              params.trials)


def _plane_step(p, q, n) -> RigidPose:
    """One point-to-plane step from points ``p`` to the planes through
    ``q`` with unit normals ``n``, all (M, 3): the least-squares x = (omega,
    t) of the small-angle system [(p - c) x n, n] x = (q - p).n about the
    centroid c of ``p`` (Low, UNC TR04-004, 2004), from its 6x6 normal
    equations and minimum-norm where they are rank-deficient (a flat target
    fixes no in-plane motion); the exact rotation of omega about c, then t."""
    c = p.mean(axis=0)
    rows = np.hstack([np.cross(p - c, n), n])
    rhs = np.einsum("ni,ni->n", q - p, n)
    x = np.linalg.lstsq(rows.T @ rows, rows.T @ rhs, rcond=None)[0]
    angle = float(np.linalg.norm(x[:3]))
    rot = quat.quat_from_axis_angle(x[:3], angle) if angle else quat.IDENTITY
    return RigidPose(rot, c + x[3:] - quat.quat_rotate(rot, c))


def icp_refine(source: PointCloud, target: PointCloud, init: RigidPose,
               params: IcpParams = IcpParams(),
               neighbours: Neighbours | None = None,
               normals: tuple | None = None) -> RegistrationResult:
    """Point-to-plane ICP (Chen & Medioni, IVC 1992): each iteration matches
    each moved source point to its nearest target point within the cap, by
    one k-d tree query bounded by it, and takes a ``_plane_step`` over the
    matches whose target normal is valid; every match counts in the RMSE.

    Stops on max iterations, RMSE change below tolerance, an RMSE increase
    (the previous pose is kept, so the reported point-to-point RMSE never
    worsens) or no valid normal to step against (converged). ``neighbours``
    is the target's own and ``normals`` its (normals, valid) pair from
    ``estimate_normals``, each computed here when not given (RejectedInput
    for a target of at most NORMAL_K points).
    """
    if len(source) == 0 or len(target) == 0:
        raise RejectedInput("ICP needs non-empty clouds")
    neighbours = neighbours or Neighbours.of(target)
    tn, tv = normals or estimate_normals(target, neighbours)
    cap = params.max_correspondence_distance
    pose = init
    history = []
    best_pose, best_rmse, best_frac = init, None, 0.0
    converged = False
    iterations = 0
    for it in range(1, params.max_iterations + 1):
        moved = pose.apply(source.points)
        # the tree keeps distances below its bound, so a point at exactly
        # the cap matches; one with no match gets d = inf, j = len(target)
        d, j = neighbours.tree.query(
            moved, distance_upper_bound=np.nextafter(cap, np.inf))
        mask = d <= cap
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
        rows = np.flatnonzero(mask)[tv[j[mask]]]
        if not len(rows) or (delta is not None
                             and abs(delta) < params.tolerance):
            converged = True
            break
        pose = _plane_step(moved[rows], target.points[j[rows]],
                           tn[j[rows]]).compose(pose)
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
    return PointCloud(cloud.points[idx])


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
    StageFailureError when the mask is too small, the posed mesh is not
    visible or the scale falls outside SCALE_CLAMP."""
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
    scale = estimate_scale(coarse.rendered_partial, observed)
    if not SCALE_CLAMP[0] <= scale <= SCALE_CLAMP[1]:
        raise StageFailureError("coarse-align", "scale-clamped")
    return observed, coarse, scale


def fine_register(mesh: TriangleMesh, observed: PointCloud,
                  coarse: CoarseAlignment, scale: float) -> TwoStageResult:
    """The fine step after ``coarse_align``: RANSAC over FPFH
    correspondences, then point-to-plane ICP on the target normals FPFH
    used, from the scaled coarse partial cloud to the observed one. The
    final pose maps the scaled mesh into the camera frame.
    StageFailureError when a cloud is too small to describe."""
    anchor = coarse.best_pose.translation
    scaled_partial = PointCloud(
        anchor + (coarse.rendered_partial.points - anchor) * scale)
    src = _subsample(scaled_partial, SUBSAMPLE, 1)
    tgt = _subsample(observed, SUBSAMPLE, 2)
    src_nb, tgt_nb = Neighbours.of(src), Neighbours.of(tgt)
    try:
        sn, sv = estimate_normals(src, src_nb)
        tn, tv = estimate_normals(tgt, tgt_nb)
    except RejectedInput as exc:
        raise StageFailureError("fine-register", f"too-few-points: {exc}")
    sd = compute_fpfh(src, sn, valid=sv, neighbours=src_nb)
    td = compute_fpfh(tgt, tn, valid=tv, neighbours=tgt_nb)
    ransac = ransac_register(src, tgt, sd, td)
    # ICP from RANSAC's pose and from the coarse pose itself: the smaller
    # mean squared residual wins, an unmatched point counting as the
    # correspondence cap, so a false RANSAC match cannot pull a good coarse
    # pose away. With no RANSAC model both starts are the identity, so ICP
    # runs once.
    cap = IcpParams().max_correspondence_distance
    starts = ((RigidPose.identity(),) if ransac.rmse == RMSE_INF
              else (ransac.pose, RigidPose.identity()))
    icp = min((icp_refine(src, tgt, init, neighbours=tgt_nb,
                          normals=(tn, tv))
               for init in starts),
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
