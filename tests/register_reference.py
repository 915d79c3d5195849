"""Reference registration steps, kept only to cross-check
``twinforge.register`` bit for bit.

``ref_compute_fpfh`` builds the ordered neighbour pairs with a Python double
loop, describes every ordered pair (i, j) on its own with a frozen copy of
the Darboux-feature step (``ref_pair_features``), and aggregates them with a
row-indexed ``np.add.at``. ``ref_ransac_register`` fits every one of its
hypotheses with a batched SVD (``ref_fit_svd``) and scores it by moving every
correspondence under every hypothesis with one ``einsum`` into a (trials, C,
3) array and taking its norm; a hypothesis whose three draws repeat, or
whose source or target triangle is thin (``ref_thin``), scores none.
``ref_trial_inliers`` scores fits one output axis at a time.
``ref_mutual_correspondences`` queries every target
descriptor back. ``ref_icp_refine`` queries the target's k-d tree for every
point in every iteration, with no distance bound, and solves each
point-to-plane step from its dense normal equations.
"""

import numpy as np
from scipy.spatial import cKDTree

from twinforge import quaternions as quat
from twinforge.geometry import RigidPose
from twinforge.register import (_BINS, RMSE_INF, IcpParams, RansacParams,
                                RegistrationResult, _bin_index, kabsch,
                                mutual_correspondences)


def ref_pair_features(p1, p2, n1, n2):
    """Darboux-frame angle features (alpha, phi, theta) and a validity flag
    for the ordered pairs (p1, n1) -> (p2, n2)."""
    dp = p2 - p1
    d = np.linalg.norm(dp, axis=1)
    ok = d > 1e-12
    dpn = np.zeros_like(dp)
    dpn[ok] = dp[ok] / d[ok, None]
    a1 = np.einsum("ni,ni->n", n1, dpn)
    a2 = np.einsum("ni,ni->n", n2, dpn)
    swap = np.abs(a1) < np.abs(a2)
    src_n = np.where(swap[:, None], n2, n1)
    tgt_n = np.where(swap[:, None], n1, n2)
    dpn = np.where(swap[:, None], -dpn, dpn)
    phi = np.einsum("ni,ni->n", src_n, dpn)
    v = np.cross(dpn, src_n)
    vnorm = np.linalg.norm(v, axis=1)
    ok &= vnorm > 1e-12
    v[ok] = v[ok] / vnorm[ok, None]
    w = np.cross(src_n, v)
    alpha = np.einsum("ni,ni->n", v, tgt_n)
    theta = np.arctan2(np.einsum("ni,ni->n", w, tgt_n),
                       np.einsum("ni,ni->n", src_n, tgt_n))
    return alpha, phi, theta, ok


def ref_compute_fpfh(cloud, normals, radius=None, valid=None):
    """FPFH descriptors as ``compute_fpfh`` computed them with loops."""
    pts = cloud.points
    n = len(pts)
    normals = np.asarray(normals, dtype=float)
    if valid is None:
        valid = np.ones(n, dtype=bool)
    tree = cKDTree(pts)
    if radius is None:
        d1, _ = tree.query(pts, k=2)
        radius = 5.0 * float(np.mean(d1[:, 1]))

    neighbor_lists = tree.query_ball_point(pts, radius)
    pi, pj = [], []
    for i, lst in enumerate(neighbor_lists):
        if not valid[i]:
            continue
        for j in lst:
            if j != i and valid[j]:
                pi.append(i)
                pj.append(j)
    spfh = np.zeros((n, 3 * _BINS))
    if not pi:
        return spfh
    pi = np.asarray(pi)
    pj = np.asarray(pj)
    alpha, phi, theta, ok = ref_pair_features(pts[pi], pts[pj], normals[pi],
                                              normals[pj])
    pi, pj = pi[ok], pj[ok]
    ba = _bin_index(alpha[ok], -1.0, 1.0)
    bp = _bin_index(phi[ok], -1.0, 1.0)
    bt = _bin_index(theta[ok], -np.pi, np.pi)
    np.add.at(spfh, (pi, ba), 1.0)
    np.add.at(spfh, (pi, _BINS + bp), 1.0)
    np.add.at(spfh, (pi, 2 * _BINS + bt), 1.0)

    dist = np.linalg.norm(pts[pi] - pts[pj], axis=1)
    counts = np.bincount(pi, minlength=n).astype(float)
    fpfh = spfh.copy()
    weights = 1.0 / np.maximum(dist, 1e-9) / np.maximum(counts[pi], 1.0)
    np.add.at(fpfh, pi, spfh[pj] * weights[:, None])

    sums = fpfh.sum(axis=1, keepdims=True)
    nz = sums[:, 0] > 0
    fpfh[nz] = fpfh[nz] / sums[nz]
    return fpfh


def ref_mutual_correspondences(desc_src, desc_tgt):
    """Mutual nearest descriptors as ``mutual_correspondences`` found them
    by querying every target row back."""
    src_ok = np.nonzero(desc_src.sum(axis=1) > 0)[0]
    tgt_ok = np.nonzero(desc_tgt.sum(axis=1) > 0)[0]
    if len(src_ok) == 0 or len(tgt_ok) == 0:
        return np.empty(0, int), np.empty(0, int)
    _, fwd = cKDTree(desc_tgt[tgt_ok]).query(desc_src[src_ok])
    _, bwd = cKDTree(desc_src[src_ok]).query(desc_tgt[tgt_ok])
    mutual = bwd[fwd] == np.arange(len(src_ok))
    return src_ok[mutual], tgt_ok[fwd[mutual]]


def ref_fit_svd(H, ca, cb):
    """Each H's least-squares rotation R = V diag(1, 1, sign det(V U^T)) U^T
    from its SVD, and t = cb - R ca."""
    U, _, Vt = np.linalg.svd(H)
    det = np.linalg.det(np.einsum("tij,tjk->tik", Vt.transpose(0, 2, 1),
                                  U.transpose(0, 2, 1)))
    D = np.repeat(np.eye(3)[None], len(H), axis=0).copy()
    D[:, 2, 2] = np.sign(det)
    R = np.einsum("tij,tjk,tkl->til", Vt.transpose(0, 2, 1), D,
                  U.transpose(0, 2, 1))
    return R, cb - np.einsum("tij,tj->ti", R, ca)


def ref_trial_inliers(R, t, src, tgt, threshold):
    """(T, C) mask |R[k] @ src[c] + t[k] - tgt[c]| <= threshold, residuals
    formed one output axis at a time and summed left to right."""
    sq = 0.0
    for i in range(3):
        r = (R[:, i, 0, None] * src[:, 0] + R[:, i, 1, None] * src[:, 1]
             + R[:, i, 2, None] * src[:, 2] + t[:, i, None] - tgt[:, i])
        sq = sq + r * r
    return np.sqrt(sq) <= threshold


def ref_thin(p):
    """(T,) True where the triangle of (T, 3, 3) points p has twice its
    area, |(b - a) x (c - b)|, at most 1e-3 of its longest edge squared."""
    edges = p[:, [1, 2, 0]] - p
    twice_area = np.linalg.norm(np.cross(edges[:, 0], edges[:, 1]), axis=1)
    longest = np.max(np.linalg.norm(edges, axis=2), axis=1) ** 2
    return ~(twice_area > 1e-3 * longest)


def ref_ransac_register(source, target, source_desc, target_desc,
                        params=RansacParams()):
    """RANSAC registration as ``ransac_register`` computed it with einsum."""
    si, ti = mutual_correspondences(source_desc, target_desc)
    if len(si) < 3:
        return RegistrationResult(RigidPose.identity(), RMSE_INF, 0.0, False, 0)
    src = source.points[si]
    tgt = target.points[ti]
    C = len(src)
    rng = np.random.default_rng(params.seed)
    T = params.trials
    idx = rng.integers(0, C, size=(T, 3))
    distinct = ((idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2])
                & (idx[:, 1] != idx[:, 2]))

    a = src[idx]
    b = tgt[idx]
    ca = a.mean(axis=1, keepdims=True)
    cb = b.mean(axis=1, keepdims=True)
    H = np.einsum("tki,tkj->tij", a - ca, b - cb)
    R, t = ref_fit_svd(H, ca[:, 0, :], cb[:, 0, :])
    scored = distinct & ~ref_thin(a) & ~ref_thin(b)

    moved = np.einsum("tij,cj->tci", R, src) + t[:, None, :]
    dists = np.linalg.norm(moved - tgt[None], axis=2)
    inliers = (dists <= params.inlier_threshold) & scored[:, None]
    counts = inliers.sum(axis=1)
    best = int(np.argmax(counts))
    if counts[best] < 3:
        return RegistrationResult(RigidPose.identity(), RMSE_INF, 0.0, False,
                                  params.trials)

    mask = inliers[best]
    Rb, tb = kabsch(src[mask], tgt[mask])
    resid = src[mask] @ Rb.T + tb - tgt[mask]
    rmse = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    frac = float(counts[best] / C)
    pose = RigidPose.from_rotation_matrix(Rb, tb)
    return RegistrationResult(pose, rmse, frac, frac >= params.min_inlier_fraction,
                              params.trials)


def ref_icp_refine(source, target, init, normals, params=IcpParams()):
    """Point-to-plane ICP as ``icp_refine`` computes it, with one unbounded
    k=1 query of every point per iteration and the 6x6 normal equations of
    the dense (M, 6) system formed from the matches with a valid normal.
    ``normals`` is the target's (normals, valid) pair."""
    tree = cKDTree(target.points)
    tn, tv = normals
    cap = params.max_correspondence_distance
    pose = init
    history = []
    best_pose, best_rmse, best_frac = init, None, 0.0
    converged = False
    iterations = 0
    for it in range(1, params.max_iterations + 1):
        moved = pose.apply(source.points)
        d, j = tree.query(moved)
        mask = d <= cap
        if not mask.any():
            if best_rmse is None:
                return RegistrationResult(init, RMSE_INF, 0.0, False, 0)
            break
        rmse = float(np.sqrt(np.mean(d[mask] ** 2)))
        if best_rmse is not None and rmse > best_rmse + 1e-12:
            break
        delta = None if best_rmse is None else best_rmse - rmse
        best_pose, best_rmse, best_frac = pose, rmse, float(np.mean(mask))
        history.append(rmse)
        iterations = it
        if delta is not None and abs(delta) < params.tolerance:
            converged = True
            break
        rows = mask & tv[j]
        if not rows.any():
            converged = True
            break
        p, q, n = moved[rows], target.points[j[rows]], tn[j[rows]]
        c = p.mean(axis=0)
        a = np.concatenate([np.cross(p - c, n), n], axis=1)
        b = np.einsum("ni,ni->n", q - p, n)
        x = np.linalg.lstsq(a.T @ a, a.T @ b, rcond=None)[0]
        angle = float(np.linalg.norm(x[:3]))
        rot = (quat.quat_from_axis_angle(x[:3], angle) if angle > 0
               else quat.IDENTITY)
        step = RigidPose(rot, c + x[3:] - quat.quat_rotate(rot, c))
        pose = step.compose(pose)
    return RegistrationResult(best_pose, best_rmse, best_frac, converged,
                              iterations, tuple(history))
