"""Reference FPFH: the neighbour pairs built by a Python double loop and
aggregated with a row-indexed ``np.add.at``. Kept only to cross-check
``twinforge.register.compute_fpfh`` bit for bit.
"""

import numpy as np
from scipy.spatial import cKDTree

from twinforge.register import _BINS, _bin_index, _pair_features


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
    alpha, phi, theta, ok = _pair_features(pts[pi], pts[pj], normals[pi], normals[pj])
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
