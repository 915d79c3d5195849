"""Brute-force references for the parity inside test, the ray cast, the
exit of a point inside and the watertightness check.

Runs Moller-Trumbore on every (point, triangle) pair with no bucketing. Used
to cross-check ``twinforge.solids.MeshIndex`` bit for bit, and, through
``ray_mesh_depth``, as the per-pixel ray oracle for the rasterizer.
"""

import numpy as np

from twinforge.geometry import TriangleMesh
from twinforge.solids import PARITY_DIRECTION


def _pair_hits(origins, direction, mesh, eps=1e-12):
    """Vectorized Moller-Trumbore over all (origin, triangle) pairs along one
    shared direction: (hit, t), each (N, T); a hit is a strict crossing with
    t > eps."""
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.asarray(direction, dtype=float)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    pvec = np.cross(d, e2)  # (T, 3)
    det = np.einsum("tj,tj->t", e1, pvec)
    ok_tri = np.abs(det) > eps
    inv_det = np.zeros_like(det)
    inv_det[ok_tri] = 1.0 / det[ok_tri]

    tvec = origins[:, None, :] - v0[None, :, :]          # (N, T, 3)
    u = np.einsum("ntj,tj->nt", tvec, pvec) * inv_det
    qvec = np.cross(tvec, e1[None, :, :])                # (N, T, 3)
    v = np.einsum("ntj,j->nt", qvec, d) * inv_det
    t = np.einsum("ntj,tj->nt", qvec, e2) * inv_det
    hit = (ok_tri[None, :] & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > eps))
    return hit, t


def ray_triangle_hits(origins, direction, mesh, eps=1e-12):
    """Ray/triangle crossing count per origin along one shared direction."""
    hit, _ = _pair_hits(origins, direction, mesh, eps)
    return hit.sum(axis=1)


def ref_points_inside(points, mesh, direction=PARITY_DIRECTION):
    """Odd crossing count along the parity direction."""
    return ray_triangle_hits(points, direction, mesh) % 2 == 1


def ref_first_hit(origins, direction, mesh, eps=1e-12):
    """Smallest crossing distance t > eps per origin, in units of the
    direction's length; inf where the ray meets no triangle."""
    hit, t = _pair_hits(origins, direction, mesh, eps)
    return np.where(hit, t, np.inf).min(axis=1, initial=np.inf)


def ref_exit(origins, direction, mesh, eps=1e-12):
    """Smallest crossing distance t > eps per origin whose ray along the
    direction crosses the mesh an odd number of times; inf elsewhere."""
    odd = ray_triangle_hits(origins, direction, mesh, eps) % 2 == 1
    return np.where(odd, ref_first_hit(origins, direction, mesh, eps), np.inf)


def ray_mesh_depth(origin, direction, mesh: TriangleMesh, eps=1e-12):
    """Smallest positive hit distance along the ray, or inf if it misses."""
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    e2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    pvec = np.cross(d, e2)
    det = np.einsum("tj,tj->t", e1, pvec)
    ok = np.abs(det) > eps
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = origin - v0
    u = np.einsum("tj,tj->t", tvec, pvec) * inv_det
    qvec = np.cross(tvec, e1)
    v = qvec @ d * inv_det
    t = np.einsum("tj,tj->t", qvec, e2) * inv_det
    hit = ok & (u >= -eps) & (v >= -eps) & (u + v <= 1 + eps) & (t > eps)
    return float(t[hit].min()) if hit.any() else np.inf


def ref_is_watertight(mesh: TriangleMesh) -> bool:
    """Every undirected edge shared by exactly two triangles, counted one
    triangle at a time."""
    if len(mesh.triangles) == 0:
        return False
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return all(c == 2 for c in edges.values())
