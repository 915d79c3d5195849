"""Solid-mesh queries: watertightness, volume and center of mass for uniform
density, exact point-to-mesh distance, and inside/outside parity.

Volume integrals use the divergence theorem over signed tetrahedra, which is
exact for watertight meshes with consistent outward orientation (sign is
fixed up from the total volume).

``MeshIndex`` is built once per fixed mesh and direction and answers the
queries the settle simulator repeats: the parity inside test and the exit
of a ray cast against the index's direction, in one pass (``exit``), the
bounded least first hit over a set of rays cast along it (``first_hit``),
and the contact band (``point_mesh_distance <= tol``). It buckets every
triangle in a 2-D grid so the exact per-pair arithmetic runs only on
candidate pairs, and its answers are bit-identical to the brute-force
point x triangle scans. Each cell also keeps the least projection onto the
ray of the triangles it lists, a lower bound on the first hit of any ray
from the cell; ``first_hit`` casts only the rays whose bound can still beat
the answer.
"""

from __future__ import annotations

import numpy as np

from .errors import RejectedInput
from .geometry import TriangleMesh


def is_watertight(mesh: TriangleMesh) -> bool:
    """Every undirected edge shared by exactly two triangles."""
    if len(mesh.triangles) == 0:
        return False
    edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                    axis=1)
    _, counts = np.unique(edges[:, 0] * len(mesh.vertices) + edges[:, 1],
                          return_counts=True)
    return bool(np.all(counts == 2))


def signed_volume(mesh: TriangleMesh) -> float:
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def volume_and_com(mesh: TriangleMesh):
    """(volume, center of mass) for a uniform-density solid."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    vols = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
    total = vols.sum()
    if abs(total) < 1e-15:
        raise RejectedInput("mesh encloses no volume")
    centroids = (a + b + c) / 4.0  # tetra centroid with the origin as apex
    com = (vols[:, None] * centroids).sum(axis=0) / total
    return abs(float(total)), com


def _closest_on_triangles(p, a, b, c):
    """Closest point on each triangle (a, b, c) to each point p; all inputs
    broadcast over the leading axis. Ericson's region-by-region method."""
    ab, ac, ap = b - a, c - a, p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    denom = np.where(va + vb + vc != 0, va + vb + vc, 1.0)
    v_face = vb / denom
    w_face = vc / denom
    out = a + ab * v_face[:, None] + ac * w_face[:, None]

    t_bc = np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) + (d5 - d6), 1.0)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    out = np.where(on_bc[:, None], b + (c - b) * ((d4 - d3) / t_bc)[:, None], out)

    t_ac = np.where(d2 - d6 != 0, d2 - d6, 1.0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    out = np.where(on_ac[:, None], a + ac * (d2 / t_ac)[:, None], out)

    t_ab = np.where(d1 - d3 != 0, d1 - d3, 1.0)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    out = np.where(on_ab[:, None], a + ab * (d1 / t_ab)[:, None], out)

    out = np.where(((d6 >= 0) & (d5 <= d6))[:, None], c, out)
    out = np.where(((d3 >= 0) & (d4 <= d3))[:, None], b, out)
    out = np.where(((d1 <= 0) & (d2 <= 0))[:, None], a, out)
    return out


def point_mesh_distance(points, mesh: TriangleMesh):
    """Exact unsigned distance from each point to the mesh surface."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    nt = len(a)
    chunk = 256  # query points per block
    out = np.empty(len(points))
    for start in range(0, len(points), chunk):
        p = points[start:start + chunk]
        pp = np.repeat(p, nt, axis=0)
        aa = np.tile(a, (len(p), 1))
        bb = np.tile(b, (len(p), 1))
        cc = np.tile(c, (len(p), 1))
        closest = _closest_on_triangles(pp, aa, bb, cc)
        d = np.linalg.norm(pp - closest, axis=1).reshape(len(p), nt)
        out[start:start + chunk] = d.min(axis=1)
    return out


PARITY_DIRECTION = (0.37139, 0.55708, 0.74278)
# Absolute slack (meters) added to every bucketing bound, and taken off
# every first-hit bound. Measured on 0.1 m triangles: a parity hit found by
# the per-pair test lies within 3e-13 m of the triangle's projected box,
# down to 1e-12 rad from edge-on, and a computed closest point lies inside
# the triangle's box, zero-area triangles included.
_PAD = 1e-9
# parallel-ray determinant threshold and minimum hit distance of a ray
_EPS = 1e-12
# points ``first_hit`` casts before it prunes the rest by their bounds
_LEAD = 4


def _ranges(first, count):
    """(owner, index) for every element of the ranges [first, first + count)."""
    owner = np.repeat(np.arange(len(count)), count)
    index = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    return owner, index + first[owner]


class MeshIndex:
    """Query structure for one fixed mesh, built once and reused.

    Triangles are bucketed in a uniform 2-D grid over the plane orthogonal
    to the index's ray direction, each under every cell its projected
    bounding box (padded by a tiny absolute slack) touches (Ericson,
    Real-Time Collision Detection, ch. 7). A ray along that direction, or a
    ball whose radius is the query tolerance, can only meet triangles listed
    in the cells it projects onto, so the exact per-pair arithmetic runs on
    those pairs only. Every query is bit-identical to a brute-force
    point x triangle scan.
    """

    def __init__(self, mesh: TriangleMesh, direction):
        d = np.asarray(direction, dtype=float)
        tri = mesh.vertices[mesh.triangles]                  # (T, 3, 3)
        e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]

        # Moller-Trumbore terms; a triangle parallel to the ray gets
        # inv_det 0, so its t is 0 and it is never hit
        pvec = np.cross(d, e2)
        det = np.einsum("tj,tj->t", e1, pvec)
        ok = np.abs(det) > _EPS
        self.a, self.b, self.c = tri[:, 0], tri[:, 1], tri[:, 2]
        self.lo, self.hi = tri.min(axis=1), tri.max(axis=1)
        self.d, self.e1, self.e2, self.pvec = d, e1, e2, pvec
        self.inv_det = np.zeros_like(det)
        self.inv_det[ok] = 1.0 / det[ok]

        # orthonormal basis of the plane orthogonal to the ray
        dn = d / np.linalg.norm(d)
        ax = np.cross(dn, np.eye(3)[np.argmin(np.abs(dn))])
        ax /= np.linalg.norm(ax)
        self.basis = np.column_stack([ax, np.cross(dn, ax)])
        proj = (tri.reshape(-1, 3) @ np.column_stack([self.basis, d])
                ).reshape(-1, 3, 3)                          # (T, 3, 3)
        plo = proj[:, :, :2].min(axis=1) - _PAD
        phi = proj[:, :, :2].max(axis=1) + _PAD
        bounds = np.vstack([plo, phi]) if len(tri) else np.zeros((1, 2))
        self.origin = bounds.min(axis=0)
        span = bounds.max(axis=0) - self.origin
        # about one cell per triangle over the projected extent, at most
        # 257 cells along either axis
        self.cell = max(float(np.sqrt(span[0] * span[1] / max(len(tri), 1))),
                        float(span.max()) / 256, 1e-12)
        self.shape = (span // self.cell).astype(np.int64) + 1

        # CSR table: cell id -> triangle ids, ascending within each cell
        tri_of, cell_of = self._rect_cells(self._cells(plo), self._cells(phi))
        ncells = int(np.prod(self.shape))
        self.cell_tris = tri_of[np.argsort(cell_of, kind="stable")]
        self.cell_start = np.concatenate([[0], np.cumsum(
            np.bincount(cell_of, minlength=ncells))])

        # per cell, the least projection onto the ray of any triangle it
        # lists, in units of the direction's length: a ray from a point of
        # the cell hits nothing nearer than this less the point's own
        # projection. A triangle the ray is parallel to is never hit (+inf).
        # One within 1e-6 rad of parallel computes t with a rounding error
        # up to ~1e-16 |tvec| |e1| |e2| / |det|, which can pass _PAD, so it
        # bounds nothing (-inf).
        self.dd = float(d @ d)
        near = proj[:, :, 2].min(axis=1) / self.dd
        near[~ok] = np.inf
        near[ok & (det * det < 1e-12 * self.dd
                   * np.einsum("tj,tj->t", e1, e1)
                   * np.einsum("tj,tj->t", e2, e2))] = -np.inf
        self.floor = np.full(ncells, np.inf)
        np.minimum.at(self.floor, cell_of, near[tri_of])

    def _cells(self, q):
        """Grid cell (i, j) of projected points, clamped onto the grid."""
        f = np.clip((q - self.origin) / self.cell, 0, self.shape - 1)
        return np.floor(f).astype(np.int64)

    def _rect_cells(self, ilo, ihi):
        """(owner, cell id) for every cell of each rectangle [ilo, ihi]."""
        ext = ihi - ilo + 1
        owner, k = _ranges(np.zeros(len(ext), dtype=np.int64),
                           ext[:, 0] * ext[:, 1])
        width = ext[owner, 1]
        return owner, ((ilo[owner, 0] + k // width) * self.shape[1]
                       + ilo[owner, 1] + k % width)

    def _listed(self, cell):
        """(index into cell, triangle id) for every triangle each cell lists."""
        first = self.cell_start[cell]
        owner, pos = _ranges(first, self.cell_start[cell + 1] - first)
        return owner, self.cell_tris[pos]

    def _cell_ids(self, points):
        """Grid cell id of each point's ray."""
        ij = self._cells(points @ self.basis)
        return ij[:, 0] * self.shape[1] + ij[:, 1]

    def _hits(self, points, cell, back=False):
        """(point index, distance t) of every crossing with t > _EPS of the
        rays from the points, in cells ``cell``, along the index's
        direction, or against it with ``back``; t is in units of the
        direction's length.

        Against the direction, Moller-Trumbore's u and v are unchanged and
        t changes sign exactly, so negating t is bit for bit the crossing
        an index built along the opposite direction computes."""
        pi, ti = self._listed(cell)
        inv_det = self.inv_det[ti]
        tvec = points[pi] - self.a[ti]
        u = np.einsum("pj,pj->p", tvec, self.pvec[ti]) * inv_det
        qvec = np.cross(tvec, self.e1[ti])
        v = np.einsum("pj,j->p", qvec, self.d) * inv_det
        t = np.einsum("pj,pj->p", qvec, self.e2[ti]) * inv_det
        if back:
            t = -t
        hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > _EPS)
        return pi[hit], t[hit]

    def exit(self, points) -> np.ndarray:
        """Per point, the distance t > _EPS to the first crossing of its ray
        against the index's direction where that ray crosses the surface an
        odd number of times (the point is inside by parity), else inf; t is
        in units of the direction's length."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(points), np.inf)
        if len(points):
            pi, t = self._hits(points, self._cell_ids(points), back=True)
            np.minimum.at(out, pi, t)
            out[np.bincount(pi, minlength=len(points)) % 2 == 0] = np.inf
        return out

    def first_hit(self, points, limit: float = np.inf) -> float:
        """The least of limit and the first hit distance t > _EPS of each
        point's ray along the index's direction (in units of the
        direction's length), casting only the points that can set it.

        A point's first hit is at least its cell's floor less its own
        projection onto the ray. The few points with the smallest bounds
        are cast first; after them, only the points whose bound, less
        _PAD, still beats the running minimum. A skipped point's computed
        hit is no nearer than its bound less _PAD, so the answer is
        bit-identical to casting every point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        best = float(limit)
        if not len(points):
            return best
        cell = self._cell_ids(points)
        bound = self.floor[cell] - points @ self.d / self.dd - _PAD
        live = np.flatnonzero(bound < best)
        order = live[np.argsort(bound[live])]
        for part in (order[:_LEAD], order[_LEAD:]):
            part = part[bound[part] < best]
            if len(part):
                _, t = self._hits(points[part], cell[part])
                best = min(best, float(t.min(initial=np.inf)))
        return best

    def within(self, points, tol: float) -> np.ndarray:
        """Whether each point lies within tol of the surface; equal to
        ``point_mesh_distance(points, mesh) <= tol``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if tol < 0:
            return np.zeros(len(points), dtype=bool)
        reach = tol + _PAD
        q = points @ self.basis
        query, cell = self._rect_cells(self._cells(q - reach),
                                       self._cells(q + reach))
        pi, ti = self._listed(cell)
        pi = query[pi]
        p = points[pi]
        gap = np.maximum(np.maximum(self.lo[ti] - p, p - self.hi[ti]), 0.0)
        near = np.einsum("pj,pj->p", gap, gap) <= reach * reach
        pi, ti, p = pi[near], ti[near], p[near]
        closest = _closest_on_triangles(p, self.a[ti], self.b[ti], self.c[ti])
        d = np.linalg.norm(p - closest, axis=1)
        out = np.zeros(len(points), dtype=bool)
        out[pi[d <= tol]] = True
        return out


def points_inside(points, mesh: TriangleMesh, direction=PARITY_DIRECTION):
    """Parity test: odd crossing count along a fixed generic ray direction.
    The ray along it is the ray against an index built along its opposite,
    so this is that index's ``exit``. Kept as a public function so
    perfbench's tracer can time the inside test."""
    return np.isfinite(MeshIndex(mesh, np.negative(direction)).exit(points))
