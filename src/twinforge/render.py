"""Software z-buffer rasterizer for colored triangle meshes.

Pure perspective rasterization with pixel-center sampling at (u+0.5, v+0.5),
top-left edge ownership, per-triangle near-plane rejection and headlight
Lambertian shading. Depth is interpolated perspective-correctly (linear in
1/z), so per-pixel depth matches ray casting up to floating-point error.

Triangles are scan-converted by row spans: on each pixel-centre row of a
triangle's bounding box, the three edge lines bound x to one interval,
widened by a slack far above float rounding, and only the pixels inside it
become fragments. Every fragment still runs the exact edge-function test
(Pineda 1988), so coverage is the same as testing the whole bounding box.

``render`` (one mesh) and ``render_scene`` (meshes in the world, seen from a
camera pose) draw every face and return one ``RenderedView``.
``render_batch`` renders one mesh under pose arrays, culling back faces: one
rasterizer pass draws each pose alone into its own image of a stack, and
the stacks come back as (B, H, W, 3) colour and (B, H, W) depth. All three
are pure functions and build their rasterizer input with one ``_assemble``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .camera import CameraIntrinsics, ColorImage, DepthImage
from .fileio import save_color_ppm, save_depth_pgm
from .geometry import RigidPose, TriangleMesh

NEAR = 0.01                     # triangles touching z <= NEAR are dropped
BACKGROUND = (0.5, 0.5, 0.5)
AMBIENT = 0.25
# row-span widening, in px per px of the triangle's largest coordinate: the
# float error of an edge crossing is ~1e-15 of that, so no pixel that passes
# the exact edge test falls outside its span
_SPAN_SLACK = 1e-6
# one render_batch pass draws at most this many poses, and no more than
# fill this many pixels (but always one), which bounds its buffers
_MAX_IMAGES = 64
_MAX_PIXELS = 256 * 256


def _cross3(a, b):
    """Row-wise cross product; avoids np.cross overhead on hot paths."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _headlight(v):
    """Per-triangle Lambert factor under a light at the camera, and the
    normal length, for (T, 3, 3) camera-frame triangles. A triangle with a
    zero normal or centroid gets the ambient term alone."""
    n = _cross3(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    nn = np.sqrt(np.einsum("ij,ij->i", n, n))
    centroid = v.mean(axis=1)
    cn = np.sqrt(np.einsum("ij,ij->i", centroid, centroid))
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.abs(np.einsum("ij,ij->i", n, -centroid) / (nn * cn))
    return AMBIENT + (1.0 - AMBIENT) * np.where(nn * cn > 0, cosine, 0.0), nn


@dataclass(frozen=True)
class RenderedView:
    rgb: ColorImage
    depth: DepthImage       # 0 = background
    object_ids: np.ndarray  # (H, W) int, -1 = background

    def dump(self, prefix):
        """Debug dump: <prefix>_rgb.ppm and <prefix>_depth.pgm."""
        save_color_ppm(f"{prefix}_rgb.ppm", self.rgb)
        save_depth_pgm(f"{prefix}_depth.pgm", self.depth)


def _rasterize(vertices_cam, triangles, vertex_colors, tri_object_ids,
               intrinsics, cull=False, images=None):
    """Rasterize camera-frame triangles into depth/color/id buffers.

    With ``images=None`` every triangle is drawn into one (H, W) image.
    With ``images=n`` the triangles of object i are drawn alone into image
    i of an (n, H, W) stack, exactly as a pass over them alone would draw
    them; object ids must lie in [0, n).
    ``cull=True`` drops back faces; it leaves the image unchanged only for
    meshes with consistent outward winding (all built-in primitives).
    """
    H, W = intrinsics.height, intrinsics.width
    shape = (H, W) if images is None else (images, H, W)
    depth_buf = np.full(shape, np.inf)
    color_buf = np.empty(shape + (3,))
    color_buf[:] = BACKGROUND
    id_buf = np.full(shape, -1, dtype=np.int64)

    z_all = vertices_cam[:, 2]
    # Per-triangle near-plane rejection: drop any triangle touching z <= NEAR.
    keep = np.all(z_all[triangles] > NEAR, axis=1)

    proj = np.empty((len(vertices_cam), 2))
    in_front = z_all > NEAR
    proj[in_front] = intrinsics.project(vertices_cam[in_front])

    live = np.nonzero(keep)[0]
    if len(live) == 0:
        return depth_buf, color_buf, id_buf
    tri = triangles[live]

    if cull:
        # Backface culling for meshes with consistent outward winding: a
        # face whose geometric normal points away from the camera always
        # loses the z-test on a watertight mesh, so dropping it up front
        # leaves the image unchanged while halving the fragment load.
        vc = vertices_cam[tri]
        n0 = _cross3(vc[:, 1] - vc[:, 0], vc[:, 2] - vc[:, 0])
        facing = np.einsum("ij,ij->i", n0, vc.mean(axis=1)) < 0.0
        live = live[facing]
        if len(live) == 0:
            return depth_buf, color_buf, id_buf
        tri = triangles[live]

    # per-triangle setup, fully vectorized
    p = proj[tri]                                  # (T, 3, 2)
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    flip = area2 < 0                               # orient CCW (y down)
    tri = tri.copy()
    tri[flip] = tri[flip][:, [0, 2, 1]]
    p[flip] = p[flip][:, [0, 2, 1]]
    area2 = np.abs(area2)

    v = vertices_cam[tri]                          # (T, 3, 3)
    lambert_all, nn = _headlight(v)
    inv_z_v = 1.0 / v[:, :, 2]                     # (T, 3)

    # bbox in float, cast to int only once it is known to lie in the image
    xmin = np.maximum(np.floor(p[:, :, 0].min(axis=1) - 0.5), 0)
    xmax = np.minimum(np.ceil(p[:, :, 0].max(axis=1) + 0.5), W - 1)
    ymin = np.maximum(np.floor(p[:, :, 1].min(axis=1) - 0.5), 0)
    ymax = np.minimum(np.ceil(p[:, :, 1].max(axis=1) + 0.5), H - 1)

    ok = (area2 > 0.0) & (nn > 0.0) & (xmin <= xmax) & (ymin <= ymax)
    if not ok.any():
        return depth_buf, color_buf, id_buf
    (p, area2, tri, lambert_all, inv_z_v, live) = (
        p[ok], area2[ok], tri[ok], lambert_all[ok], inv_z_v[ok], live[ok])
    xmin, xmax, ymin, ymax = (b[ok].astype(np.int64)
                              for b in (xmin, xmax, ymin, ymax))

    # edge k runs from a = p[(k+1)%3] to b = p[(k+2)%3], opposite p[k];
    # per-edge arrays are (3, T) so that gathers read contiguous rows
    ax = np.ascontiguousarray(p[:, [1, 2, 0], 0].T)
    ay = np.ascontiguousarray(p[:, [1, 2, 0], 1].T)
    dx = p[:, [2, 0, 1], 0].T - ax
    dy = p[:, [2, 0, 1], 1].T - ay
    # top-left ownership for pixels exactly on an edge
    top_left = (dy < 0) | ((dy == 0) & (dx < 0))

    # Row spans. On row y the edge function e = dx (gy - ay) - dy (gx - ax)
    # is >= 0 left of the crossing gx = ax + (gy - ay) dx / dy when dy > 0,
    # and right of it when dy < 0; a horizontal edge leaves the span to the
    # other two. Adding +-inf drops an edge from the bound it does not set,
    # and fmin/fmax skip the NaN of a crossing that overflows.
    hgt = ymax - ymin + 1
    rid = np.repeat(np.arange(len(tri)), hgt)           # row -> triangle
    ry = ymin[rid] + np.arange(len(rid)) - np.repeat(np.cumsum(hgt) - hgt, hgt)
    gy = ry + 0.5
    lo = np.full(len(rid), -np.inf)
    hi = np.full(len(rid), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = dx / dy
        for k in range(3):
            xc = ax[k][rid] + (gy - ay[k][rid]) * slope[k][rid]
            lo = np.fmax(lo, xc + np.where(dy[k] < 0, 0.0, -np.inf)[rid])
            hi = np.fmin(hi, xc + np.where(dy[k] > 0, 0.0, np.inf)[rid])
    # widen by the slack and clip to the bbox in float before the int cast
    slack = (_SPAN_SLACK * (1.0 + np.abs(p).max(axis=(1, 2))))[rid]
    x0 = np.clip(np.ceil(lo - slack - 0.5), xmin[rid], xmax[rid] + 1)
    x1 = np.clip(np.floor(hi + slack - 0.5), xmin[rid] - 1, xmax[rid])
    x0, x1 = x0.astype(np.int64), x1.astype(np.int64)
    wid = np.maximum(x1 - x0 + 1, 0)

    # expand the spans into a flat fragment list, ordered by triangle
    total = int(wid.sum())
    fid = np.repeat(rid, wid)                           # fragment -> triangle
    fx = (np.repeat(x0, wid) + np.arange(total)
          - np.repeat(np.cumsum(wid) - wid, wid))
    fy = np.repeat(ry, wid)
    gx = fx + 0.5
    gy = fy + 0.5

    # the exact edge test on every fragment
    inside = np.ones(total, dtype=bool)
    bary = np.empty((3, total))
    for k in range(3):
        e = dx[k][fid] * (gy - ay[k][fid]) - dy[k][fid] * (gx - ax[k][fid])
        inside &= np.where(top_left[k][fid], e >= 0, e > 0)
        bary[k] = e / area2[fid]

    fid, fx, fy = fid[inside], fx[inside], fy[inside]
    if len(fid) == 0:
        return depth_buf, color_buf, id_buf
    w0, w1, w2 = bary[:, inside]  # weights opposite p0, p1, p2

    inv_z = (w0 * inv_z_v[fid, 0] + w1 * inv_z_v[fid, 1]
             + w2 * inv_z_v[fid, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(inv_z > 0, 1.0 / inv_z, np.inf)

    # z-buffer resolve: per pixel of each image keep the closest fragment;
    # exact depth ties go to the earliest triangle, matching sequential
    # draw order. Fragments are ordered by triangle, so among a pixel's
    # closest ones the earliest triangle's has the lowest index.
    pix = fy * W + fx
    if images is not None:
        pix += (tri_object_ids[live] * (H * W))[fid]
    zmin = np.full(depth_buf.size, np.inf)
    np.minimum.at(zmin, pix, z)
    closest = np.flatnonzero(z == zmin[pix])
    first = np.full(depth_buf.size, len(z))
    np.minimum.at(first, pix[closest], closest)
    win = first[first < len(z)]
    fid, pix, z = fid[win], pix[win], z[win]
    w0, w1, w2 = w0[win], w1[win], w2[win]

    if vertex_colors is not None:
        cv = (vertex_colors[tri] * inv_z_v[:, :, None])[fid]  # (F, 3, 3)
        cint = (w0[:, None] * cv[:, 0] + w1[:, None] * cv[:, 1]
                + w2[:, None] * cv[:, 2]) * z[:, None]
    else:
        cint = np.full((len(fid), 3), 0.8)
    cint = np.clip(cint * lambert_all[fid][:, None], 0.0, 1.0)

    finite = np.isfinite(z)
    fid, pix, z, cint = fid[finite], pix[finite], z[finite], cint[finite]
    depth_buf.reshape(-1)[pix] = z
    color_buf.reshape(-1, 3)[pix] = cint
    id_buf.reshape(-1)[pix] = tri_object_ids[live[fid]]
    return depth_buf, color_buf, id_buf


def _assemble(meshes, verts_cam):
    """The input table of one rasterizer pass over posed meshes.

    ``verts_cam[i]`` holds ``meshes[i]``'s vertices in the camera frame.
    Returns the stacked vertices, the triangles offset object by object,
    per-vertex colours (None when no mesh has colours, else 0.8 grey for
    each mesh without them) and each triangle's object index.
    """
    offsets = np.cumsum([0] + [len(m.vertices) for m in meshes[:-1]])
    tris = np.vstack([m.triangles + o for m, o in zip(meshes, offsets)])
    colors = None
    if any(m.vertex_colors is not None for m in meshes):
        colors = np.vstack([np.full((len(m.vertices), 3), 0.8)
                            if m.vertex_colors is None else m.vertex_colors
                            for m in meshes])
    ids = np.repeat(np.arange(len(meshes), dtype=np.int64),
                    [len(m.triangles) for m in meshes])
    return np.vstack(verts_cam), tris, colors, ids


def _view(meshes, verts_cam, intrinsics) -> RenderedView:
    """Rasterize posed meshes, all faces drawn, into one view."""
    depth, color, id_buf = _rasterize(*_assemble(meshes, verts_cam), intrinsics)
    depth = np.where(np.isfinite(depth), depth, 0.0)
    return RenderedView(ColorImage(color), DepthImage(depth), id_buf)


def render(mesh: TriangleMesh, pose: RigidPose,
           intrinsics: CameraIntrinsics) -> RenderedView:
    """Render a single mesh posed in the camera frame."""
    return _view([mesh], [pose.apply(mesh.vertices)], intrinsics)


@dataclass(frozen=True)
class RenderedBatch:
    """One mesh rendered under B poses, as read-only stacks in pose order:
    ``rgb`` is (B, H, W, 3) and ``depth`` (B, H, W) with 0 for background."""
    rgb: np.ndarray
    depth: np.ndarray

    def __len__(self):
        return len(self.rgb)


def render_batch(mesh: TriangleMesh, rotations, translations,
                 intrinsics: CameraIntrinsics) -> RenderedBatch:
    """Render one mesh under the poses of (B, 4) unit quaternion and (B, 3)
    translation arrays into one image per pose.

    Amortizes the per-call rasterizer overhead: each rasterizer pass takes
    the mesh under up to 64 poses (fewer for images over 1024 pixels) and
    draws each pose alone into its own image of a stack. Back faces are
    culled, so the mesh must be wound consistently outward, as every
    built-in primitive is; image i is then the same, bit for bit, as
    ``render`` of the ``RigidPose`` holding rotation i and translation i.
    Each pass's stack is validated as one colour image and one depth image
    over its stacked rows."""
    W, H = intrinsics.width, intrinsics.height
    per_pass = max(1, min(_MAX_IMAGES, _MAX_PIXELS // (W * H)))
    rgb = np.empty((len(rotations), H, W, 3))
    depth = np.empty((len(rotations), H, W))
    for c0 in range(0, len(rotations), per_pass):
        q, t = rotations[c0:c0 + per_pass], translations[c0:c0 + per_pass]
        B = len(q)
        # (B, V, 3) camera-frame vertices: one matmul per pose, the same
        # arithmetic as RigidPose.apply
        rot = np.ascontiguousarray(np.moveaxis(quat.quat_to_matrix(q.T), -1, 0))
        vc = np.matmul(mesh.vertices, rot.transpose(0, 2, 1)) + t[:, None]
        d, c, _ = _rasterize(*_assemble([mesh] * B, list(vc)), intrinsics,
                             cull=True, images=B)
        d = np.where(np.isfinite(d), d, 0.0)
        depth[c0:c0 + B] = DepthImage(d.reshape(B * H, W)).values.reshape(d.shape)
        rgb[c0:c0 + B] = ColorImage(c.reshape(B * H, W, 3)).values.reshape(c.shape)
    rgb.setflags(write=False)
    depth.setflags(write=False)
    return RenderedBatch(rgb, depth)


def render_scene(objects, view_pose: RigidPose,
                 intrinsics: CameraIntrinsics) -> RenderedView:
    """Render multiple (mesh, world pose) objects from a camera at view_pose.

    Occlusion between objects is resolved by the shared depth buffer. The
    returned object_ids buffer holds each pixel's object index (-1 background).
    """
    if not objects:
        raise ValueError("render_scene needs at least one object")
    cam_from_world = view_pose.inverse()
    return _view([mesh for mesh, _ in objects],
                 [cam_from_world.compose(p).apply(mesh.vertices)
                  for mesh, p in objects], intrinsics)
