"""Software z-buffer rasterizer for colored triangle meshes.

Pure perspective rasterization with pixel-center sampling at (u+0.5, v+0.5),
top-left edge ownership, per-triangle near-plane rejection and headlight
Lambertian shading. Depth is interpolated perspective-correctly (linear in
1/z), so per-pixel depth matches ray casting up to floating-point error.

The one rasterizer core, ``_rasterize``, is coordinate-major: it splits its
input once into contiguous 1-D arrays (vertex x, y and z, projected u and v,
triangle corners i0, i1 and i2), so every per-triangle and per-fragment step
is an elementwise op on 1-D arrays. Each face's normal is computed once and
serves both the back-face cull and the headlight.

Triangles are scan-converted by row spans: on each pixel-centre row of a
triangle's own y range, the three edge lines bound x to one interval. The
row range and each interval are widened by a slack far above float
rounding, and only the pixels inside become fragments. Every fragment still
runs the exact edge-function test (Pineda 1988), so coverage is the same as
testing the whole bounding box. Colour is interpolated only for the
fragment that wins each pixel.

``render`` (one mesh) and ``render_scene`` (meshes in the world, seen from a
camera pose) draw every face and return one ``RenderedView``; both build the
core's input with ``_assemble``. ``render_batch`` renders one mesh under
pose arrays, culling back faces: it stacks the posed mesh into one input
per pass, the core draws each pose alone into its own image of a stack, and
the stacks come back as C-contiguous (B, H, W, 3) colour and (B, H, W)
depth. All three are pure functions.
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


def _headlight(n, nn, centroid):
    """Per-triangle Lambert factor under a light at the camera, from (T, 3)
    face normals, their lengths and the centroids. A triangle with a zero
    normal or centroid gets the ambient term alone."""
    cn = np.sqrt(np.einsum("ij,ij->i", centroid, centroid))
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.abs(np.einsum("ij,ij->i", n, -centroid) / (nn * cn))
    return AMBIENT + (1.0 - AMBIENT) * np.where(nn * cn > 0, cosine, 0.0)


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
    # filled a whole image row at a time: a 3-wide broadcast is much slower
    color_buf.reshape(-1, 3 * W)[:] = np.tile(BACKGROUND, W)
    id_buf = np.full(shape, -1, dtype=np.int64)

    # coordinate-major input: one contiguous 1-D array per coordinate
    x, y, z = (np.ascontiguousarray(c) for c in vertices_cam.T)
    i0, i1, i2 = (np.ascontiguousarray(c) for c in triangles.T)
    # Per-triangle near-plane rejection: drop any triangle touching z <= NEAR.
    front = z > NEAR
    live = np.flatnonzero(front[i0] & front[i1] & front[i2])
    if len(live) == 0:
        return depth_buf, color_buf, id_buf
    i0, i1, i2 = i0[live], i1[live], i2[live]
    # projection of the vertices in front; the others are never read
    zf = np.where(front, z, 1.0)
    u = intrinsics.fx * x / zf + intrinsics.cx
    v = intrinsics.fy * y / zf + intrinsics.cy

    # One face normal serves the cull and the headlight: swapping corners 1
    # and 2 below turns it into exactly -n, which leaves both |n| and the
    # headlight's |cos| unchanged.
    corners = [(c[i0], c[i1], c[i2]) for c in (x, y, z)]
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = corners
    ax, ay, az = x1 - x0, y1 - y0, z1 - z0
    bx, by, bz = x2 - x0, y2 - y0, z2 - z0
    n = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx],
                 axis=1)
    if cull:
        # Backface culling for meshes with consistent outward winding: a
        # face whose geometric normal points away from the camera always
        # loses the z-test on a watertight mesh, so dropping it up front
        # leaves the image unchanged while halving the fragment load.
        centroid = np.stack([(c0 + c1 + c2) / 3 for c0, c1, c2 in corners],
                            axis=1)
        facing = np.flatnonzero(np.einsum("ij,ij->i", n, centroid) < 0.0)
        if len(facing) == 0:
            return depth_buf, color_buf, id_buf
        i0, i1, i2, live, n = (a[facing] for a in (i0, i1, i2, live, n))
    nn = np.sqrt(np.einsum("ij,ij->i", n, n))

    u0, u1, u2 = u[i0], u[i1], u[i2]
    v0, v1, v2 = v[i0], v[i1], v[i2]
    area2 = (u1 - u0) * (v2 - v0) - (v1 - v0) * (u2 - u0)
    flip = area2 < 0                               # orient CCW (y down)
    i1, i2 = np.where(flip, i2, i1), np.where(flip, i1, i2)
    area2 = np.abs(area2)

    # Columns from the bbox, rows from the triangle's own y range: a
    # pixel-centre row gy meets the triangle only for min v <= gy <= max v,
    # widened by the same slack as the row spans below. Bounds stay float
    # until they are known to lie in the image.
    umin = np.minimum(np.minimum(u0, u1), u2)
    umax = np.maximum(np.maximum(u0, u1), u2)
    vmin = np.minimum(np.minimum(v0, v1), v2)
    vmax = np.maximum(np.maximum(v0, v1), v2)
    slack = _SPAN_SLACK * (1.0 + np.maximum(
        np.maximum(np.abs(umin), np.abs(umax)),
        np.maximum(np.abs(vmin), np.abs(vmax))))
    xmin = np.maximum(np.floor(umin - 0.5), 0)
    xmax = np.minimum(np.ceil(umax + 0.5), W - 1)
    ymin = np.maximum(np.ceil(vmin - slack - 0.5), 0)
    ymax = np.minimum(np.floor(vmax + slack - 0.5), H - 1)

    ok = np.flatnonzero((area2 > 0.0) & (nn > 0.0) & (xmin <= xmax)
                        & (ymin <= ymax))
    if len(ok) == 0:
        return depth_buf, color_buf, id_buf
    i0, i1, i2, live, n, nn, area2, slack = (
        a[ok] for a in (i0, i1, i2, live, n, nn, area2, slack))
    xmin, xmax, ymin, ymax = (b[ok].astype(np.int64)
                              for b in (xmin, xmax, ymin, ymax))
    # the flipped corners; each centroid is summed in its own vertex order
    centroid = np.stack([(c[i0] + c[i1] + c[i2]) / 3 for c in (x, y, z)], axis=1)
    lambert = _headlight(n, nn, centroid)
    inv_z_v = (1.0 / z[i0], 1.0 / z[i1], 1.0 / z[i2])

    # edge k runs from a = p[(k+1)%3] to b = p[(k+2)%3], opposite p[k]
    pu, pv = (u[i0], u[i1], u[i2]), (v[i0], v[i1], v[i2])
    eax = (pu[1], pu[2], pu[0])
    eay = (pv[1], pv[2], pv[0])
    edx = (pu[2] - pu[1], pu[0] - pu[2], pu[1] - pu[0])
    edy = (pv[2] - pv[1], pv[0] - pv[2], pv[1] - pv[0])

    # Row spans. On row y the edge function e = dx (gy - ay) - dy (gx - ax)
    # is >= 0 left of the crossing gx = ax + (gy - ay) dx / dy when dy > 0,
    # and right of it when dy < 0; a horizontal edge leaves the span to the
    # other two. Adding +-inf drops an edge from the bound it does not set,
    # and fmin/fmax skip the NaN of a crossing that overflows.
    hgt = ymax - ymin + 1
    rid = np.repeat(np.arange(len(ok)), hgt)           # row -> triangle
    ry = ymin[rid] + np.arange(len(rid)) - np.repeat(np.cumsum(hgt) - hgt, hgt)
    gy = ry + 0.5
    lo = np.full(len(rid), -np.inf)
    hi = np.full(len(rid), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(3):
            slope = edx[k] / edy[k]
            xc = eax[k][rid] + (gy - eay[k][rid]) * slope[rid]
            lo = np.fmax(lo, xc + np.where(edy[k] < 0, 0.0, -np.inf)[rid])
            hi = np.fmin(hi, xc + np.where(edy[k] > 0, 0.0, np.inf)[rid])
    # widen by the slack and clip to the bbox in float before the int cast
    rslack = slack[rid]
    x0 = np.clip(np.ceil(lo - rslack - 0.5), xmin[rid], xmax[rid] + 1)
    x1 = np.clip(np.floor(hi + rslack - 0.5), xmin[rid] - 1, xmax[rid])
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

    # the exact edge test on every fragment, top-left ownership for pixels
    # exactly on an edge
    inside = np.ones(total, dtype=bool)
    e = []
    for k in range(3):
        dx, dy = edx[k][fid], edy[k][fid]
        e.append(dx * (gy - eay[k][fid]) - dy * (gx - eax[k][fid]))
        top_left = (dy < 0) | ((dy == 0) & (dx < 0))
        inside &= (e[k] > 0) | ((e[k] == 0) & top_left)

    inside = np.flatnonzero(inside)
    if len(inside) == 0:
        return depth_buf, color_buf, id_buf
    fid, fx, fy = fid[inside], fx[inside], fy[inside]
    a2 = area2[fid]
    w0, w1, w2 = (ek[inside] / a2 for ek in e)  # weights opposite p0, p1, p2

    inv_z = (w0 * inv_z_v[0][fid] + w1 * inv_z_v[1][fid]
             + w2 * inv_z_v[2][fid])
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
    win = win[np.isfinite(z[win])]
    fid, pix, z = fid[win], pix[win], z[win]
    w0, w1, w2 = w0[win], w1[win], w2[win]

    depth_buf.reshape(-1)[pix] = z
    id_buf.reshape(-1)[pix] = tri_object_ids[live[fid]]
    # colour, one channel at a time, for the winning fragments only
    shade = lambert[fid]
    for ch in range(3):
        if vertex_colors is None:
            c = np.full(len(fid), 0.8)
        else:
            col = vertex_colors[:, ch]
            c = (w0 * (col[i0] * inv_z_v[0])[fid]
                 + w1 * (col[i1] * inv_z_v[1])[fid]
                 + w2 * (col[i2] * inv_z_v[2])[fid]) * z
        color_buf.reshape(-1)[ch::3][pix] = np.clip(c * shade, 0.0, 1.0)
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
    ``render`` of the ``RigidPose`` holding rotation i and translation i."""
    W, H = intrinsics.width, intrinsics.height
    per_pass = max(1, min(_MAX_IMAGES, _MAX_PIXELS // (W * H)))
    rgb = np.empty((len(rotations), H, W, 3))
    depth = np.empty((len(rotations), H, W))
    V, T = len(mesh.vertices), len(mesh.triangles)
    for c0 in range(0, len(rotations), per_pass):
        q, t = rotations[c0:c0 + per_pass], translations[c0:c0 + per_pass]
        B = len(q)
        # (B, V, 3) camera-frame vertices: one matmul per pose, the same
        # arithmetic as RigidPose.apply; pose b's vertices and triangles
        # follow pose b - 1's, so the pass's input is the pose-major stack
        rot = np.ascontiguousarray(np.moveaxis(quat.quat_to_matrix(q.T), -1, 0))
        vc = np.matmul(mesh.vertices, rot.transpose(0, 2, 1)) + t[:, None]
        tris = mesh.triangles + V * np.arange(B)[:, None, None]
        colors = (None if mesh.vertex_colors is None
                  else np.tile(mesh.vertex_colors, (B, 1)))
        d, c, _ = _rasterize(vc.reshape(-1, 3), tris.reshape(-1, 3), colors,
                             np.repeat(np.arange(B), T), intrinsics,
                             cull=True, images=B)
        depth[c0:c0 + B] = np.where(np.isfinite(d), d, 0.0)
        rgb[c0:c0 + B] = c
    # validated once, as one colour and one depth image over the stacked
    # rows; the stacks stay C-contiguous, which grid_descriptor's rounding
    # depends on
    depth = DepthImage(depth.reshape(-1, W)).values.reshape(depth.shape)
    rgb = ColorImage(rgb.reshape(-1, W, 3)).values.reshape(rgb.shape)
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
