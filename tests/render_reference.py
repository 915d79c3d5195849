"""Reference rasterizer: bounding-box fragment expansion.

``ref_rasterize`` expands every triangle over its whole clipped bounding box
and runs the edge test on each pixel; ``ref_render_scene`` assembles the
scene one object at a time. They are kept only to cross-check
``twinforge.render`` bit for bit.
"""

import numpy as np

from twinforge.camera import ColorImage, DepthImage
from twinforge.render import AMBIENT, BACKGROUND, NEAR, RenderedView


def ref_rasterize(vertices_cam, triangles, vertex_colors, tri_object_ids,
                  intrinsics, near, background, cull=False):
    """Rasterize camera-frame triangles into depth/color/id buffers."""
    H, W = intrinsics.height, intrinsics.width
    depth_buf = np.full((H, W), np.inf)
    color_buf = np.empty((H, W, 3))
    color_buf[:] = background
    id_buf = np.full((H, W), -1, dtype=np.int64)

    if len(triangles) == 0:
        return depth_buf, color_buf, id_buf

    z_all = vertices_cam[:, 2]
    # Per-triangle near-plane rejection: drop any triangle touching z <= near.
    keep = np.all(z_all[triangles] > near, axis=1)

    proj = np.empty((len(vertices_cam), 2))
    in_front = z_all > near
    front = vertices_cam[in_front]
    proj[in_front] = np.stack(
        [intrinsics.fx * front[:, 0] / front[:, 2] + intrinsics.cx,
         intrinsics.fy * front[:, 1] / front[:, 2] + intrinsics.cy], axis=1)

    px = np.arange(W) + 0.5
    py = np.arange(H) + 0.5

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
        n0 = np.cross(vc[:, 1] - vc[:, 0], vc[:, 2] - vc[:, 0])
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
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    nn = np.sqrt(np.einsum("ij,ij->i", n, n))
    centroid = v.mean(axis=1)
    cn = np.sqrt(np.einsum("ij,ij->i", centroid, centroid))
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.abs(np.einsum("ij,ij->i", n, -centroid) / (nn * cn))
    lambert_all = AMBIENT + (1.0 - AMBIENT) * cosine
    inv_z_v = 1.0 / v[:, :, 2]                     # (T, 3)

    xmin = np.maximum(np.floor(p[:, :, 0].min(axis=1) - 0.5).astype(int), 0)
    xmax = np.minimum(np.ceil(p[:, :, 0].max(axis=1) + 0.5).astype(int), W - 1)
    ymin = np.maximum(np.floor(p[:, :, 1].min(axis=1) - 0.5).astype(int), 0)
    ymax = np.minimum(np.ceil(p[:, :, 1].max(axis=1) + 0.5).astype(int), H - 1)

    ok = (area2 > 0.0) & (nn > 0.0) & (xmin <= xmax) & (ymin <= ymax)
    if not ok.any():
        return depth_buf, color_buf, id_buf
    (p, area2, tri, lambert_all, inv_z_v, xmin, xmax, ymin, ymax, live) = (
        p[ok], area2[ok], tri[ok], lambert_all[ok], inv_z_v[ok],
        xmin[ok], xmax[ok], ymin[ok], ymax[ok], live[ok])

    # expand every triangle's bbox into a flat fragment list
    wid = xmax - xmin + 1
    hgt = ymax - ymin + 1
    counts = wid * hgt
    total = int(counts.sum())
    fid = np.repeat(np.arange(len(tri)), counts)       # fragment -> triangle
    starts = np.cumsum(counts) - counts
    local = np.arange(total) - starts[fid]
    fx = xmin[fid] + local % wid[fid]
    fy = ymin[fid] + local // wid[fid]
    gx = px[fx]
    gy = py[fy]

    # edge functions with top-left ownership for pixels exactly on an edge
    inside = np.ones(total, dtype=bool)
    bary = np.empty((3, total))
    for e_i, (ia, ib) in enumerate(((1, 2), (2, 0), (0, 1))):
        ax, ay = p[:, ia, 0], p[:, ia, 1]
        bx, by = p[:, ib, 0], p[:, ib, 1]
        dx, dy = bx - ax, by - ay
        top_left = (dy < 0) | ((dy == 0) & (dx < 0))
        e = dx[fid] * (gy - ay[fid]) - dy[fid] * (gx - ax[fid])
        inside &= np.where(top_left[fid], e >= 0, e > 0)
        bary[e_i] = e / area2[fid]

    fid, fx, fy = fid[inside], fx[inside], fy[inside]
    if len(fid) == 0:
        return depth_buf, color_buf, id_buf
    w0, w1, w2 = bary[:, inside]  # weights opposite p0, p1, p2

    inv_z = (w0 * inv_z_v[fid, 0] + w1 * inv_z_v[fid, 1]
             + w2 * inv_z_v[fid, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(inv_z > 0, 1.0 / inv_z, np.inf)

    # z-buffer resolve: per pixel keep the closest fragment; exact depth
    # ties go to the earliest triangle, matching sequential draw order
    pix = fy * W + fx
    order = np.lexsort((fid, z, pix))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = pix[order][1:] != pix[order][:-1]
    win = order[keep]
    fid, fx, fy, z = fid[win], fx[win], fy[win], z[win]
    w0, w1, w2 = w0[win], w1[win], w2[win]

    if vertex_colors is not None:
        cv = vertex_colors[tri[fid]] * inv_z_v[fid][:, :, None]  # (F, 3, 3)
        cint = (w0[:, None] * cv[:, 0] + w1[:, None] * cv[:, 1]
                + w2[:, None] * cv[:, 2]) * z[:, None]
    else:
        cint = np.full((len(fid), 3), 0.8)
    cint = np.clip(cint * lambert_all[fid][:, None], 0.0, 1.0)

    finite = np.isfinite(z)
    fid, fx, fy, z, cint = fid[finite], fx[finite], fy[finite], z[finite], cint[finite]
    depth_buf[fy, fx] = z
    color_buf[fy, fx] = cint
    id_buf[fy, fx] = tri_object_ids[live[fid]]
    return depth_buf, color_buf, id_buf


def ref_render_scene(objects, view_pose, intrinsics):
    """Multi-object render, assembled one object at a time and rasterized by
    ``ref_rasterize``; an uncoloured object is drawn 0.8 grey when another
    object has colours."""
    cam_from_world = view_pose.inverse()
    use_colors = any(mesh.vertex_colors is not None for mesh, _ in objects)
    all_verts, all_tris, all_colors, all_ids = [], [], [], []
    offset = 0
    for oi, (mesh, obj_pose) in enumerate(objects):
        all_verts.append(cam_from_world.compose(obj_pose).apply(mesh.vertices))
        all_tris.append(mesh.triangles + offset)
        if use_colors:
            vc = mesh.vertex_colors
            if vc is None:
                vc = np.full((len(mesh.vertices), 3), 0.8)
            all_colors.append(vc)
        all_ids.append(np.full(len(mesh.triangles), oi, dtype=np.int64))
        offset += len(mesh.vertices)
    colors = np.vstack(all_colors) if use_colors else None
    depth, color, id_buf = ref_rasterize(
        np.vstack(all_verts), np.vstack(all_tris), colors,
        np.concatenate(all_ids), intrinsics, NEAR, BACKGROUND)
    depth = np.where(np.isfinite(depth), depth, 0.0)
    return RenderedView(ColorImage(color), DepthImage(depth), id_buf)
