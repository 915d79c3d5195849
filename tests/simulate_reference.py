"""Reference drop and penetration depth for the settle simulator.

``ref_drop`` is ``_SettleContext.drop`` as it was before the bounded first
hit: it casts every candidate sample in full, by brute force over every
triangle, with no index. Used to cross-check the bounded drop pose for pose,
bit for bit.

``ref_point_in_hull`` and ``ref_nearest_hull_edge`` are the settle's
support test and pivot as loops over a counter-clockwise hull's edges, as
they were before ``simulate._tip`` took them in one array pass. Used to
check ``_tip`` against them, pivot for pivot and axis for axis, bit for bit.

``ref_penetration_depth`` is the start check the settle used before it
asked ``lift_free``: the distance from each sample inside a solid to the
nearest surface sample of that solid, so a shallow depth reads as up to
the sample spacing. Which samples are inside comes from the brute-force
parity along ``PARITY_DIRECTION``, not from the settle's vertical indexes,
so the lift tests judge freedom with a parity other than the one they test.
"""

import numpy as np
from scipy.spatial import cKDTree

from twinforge import quaternions as quat
from twinforge.geometry import RigidPose
from twinforge.simulate import _CLEARANCE, UP, _in_box

from solids_reference import ref_first_hit, ref_points_inside


def _cast_self(ctx, pose, direction, local_points):
    d = quat.quat_rotate(quat.quat_conjugate(pose.rotation), direction)
    return ref_first_hit(local_points, d, ctx.mesh)


def _static_meshes(ctx):
    """Each static mesh in world coordinates, in the order of ctx.others."""
    return [o.mesh.transformed(o.pose) for o in ctx.scene.objects
            if o.role != "manipulated"]


def ref_drop(ctx, pose):
    pts = pose.apply(ctx.local_samples)
    gap = float(pts[:, 2].min())
    for s, mesh in zip(ctx.others, _static_meshes(ctx)):
        cand = _in_box(pts, s.box, dims=2) & (pts[:, 2] >= s.box[0][2])
        if cand.any():
            gap = min(gap, float(ref_first_hit(pts[cand], -UP, mesh).min()))
    verts = pose.apply(ctx.mesh.vertices)
    foot = (verts.min(axis=0) - 1e-6, verts.max(axis=0) + 1e-6)
    under = np.vstack([s.samples[_in_box(s.samples, foot, dims=2)
                                 & (s.samples[:, 2] <= foot[1][2])]
                       for s in ctx.others] or [np.empty((0, 3))])
    if len(under):
        gap = min(gap, float(_cast_self(
            ctx, pose, UP, pose.inverse().apply(under)).min()))
    return RigidPose(pose.rotation,
                     pose.translation - max(0.0, gap - _CLEARANCE) * UP)


def ref_penetration_depth(ctx, pose):
    """Deepest interpenetration of the manipulated object at this pose
    against the ground and all other objects."""
    pts = pose.apply(ctx.local_samples)
    inv = pose.inverse()
    depth = max(0.0, float(-pts[:, 2].min()))
    for s, mesh in zip(ctx.others, _static_meshes(ctx)):
        mine = pts[ref_points_inside(pts, mesh)]
        theirs = inv.apply(s.samples)
        theirs = theirs[ref_points_inside(theirs, ctx.mesh)]
        if len(mine):
            d, _ = cKDTree(s.samples).query(mine)
            depth = max(depth, float(d.max()))
        # symmetric check: the other object's surface inside the manipulated solid
        if len(theirs):
            d, _ = cKDTree(ctx.local_samples).query(theirs)
            depth = max(depth, float(d.max()))
    return depth


def ref_point_in_hull(p, hull, tol=1e-9):
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        e = b - a
        # hull vertices are counter-clockwise: inside means left of every edge
        if e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0]) < -tol:
            return False
    return True


def ref_nearest_hull_edge(p, hull):
    """(closest point on hull boundary, unit edge direction) nearest to p."""
    best = None
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        e = b - a
        L2 = float(e @ e)
        t = 0.0 if L2 == 0 else float(np.clip((p - a) @ e / L2, 0.0, 1.0))
        q = a + t * e
        d = float(np.linalg.norm(p - q))
        if best is None or d < best[0]:
            best = (d, q, e / max(np.sqrt(L2), 1e-12))
    return best[1], best[2]
