"""Procedural watertight primitives and synthetic scene generation.

Primitives are built in a canonical frame (z up, centered at the origin)
with checkerboard vertex colors so rendered views are orientation
discriminative. Triangle windings are re-oriented consistently outward, so
parity tests and volume integrals are well defined.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .camera import BinaryMask, CameraIntrinsics
from .errors import RejectedInput
from .fileio import (save_color_ppm, save_depth_raw, save_mask_pgm, save_ply)
from .geometry import RigidPose, TriangleMesh
from .render import render_scene
from .simulate import checker_viewpoint
from .solids import signed_volume
from .strategy import rest_orientations

PRIMITIVES = ("box", "cylinder", "open_box", "cup", "ramp")

_PALETTE = np.array([
    [0.85, 0.25, 0.2], [0.95, 0.85, 0.2], [0.2, 0.55, 0.85],
    [0.25, 0.75, 0.35], [0.9, 0.55, 0.15], [0.6, 0.3, 0.75],
    [0.2, 0.8, 0.75], [0.85, 0.4, 0.6],
])


class _MeshBuilder:
    """Accumulates labeled quads/triangles, welding shared vertices."""

    def __init__(self, weld_tol=1e-9):
        self.verts = []
        self.tris = []
        self.labels = []
        self._lookup = {}
        self._tol = weld_tol

    def vertex(self, p):
        # Python floats: round() rounds half to even, as np.round does
        p = [float(c) for c in p]
        try:
            key = tuple(round(c / self._tol) for c in p)
        except (ValueError, OverflowError):
            # NaN, or too large to round: welds only to its exact copy
            key = tuple(p)
        if key not in self._lookup:
            self._lookup[key] = len(self.verts)
            self.verts.append(p)
        return self._lookup[key]

    def tri(self, a, b, c, label):
        self.tris.append([self.vertex(a), self.vertex(b), self.vertex(c)])
        self.labels.append(label)

    def quad(self, a, b, c, d, label):
        self.tri(a, b, c, label)
        self.tri(a, c, d, label)

    def grid_quad(self, corner, eu, ev, nu, nv, label):
        """Subdivided quad spanned by edge vectors eu, ev from corner."""
        for i in range(nu):
            for j in range(nv):
                p00 = corner + eu * (i / nu) + ev * (j / nv)
                p10 = corner + eu * ((i + 1) / nu) + ev * (j / nv)
                p11 = corner + eu * ((i + 1) / nu) + ev * ((j + 1) / nv)
                p01 = corner + eu * (i / nu) + ev * ((j + 1) / nv)
                self.quad(p00, p10, p11, p01, label)

    def build(self, colors=None, cell=0.02) -> TriangleMesh:
        verts = np.array(self.verts)
        tris = _orient_outward(verts, self.tris)
        vc = _checkerboard_colors(verts, colors, cell)
        return TriangleMesh(verts, tris, vc, face_labels=tuple(self.labels))


def _orient_outward(verts, tris):
    """Flip triangles, given as lists of three vertex indices, so shared
    edges are traversed in opposite directions, then make the global
    orientation outward (positive signed volume). Returns a (T, 3) array."""
    def edges(t):
        return ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))

    edge_map = {}
    for ti, t in enumerate(tris):
        for a, b in edges(t):
            edge_map.setdefault((a, b) if a < b else (b, a), []).append(ti)
    n = len(tris)
    out = list(tris)
    visited = [False] * n
    for seed in range(n):
        if visited[seed]:
            continue
        stack = [seed]
        visited[seed] = True
        while stack:
            ti = stack.pop()
            directed = set(edges(out[ti]))
            for a, b in edges(out[ti]):
                for tj in edge_map[(a, b) if a < b else (b, a)]:
                    if tj == ti or visited[tj]:
                        continue
                    if not directed.isdisjoint(edges(out[tj])):
                        out[tj] = out[tj][::-1]  # same direction: inconsistent
                    visited[tj] = True
                    stack.append(tj)
    out = np.array(out, dtype=np.int64)
    if signed_volume(TriangleMesh(verts, out)) < 0:
        out = out[:, ::-1]
    return out


def _checkerboard_colors(verts, colors, cell):
    if colors is None:
        colors = (_PALETTE[0], _PALETTE[1])
    ca, cb = np.asarray(colors[0], dtype=float), np.asarray(colors[1], dtype=float)
    parity = np.floor((verts + 0.5 * cell * np.array([1, 1, 1]) + 1.0) / cell)
    parity = parity.sum(axis=1).astype(np.int64) % 2
    return np.where(parity[:, None] == 0, ca, cb)


def make_box(extents, colors=None, cell=0.02, subdiv=4) -> TriangleMesh:
    ex, ey, ez = (float(v) for v in extents)
    hx, hy, hz = ex / 2, ey / 2, ez / 2
    b = _MeshBuilder()
    X, Y, Z = np.eye(3)
    faces = [
        ((-hx, -hy, -hz), X * ex, Y * ey, "bottom"),
        ((-hx, -hy, hz), X * ex, Y * ey, "top"),
        ((-hx, -hy, -hz), X * ex, Z * ez, "side"),
        ((-hx, hy, -hz), X * ex, Z * ez, "side"),
        ((-hx, -hy, -hz), Y * ey, Z * ez, "side"),
        ((hx, -hy, -hz), Y * ey, Z * ez, "side"),
    ]
    for corner, eu, ev, label in faces:
        b.grid_quad(np.array(corner), eu, ev, subdiv, subdiv, label)
    return b.build(colors, cell)


def make_cylinder(radius, height, colors=None, cell=0.02,
                  segments=24, rings=4) -> TriangleMesh:
    r, h = float(radius), float(height)
    b = _MeshBuilder()
    ang = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    ring = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    zs = np.linspace(-h / 2, h / 2, rings + 1)
    for zi in range(rings):
        for s in range(segments):
            s2 = (s + 1) % segments
            p00 = [*ring[s], zs[zi]]
            p10 = [*ring[s2], zs[zi]]
            p11 = [*ring[s2], zs[zi + 1]]
            p01 = [*ring[s], zs[zi + 1]]
            b.quad(p00, p10, p11, p01, "side")
    for z, label in ((-h / 2, "bottom"), (h / 2, "top")):
        center = [0.0, 0.0, z]
        for s in range(segments):
            s2 = (s + 1) % segments
            b.tri(center, [*ring[s], z], [*ring[s2], z], label)
    return b.build(colors, cell)


def make_open_box(extents, wall=0.008, colors=None, cell=0.02) -> TriangleMesh:
    """Cuboid with an open top and an interior cavity; watertight."""
    ex, ey, ez = (float(v) for v in extents)
    hx, hy, hz = ex / 2, ey / 2, ez / 2
    ix, iy = hx - wall, hy - wall
    iz = -hz + wall  # interior floor height
    if ix <= 0 or iy <= 0 or iz >= hz:
        raise RejectedInput("wall too thick for the open box extents")
    b = _MeshBuilder()
    X, Y, Z = np.eye(3)
    # outer shell minus top
    b.grid_quad(np.array([-hx, -hy, -hz]), X * ex, Y * ey, 4, 4, "bottom")
    for corner, eu, ev in [((-hx, -hy, -hz), X * ex, Z * ez),
                           ((-hx, hy, -hz), X * ex, Z * ez),
                           ((-hx, -hy, -hz), Y * ey, Z * ez),
                           ((hx, -hy, -hz), Y * ey, Z * ez)]:
        b.grid_quad(np.array(corner), eu, ev, 4, 4, "side")
    # rim ring at z = hz between outer and inner rectangles
    oc = np.array([(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)])
    icorners = np.array([(-ix, -iy), (ix, -iy), (ix, iy), (-ix, iy)])
    for k in range(4):
        k2 = (k + 1) % 4
        # split into 4 segments to match the outer/inner wall subdivisions
        for s in range(4):
            o0 = oc[k] + (oc[k2] - oc[k]) * (s / 4)
            o1 = oc[k] + (oc[k2] - oc[k]) * ((s + 1) / 4)
            i0 = icorners[k] + (icorners[k2] - icorners[k]) * (s / 4)
            i1 = icorners[k] + (icorners[k2] - icorners[k]) * ((s + 1) / 4)
            b.quad([*o0, hz], [*o1, hz], [*i1, hz], [*i0, hz], "rim")
    # inner walls from rim down to interior floor
    depth = hz - iz
    for corner, eu, ev in [((-ix, -iy, iz), X * 2 * ix, Z * depth),
                           ((-ix, iy, iz), X * 2 * ix, Z * depth),
                           ((-ix, -iy, iz), Y * 2 * iy, Z * depth),
                           ((ix, -iy, iz), Y * 2 * iy, Z * depth)]:
        b.grid_quad(np.array(corner), eu, ev, 4, 3, "inner_side")
    b.grid_quad(np.array([-ix, -iy, iz]), X * 2 * ix, Y * 2 * iy, 4, 4,
                "interior_bottom")
    return b.build(colors, cell)


def make_cup(radius, height, wall=0.004, colors=None, cell=0.015,
             segments=20) -> TriangleMesh:
    """Hollow cylinder with a bottom (open top); watertight."""
    r, h = float(radius), float(height)
    ri = r - wall
    zi = -h / 2 + wall
    if ri <= 0:
        raise RejectedInput("wall too thick for the cup radius")
    b = _MeshBuilder()
    ang = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    outer = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    inner = np.stack([ri * np.cos(ang), ri * np.sin(ang)], axis=1)
    zs = np.linspace(-h / 2, h / 2, 4)
    for zk in range(3):
        for s in range(segments):
            s2 = (s + 1) % segments
            b.quad([*outer[s], zs[zk]], [*outer[s2], zs[zk]],
                   [*outer[s2], zs[zk + 1]], [*outer[s], zs[zk + 1]], "side")
    zs_in = np.linspace(zi, h / 2, 4)
    for zk in range(3):
        for s in range(segments):
            s2 = (s + 1) % segments
            b.quad([*inner[s], zs_in[zk]], [*inner[s2], zs_in[zk]],
                   [*inner[s2], zs_in[zk + 1]], [*inner[s], zs_in[zk + 1]],
                   "inner_side")
    for s in range(segments):
        s2 = (s + 1) % segments
        b.quad([*outer[s], h / 2], [*outer[s2], h / 2],
               [*inner[s2], h / 2], [*inner[s], h / 2], "rim")
        b.tri([0, 0, -h / 2], [*outer[s], -h / 2], [*outer[s2], -h / 2], "bottom")
        b.tri([0, 0, zi], [*inner[s], zi], [*inner[s2], zi], "interior_bottom")
    return b.build(colors, cell)


def make_ramp(extents, colors=None, cell=0.02) -> TriangleMesh:
    """Right triangular prism: full height at -x tapering to zero at +x."""
    ex, ey, ez = (float(v) for v in extents)
    hx, hy, hz = ex / 2, ey / 2, ez / 2
    b = _MeshBuilder()
    lo = [[-hx, -hy, -hz], [hx, -hy, -hz], [hx, hy, -hz], [-hx, hy, -hz]]
    topA = [-hx, -hy, hz]
    topB = [-hx, hy, hz]
    b.quad(lo[0], lo[1], lo[2], lo[3], "bottom")
    b.tri(lo[0], lo[1], topA, "side")
    b.tri(lo[3], lo[2], topB, "side")
    b.quad(lo[0], lo[3], topB, topA, "back")
    b.quad(lo[1], lo[2], topB, topA, "slope")
    return b.build(colors, cell)


def primitive_from_spec(spec: str, colors=None) -> TriangleMesh:
    """Parse 'box:0.1,0.08,0.06' / 'cylinder:0.03,0.1' / 'open_box:...,wall' /
    'cup:radius,height[,wall]' / 'ramp:ex,ey,ez'."""
    name, _, rest = spec.partition(":")
    args = [float(x) for x in rest.split(",")] if rest else []
    if name == "box":
        return make_box(args[:3] or [0.06, 0.06, 0.06], colors)
    if name == "cylinder":
        return make_cylinder(*(args[:2] or [0.03, 0.1]), colors=colors)
    if name == "open_box":
        ext = args[:3] or [0.12, 0.12, 0.08]
        wall = args[3] if len(args) > 3 else 0.008
        return make_open_box(ext, wall, colors)
    if name == "cup":
        r, h = (args[:2] or [0.035, 0.09])
        wall = args[2] if len(args) > 2 else 0.004
        return make_cup(r, h, wall, colors)
    if name == "ramp":
        return make_ramp(args[:3] or [0.1, 0.08, 0.05], colors)
    raise RejectedInput(f"unknown primitive {name!r}")


def canonical_mesh(mesh: TriangleMesh, true_scale: float = 1.0):
    """Center the mesh AABB at the origin and divide out true_scale, which
    mimics a generative mesh model returning a canonical-pose mesh whose
    absolute size is only approximately right. The alignment scale stage is
    expected to recover true_scale."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    center = 0.5 * (lo + hi)
    verts = (mesh.vertices - center) / float(true_scale)
    return TriangleMesh(verts, mesh.triangles, mesh.vertex_colors,
                        mesh.face_labels)


def mesh_diameter(mesh: TriangleMesh) -> float:
    ext = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    return float(np.linalg.norm(ext))


def label_submesh(mesh: TriangleMesh, wanted) -> TriangleMesh:
    """Triangles whose face label is in `wanted` (vertex array shared)."""
    wanted = {wanted} if isinstance(wanted, str) else set(wanted)
    keep = np.array([lbl in wanted for lbl in mesh.face_labels])
    labels = tuple(l for l in mesh.face_labels if l in wanted)
    return TriangleMesh(mesh.vertices, mesh.triangles[keep],
                        mesh.vertex_colors, face_labels=labels)


def _rest_world_pose(rng, x, y, base_z):
    yaw = quat.quat_from_axis_angle([0, 0, 1], rng.uniform(0, 2 * np.pi))
    return RigidPose(yaw, np.array([x, y, base_z]))


@dataclass(frozen=True)
class SyntheticObservation:
    """One rendered view of a single resting object plus ground truth."""
    unit_mesh: TriangleMesh
    color: object
    depth: object
    mask: BinaryMask
    intrinsics: CameraIntrinsics
    true_pose_cam: RigidPose      # camera_from_object, real-size local frame
    true_scale: float             # unit mesh -> real size
    diameter: float
    camera_pose: RigidPose        # world_from_camera


def default_intrinsics(size: int = 200, focal: float = 230.0) -> CameraIntrinsics:
    return CameraIntrinsics(fx=focal, fy=focal, cx=size / 2.0, cy=size / 2.0,
                            width=size, height=size)


def synthetic_observation(primitive_spec: str, seed: int = 0,
                          intrinsics: CameraIntrinsics | None = None
                          ) -> SyntheticObservation:
    """Place one primitive at a random resting pose on the table plane and
    render it from the fixed elevated viewpoint."""
    rng = np.random.default_rng(seed)
    colors = _PALETTE[rng.choice(len(_PALETTE), size=2, replace=False)]
    mesh = primitive_from_spec(primitive_spec, colors=colors)
    if intrinsics is None:
        intrinsics = default_intrinsics()

    # identity and the +90 degree rolls about x and y
    rests = [rest_orientations()[i] for i in (0, 1, 3)]
    rest = rests[int(rng.integers(len(rests)))]
    yaw = quat.quat_from_axis_angle([0, 0, 1], rng.uniform(0, 2 * np.pi))
    q = quat.quat_normalize(quat.quat_multiply(yaw, rest))
    rot = quat.quat_to_matrix(q)
    z0 = -float((mesh.vertices @ rot.T)[:, 2].min())
    t = np.array([rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02), z0])
    world_pose = RigidPose(q, t)

    cam = checker_viewpoint([0.0, 0.0, 0.04], standoff=0.5)
    view = render_scene([(mesh, world_pose)], cam, intrinsics)
    mask = BinaryMask(view.object_ids == 0)
    scale = float(rng.uniform(0.8, 1.25))
    unit_mesh = canonical_mesh(mesh, scale)
    true_cam = cam.inverse().compose(world_pose)
    return SyntheticObservation(unit_mesh, view.rgb, view.depth, mask,
                                intrinsics, true_cam, scale,
                                mesh_diameter(mesh), cam)


# ---------------------------------------------------------------------------
# Full task scenes

TASKS = ("cube-into-box", "cube-onto-cube", "cup-on-box")

_TASK_TABLE = {
    "cube-into-box": dict(
        instruction="put the small cube inside the open box",
        goal=("inside", ["cube", "box"]),
        manipulated=("cube", "box:0.05,0.05,0.05", "wood"),
        other=("box", "open_box:0.14,0.14,0.07,0.012", "cardboard", "interactive"),
        region=("box", ("interior_bottom",)),
        sampler={"n_rotations": 4, "n_offsets": 5, "offset_radius": 0.02},
    ),
    "cube-onto-cube": dict(
        instruction="stack the small cube on top of the large cube",
        goal=("on_top", ["cube", "base"]),
        manipulated=("cube", "box:0.05,0.05,0.05", "wood"),
        other=("base", "box:0.09,0.09,0.06", "plastic", "interactive"),
        region=("base", ("top",)),
        sampler={"n_rotations": 4, "n_offsets": 5, "offset_radius": 0.015},
    ),
    "cup-on-box": dict(
        instruction="place the cup upside down on the box",
        goal=("upside_down", ["cup"]),
        manipulated=("cup", "cup:0.035,0.09,0.005", "ceramic"),
        other=("box", "box:0.12,0.12,0.04", "wood", "interactive"),
        region=("box", ("top",)),
        sampler={"n_rotations": 4, "n_offsets": 5, "offset_radius": 0.02},
    ),
}


def generate_synthetic_scene(task: str, out_dir: str, seed: int = 0,
                             intrinsics: CameraIntrinsics | None = None) -> str:
    """Write a complete synthetic scene (images, masks, meshes, spec,
    ground truth) to out_dir; returns the scene.json path."""
    from .scene import (ObjectSpec, SceneSpec, pose_to_json, save_scene_spec)

    if task not in _TASK_TABLE:
        raise RejectedInput(f"unknown task {task!r}; choose from {TASKS}")
    cfg = _TASK_TABLE[task]
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    if intrinsics is None:
        intrinsics = default_intrinsics()

    mname, mspec, mmat = cfg["manipulated"]
    oname, ospec, omat, orole = cfg["other"]
    palette_idx = rng.choice(len(_PALETTE), size=4, replace=False)
    manip_mesh = primitive_from_spec(mspec, colors=_PALETTE[palette_idx[:2]])
    other_mesh = primitive_from_spec(ospec, colors=_PALETTE[palette_idx[2:]])

    other_pose = _rest_world_pose(
        rng, 0.05 + rng.uniform(-0.01, 0.01), rng.uniform(-0.015, 0.015),
        -float(other_mesh.vertices[:, 2].min()))
    manip_pose = _rest_world_pose(
        rng, -0.13 + rng.uniform(-0.015, 0.015), rng.uniform(-0.03, 0.03),
        -float(manip_mesh.vertices[:, 2].min()))

    cam = checker_viewpoint([-0.03, 0.0, 0.04], standoff=0.5)
    objects = [(manip_mesh, manip_pose), (other_mesh, other_pose)]
    view = render_scene(objects, cam, intrinsics)

    # occlusion-aware region mask: re-render with the labeled triangles of
    # the region source split out as their own object id
    region_name, region_labels = cfg["region"]
    region_mesh = other_mesh if region_name == oname else manip_mesh
    region_pose = other_pose if region_name == oname else manip_pose
    rest_labels = set(region_mesh.face_labels) - set(region_labels)
    split = [(manip_mesh, manip_pose),
             (label_submesh(region_mesh, rest_labels), region_pose),
             (label_submesh(region_mesh, region_labels), region_pose)]
    if region_name == mname:
        split[0] = (other_mesh, other_pose)
    region_view = render_scene(split, cam, intrinsics)
    region_mask = BinaryMask(region_view.object_ids == 2)

    save_color_ppm(os.path.join(out_dir, "rgb.ppm"), view.rgb)
    save_depth_raw(os.path.join(out_dir, "depth.f32"), view.depth)
    save_mask_pgm(os.path.join(out_dir, "region.pgm"), region_mask)

    specs, truth = [], {}
    for oi, (name, mesh, pose, material, role) in enumerate([
            (mname, manip_mesh, manip_pose, mmat, "manipulated"),
            (oname, other_mesh, other_pose, omat, orole)]):
        scale = float(rng.uniform(0.85, 1.2))
        unit = canonical_mesh(mesh, scale)
        mesh_file, mask_file = f"{name}.ply", f"mask_{name}.pgm"
        save_ply(os.path.join(out_dir, mesh_file), unit)
        save_mask_pgm(os.path.join(out_dir, mask_file),
                      BinaryMask(view.object_ids == oi))
        specs.append(ObjectSpec(name, role, mesh_file, mask_file, material))
        truth[name] = {"pose": pose_to_json(pose), "scale": scale,
                       "diameter": mesh_diameter(mesh)}

    spec = SceneSpec(
        intrinsics=intrinsics, camera_pose=cam,
        rgb="rgb.ppm", depth="depth.f32", region_mask="region.pgm",
        objects=tuple(specs), instruction=cfg["instruction"],
        goal=cfg["goal"],
        workspace=((-0.35, -0.35, 0.0), (0.35, 0.35, 0.4)),
        seed=seed, sampler=dict(cfg["sampler"]), base_dir=out_dir)
    scene_path = os.path.join(out_dir, "scene.json")
    save_scene_spec(scene_path, spec)
    with open(os.path.join(out_dir, "ground_truth.json"), "w") as f:
        json.dump({"task": task, "seed": seed, "objects": truth}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    return scene_path
