"""Quasi-static outcome simulation and weak labeling.

A settle is one loop over put-down poses: ``_SettleContext.put_down`` lifts
a pose free against gravity (``lift_free``) and drops it to first contact
(``drop``). A start that must rise more than ``PENETRATION_TOL`` to be free,
or any pose that cannot be freed, counts as penetrating. The support is one
polygon under the contacts' xy: their convex hull, else the two farthest
apart, else the one point they share. Only a polygon of three or more
vertices under the center of mass holds the object; otherwise it tips one
bounded step about the boundary point nearest the center of mass and is put
down again. The center of mass is that of a uniform-density solid. Gravity
points along -z, and the ground plane z=0 is always present as an implicit
static support.

Drop and lift distances are closed form: surface samples are cast as rays
along gravity against the meshes (``MeshIndex.cast``), manipulated samples
down onto the static meshes and static samples up onto the manipulated mesh,
and the ground is analytic. A drop needs only the least of these distances,
so it starts from the ground gap and casts only the samples whose lower
bound on their hit can still beat the gap so far (``MeshIndex.first_hit``);
a static sample further below the manipulated mesh's lowest vertex than the
gap is not cast at all. A lift casts the same rays backwards, through the
same indexes. Everything that depends only on the scene is built once per
scene: surface samples, and for each static mesh in world coordinates a
parity index and one vertical index along -z, which serves the drop, the
lift and the contact band; the manipulated mesh gets a parity index in its
own frame, for the static samples inside it. ``label_samples`` builds it
once per labeling run, so a scene that cannot be simulated fails once. The
context is read-only apart from one memo: the manipulated mesh's vertical
index per rotation, built on first use. An entry depends only on its key,
so concurrent workers see the same answers whichever of them fills it.

The same put-down grounds an aligned twin (``ground_objects``), each object
onto the ground or the objects grounded before it.

A settle returns poses, contacts and flags only. ``render_outcome`` draws a
settled scene from the fixed checker viewpoint, for callers that write an
image of it.

``geometric_evaluator`` tests geometric placement predicates on the settled
scene, standing in for a VLM judge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import quaternions as quat
from ._parallel import parallel_map
from .camera import CameraIntrinsics
from .errors import RejectedInput, StageFailureError, check_int
from .geometry import RigidPose, TriangleMesh, sample_mesh_surface
from .render import RenderedView, render_scene
from .solids import _PAD, MeshIndex, is_watertight, volume_and_com
from .strategy import StrategySample

ROLES = ("manipulated", "interactive", "static")
UP = np.array([0.0, 0.0, 1.0])
# Gap (meters, along gravity) left between surfaces when a drop or a lift
# ends. Without it a sample lands exactly on a face, where the parity inside
# test is a coin flip, so the next lift of that pose could see it inside.
_CLEARANCE = 1e-6
# highest a lift may raise the object before the pose counts as stuck
_MAX_LIFT = 0.1
# contact band, meters: a sample this close to the ground or a static mesh
# supports the object. Wide enough to absorb residual reconstruction error
# in an aligned twin.
CONTACT_TOL = 0.003
# a start pose that must rise more than this (meters) to be free counts as
# penetrating
PENETRATION_TOL = 0.001
# most topple steps a settle takes, and the tilt of one step
MAX_TOPPLE_STEPS = 6
TOPPLE_STEP_DEG = 15.0
# side of the square outcome image, pixels
RENDER_SIZE = 256


@dataclass(frozen=True)
class SceneObject:
    name: str
    mesh: TriangleMesh
    pose: RigidPose
    material: str = "default"   # name from materials.MATERIALS
    role: str = "static"

    def __post_init__(self):
        if self.role not in ROLES:
            raise RejectedInput(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class SceneTwin:
    objects: tuple

    def __post_init__(self):
        objs = tuple(self.objects)
        if sum(1 for o in objs if o.role == "manipulated") != 1:
            raise RejectedInput("scene must contain exactly one manipulated object")
        object.__setattr__(self, "objects", objs)

    @property
    def manipulated(self) -> SceneObject:
        return next(o for o in self.objects if o.role == "manipulated")

    def by_name(self, name) -> SceneObject:
        for o in self.objects:
            if o.name == name:
                return o
        raise RejectedInput(f"no object named {name!r}")


@dataclass(frozen=True)
class SimOutcome:
    settled_poses: dict
    stable: bool
    penetration: bool
    contacts: np.ndarray
    scene: SceneTwin
    topple_steps: int = 0


@dataclass(frozen=True)
class SimConfig:
    """Surface sampling of the settle context: samples per mesh and seed.
    RejectedInput unless the count is an int >= 1 and the seed an int >= 0
    (a bool is not an int here)."""
    surface_samples: int = 1200
    seed: int = 0

    def __post_init__(self):
        check_int("sim surface_samples", self.surface_samples, 1)
        check_int("sim seed", self.seed, 0)


def checker_viewpoint(scene_center, standoff: float = 0.8,
                      tilt_deg: float = -60.0) -> RigidPose:
    """Fixed front-facing camera pitched tilt_deg from horizontal, looking
    at the scene center from the given standoff."""
    center = np.asarray(scene_center, dtype=float)
    theta = np.deg2rad(-tilt_deg)
    view_dir = np.array([0.0, np.cos(theta), -np.sin(theta)])
    position = center - standoff * view_dir
    x_cam = np.array([1.0, 0.0, 0.0])
    z_cam = view_dir
    y_cam = np.cross(z_cam, x_cam)
    R = np.column_stack([x_cam, y_cam, z_cam])
    return RigidPose.from_rotation_matrix(R, position)


def checker_intrinsics(size: int) -> CameraIntrinsics:
    return CameraIntrinsics(fx=float(size), fy=float(size),
                            cx=size / 2.0, cy=size / 2.0,
                            width=size, height=size)


class _Static(NamedTuple):
    """One static object in world coordinates."""
    samples: np.ndarray     # surface samples
    index: MeshIndex        # parity
    down: MeshIndex         # along -z: drop, lift (backwards), contact band
    box: tuple              # mesh bounding box padded for the inside tests
    band: tuple             # mesh bounding box padded for the contact band


def _in_box(points, box, dims=3):
    lo, hi = box
    return np.all((points[:, :dims] >= lo[:dims])
                  & (points[:, :dims] <= hi[:dims]), axis=1)


class _SettleContext:
    """Precomputed geometry for one scene: surface samples, mesh indexes and
    bounding boxes. Read-only once built apart from the memo of
    manipulated vertical indexes, whose entries depend only on their key, so
    one context serves every sample of a labeling run, from any number of
    workers."""

    def __init__(self, scene: SceneTwin, config: SimConfig):
        self.scene = scene
        manip = scene.manipulated
        self.mesh = manip.mesh
        self.local_samples = sample_mesh_surface(
            manip.mesh, config.surface_samples, config.seed).points
        self.local_index = MeshIndex(manip.mesh)
        self.local_box = (self.local_samples.min(axis=0) - 1e-6,
                          self.local_samples.max(axis=0) + 1e-6)
        _, self.local_com = volume_and_com(manip.mesh)
        self._self_casts = {}
        self.others = []
        for oi, obj in enumerate(scene.objects):
            if obj.role == "manipulated":
                continue
            world_mesh = obj.mesh.transformed(obj.pose)
            pts = sample_mesh_surface(obj.mesh, config.surface_samples,
                                      config.seed + 1 + oi).points
            world_pts = obj.pose.apply(pts)
            lo = world_mesh.vertices.min(axis=0)
            hi = world_mesh.vertices.max(axis=0)
            band = 2 * CONTACT_TOL
            self.others.append(_Static(
                world_pts, MeshIndex(world_mesh), MeshIndex(world_mesh, -UP),
                (lo - 1e-6, hi + 1e-6), (lo - band, hi + band)))

    def _inside(self, pose: RigidPose):
        """The manipulated samples at this pose (world), and per static
        object the manipulated samples inside it (world) and its samples
        inside the manipulated solid (manipulated frame)."""
        pts = pose.apply(self.local_samples)
        inv = pose.inverse()
        found = []
        for s in self.others:
            mine = pts[_in_box(pts, s.box)]
            local_other = inv.apply(s.samples)
            theirs = local_other[_in_box(local_other, self.local_box)]
            found.append((s, mine[s.index.inside(mine)],
                          theirs[self.local_index.inside(theirs)]))
        return pts, found

    def _self_index(self, rotation) -> MeshIndex:
        """Index of the manipulated mesh, in its own frame, for rays along
        world +z at this rotation (and, cast backwards, along -z). Kept in a
        memo keyed by rotation: an entry depends only on its key, so workers
        that race to fill one store equal indexes."""
        key = rotation.tobytes()
        index = self._self_casts.get(key)
        if index is None:
            d = quat.quat_rotate(quat.quat_conjugate(rotation), UP)
            index = self._self_casts.setdefault(key, MeshIndex(self.mesh, d))
        return index

    def drop(self, pose: RigidPose) -> RigidPose:
        """Translate along gravity to first contact, less _CLEARANCE.

        The drop distance is the smallest of the ground gap, the first hit of
        each manipulated sample cast down onto each static mesh, and the
        first hit of each static sample under the manipulated mesh's
        footprint cast up onto it. Each cast is bounded by the gap so far
        (``MeshIndex.first_hit``), and a static sample further below the
        lowest vertex than the gap (less _PAD) is not cast at all, so the
        manipulated index is fetched only when some sample can still set
        the gap. The pose must be free: a sample already inside a solid
        would report its exit instead of its entry."""
        pts = pose.apply(self.local_samples)
        gap = float(pts[:, 2].min())
        for s in self.others:
            cand = _in_box(pts, s.box, dims=2) & (pts[:, 2] >= s.box[0][2])
            gap = s.down.first_hit(pts[cand], gap)
        verts = pose.apply(self.mesh.vertices)
        foot = (verts.min(axis=0) - 1e-6, verts.max(axis=0) + 1e-6)
        reach = float(verts[:, 2].min()) - _PAD - gap
        under = np.vstack([s.samples[_in_box(s.samples, foot, dims=2)
                                     & (s.samples[:, 2] <= foot[1][2])
                                     & (s.samples[:, 2] > reach)]
                           for s in self.others] or [np.empty((0, 3))])
        if len(under):
            gap = self._self_index(pose.rotation).first_hit(
                pose.inverse().apply(under), gap)
        return RigidPose(pose.rotation,
                         pose.translation - max(0.0, gap - _CLEARANCE) * UP)

    def lift_free(self, pose: RigidPose) -> RigidPose | None:
        """Raise against gravity until no sample is inside a solid, or None
        when no free height lies within _MAX_LIFT.

        Each round lifts by the largest exit distance over the samples that
        are inside, plus _CLEARANCE: a manipulated sample below the ground
        exits at z=0, one inside a static mesh exits upward through that
        mesh, and a static sample inside the manipulated mesh exits
        downward through it. Parity comes from ``MeshIndex.inside``; the
        lifted pose is tested again, since a sample can rise into an
        overhang."""
        lifted = 0.0
        while True:
            pts, found = self._inside(pose)
            exits = [-pts[pts[:, 2] < 0, 2]]
            exits += [s.down.cast(mine, back=True) for s, mine, _ in found]
            theirs = np.vstack([t for *_, t in found] or [np.empty((0, 3))])
            if len(theirs):
                exits.append(self._self_index(pose.rotation).cast(
                    theirs, back=True))
            exits = np.concatenate(exits)
            if not len(exits):
                return pose
            # an exit ray that finds no face makes the step inf: stuck
            step = float(exits.max()) + _CLEARANCE
            lifted += step
            if lifted > _MAX_LIFT:
                return None
            pose = RigidPose(pose.rotation, pose.translation + step * UP)

    def put_down(self, pose: RigidPose,
                 max_rise: float = np.inf) -> RigidPose | None:
        """``drop(lift_free(pose))``, or None when the pose cannot be lifted
        free or must rise more than max_rise to be free."""
        free = self.lift_free(pose)
        if free is None or free.translation[2] - pose.translation[2] > max_rise:
            return None
        return self.drop(free)

    def contact_points(self, pose: RigidPose) -> np.ndarray:
        pts = pose.apply(self.local_samples)
        near = pts[:, 2] <= CONTACT_TOL
        for s in self.others:
            cand = _in_box(pts, s.band) & ~near
            if cand.any():
                hit = s.down.within(pts[cand], CONTACT_TOL)
                near[np.flatnonzero(cand)[hit]] = True
        return pts[near]

    def com_world(self, pose: RigidPose) -> np.ndarray:
        return pose.apply(self.local_com)


def _solid_context(scene: SceneTwin, config: SimConfig) -> _SettleContext:
    """The settle context of a scene whose meshes each enclose a solid: a
    settle's centre of mass needs the manipulated one, and the parity
    inside tests of ``lift_free`` need every one."""
    if not all(is_watertight(o.mesh) for o in scene.objects):
        raise StageFailureError("simulation", "non-watertight-mesh")
    return _SettleContext(scene, config)


def ground_objects(objects, config: SimConfig = SimConfig()):
    """Translate each scene object along z to its first contact below it:
    the ground or an object grounded before it, lowest vertex first. An
    object is put down with ``_SettleContext.put_down``, never toppled.
    Returns (grounded objects in the given order, z shift of each); one that
    cannot be freed within _MAX_LIFT fails fine-register with
    ``cannot-ground:<name>``."""
    lowest = [float(o.pose.apply(o.mesh.vertices)[:, 2].min()) for o in objects]
    grounded = {}
    for i in np.argsort(lowest, kind="stable"):
        obj = objects[i]
        below = tuple(replace(o, role="static") for o in grounded.values())
        ctx = _SettleContext(
            SceneTwin((replace(obj, role="manipulated"),) + below), config)
        placed = ctx.put_down(obj.pose)
        if placed is None:
            raise StageFailureError("fine-register", f"cannot-ground:{obj.name}")
        grounded[i] = replace(obj, pose=placed)
    out = tuple(grounded[i] for i in range(len(objects)))
    return out, [float(g.pose.translation[2] - o.pose.translation[2])
                 for g, o in zip(out, objects)]


def _support(points2d):
    """The support polygon under these contact xy: their convex hull,
    counter-clockwise; else the two farthest apart (fewer than three, or on
    one line); else the one point they all share."""
    if len(points2d) >= 3:
        try:
            return points2d[ConvexHull(points2d).vertices]
        except QhullError:
            pass
    if len(points2d) < 2:
        return points2d
    end = points2d[np.argmax(np.sum((points2d - points2d[0]) ** 2, axis=1))]
    far = points2d[np.argmax(np.sum((points2d - end) ** 2, axis=1))]
    return np.array([end, far]) if (far != end).any() else end[None]


def _tip(com2, polygon):
    """None when com2, the centre of mass's xy, is over the support polygon
    and it has three or more vertices. Else (pivot, axis): the boundary point
    nearest com2 and the unit horizontal axis to tip about there, along that
    edge or, on a point support, across com2's offset. The axis is None
    with no support or with com2 exactly over a point support."""
    a, e = polygon, np.roll(polygon, -1, axis=0) - polygon
    # counter-clockwise vertices: over the polygon is left of every edge
    if len(a) >= 3 and np.all(e[:, 0] * (com2[1] - a[:, 1])
                              - e[:, 1] * (com2[0] - a[:, 0]) >= -1e-9):
        return None
    if not len(a):
        return None, None
    # np.vecdot runs the 1-D `@` kernel row by row, so the pivots and axes
    # are bit for bit those of a loop over the edges
    L2 = np.vecdot(e, e)
    t = np.clip(np.vecdot(com2 - a, e) / np.maximum(L2, np.finfo(float).tiny),
                0.0, 1.0)
    q = a + t[:, None] * e
    d = np.sqrt(np.vecdot(com2 - q, com2 - q))
    i = int(np.argmin(d))
    if L2[i] > 0:
        return q[i], e[i] / np.sqrt(L2[i])
    across = np.array([com2[1] - q[i, 1], q[i, 0] - com2[0]])
    return q[i], across / d[i] if d[i] > 0 else None


def settle_simulate(scene: SceneTwin, sample: StrategySample,
                    config: SimConfig = SimConfig(),
                    _ctx: _SettleContext | None = None) -> SimOutcome:
    """Settle one strategy: put the start down, then, while the support
    polygon does not hold it, tip it one step and put it down again, at most
    MAX_TOPPLE_STEPS times. A start that must rise more than PENETRATION_TOL
    to be free, or any pose that cannot be freed, ends as penetration.
    config sets the surface sampling of the context built here; a passed
    _ctx carries its own."""
    ctx = _solid_context(scene, config) if _ctx is None else _ctx
    pose, max_rise, topples = sample.object_pose, PENETRATION_TOL, 0
    while True:
        placed = ctx.put_down(pose, max_rise)
        if placed is None:
            return _finish(ctx, pose, stable=False, penetration=True,
                           contacts=np.empty((0, 3)), topple_steps=topples)
        contacts = ctx.contact_points(placed)
        com = ctx.com_world(placed)
        tip = _tip(com[:2], _support(contacts[:, :2]))
        if tip is None or tip[1] is None or topples == MAX_TOPPLE_STEPS:
            return _finish(ctx, placed, stable=tip is None, penetration=False,
                           contacts=contacts, topple_steps=topples)
        pivot = np.array([*tip[0], float(contacts[:, 2].min())])
        axis = np.array([*tip[1], 0.0])
        torque = np.cross(com - pivot, -UP)
        sgn = 1.0 if float(torque @ axis) >= 0 else -1.0
        rot = quat.quat_from_axis_angle(axis, sgn * np.deg2rad(TOPPLE_STEP_DEG))
        step = RigidPose(rot, pivot - quat.quat_rotate(rot, pivot))
        pose, max_rise = step.compose(placed), np.inf
        topples += 1


def _finish(ctx, pose, stable, penetration, contacts, topple_steps):
    settled = {obj.name: pose if obj.role == "manipulated" else obj.pose
               for obj in ctx.scene.objects}
    return SimOutcome(settled, stable, penetration, contacts, ctx.scene,
                      topple_steps)


def render_outcome(outcome: SimOutcome) -> RenderedView:
    """The settled scene from the fixed checker viewpoint, centred on the
    bounding box of the settled meshes' vertices."""
    objects = [(obj.mesh, outcome.settled_poses[obj.name])
               for obj in outcome.scene.objects]
    verts = np.vstack([pose.apply(mesh.vertices) for mesh, pose in objects])
    center = 0.5 * (verts.min(axis=0) + verts.max(axis=0))
    return render_scene(objects, checker_viewpoint(center),
                        checker_intrinsics(RENDER_SIZE))


# ---------------------------------------------------------------------------
# Outcome evaluation

# placement predicates and the number of object names each takes
PREDICATES = {"inside": 2, "on_top": 2, "upright": 1, "upside_down": 1,
              "bridges": 3, "in_gap": 3}
_AXIS_TOL_DEG = 20.0
_SAMPLES = 600


def _world_samples(outcome, name, seed=7):
    obj = outcome.scene.by_name(name)
    pts = sample_mesh_surface(obj.mesh, _SAMPLES, seed).points
    return outcome.settled_poses[name].apply(pts)


def _aabb(points):
    return points.min(axis=0), points.max(axis=0)


def _settled_up(outcome, name):
    return quat.quat_rotate(outcome.settled_poses[name].rotation, UP)


def check_predicate(predicate):
    """(name, args as a list) of a placement predicate; RejectedInput for an
    unknown name or the wrong number of object names."""
    name, args = predicate
    if name not in PREDICATES:
        raise RejectedInput(f"unknown predicate {name!r}")
    args = list(args)
    if len(args) != PREDICATES[name]:
        raise RejectedInput(f"predicate {name!r} takes {PREDICATES[name]} "
                            f"object names, got {len(args)}")
    return name, args


def geometric_evaluator(outcome: SimOutcome, predicate) -> bool:
    """Deterministic placement predicates over the settled scene.

    predicate is (name, args), e.g. ("inside", ["cube", "box"]). All
    predicates require a stable, penetration-free outcome.
    """
    name, args = check_predicate(predicate)
    if outcome.penetration or not outcome.stable:
        return False

    if name == "inside":
        a, b = args
        pa = _world_samples(outcome, a)
        lo, hi = _aabb(_world_samples(outcome, b))
        margin = 0.002
        ok = np.all((pa >= lo - margin) & (pa <= hi + margin), axis=1)
        ok &= pa[:, 2] <= hi[2] + margin  # below the rim plane
        return bool(np.mean(ok) >= 0.9)

    if name == "on_top":
        a, b = args
        pa = _world_samples(outcome, a)
        lo, hi = _aabb(_world_samples(outcome, b))
        lowest = pa[np.argmin(pa[:, 2])]
        margin = 0.005
        on_face = (lo[0] - margin <= lowest[0] <= hi[0] + margin
                   and lo[1] - margin <= lowest[1] <= hi[1] + margin
                   and abs(lowest[2] - hi[2]) <= margin)
        com_a = pa.mean(axis=0)
        return bool(on_face and com_a[2] > hi[2])

    if name in ("upright", "upside_down"):
        (a,) = args
        up = _settled_up(outcome, a)
        target = UP if name == "upright" else -UP
        ang = np.arccos(np.clip(float(up @ target), -1.0, 1.0))
        return bool(np.rad2deg(ang) <= _AXIS_TOL_DEG)

    if name == "bridges":
        a, b, c = args
        pa = _world_samples(outcome, a)
        lo_a, hi_a = _aabb(pa)
        touches = []
        for support in (b, c):
            lo, hi = _aabb(_world_samples(outcome, support))
            margin = 0.005
            near_top = (np.abs(pa[:, 2] - hi[2]) <= margin) \
                & (pa[:, 0] >= lo[0] - margin) & (pa[:, 0] <= hi[0] + margin) \
                & (pa[:, 1] >= lo[1] - margin) & (pa[:, 1] <= hi[1] + margin)
            overlap = (hi_a[:2] >= lo[:2]).all() and (lo_a[:2] <= hi[:2]).all()
            touches.append(bool(near_top.any() and overlap))
        return all(touches)

    if name == "in_gap":
        a, b, c = args
        com_a = _world_samples(outcome, a).mean(axis=0)
        lo_b, hi_b = _aabb(_world_samples(outcome, b))
        lo_c, hi_c = _aabb(_world_samples(outcome, c))
        cb, cc = 0.5 * (lo_b + hi_b), 0.5 * (lo_c + hi_c)
        axis = cc[:2] - cb[:2]
        norm = np.linalg.norm(axis)
        if norm < 1e-9:
            return False
        axis = axis / norm
        sb = float(cb[:2] @ axis)
        sc = float(cc[:2] @ axis)
        half_b = 0.5 * float((hi_b - lo_b)[:2] @ np.abs(axis))
        half_c = 0.5 * float((hi_c - lo_c)[:2] @ np.abs(axis))
        s = float(com_a[:2] @ axis)
        between = sb + half_b <= s <= sc - half_c
        below = com_a[2] < hi_b[2] and com_a[2] < hi_c[2]
        return bool(between and below)

    raise RejectedInput(f"unhandled predicate {name!r}")


class GeometricEvaluator:
    """A placement predicate spec, checked once, as a callable on
    outcomes."""

    def __init__(self, predicate):
        self.predicate = check_predicate(predicate)

    def __call__(self, outcome):
        return geometric_evaluator(outcome, self.predicate)


def label_samples(scene: SceneTwin, samples, goal,
                  config: SimConfig = SimConfig()) -> list[StrategySample]:
    """Settle every sample on one settle context and label it by the goal
    predicate. The context is built before any settle, so a scene that
    cannot be simulated fails once; per-sample failures become label=False
    with a reason instead of aborting the batch."""
    if not samples:
        raise RejectedInput("no samples to label")
    goal = check_predicate(goal)
    ctx = _solid_context(scene, config)

    def one(sample):
        try:
            outcome = settle_simulate(scene, sample, _ctx=ctx)
            label = bool(geometric_evaluator(outcome, goal))
            reason = "penetration" if outcome.penetration else None
            return sample.with_outcome(outcome, label, reason)
        except (StageFailureError, RejectedInput) as exc:
            return sample.with_outcome(None, False, str(exc))

    return parallel_map(one, samples)
