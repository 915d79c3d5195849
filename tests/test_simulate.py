import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinforge import quaternions as quat
from twinforge import simulate
from twinforge.errors import RejectedInput, StageFailureError
from twinforge.geometry import PointCloud, RigidPose, TriangleMesh
from twinforge.render import render_scene
from twinforge.simulate import (CONTACT_TOL, PENETRATION_TOL, RENDER_SIZE,
                                GeometricEvaluator, SceneObject, SceneTwin,
                                SimConfig, _SettleContext,
                                checker_intrinsics, checker_viewpoint,
                                geometric_evaluator, label_samples,
                                render_outcome, settle_simulate)
from twinforge.solids import MeshIndex
from twinforge.strategy import StrategySample
from twinforge.synth import make_box, make_cup, make_open_box

from simulate_reference import (ref_drop, ref_nearest_hull_edge,
                                ref_penetration_depth, ref_point_in_hull)

FAST = SimConfig(surface_samples=900)


def cube(name="cube", size=0.05, role="manipulated", pose=None):
    pose = pose or RigidPose(quat.IDENTITY, [0.0, 0.0, size / 2])
    return SceneObject(name, make_box([size] * 3), pose, role=role)


def scene_with(*objects):
    return SceneTwin(tuple(objects))


def sample_at(pose):
    return StrategySample(pose, 0)


def test_scene_twin_validation():
    with pytest.raises(RejectedInput):
        SceneTwin((cube(role="static"),))
    with pytest.raises(RejectedInput):
        SceneObject("x", make_box([0.05] * 3), RigidPose.identity(), role="wat")
    twin = scene_with(cube(), cube("base", role="static",
                                   pose=RigidPose(quat.IDENTITY, [0.2, 0, 0.025])))
    assert twin.manipulated.name == "cube"
    assert twin.by_name("base").role == "static"
    with pytest.raises(RejectedInput):
        twin.by_name("nope")


def test_checker_viewpoint_tilt_and_lookat():
    center = np.array([0.1, -0.05, 0.04])
    pose = checker_viewpoint(center, standoff=0.8, tilt_deg=-60.0)
    # viewing direction is pitched exactly 60 degrees below horizontal
    z_cam = quat.quat_to_matrix(pose.rotation)[:, 2]
    pitch = np.rad2deg(np.arcsin(-z_cam[2]))
    assert pitch == pytest.approx(60.0, abs=1e-9)
    # the scene center projects onto the principal point (look-at)
    cam = checker_intrinsics(64)
    in_cam = pose.inverse().apply(center)
    uv = np.array([cam.fx * in_cam[0] / in_cam[2] + cam.cx,
                   cam.fy * in_cam[1] / in_cam[2] + cam.cy])
    assert np.linalg.norm(uv - [cam.cx, cam.cy]) < 1.0
    assert in_cam[2] == pytest.approx(0.8, abs=1e-12)


def test_drop_to_ground_settles_flat():
    twin = scene_with(cube())
    start = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.12])
    out = settle_simulate(twin, sample_at(start), FAST)
    assert out.stable and not out.penetration
    z = out.settled_poses["cube"].translation[2]
    assert z == pytest.approx(0.025, abs=0.002)
    assert out.topple_steps == 0
    assert len(out.contacts) > 0


def support_box(height=0.06, size=0.09):
    return SceneObject("base", make_box([size, size, height]),
                       RigidPose(quat.IDENTITY, [0.0, 0.0, height / 2]),
                       role="interactive")


@pytest.mark.parametrize("start_z", [0.1234, 0.0255, 0.025])
def test_drop_lands_at_exact_ground_contact(start_z):
    # 0.0255 is free and 0.5 mm up; 0.025 touches the floor
    twin = scene_with(cube())
    out = settle_simulate(twin, sample_at(RigidPose(quat.IDENTITY, [0, 0, start_z])),
                          FAST)
    assert out.stable and not out.penetration
    assert out.settled_poses["cube"].translation[2] == pytest.approx(0.025, abs=1e-5)


def test_drop_lands_at_exact_support_contact():
    twin = scene_with(cube(), support_box())
    ctx = _SettleContext(twin, FAST)
    start = RigidPose(quat.quat_from_axis_angle([0, 0, 1], 0.4), [0.01, 0.0, 0.15])
    landed = ctx.drop(start)
    assert landed.translation[2] == pytest.approx(0.06 + 0.025, abs=1e-5)
    assert np.array_equal(landed.rotation, start.rotation)
    assert ref_penetration_depth(ctx, landed) == 0.0


def sunk_start(top, sunk):
    """A cube started `sunk` meters into the floor (top=0) or into the top
    of a 12 x 12 x 6 cm box (top=0.06), and its scene."""
    objects = [cube()]
    if top:
        objects.append(SceneObject("base", make_box([0.12, 0.12, top]),
                                   RigidPose(quat.IDENTITY, [0.0, 0.0, top / 2]),
                                   role="interactive"))
    return (scene_with(*objects),
            RigidPose(quat.IDENTITY, [0.0, 0.0, top + 0.025 - sunk]))


@pytest.mark.parametrize("top,sunk", [(0.0, 0.0005), (0.06, 0.0001),
                                      (0.06, 0.0005), (0.06, 0.0009)],
                         ids=["floor-0.5mm", "support-0.1mm", "support-0.5mm",
                              "support-0.9mm"])
def test_start_within_tolerance_is_pushed_out_then_settles(top, sunk):
    # the start check is the lift's exact rise: the distance to the nearest
    # surface sample would read the support cases as several millimeters
    twin, start = sunk_start(top, sunk)
    ctx = _SettleContext(twin, FAST)
    rise = ctx.lift_free(start).translation[2] - start.translation[2]
    assert rise == pytest.approx(sunk, abs=1e-5)
    out = settle_simulate(twin, sample_at(start), FAST, _ctx=ctx)
    assert out.stable and not out.penetration
    settled = out.settled_poses["cube"]
    assert settled.translation[2] == pytest.approx(top + 0.025, abs=1e-5)
    assert np.all(np.abs(out.contacts[:, 2] - top) <= CONTACT_TOL)
    assert ref_penetration_depth(ctx, settled) == 0.0


def test_start_beyond_tolerance_in_a_support_is_penetration():
    twin, start = sunk_start(0.06, 2 * PENETRATION_TOL)
    out = settle_simulate(twin, sample_at(start), FAST)
    assert out.penetration and not out.stable
    assert out.settled_poses["cube"] is start


def test_lift_free_clears_a_pose_rotated_into_the_support():
    twin = scene_with(cube(), support_box())
    ctx = _SettleContext(twin, FAST)
    tilted = RigidPose(quat.quat_from_axis_angle([1, 0, 0], np.deg2rad(20)),
                       [0.0, 0.0, 0.06 + 0.025])
    assert ref_penetration_depth(ctx, tilted) > 0
    free = ctx.lift_free(tilted)
    assert ref_penetration_depth(ctx, free) == 0.0
    rise = free.translation[2] - tilted.translation[2]
    # the lowest corner started this far inside the support
    corner = 0.025 * (np.cos(np.deg2rad(20)) + np.sin(np.deg2rad(20))) - 0.025
    assert corner - 0.002 < rise < corner + 0.001
    assert np.array_equal(free.rotation, tilted.rotation)


def test_lift_free_gives_up_when_no_free_height_within_cap():
    tower = SceneObject("tower", make_box([0.2, 0.2, 0.4]),
                        RigidPose(quat.IDENTITY, [0.0, 0.0, 0.2]), role="static")
    twin = scene_with(cube(), tower)
    ctx = _SettleContext(twin, FAST)
    buried = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1])
    assert ctx.lift_free(buried) is None


def test_lift_frees_a_static_solid_in_the_cup_wall_beyond_its_samples():
    # a 10 micron box inside the cup's wall at its vertex on -x, past
    # the reach of the cup's surface samples: only a manipulated box built
    # from the mesh's vertices tests the box's samples at all. Each exits
    # down through the cup's bottom, 45 mm below the cup's centre.
    cup = SceneObject("cup", make_cup(0.035, 0.09, 0.005),
                      RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1]),
                      role="manipulated")
    speck = SceneObject("speck", make_box([1e-5, 5e-6, 1e-5]),
                        RigidPose(quat.IDENTITY, [-0.03498, 3.5e-6, 0.1]),
                        role="static")
    ctx = _SettleContext(scene_with(cup, speck), SimConfig())
    assert ctx.local_samples[:, 0].min() > -0.03498 + 5e-6
    free = ctx.lift_free(cup.pose)
    assert free.translation[2] - 0.1 == pytest.approx(0.045, abs=2e-5)
    assert ref_penetration_depth(ctx, cup.pose) > 0
    assert ref_penetration_depth(ctx, free) == 0.0


def test_context_builds_one_vertical_index_per_static_object(monkeypatch):
    built = []

    def counted(mesh, direction):
        built.append(np.asarray(direction, dtype=float))
        return MeshIndex(mesh, direction)

    monkeypatch.setattr(simulate, "MeshIndex", counted)
    ctx = _SettleContext(tall_wall_scene(), FAST)
    assert len(built) == len(ctx.others) == 2
    assert all(np.array_equal(d, -simulate.UP) for d in built)


def test_topple_into_a_tall_wall_ends_as_penetration():
    # the overhanging cube tips toward a 0.4 m wall 5 mm beside it; no lift
    # within the cap frees it, so it must not be labelled stable
    twin = tall_wall_scene()
    out = settle_simulate(twin, sample_at(RigidPose(quat.IDENTITY, [0.045, 0.0, 0.12])),
                          FAST)
    assert out.penetration and not out.stable
    assert out.topple_steps == 1


def test_toppling_settle_lifts_once_per_drop(monkeypatch):
    # one lift frees the start, and one more follows each topple step
    calls = []
    lift = _SettleContext.lift_free

    def counted(self, pose):
        calls.append(pose)
        return lift(self, pose)

    monkeypatch.setattr(_SettleContext, "lift_free", counted)
    twin = scene_with(cube(), support_box(height=0.04, size=0.06))
    out = settle_simulate(twin, sample_at(RigidPose(quat.IDENTITY, [0.055, 0.0, 0.12])),
                          FAST)
    assert out.topple_steps > 0 and not out.penetration
    assert len(calls) == out.topple_steps + 1


@pytest.mark.parametrize("start,topples", [([0.0, 0.0, 0.12], False),
                                          ([0.055, 0.0, 0.12], True)])
def test_settle_makes_one_contact_query_per_resting_pose(monkeypatch, start,
                                                         topples):
    calls = []
    contacts = _SettleContext.contact_points

    def counted(self, pose):
        calls.append(pose)
        return contacts(self, pose)

    monkeypatch.setattr(_SettleContext, "contact_points", counted)
    twin = scene_with(cube(), support_box(height=0.04, size=0.06))
    out = settle_simulate(twin, sample_at(RigidPose(quat.IDENTITY, start)), FAST)
    assert not out.penetration
    assert (out.topple_steps > 0) is topples
    assert len(calls) == out.topple_steps + 1
    # the outcome's contacts are those of the last query, at the settled pose
    assert calls[-1] is out.settled_poses["cube"]


def tall_wall_scene():
    base = support_box(height=0.04, size=0.06)
    wall = SceneObject("wall", make_box([0.2, 0.2, 0.4]),
                       RigidPose(quat.IDENTITY, [0.175, 0.0, 0.2]), role="static")
    return scene_with(cube(), base, wall)


DROP_SCENES = {
    "cup-on-box": lambda: scene_with(
        SceneObject("cup", make_cup(0.035, 0.09, 0.005), RigidPose.identity(),
                    role="manipulated"),
        SceneObject("box", make_box([0.12, 0.12, 0.04]),
                    RigidPose(quat.IDENTITY, [0.0, 0.0, 0.02]),
                    role="interactive")),
    "cube-into-box": lambda: scene_with(
        cube(), SceneObject("box", make_open_box([0.14, 0.14, 0.07], 0.012),
                            RigidPose(quat.IDENTITY, [0.0, 0.0, 0.035]),
                            role="interactive")),
    "cube-onto-cube": lambda: scene_with(cube(), support_box()),
    "support-box": lambda: scene_with(cube(), support_box(height=0.04,
                                                          size=0.06)),
    "tall-wall": tall_wall_scene,
}


@pytest.fixture(scope="module")
def drop_contexts():
    """One settle context per scene, shared by every example, so its memo
    of manipulated cast indexes fills up as in a labeling run."""
    return {name: _SettleContext(make(), FAST)
            for name, make in DROP_SCENES.items()}


_angle = st.floats(-np.pi, np.pi)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(DROP_SCENES)),
       tilt=st.sampled_from([0.0, np.pi / 12, np.pi / 2, np.pi]) | _angle,
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 2), yaw=_angle,
       xy=st.tuples(*[st.floats(-0.15, 0.15)] * 2),
       z=st.floats(-0.02, 0.25))
def test_drop_matches_reference(drop_contexts, name, tilt, axis, yaw, xy, z):
    # tilted, upside-down and overhanging starts over each support, lifted
    # free first, as settle_simulate does
    ctx = drop_contexts[name]
    horizontal = np.array([axis[0], axis[1], 0.0])
    assume(np.linalg.norm(horizontal) > 0.1)
    q = quat.quat_normalize(quat.quat_multiply(
        quat.quat_from_axis_angle([0, 0, 1], yaw),
        quat.quat_from_axis_angle(horizontal, tilt)))
    pose = ctx.lift_free(RigidPose(q, [xy[0], xy[1], z]))
    assume(pose is not None)
    landed, expect = ctx.drop(pose), ref_drop(ctx, pose)
    assert np.array_equal(landed.translation, expect.translation)
    assert np.array_equal(landed.rotation, expect.rotation)


def test_initial_penetration_rejected():
    twin = scene_with(cube())
    buried = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.0])  # half under the floor
    out = settle_simulate(twin, sample_at(buried), FAST)
    assert out.penetration and not out.stable


def test_settles_onto_support_box():
    base = SceneObject("base", make_box([0.09, 0.09, 0.06]),
                       RigidPose(quat.IDENTITY, [0.0, 0.0, 0.03]),
                       role="interactive")
    twin = scene_with(cube(), base)
    start = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.15])
    out = settle_simulate(twin, sample_at(start), FAST)
    assert out.stable
    z = out.settled_poses["cube"].translation[2]
    assert z == pytest.approx(0.06 + 0.025, abs=0.003)


def test_overhanging_cube_topples_off_edge():
    base = SceneObject("base", make_box([0.06, 0.06, 0.04]),
                       RigidPose(quat.IDENTITY, [0.0, 0.0, 0.02]),
                       role="interactive")
    twin = scene_with(cube(), base)
    # center of mass well beyond the base edge
    start = RigidPose(quat.IDENTITY, [0.055, 0.0, 0.12])
    out = settle_simulate(twin, sample_at(start), FAST)
    assert out.topple_steps > 0


def test_two_contact_topple_is_mirror_symmetric():
    # a cube rests on one bottom edge, tilted 30 degrees off the face beside
    # it, with that edge along (1, -1) and, in the mirror image through the
    # xz-plane, along (1, 1). Its samples are its eight corners, so each
    # configuration has exactly the edge's two corners as contacts, a
    # degenerate support, until it lies flat.
    twin = scene_with(cube())
    ctx = _SettleContext(twin, FAST)
    # with the ground as the only support, no other sample set is read
    ctx.local_samples = 0.025 * np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
    q = quat.quat_multiply(quat.quat_from_axis_angle([0, 0, 1], -np.pi / 4),
                           quat.quat_from_axis_angle([1, 0, 0], np.pi / 6))
    mirror = np.array([1.0, -1.0, 1.0, -1.0])    # y -> -y on a quaternion
    start = RigidPose(q, [0.01, 0.02, 0.1])
    mirrored = RigidPose(q * mirror, [0.01, -0.02, 0.1])
    for pose in (start, mirrored):
        assert len(ctx.contact_points(ctx.drop(pose))) == 2
    out = settle_simulate(twin, sample_at(start), FAST, _ctx=ctx)
    image = settle_simulate(twin, sample_at(mirrored), FAST, _ctx=ctx)
    assert out.stable and image.stable
    assert out.topple_steps == image.topple_steps == 2
    a, b = out.settled_poses["cube"], image.settled_poses["cube"]
    assert np.allclose(b.rotation, a.rotation * mirror, atol=1e-12)
    assert np.allclose(b.translation, a.translation * [1, -1, 1], atol=1e-12)
    # toppled onto the face beside the edge: flat on the ground
    assert b.translation[2] == pytest.approx(0.025, abs=1e-5)


def test_single_contact_tips_across_the_centre_of_mass_offset(monkeypatch):
    # a cube set corner-down, its samples its eight corners: one contact,
    # with the centre of mass off it in both x and y. The first tip axis is
    # horizontal and perpendicular to that offset, so the corner stays the
    # pivot while the centre of mass falls toward its offset.
    twin = scene_with(cube())
    ctx = _SettleContext(twin, FAST)
    ctx.local_samples = 0.025 * np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
    q = quat.quat_multiply(
        quat.quat_from_axis_angle([0, 1, 0], np.deg2rad(30.0)),
        quat.quat_from_axis_angle([1, 0, 0], -np.arctan(1 / np.sqrt(2))))
    start = RigidPose(q, [0.0, 0.0, 0.1])
    landed = ctx.drop(start)
    contacts = ctx.contact_points(landed)
    assert len(contacts) == 1
    offset = (ctx.com_world(landed) - contacts[0])[:2]
    assert np.all(np.abs(offset) > 0.004)
    axes = []
    from_axis_angle = quat.quat_from_axis_angle

    def recorded(axis, angle):
        axes.append(np.asarray(axis, float))
        return from_axis_angle(axis, angle)

    monkeypatch.setattr(quat, "quat_from_axis_angle", recorded)
    out = settle_simulate(twin, sample_at(start), FAST, _ctx=ctx)
    assert out.topple_steps >= 1 and not out.penetration
    first = axes[0]
    assert first[2] == 0.0 and np.linalg.norm(first) == pytest.approx(1.0)
    assert abs(first[:2] @ offset) < 1e-9 * np.linalg.norm(offset)
    assert out.stable


def test_coincident_contacts_settle_and_label_false(monkeypatch):
    # two samples that share one xy under the cube's centre of mass: a point
    # support, never one that holds the object, and no zero tip axis
    points = np.array([[0.0, 0.0, -0.025], [0.0, 0.0, -0.0245]])
    twin = scene_with(cube())
    ctx = _SettleContext(twin, FAST)
    ctx.local_samples = points
    start = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1])
    assert len(ctx.contact_points(ctx.drop(start))) == 2
    out = settle_simulate(twin, sample_at(start), FAST, _ctx=ctx)
    assert not out.stable and not out.penetration
    monkeypatch.setattr(simulate, "sample_mesh_surface",
                        lambda mesh, n, seed: PointCloud(points))
    (labeled,) = label_samples(twin, [sample_at(start)], ("upright", ["cube"]),
                               FAST)
    assert labeled.weak_label is False and labeled.outcome is not None


def test_centre_of_mass_exactly_over_a_point_support_ends_unstable():
    twin = scene_with(cube())
    ctx = _SettleContext(twin, FAST)
    ctx.local_samples = np.array([[0.0, 0.0, -0.025]])
    ctx.local_com = np.zeros(3)
    start = RigidPose(quat.IDENTITY, [0.01, 0.02, 0.1])
    out = settle_simulate(twin, sample_at(start), FAST, _ctx=ctx)
    assert not out.stable and not out.penetration
    assert out.topple_steps == 0
    assert len(out.contacts) == 1
    assert np.array_equal(out.contacts[0, :2],
                          ctx.com_world(out.settled_poses["cube"])[:2])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       spread=st.floats(0.001, 0.05))
def test_tip_matches_the_edge_loop_reference(seed, n, spread):
    # contacts whose hull has three or more vertices: the one-pass support
    # query answers as the loops over the hull's edges did, bit for bit
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2)) * spread + rng.normal(size=2) * 0.05
    com2 = rng.normal(size=2) * 0.05
    hull = simulate._support(points)
    assert len(hull) >= 3
    tip = simulate._tip(com2, hull)
    assert (tip is None) == ref_point_in_hull(com2, hull)
    if tip is not None:
        pivot, axis = ref_nearest_hull_edge(com2, hull)
        assert np.array_equal(tip[0], pivot) and np.array_equal(tip[1], axis)


@pytest.mark.parametrize("points,support", [
    ([[0.0, 0.0]], [[0.0, 0.0]]),
    ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]),
    ([[0.0, 0.0], [0.01, 0.02]], [[0.01, 0.02], [0.0, 0.0]]),
    ([[0.01, 0.01], [0.0, 0.0], [0.03, 0.03], [0.02, 0.02]],
     [[0.03, 0.03], [0.0, 0.0]])], ids=["one", "coincident", "two", "line"])
def test_degenerate_support_is_a_segment_or_a_point(points, support):
    assert np.array_equal(simulate._support(np.array(points)), support)


def test_translation_equivariance():
    shift = np.array([0.04, -0.03, 0.0])
    base_cfg = FAST
    twin_a = scene_with(cube())
    twin_b = scene_with(cube())
    start = RigidPose(quat.quat_from_axis_angle([0, 0, 1], 0.3), [0.0, 0.0, 0.1])
    moved = RigidPose(start.rotation, start.translation + shift)
    out_a = settle_simulate(twin_a, sample_at(start), base_cfg)
    out_b = settle_simulate(twin_b, sample_at(moved), base_cfg)
    ta = out_a.settled_poses["cube"].translation
    tb = out_b.settled_poses["cube"].translation
    assert np.max(np.abs(tb - (ta + shift))) < 1e-6
    assert np.allclose(out_a.settled_poses["cube"].rotation,
                       out_b.settled_poses["cube"].rotation, atol=1e-9)


def test_label_samples_is_deterministic():
    twin = scene_with(cube())
    start = sample_at(RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1]))
    a, b = label_samples(twin, [start, start], ("upright", ["cube"]), FAST)
    fresh = settle_simulate(twin, start, FAST)
    for out in (b.outcome, fresh):
        assert np.array_equal(a.outcome.settled_poses["cube"].translation,
                              out.settled_poses["cube"].translation)
        assert np.array_equal(a.outcome.settled_poses["cube"].rotation,
                              out.settled_poses["cube"].rotation)


def test_label_samples_rejects_non_watertight_before_any_settle(monkeypatch):
    settles = []
    monkeypatch.setattr(simulate, "settle_simulate",
                        lambda *args, **kwargs: settles.append(args))
    box = make_box([0.05] * 3)
    open_mesh = TriangleMesh(box.vertices, box.triangles[1:])
    twin = scene_with(SceneObject("cube", open_mesh,
                                  RigidPose(quat.IDENTITY, [0, 0, 0.1]),
                                  role="manipulated"))
    start = sample_at(RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1]))
    with pytest.raises(StageFailureError) as info:
        label_samples(twin, [start, start], ("upright", ["cube"]), FAST)
    assert (info.value.stage, info.value.reason) == ("simulation",
                                                     "non-watertight-mesh")
    assert settles == []


def test_render_outcome(monkeypatch):
    base = cube("base", role="static",
                pose=RigidPose(quat.IDENTITY, [0.1, 0.0, 0.025]))
    twin = scene_with(cube(), base)
    out = settle_simulate(twin, sample_at(RigidPose(quat.IDENTITY, [0, 0, 0.1])),
                          FAST)
    seen = []

    def spy(objects, view_pose, intrinsics):
        seen.append(view_pose)
        return render_scene(objects, view_pose, intrinsics)

    monkeypatch.setattr(simulate, "render_scene", spy)
    view = render_outcome(out)
    assert view.depth.values.shape == (RENDER_SIZE, RENDER_SIZE)
    assert set(np.unique(view.object_ids)) == {-1, 0, 1}
    # the camera looks at the centre of the settled meshes' bounding box:
    # the cube rests on the ground at the origin, next to the base
    expected = checker_viewpoint([0.05, 0.0, 0.025])
    assert len(seen) == 1
    assert np.allclose(seen[0].matrix(), expected.matrix(), atol=1e-5)


# ---------------------------------------------------------------------------
# predicates

def settled(twin, pose, cfg=FAST):
    return settle_simulate(twin, sample_at(pose), cfg)


def test_upright_and_upside_down():
    twin = scene_with(cube())
    flat = settled(twin, RigidPose(quat.IDENTITY, [0, 0, 0.1]))
    assert geometric_evaluator(flat, ("upright", ["cube"]))
    assert not geometric_evaluator(flat, ("upside_down", ["cube"]))
    flipped = settled(twin, RigidPose(
        quat.quat_from_axis_angle([1, 0, 0], np.pi), [0, 0, 0.1]))
    assert geometric_evaluator(flipped, ("upside_down", ["cube"]))
    assert not geometric_evaluator(flipped, ("upright", ["cube"]))


def test_on_top_predicate():
    base = SceneObject("base", make_box([0.09, 0.09, 0.06]),
                       RigidPose(quat.IDENTITY, [0.0, 0.0, 0.03]),
                       role="interactive")
    twin = scene_with(cube(), base)
    on = settled(twin, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.15]))
    assert geometric_evaluator(on, ("on_top", ["cube", "base"]))
    off = settled(twin, RigidPose(quat.IDENTITY, [0.2, 0.0, 0.1]))
    assert not geometric_evaluator(off, ("on_top", ["cube", "base"]))


def test_inside_predicate():
    box = SceneObject("box", make_open_box([0.14, 0.14, 0.07], 0.012),
                      RigidPose(quat.IDENTITY, [0.0, 0.0, 0.035]),
                      role="interactive")
    twin = scene_with(cube(size=0.04), box)
    inside = settled(twin, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.12]))
    assert geometric_evaluator(inside, ("inside", ["cube", "box"]))
    outside = settled(twin, RigidPose(quat.IDENTITY, [0.25, 0.0, 0.1]))
    assert not geometric_evaluator(outside, ("inside", ["cube", "box"]))


def test_bridges_predicate():
    pillars = [
        SceneObject("left", make_box([0.05, 0.05, 0.05]),
                    RigidPose(quat.IDENTITY, [-0.05, 0.0, 0.025]),
                    role="interactive"),
        SceneObject("right", make_box([0.05, 0.05, 0.05]),
                    RigidPose(quat.IDENTITY, [0.05, 0.0, 0.025]),
                    role="interactive"),
    ]
    plank = SceneObject("plank", make_box([0.18, 0.04, 0.02]),
                        RigidPose(quat.IDENTITY, [0.0, 0.0, 0.2]),
                        role="manipulated")
    twin = scene_with(plank, *pillars)
    out = settled(twin, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.12]))
    assert geometric_evaluator(out, ("bridges", ["plank", "left", "right"]))


def test_in_gap_predicate():
    walls = [
        SceneObject("left", make_box([0.04, 0.1, 0.08]),
                    RigidPose(quat.IDENTITY, [-0.07, 0.0, 0.04]),
                    role="interactive"),
        SceneObject("right", make_box([0.04, 0.1, 0.08]),
                    RigidPose(quat.IDENTITY, [0.07, 0.0, 0.04]),
                    role="interactive"),
    ]
    twin = scene_with(cube(size=0.04), *walls)
    out = settled(twin, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1]))
    assert geometric_evaluator(out, ("in_gap", ["cube", "left", "right"]))


def test_predicates_require_stable_outcome():
    twin = scene_with(cube())
    buried = settled(twin, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.0]))
    assert buried.penetration
    assert not geometric_evaluator(buried, ("upright", ["cube"]))


def test_unknown_predicate_rejected():
    twin = scene_with(cube())
    out = settled(twin, RigidPose(quat.IDENTITY, [0, 0, 0.1]))
    with pytest.raises(RejectedInput):
        geometric_evaluator(out, ("levitates", ["cube"]))
    with pytest.raises(RejectedInput):
        GeometricEvaluator(("levitates", ["cube"]))


def test_label_samples():
    twin = scene_with(cube())
    goal = ("upright", ["cube"])
    samples = [
        StrategySample(RigidPose(quat.IDENTITY, [0.0, 0.0, 0.1]), 0),
        StrategySample(RigidPose(quat.IDENTITY, [0.0, 0.0, 0.0]), 1),  # buried
        StrategySample(RigidPose(
            quat.quat_from_axis_angle([1, 0, 0], np.pi), [0, 0, 0.1]), 2),
    ]
    labeled = label_samples(twin, samples, goal, FAST)
    assert [s.weak_label for s in labeled] == [True, False, False]
    assert labeled[1].failure_reason == "penetration"
    assert labeled[0].failure_reason is None
    with pytest.raises(RejectedInput):
        label_samples(twin, [], goal, FAST)
    # a bad goal fails the batch, not each sample
    with pytest.raises(RejectedInput):
        label_samples(twin, samples, ("levitates", ["cube"]), FAST)
