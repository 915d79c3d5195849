"""End-to-end acceptance criteria.

Each criterion is one test that prints a single ``[criterion N] ... PASS/FAIL``
line. The expensive shared artifacts (full pipeline runs) are computed once
per session via module-scoped fixtures.
"""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from twinforge import quaternions as quat
from twinforge.benchmark import (alignment_benchmark, surface_distance_mm,
                                 symmetry_aware_success, symmetry_group,
                                 truth_twin)
from twinforge.camera import BinaryMask, CameraIntrinsics, backproject
from twinforge.geometry import (PointCloud, RigidPose, TriangleMesh,
                                sample_mesh_surface)
from twinforge.gpclassify import Se3KernelParams, fit, predict_prob_batch
from twinforge.grasp import GraspCandidate, filter_by_object_proximity, top_k_by_confidence
from twinforge.pipeline import PipelineConfig, align_scene, run_pipeline
from twinforge.register import AlignConfig, IcpParams, icp_refine
from twinforge.render import render, render_scene
from twinforge.scene import (ObjectSpec, SceneSpec, load_scene_spec,
                             report_determinism_key)
from twinforge.simulate import (GeometricEvaluator, SettleSimulator, SimConfig,
                                _SettleContext, checker_viewpoint,
                                label_samples, settle_simulate)
from twinforge.solids import point_mesh_distance
from twinforge.strategy import StrategySample
from twinforge.synth import (_PALETTE, TASKS, canonical_mesh,
                             default_intrinsics, generate_synthetic_scene,
                             make_box, mesh_diameter, primitive_from_spec,
                             synthetic_observation)

from gp_reference import ref_predict
from solids_reference import ray_mesh_depth


def _verdict(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


# ---------------------------------------------------------------------------
# shared expensive artifacts

TASK_SEEDS = {"cube-into-box": 0, "cube-onto-cube": 0, "cup-on-box": 0}


@pytest.fixture(scope="module")
def task_runs(tmp_path_factory):
    """One full default-config pipeline run per task."""
    runs = {}
    for task in TASKS:
        out = tmp_path_factory.mktemp(f"task_{task.replace('-', '_')}")
        path = generate_synthetic_scene(task, str(out), seed=TASK_SEEDS[task])
        spec = load_scene_spec(path)
        result = run_pipeline(spec, PipelineConfig())
        runs[task] = (spec, result)
    return runs


# ---------------------------------------------------------------------------

def test_criterion_1_alignment_benchmark():
    report = alignment_benchmark(trials=40, seed0=0,
                                 config=AlignConfig(rotation_count=384))
    rmses = [r.two_stage_rmse for r in report.rows
             if np.isfinite(r.two_stage_rmse)]
    ok = (report.margin >= 0.15
          and len(rmses) > 0 and max(rmses) < 0.01
          and report.elapsed_s < 600.0)
    _verdict(1, "two-stage beats direct by >= 15 pp, RMSE < 0.01, "
             "< 10 min single-threaded", ok,
             f"two-stage {report.two_stage_rate:.1%} vs direct "
             f"{report.direct_rate:.1%}, {report.elapsed_s:.0f} s")


def test_criterion_2_icp_convergence_basin():
    obs = synthetic_observation("box:0.07,0.05,0.04", seed=1)
    mesh = obs.unit_mesh.scaled(obs.true_scale).transformed(obs.true_pose_cam)
    # camera-visible partial: keep front-facing triangles, then sample 2000
    # surface points (random sampling avoids pixel-grid aliasing minima)
    v, tri = mesh.vertices, mesh.triangles
    a, b, c = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
    normals = np.cross(b - a, c - a)
    front = np.einsum("ij,ij->i", normals, (a + b + c) / 3) < 0
    partial = sample_mesh_surface(TriangleMesh(v, tri[front]), 2000, seed=0)
    # centroid frame: the rotational perturbation acts about the object,
    # not the camera origin
    pts = partial.points - partial.points.mean(axis=0)
    cloud = PointCloud(pts)
    params = IcpParams(max_iterations=100, max_correspondence_distance=0.05)
    rng = np.random.default_rng(1)
    recovered = 0
    monotone = True
    trials = 50
    for _ in range(trials):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.deg2rad(10.0))
        t = rng.uniform(-1.0, 1.0, size=3)
        t = t / np.linalg.norm(t) * rng.uniform(0.0, 0.02)
        init = RigidPose(quat.quat_from_axis_angle(axis, angle), t)
        res = icp_refine(cloud, cloud, init, params)
        rot_err = quat.geodesic_angle(res.pose.rotation, quat.IDENTITY)
        trans_err = np.linalg.norm(res.pose.translation)
        if rot_err <= np.deg2rad(1.0) and trans_err <= 0.002:
            recovered += 1
        if np.any(np.diff(res.rmse_history) > 1e-9):
            monotone = False
    ok = recovered / trials >= 0.95 and monotone
    _verdict(2, "ICP basin: 10 deg / 2 cm perturbations recover within "
             "1 deg / 2 mm with non-increasing RMSE", ok,
             f"{recovered}/{trials} recovered, monotone={monotone}")


def test_criterion_3_rasterizer_matches_ray_oracle():
    cam = CameraIntrinsics(fx=80.0, fy=80.0, cx=32.0, cy=32.0,
                           width=64, height=64)
    rng = np.random.default_rng(2)
    total, bad = 0, 0
    for _ in range(10):
        pts = rng.normal(size=(15, 3)) * rng.uniform(0.02, 0.05)
        pts[:, 2] += rng.uniform(0.35, 0.6)
        hull = ConvexHull(pts)
        mesh = TriangleMesh(pts, hull.simplices.astype(np.int64))
        view = render(mesh, RigidPose.identity(), cam)
        covered = np.argwhere(view.depth.values > 0)
        assert len(covered) > 50
        for v, u in covered:
            d = np.array([(u + 0.5 - cam.cx) / cam.fx,
                          (v + 0.5 - cam.cy) / cam.fy, 1.0])
            t = ray_mesh_depth([0.0, 0.0, 0.0], d, mesh)
            total += 1
            if not np.isfinite(t) or abs(t - view.depth.values[v, u]) > 1e-4:
                bad += 1
    ok = total > 0 and (total - bad) / total >= 0.99
    _verdict(3, "rasterized depth within 1e-4 of ray casting on >= 99% of "
             "covered pixels (10 random convex meshes)", ok,
             f"{total - bad}/{total} pixels agree")


def test_criterion_4_gp_classifier():
    params = Se3KernelParams()

    def poses_of(rng, n, center, spread=0.01):
        return [RigidPose(quat.random_quat(rng),
                          np.asarray(center) + rng.normal(scale=spread, size=3))
                for _ in range(n)]

    # (a) 100 Cholesky-based fits at n = 30 without failure
    fits_ok = True
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        poses = poses_of(rng, 30, [0, 0, 0], spread=0.05)
        labels = rng.integers(0, 2, size=30)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=30)
        model = fit(poses, labels, params=params)
        probs = predict_prob_batch(model, poses[:5])
        if not np.all(np.isfinite(probs)):
            fits_ok = False

    # (b) dense reference agreement at 1e-6
    rng = np.random.default_rng(3)
    poses = poses_of(rng, 30, [0, 0, 0], spread=0.05)
    labels = rng.integers(0, 2, size=30)
    while labels.min() == labels.max():
        labels = rng.integers(0, 2, size=30)
    tests = poses_of(rng, 10, [0, 0, 0], spread=0.05)
    ours = predict_prob_batch(fit(poses, labels, params=params), tests)
    ref = ref_predict(poses, labels, params, tests)
    ref_ok = float(np.max(np.abs(ours - ref))) < 1e-6

    # (c) separable clusters ranked correctly in 100/100 trials
    sep = 0
    for k in range(100):
        rng = np.random.default_rng(2000 + k)
        pos = poses_of(rng, 8, [0.0, 0.0, 0.0])
        neg = poses_of(rng, 8, [0.3, 0.0, 0.0])
        model = fit(pos + neg, [1] * 8 + [0] * 8, params=params)
        held = [poses_of(rng, 1, [0.0, 0.0, 0.0])[0],
                poses_of(rng, 1, [0.3, 0.0, 0.0])[0]]
        p = predict_prob_batch(model, held)
        if p[0] > p[1]:
            sep += 1

    # (d) far-field predictions revert to the 0.5 prior
    far = [RigidPose(quat.IDENTITY,
                     [0.3 + 20 * params.translation_scale + 1.0, 0, 0])]
    p_far = float(predict_prob_batch(model, far)[0])
    far_ok = abs(p_far - 0.5) <= 0.02

    ok = fits_ok and ref_ok and sep == 100 and far_ok
    _verdict(4, "GP: stable fits, dense-reference match at 1e-6, separable "
             "ranking 100/100, far-field prior", ok,
             f"fits_ok={fits_ok} ref_ok={ref_ok} separable={sep}/100 "
             f"far={p_far:.3f}")


def test_criterion_5_grasp_filter_matches_linear_scan():
    rng = np.random.default_rng(4)
    cloud_pts = rng.normal(scale=0.03, size=(10000, 3))
    cloud = PointCloud(cloud_pts)
    cands = []
    for i in range(1000):
        point = rng.normal(scale=0.04, size=3)
        conf = round(float(rng.random()), 1)  # heavy confidence ties
        cands.append(GraspCandidate(RigidPose.identity(), point, 0.04, conf))
    tau = 0.01
    fast = filter_by_object_proximity(cands, cloud, tau)
    tree = cKDTree(cloud_pts)

    def brute_keep(c):
        return np.min(np.linalg.norm(cloud_pts - c.grasp_point, axis=1)) <= tau

    slow = [c for c in cands if brute_keep(c)]
    filter_ok = fast == slow

    top = top_k_by_confidence(cands, 1000)
    stable = sorted(cands, key=lambda c: -c.confidence)  # stable Python sort
    top_ok = top == stable[:1000]
    ok = filter_ok and top_ok
    _verdict(5, "grasp filtering equals the linear-scan oracle with stable "
             "top-k ties", ok,
             f"filtered {len(fast)}/1000, filter_ok={filter_ok}, "
             f"topk_ok={top_ok}")


def test_criterion_6_selected_strategy_robust(task_runs):
    details = []
    ok = True
    for task in TASKS:
        spec, result = task_runs[task]
        if result.report.status != "success":
            ok = False
            details.append(f"{task}: pipeline failed at "
                           f"{result.report.failed_stage}")
            continue
        chosen = result.selected
        evaluator = GeometricEvaluator(spec.goal)
        hits = 0
        for k in range(20):
            cfg = replace(PipelineConfig().sim, seed=1000 + k)
            outcome = settle_simulate(result.twin,
                                      StrategySample(chosen.object_pose, 0),
                                      cfg)
            if evaluator(outcome, spec.instruction):
                hits += 1
        if hits < 18:
            ok = False
        details.append(f"{task}: {hits}/20")
    _verdict(6, "selected strategy satisfies the goal in >= 90% of 20 "
             "re-simulations per task", ok, ", ".join(details))


# What each seed-0 plan chooses: (positive labels, total, selected
# sample_id, degenerate GP). A change that moves these says which and why.
# The determinism keys are not pinned: they hold floats whose last bit can
# differ between numpy builds. Each selected strategy meets its goal in the
# ground-truth twin (test_seed_0_twins_are_true_and_grounded).
PLAN_CHOICES = {"cube-into-box": (38, 45, 6, False),
                "cube-onto-cube": (45, 45, 0, True),
                "cup-on-box": (5, 45, 43, False)}


def test_seed_0_plan_choices(task_runs):
    known = []
    for task, (positive, total, sample_id, degenerate) in PLAN_CHOICES.items():
        report = task_runs[task][1].report
        assert report.status == "success", task
        data = report.data
        assert (data["labels"]["positive"], data["labels"]["total"]) \
            == (positive, total), task
        assert data["selected"]["sample_id"] == sample_id, task
        assert data["gp"]["degenerate"] is degenerate, task
        known += [rec["material_known"] for rec in data["alignment"].values()]
    assert known == [True] * 6


def _contact_gap(obj, others):
    """Height of the object above what it rests on: the ground (its lowest
    vertex) or the nearest other object (surface samples and vertices of
    either mesh to the other mesh)."""
    def points(mesh):
        return np.vstack([mesh.vertices, sample_mesh_surface(mesh, 500, 3).points])

    world = obj.mesh.transformed(obj.pose)
    gap = float(world.vertices[:, 2].min())
    for other in others:
        other_world = other.mesh.transformed(other.pose)
        gap = min(gap, float(point_mesh_distance(points(world), other_world).min()),
                  float(point_mesh_distance(points(other_world), world).min()))
    return gap


def _check_grounded(twin):
    for obj in twin.objects:
        gap = _contact_gap(obj, [o for o in twin.objects if o is not obj])
        assert abs(gap) <= 0.001, (obj.name, gap)


def test_seed_0_twins_are_true_and_grounded(task_runs):
    # every twin object is under 5 mm from the truth and rests within 1 mm
    # of its contact; the selected strategy meets the goal in the truth twin
    for task in TASKS:
        spec, result = task_runs[task]
        truth = truth_twin(spec)
        for obj in result.twin.objects:
            true = truth.by_name(obj.name)
            err = surface_distance_mm(obj.mesh, obj.pose, true.mesh, true.pose)
            assert err < 5.0, (task, obj.name, err)
        _check_grounded(result.twin)
        settled = settle_simulate(
            truth, StrategySample(result.selected.object_pose, 0))
        assert GeometricEvaluator(spec.goal)(settled), task


def _tilted_plank_scene():
    """A 10 x 5 x 2 cm plank tilted 20 degrees about y, its low edge on the
    ground and its underside on the near top edge of a 2.5 cm tall support,
    rendered, masked and given unit meshes the way synth builds a task
    scene."""
    rng = np.random.default_rng(0)
    plank = make_box([0.10, 0.05, 0.02], colors=_PALETTE[[0, 1]])
    support = make_box([0.06, 0.08, 0.025], colors=_PALETTE[[2, 3]])
    tilt = np.deg2rad(20.0)
    plank_pose = RigidPose(quat.quat_from_axis_angle([0, 1, 0], -tilt),
                           [-0.06, 0.0, 0.0])
    low = plank_pose.apply(plank.vertices)
    plank_pose = RigidPose(plank_pose.rotation,
                           [-0.06, 0.0, -float(low[:, 2].min())])
    low_edge_x = float(plank_pose.apply(plank.vertices)[:, 0].min())
    # the underside rises at tan(20 deg) from the low edge
    support_x = low_edge_x + 0.025 / np.tan(tilt) + 0.03
    support_pose = RigidPose(quat.IDENTITY, [support_x, 0.0, 0.0125])
    intrinsics = default_intrinsics()
    cam = checker_viewpoint([-0.03, 0.0, 0.04], standoff=0.5)
    view = render_scene([(plank, plank_pose), (support, support_pose)], cam,
                        intrinsics)
    objects, masks, meshes, truth = [], {}, {}, {}
    for i, (name, mesh, pose, role, material) in enumerate([
            ("plank", plank, plank_pose, "manipulated", "wood"),
            ("support", support, support_pose, "interactive", "granite")]):
        scale = float(rng.uniform(0.85, 1.2))
        objects.append(ObjectSpec(name, role, f"{name}.ply",
                                  f"mask_{name}.pgm", material))
        masks[name] = BinaryMask(view.object_ids == i)
        meshes[name] = canonical_mesh(mesh, scale)
        truth[name] = (mesh, pose)
    spec = SceneSpec(intrinsics=intrinsics, camera_pose=cam, rgb="rgb.ppm",
                     depth="depth.f32", region_mask="region.pgm",
                     objects=tuple(objects), instruction="",
                     goal=("upright", ["plank"]),
                     workspace=((-0.35, -0.35, 0.0), (0.35, 0.35, 0.4)))
    return spec, view, masks, meshes, truth


def test_tilted_plank_aligns_or_is_flagged_and_rests_on_its_contact():
    # the coarse search only tries rest poses: an object that is not at
    # rest must still be registered, or show an unconverged RANSAC, and
    # either way its grounded twin may not float or sink
    spec, view, masks, meshes, truth = _tilted_plank_scene()
    twin, info = align_scene(spec, AlignConfig(), view.rgb, view.depth,
                             masks, meshes)
    plank = twin.by_name("plank")
    # judge the registration: the grounded pose less the grounding shift
    # (grounding puts the plank down on the support's twin, so the grounded
    # pose also carries the support's error)
    registered = RigidPose(plank.pose.rotation, plank.pose.translation
                           - [0.0, 0.0, info["plank"]["ground_shift_m"]])
    mesh, pose = truth["plank"]
    aligned = symmetry_aware_success(registered, pose, mesh_diameter(mesh),
                                     symmetry_group("box:0.1,0.05,0.02"))
    assert aligned or info["plank"]["ransac_converged"] is False
    _check_grounded(twin)
    # an unknown material name is reported as such
    assert [info[n]["material_known"] for n in ("plank", "support")] == [
        True, False]


def test_criterion_7_determinism(task_runs):
    task = "cube-onto-cube"
    spec, baseline = task_runs[task]
    key0 = report_determinism_key(baseline.report.to_json())

    repeat = run_pipeline(spec, PipelineConfig())
    key1 = report_determinism_key(repeat.report.to_json())

    os.environ["TWINFORGE_THREADS"] = "4"
    try:
        threaded = run_pipeline(spec, PipelineConfig())
    finally:
        del os.environ["TWINFORGE_THREADS"]
    key2 = report_determinism_key(threaded.report.to_json())

    ok = key0 == key1 == key2
    _verdict(7, "byte-identical reports (timings excluded) across reruns and "
             "4-worker execution", ok,
             f"repeat={'==' if key0 == key1 else '!='} "
             f"threaded={'==' if key0 == key2 else '!='}")


def test_label_samples_thread_determinism_cup_on_box(task_runs, monkeypatch):
    # four workers share one settle context and race to fill its memo of
    # manipulated cast indexes, switching threads often; no outcome may
    # depend on that race
    spec, result = task_runs["cup-on-box"]
    samples = sorted(result.ranking.ranked, key=lambda s: s.sample_id)
    evaluator = GeometricEvaluator(spec.goal)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for threads in ("1", "4"):
            monkeypatch.setenv("TWINFORGE_THREADS", threads)
            simulator = SettleSimulator(result.twin, PipelineConfig().sim)
            runs.append(label_samples(result.twin, samples, simulator,
                                      evaluator))
    finally:
        sys.setswitchinterval(interval)
    assert len(runs[0]) == len(runs[1]) == 45
    for a, b in zip(*runs):
        assert (a.sample_id, a.weak_label, a.failure_reason) \
            == (b.sample_id, b.weak_label, b.failure_reason)
        assert (a.outcome.stable, a.outcome.penetration, a.outcome.topple_steps) \
            == (b.outcome.stable, b.outcome.penetration, b.outcome.topple_steps)
        assert np.array_equal(a.outcome.contacts, b.outcome.contacts)
        for name, pose in a.outcome.settled_poses.items():
            other = b.outcome.settled_poses[name]
            assert np.array_equal(pose.rotation, other.rotation)
            assert np.array_equal(pose.translation, other.translation)


def test_criterion_8_simulation_invariants():
    from twinforge.simulate import SceneObject, SceneTwin
    cfg = SimConfig(surface_samples=800)
    specs = ("box:0.06,0.05,0.04", "cylinder:0.03,0.08",
             "cup:0.035,0.09,0.005", "ramp:0.1,0.08,0.05")
    rng = np.random.default_rng(5)
    pen_ok = com_ok = shift_ok = True
    max_pen = 0.0
    for k in range(100):
        mesh = primitive_from_spec(specs[k % 4])
        q = quat.quat_normalize(quat.quat_multiply(
            quat.quat_from_axis_angle([0, 0, 1], rng.uniform(0, 2 * np.pi)),
            quat.quat_from_axis_angle([1, 0, 0],
                                      rng.choice([0.0, np.pi / 2, np.pi]))))
        start = RigidPose(q, [rng.uniform(-0.02, 0.02),
                              rng.uniform(-0.02, 0.02), 0.15])
        objects = [SceneObject("obj", mesh, start, role="manipulated")]
        if k % 2 == 1:
            objects.append(SceneObject(
                "base", make_box([0.1, 0.1, 0.04]),
                RigidPose(quat.IDENTITY, [0.0, 0.0, 0.02]), role="static"))
        twin = SceneTwin(tuple(objects))
        ctx = _SettleContext(twin, cfg)
        out = settle_simulate(twin, StrategySample(start, 0), cfg, _ctx=ctx)
        settled = out.settled_poses["obj"]

        pen = ctx.penetration_depth(settled)
        max_pen = max(max_pen, pen)
        if pen > 0.001:
            pen_ok = False
        if ctx.com_world(settled)[2] > ctx.com_world(start)[2] + 1e-9:
            com_ok = False

        # horizontal translation equivariance
        shift = np.array([0.05, -0.04, 0.0])
        moved = [SceneObject(o.name, o.mesh,
                             RigidPose(o.pose.rotation,
                                       o.pose.translation + shift),
                             o.material, o.role) for o in objects]
        twin2 = SceneTwin(tuple(moved))
        start2 = RigidPose(start.rotation, start.translation + shift)
        out2 = settle_simulate(twin2, StrategySample(start2, 0), cfg)
        t1 = out.settled_poses["obj"].translation
        t2 = out2.settled_poses["obj"].translation
        if (np.max(np.abs(t2 - (t1 + shift))) > 1e-6
                or not np.allclose(out2.settled_poses["obj"].rotation,
                                   out.settled_poses["obj"].rotation,
                                   atol=1e-9)):
            shift_ok = False
    ok = pen_ok and com_ok and shift_ok
    _verdict(8, "post-settle penetration <= 1 mm, COM never rises, "
             "horizontal translation equivariance at 1e-6 (100 scenes)", ok,
             f"max penetration {max_pen * 1000:.2f} mm, com_ok={com_ok}, "
             f"shift_ok={shift_ok}")
