"""Benchmarks: two-stage vs direct alignment of single objects, and whole
plans over generated scenes.

The alignment benchmark runs on synthetic single-view observations of
primitive shapes. Each trial renders one primitive at a random resting
pose, then recovers the camera-frame pose from the masked RGB-D observation
twice: once with the full two-stage pipeline (coarse appearance search
seeding RANSAC + ICP) and once with the direct arm (identity-orientation initialization, same
RANSAC + ICP). Success is symmetry-aware: the pose error is minimized over
the shape's rotational symmetry group before thresholding, because the
geometric stages cannot (and need not) distinguish symmetric orientations.

The plan benchmark plans ten scene seeds of every synthetic task and scores
each plan against the scene's ground truth: the error of every twin object
(symmetric mean surface distance to the true posed mesh) and whether the
selected strategy, settled in the ground-truth twin, meets the goal.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from . import quaternions as quat
from .errors import RejectedInput, StageFailureError
from .fileio import load_mesh
from .geometry import sample_mesh_surface
from .materials import material_lookup
from .pipeline import PipelineConfig, run_pipeline
from .register import AlignConfig, alignment_success, two_stage_align
from .scene import load_scene_spec, pose_from_json
from .simulate import (GeometricEvaluator, SceneObject, SceneTwin,
                       settle_simulate)
from .solids import point_mesh_distance
from .strategy import StrategySample
from .synth import TASKS, generate_synthetic_scene, synthetic_observation

BENCHMARK_PRIMITIVES = (
    "box:0.07,0.05,0.04",
    "cylinder:0.03,0.1",
    "cup:0.035,0.09,0.005",
    "open_box:0.12,0.1,0.06,0.012",
)


def symmetry_group(primitive_spec: str):
    """Local-frame rotations that leave the shape's geometry unchanged.

    Boxes with distinct extents have the D2 group (pi flips about each
    axis); cylinders add continuous rotation about z plus an end-over-end
    flip; cups keep only the continuous z rotation (the open top breaks the
    flip); ramps are asymmetric. Continuous symmetries are discretized on a
    fine yaw grid, which is far below the success threshold spacing.
    """
    name, _, rest = primitive_spec.partition(":")
    args = [float(x) for x in rest.split(",")] if rest else []
    ident = (quat.IDENTITY.copy(),)
    flips = tuple(quat.quat_from_axis_angle(axis, np.pi)
                  for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    yaws = tuple(quat.quat_from_axis_angle((0, 0, 1), a)
                 for a in np.linspace(0, 2 * np.pi, 180, endpoint=False))
    if name == "box":
        return ident + flips
    if name == "cylinder":
        flip = quat.quat_from_axis_angle((1, 0, 0), np.pi)
        return yaws + tuple(quat.quat_multiply(y, flip) for y in yaws)
    if name == "cup":
        return yaws
    if name == "open_box":
        square = len(args) >= 2 and abs(args[0] - args[1]) < 1e-12
        steps = (0.5 * np.pi, np.pi, 1.5 * np.pi) if square else (np.pi,)
        return ident + tuple(quat.quat_from_axis_angle((0, 0, 1), a)
                             for a in steps)
    return ident


def symmetry_aware_success(estimated, truth, diameter, group) -> bool:
    """alignment_success minimized over the local symmetry group."""
    for s in group:
        adjusted = replace(
            truth, rotation=quat.quat_normalize(quat.quat_multiply(truth.rotation, s)))
        if alignment_success(estimated, adjusted, diameter):
            return True
    return False


@dataclass(frozen=True)
class TrialResult:
    primitive: str
    seed: int
    arm: str          # "two-stage" | "direct"
    success: bool
    rmse: float


@dataclass(frozen=True)
class BenchmarkRow:
    primitive: str
    trials: int
    two_stage_rate: float
    two_stage_rmse: float   # mean over successful trials (nan if none)
    direct_rate: float
    direct_rmse: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple
    trials_per_class: int
    two_stage_rate: float
    direct_rate: float
    elapsed_s: float

    @property
    def margin(self) -> float:
        """Aggregate two-stage minus direct success rate."""
        return self.two_stage_rate - self.direct_rate


def run_trial(primitive_spec: str, seed: int, arm: str,
              config: AlignConfig) -> TrialResult:
    obs = synthetic_observation(primitive_spec, seed=seed)
    cfg = replace(config, skip_coarse=(arm == "direct"))
    try:
        res = two_stage_align(obs.unit_mesh, obs.color, obs.depth, obs.mask,
                              obs.intrinsics, cfg, obs.camera_pose)
    except StageFailureError:
        return TrialResult(primitive_spec, seed, arm, False, np.inf)
    ok = (symmetry_aware_success(res.final_pose, obs.true_pose_cam,
                                 obs.diameter, symmetry_group(primitive_spec))
          and res.registration.rmse < 0.01)
    return TrialResult(primitive_spec, seed, arm, bool(ok),
                       float(res.registration.rmse))


def alignment_benchmark(trials: int = 40, seed0: int = 0,
                        config: AlignConfig | None = None,
                        primitives=BENCHMARK_PRIMITIVES) -> BenchmarkReport:
    """Run both arms over every primitive class; seeds are shared across
    arms so each comparison sees the identical observation."""
    config = config or AlignConfig()
    t0 = time.perf_counter()
    rows = []
    agg = {"two-stage": [], "direct": []}
    for prim in primitives:
        per = {"two-stage": [], "direct": []}
        for k in range(trials):
            for arm in ("two-stage", "direct"):
                tr = run_trial(prim, seed0 + k, arm, config)
                per[arm].append(tr)
                agg[arm].append(tr.success)
        def rate(arm):
            return float(np.mean([t.success for t in per[arm]]))
        def mean_rmse(arm):
            vals = [t.rmse for t in per[arm] if t.success]
            return float(np.mean(vals)) if vals else float("nan")
        rows.append(BenchmarkRow(prim, trials, rate("two-stage"),
                                 mean_rmse("two-stage"), rate("direct"),
                                 mean_rmse("direct")))
    return BenchmarkReport(tuple(rows), trials,
                           float(np.mean(agg["two-stage"])),
                           float(np.mean(agg["direct"])),
                           time.perf_counter() - t0)


def write_benchmark_csv(path: str, report: BenchmarkReport) -> None:
    """One row per object x arm (Table-I layout): object, valid samples,
    success rate, mean successful RMSE."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["object", "arm", "valid_samples", "success_rate",
                    "mean_success_rmse"])
        for r in report.rows:
            w.writerow([r.primitive, "two-stage", r.trials,
                        f"{r.two_stage_rate:.3f}", f"{r.two_stage_rmse:.5f}"])
            w.writerow([r.primitive, "direct", r.trials,
                        f"{r.direct_rate:.3f}", f"{r.direct_rmse:.5f}"])


# ---------------------------------------------------------------------------
# Plans over scene seeds

PLAN_SEEDS = 10          # scene seeds per task
GOOD_TWIN_MM = 5.0       # a twin object this close to the truth is good


def surface_distance_mm(mesh_a, pose_a, mesh_b, pose_b, n=500) -> float:
    """Symmetric mean surface distance between two posed meshes, in mm."""
    wa, wb = mesh_a.transformed(pose_a), mesh_b.transformed(pose_b)
    pa = sample_mesh_surface(wa, n, 11).points
    pb = sample_mesh_surface(wb, n, 12).points
    return 500.0 * float(point_mesh_distance(pa, wb).mean()
                         + point_mesh_distance(pb, wa).mean())


def truth_twin(spec) -> SceneTwin:
    """Ground-truth twin from a generated scene's ground_truth.json and its
    unit meshes.

    Primitives are built with their bounding box centred at the origin, so
    the true local mesh is the unit mesh times the true scale. Every true
    object rests on the ground.
    """
    with open(spec.path("ground_truth.json")) as f:
        truth = json.load(f)["objects"]
    objects = []
    for obj in spec.objects:
        mesh = load_mesh(spec.path(obj.mesh)).scaled(truth[obj.name]["scale"])
        pose = pose_from_json(truth[obj.name]["pose"])
        lowest = float(pose.apply(mesh.vertices)[:, 2].min())
        if abs(lowest) > 1e-6:
            raise RejectedInput(f"truth {obj.name} rests at z={lowest:.3g}, not 0")
        objects.append(SceneObject(obj.name, mesh, pose,
                                   material_lookup(obj.material)[0], obj.role))
    return SceneTwin(tuple(objects))


@dataclass(frozen=True)
class PlanRow:
    task: str
    seed: int
    status: str
    failed_stage: str | None
    goal_met: bool          # selected strategy settled in the truth twin
    twin_err_mm: dict       # object name -> surface distance to the truth
    positive: int           # positive labels (0 when labelling never ran)
    plan_s: float

    @property
    def twin_good(self) -> bool:
        return bool(self.twin_err_mm) and \
            max(self.twin_err_mm.values()) < GOOD_TWIN_MM


def plan_trial(task: str, spec, config: PipelineConfig | None = None) -> PlanRow:
    """Plan one generated scene of the task and score the plan against its
    truth."""
    config = config or PipelineConfig()
    t0 = time.perf_counter()
    result = run_pipeline(spec, config)
    plan_s = time.perf_counter() - t0
    report = result.report
    truth = truth_twin(spec)
    errors = {o.name: surface_distance_mm(o.mesh, o.pose,
                                          truth.by_name(o.name).mesh,
                                          truth.by_name(o.name).pose)
              for o in (result.twin.objects if result.twin else ())}
    goal = False
    if result.selected is not None:
        settled = settle_simulate(
            truth, StrategySample(result.selected.object_pose, 0), config.sim)
        goal = bool(GeometricEvaluator(spec.goal)(settled))
    return PlanRow(task, spec.seed, report.status, report.failed_stage, goal,
                   errors, report.data.get("labels", {}).get("positive", 0),
                   plan_s)


def plan_benchmark(seed0: int = 0,
                   config: PipelineConfig | None = None) -> list:
    """plan_trial on scene seeds seed0 .. seed0 + PLAN_SEEDS - 1 of every
    task, generated in a temporary directory."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for task in TASKS:
            for seed in range(seed0, seed0 + PLAN_SEEDS):
                out = os.path.join(tmp, f"{task}_{seed}")
                spec = load_scene_spec(
                    generate_synthetic_scene(task, out, seed=seed))
                rows.append(plan_trial(task, spec, config))
    return rows


def write_plan_csv(path: str, rows) -> None:
    """One row per plan; twin errors as name=mm pairs joined by ';'."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["task", "seed", "status", "failed_stage", "goal_met",
                    "twin_err_mm", "worst_err_mm", "positive_labels",
                    "plan_s"])
        for r in rows:
            errs = ";".join(f"{k}={v:.2f}" for k, v in r.twin_err_mm.items())
            worst = max(r.twin_err_mm.values(), default=float("nan"))
            w.writerow([r.task, r.seed, r.status, r.failed_stage or "",
                        int(r.goal_met), errs, f"{worst:.2f}", r.positive,
                        f"{r.plan_s:.2f}"])
