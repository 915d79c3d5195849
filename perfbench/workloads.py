"""Workloads of the twinforge planner benchmark.

Every workload is a closed loop with one caller. It runs in cycles: a cycle
is a fixed list of operations, and every cycle after the first repeats the
first one exactly, which is how the run checks determinism.

- ``plan-cup-on-box`` / ``plan-cube-into-box``: one ``run_pipeline`` call
  per operation on a reference scene. The scene is the synthetic scene at
  seed 0 for every run, because plan time varies about 3x between generated
  scenes (5.3-15.6 s over cup-on-box seeds 0-4) and a run has time for only
  two plans. The workload seed is the pipeline's own seed.
- ``align-trials``: one observation aligned by the two-stage arm and then
  the direct arm per operation. Observations are drawn from the workload
  seed, three per ``BENCHMARK_PRIMITIVES`` class, and aligned with the
  configuration ``bench-align`` uses.

Inputs are generated in ``setup``. Ground truth and alignment quality are
computed in ``summarize``, after the timed loop.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np

from twinforge import pipeline, register, simulate
from twinforge.benchmark import (BENCHMARK_PRIMITIVES, symmetry_aware_success,
                                 symmetry_group)
from twinforge.errors import StageFailureError
from twinforge.geometry import TriangleMesh, sample_mesh_surface
from twinforge.fileio import load_mesh
from twinforge.materials import material_lookup
from twinforge.scene import load_scene_spec, pose_from_json, report_determinism_key
from twinforge.solids import point_mesh_distance
from twinforge.strategy import StrategySample
from twinforge.synth import generate_synthetic_scene, synthetic_observation

SCENE_SEED = 0
CLASSES = tuple(p.partition(":")[0] for p in BENCHMARK_PRIMITIVES)


ARMS = ("two_stage", "direct")


class CheckFailed(Exception):
    """An output or ground-truth check failed."""


def blank_summary():
    """Every quality figure at 0; each workload fills in the ones it has."""
    quality = dict.fromkeys(
        ("plan_ok_rate", "plan_goal_rate", "twin_err_mm")
        + tuple(f"align_success_{arm}" for arm in ARMS)
        + tuple(f"align_{arm}_s" for arm in ARMS), 0.0)
    return {"failed": 0, "quality": quality,
            "per_class": {f"register.success_{arm}.{c}": 0.0
                          for arm in ARMS for c in CLASSES},
            "timings": dict.fromkeys(("coarse-align", "simulation", "select"),
                                     0.0),
            "two_stage_times": []}


def surface_distance_mm(mesh_a, pose_a, mesh_b, pose_b, n=500):
    """Symmetric mean surface distance between two posed meshes, in mm."""
    wa, wb = mesh_a.transformed(pose_a), mesh_b.transformed(pose_b)
    pa = sample_mesh_surface(wa, n, 11).points
    pb = sample_mesh_surface(wb, n, 12).points
    return 500.0 * float(point_mesh_distance(pa, wb).mean()
                         + point_mesh_distance(pb, wa).mean())


def truth_twin(spec):
    """Ground-truth twin from ground_truth.json and the scene's unit meshes.

    Primitives are built with their bounding box centred at the origin, so
    the true local mesh is the unit mesh times the true scale.
    """
    with open(spec.path("ground_truth.json")) as f:
        truth = json.load(f)["objects"]
    objects = []
    for obj in spec.objects:
        unit = load_mesh(spec.path(obj.mesh))
        mesh = TriangleMesh(unit.vertices * truth[obj.name]["scale"],
                            unit.triangles, unit.vertex_colors,
                            unit.face_labels)
        pose = pose_from_json(truth[obj.name]["pose"])
        lowest = float(pose.apply(mesh.vertices)[:, 2].min())
        if abs(lowest) > 1e-6:
            raise CheckFailed(f"truth {obj.name} rests at z={lowest:.3g}, not 0")
        objects.append(simulate.SceneObject(
            obj.name, mesh, pose, material_lookup(obj.material)[0], obj.role))
    return simulate.SceneTwin(tuple(objects))


class PlanWorkload:
    """run_pipeline on one reference scene; one plan per cycle."""

    def __init__(self, task, sampler=None):
        self.task = task
        self.sampler = sampler or {}
        self.config = pipeline.PipelineConfig()

    def setup(self, seed, tmp):
        spec = load_scene_spec(generate_synthetic_scene(
            self.task, os.path.join(tmp, "scene"), seed=SCENE_SEED))
        self.spec = replace(spec, sampler={**spec.sampler, **self.sampler})
        self.truth = truth_twin(self.spec)
        self.seed = seed
        # warm-up: direct-arm alignment of both objects, and the true
        # resting pose of the manipulated object, which must stay put
        pipeline.align_scene(self.spec, replace(self.config.align,
                                                skip_coarse=True))
        rest = simulate.settle_simulate(
            self.truth, StrategySample(self.truth.manipulated.pose, 0),
            self.config.sim)
        if rest.penetration or not rest.stable or rest.topple_steps:
            raise CheckFailed("truth resting pose does not settle in place")

    def cycle(self):
        t0 = time.perf_counter()
        result = pipeline.run_pipeline(self.spec, self.config, seed=self.seed)
        dt = time.perf_counter() - t0
        # keep only what the checks read, so memory does not grow with the
        # number of plans a run makes
        report = result.report
        return [(dt, {
            "key": report_determinism_key(report.to_json()),
            "ok": report.status == "success",
            "timings": dict(report.timings),
            "labels": report.data.get("labels"),
            "twin": result.twin,
            "selected": result.selected and result.selected.object_pose,
        })]

    def summarize(self, cycles):
        plans = [p for ops in cycles for _, p in ops]
        if len({p["key"] for p in plans}) != 1:
            raise CheckFailed("repeated plans differ in report_determinism_key")
        first = plans[0]
        goal = 0.0
        twin_err = [surface_distance_mm(o.mesh, o.pose,
                                        self.truth.by_name(o.name).mesh,
                                        self.truth.by_name(o.name).pose)
                    for o in (first["twin"].objects if first["twin"] else ())]
        if first["ok"]:
            settled = simulate.settle_simulate(
                self.truth, StrategySample(first["selected"], 0),
                self.config.sim)
            goal = float(simulate.GeometricEvaluator(self.spec.goal)(settled))
        out = blank_summary()
        for k in out["timings"]:
            out["timings"][k] = float(np.mean([p["timings"].get(k, 0.0)
                                               for p in plans]))
        ok = [p["ok"] for p in plans]
        out["quality"].update(
            plan_ok_rate=float(np.mean(ok)), plan_goal_rate=goal,
            twin_err_mm=float(np.mean(twin_err)) if twin_err else 0.0)
        out.update(failed=ok.count(False), key=first["key"],
                   labels=first["labels"])
        return out


class AlignWorkload:
    """Two-stage and direct alignment of seeded single-object observations."""

    per_class = 3

    def __init__(self):
        config = register.AlignConfig(rotation_count=384)
        self.configs = {"two_stage": config,
                        "direct": replace(config, skip_coarse=True)}

    def setup(self, seed, tmp):
        n = self.per_class * len(BENCHMARK_PRIMITIVES)
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)
        self.trials = []
        for k, obs_seed in enumerate(seeds):
            prim = BENCHMARK_PRIMITIVES[k % len(BENCHMARK_PRIMITIVES)]
            self.trials.append(
                (prim, synthetic_observation(prim, seed=int(obs_seed))))
        self._align(self.trials[0][1], "direct")  # warm-up

    def _align(self, obs, arm):
        """(rmse, final pose, scaled mesh), or None when a stage fails."""
        try:
            res = register.two_stage_align(obs.unit_mesh, obs.color,
                                           obs.depth, obs.mask, obs.intrinsics,
                                           self.configs[arm])
        except StageFailureError:
            return None
        return res.registration.rmse, res.final_pose, res.scaled_mesh

    def cycle(self):
        ops = []
        for _, obs in self.trials:
            arms = {}
            t0 = time.perf_counter()
            for arm in ARMS:
                t = time.perf_counter()
                res = self._align(obs, arm)
                arms[arm] = (time.perf_counter() - t, res)
            ops.append((time.perf_counter() - t0, arms))
        return ops

    @staticmethod
    def _outcome(res):
        if res is None:
            return None
        rmse, pose, _ = res
        return rmse, tuple(pose.rotation), tuple(pose.translation)

    @staticmethod
    def _judge(prim, obs, res):
        """Success and errors as twinforge.benchmark.run_trial scores them."""
        if res is None:
            return False, None
        rmse, est, scaled_mesh = res
        truth = obs.true_pose_cam
        ok = (symmetry_aware_success(est, truth, obs.diameter,
                                     symmetry_group(prim))
              and rmse < 0.01)
        true_mesh = TriangleMesh(obs.unit_mesh.vertices * obs.true_scale,
                                 obs.unit_mesh.triangles)
        return bool(ok), surface_distance_mm(scaled_mesh, est,
                                             true_mesh, truth)

    def summarize(self, cycles):
        first = cycles[0]
        for ops in cycles[1:]:
            for (_, a), (_, b) in zip(first, ops):
                for arm in ARMS:
                    if self._outcome(a[arm][1]) != self._outcome(b[arm][1]):
                        raise CheckFailed("repeated align trials differ")
        out = blank_summary()
        quality, per_class = out["quality"], out["per_class"]
        twin_err = []
        for arm in ARMS:
            wins = {c: [] for c in CLASSES}
            for (prim, obs), (_, arms) in zip(self.trials, first):
                ok, err = self._judge(prim, obs, arms[arm][1])
                wins[prim.partition(":")[0]].append(ok)
                if arm == "two_stage" and err is not None:
                    twin_err.append(err)
            quality[f"align_success_{arm}"] = float(np.mean(sum(wins.values(), [])))
            for c in CLASSES:
                per_class[f"register.success_{arm}.{c}"] = float(np.mean(wins[c]))
            quality[f"align_{arm}_s"] = float(np.median(
                [arms[arm][0] for ops in cycles for _, arms in ops]))
        quality["twin_err_mm"] = float(np.mean(twin_err)) if twin_err else 0.0
        out["failed"] = sum(1 for ops in cycles for _, arms in ops
                            if any(arms[a][1] is None for a in ARMS))
        out["two_stage_times"] = [arms["two_stage"][0]
                                  for ops in cycles for _, arms in ops]
        return out


WORKLOADS = {
    "plan-cup-on-box": lambda: PlanWorkload("cup-on-box"),
    # one yaw and one offset per rest orientation (6 strategies instead of
    # 45), so two plans fit in a run; each strategy is the same
    # simulation-bound settle of the cube inside the open box
    "plan-cube-into-box": lambda: PlanWorkload(
        "cube-into-box", {"n_rotations": 1, "n_offsets": 1}),
    "align-trials": AlignWorkload,
}
