"""End-to-end run: observation -> digital twin -> ranked strategy.

The twin is built by ``coarse-align`` (rest-pose search and scale) and
``fine-register`` (RANSAC, ICP, grounding). Stages execute in a fixed
order; the first StageFailureError short-circuits the run into a failure
report naming the stage and reason. All numeric results are deterministic
for a fixed scene spec and seed, independent of the worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import gpclassify
from .errors import NoFeasibleGrasp, RejectedInput, StageFailureError
from .fileio import (load_color_ppm, load_depth_pgm, load_depth_raw,
                     load_mask_pgm, load_mesh)
from .geometry import Aabb
from .grasp import (filter_by_object_proximity, load_grasp_candidates,
                    synthetic_grasp_provider, top_k_by_confidence)
from .materials import material_lookup
from .quaternions import quat_to_matrix
from .register import (MIN_MASK_PIXELS, AlignConfig, coarse_align,
                       fine_register)
from .scene import RunReport, SceneSpec, pose_to_json
from .simulate import (GeometricEvaluator, SceneObject, SceneTwin, SettleSimulator,
                       SimConfig, ground_objects, label_samples, render_outcome)
from .strategy import (DEFAULT_OFFSET_RADIUS, builtin_reachability,
                       interaction_region, sample_strategies)

STAGES = ("segmentation-load", "grasp", "coarse-align", "fine-register",
          "region", "sampling", "simulation", "result-check", "gp-rank",
          "select")


@dataclass
class PipelineConfig:
    """What a run may set. Every other value is a module constant or the
    default of the layer function that uses it."""
    align: AlignConfig = field(default_factory=AlignConfig)
    sim: SimConfig = field(default_factory=SimConfig)


@dataclass
class PipelineResult:
    report: RunReport
    twin: SceneTwin | None = None
    selected: object = None
    ranking: object = None
    outcome: object = None


def grasp_with_retry(provider, checker, max_attempts: int = 3):
    """Ask the provider for candidates up to max_attempts times, returning
    the first best candidate that passes the feasibility checker."""
    if max_attempts < 1:
        raise RejectedInput("max_attempts must be >= 1")
    last = None
    for attempt in range(max_attempts):
        candidates = provider(attempt)
        for cand in sorted(candidates, key=lambda c: -c.confidence):
            if checker(cand):
                return cand
        last = len(candidates)
    raise NoFeasibleGrasp(
        f"no feasible grasp after {max_attempts} attempts "
        f"(last batch had {last} candidates)")


def _load_depth(path):
    if path.endswith(".pgm"):
        return load_depth_pgm(path)
    return load_depth_raw(path)


def _coarse_objects(spec: SceneSpec, align_config: AlignConfig, color, depth,
                    masks, meshes) -> dict:
    """The coarse step (hypothesis search and scale) of every object."""
    return {obj.name: coarse_align(meshes[obj.name], color, depth,
                                   masks[obj.name], spec.intrinsics,
                                   align_config, spec.camera_pose)
            for obj in spec.objects}


def _register_objects(spec: SceneSpec, meshes, coarse: dict):
    """The fine step (RANSAC and ICP) of every object, into the world frame,
    then grounding. Returns (SceneTwin, per-object info dict)."""
    fits = [fine_register(meshes[obj.name], *coarse[obj.name])
            for obj in spec.objects]
    grounded, shifts = ground_objects([
        SceneObject(obj.name, fit.scaled_mesh,
                    spec.camera_pose.compose(fit.final_pose),
                    material_lookup(obj.material)[0], obj.role)
        for obj, fit in zip(spec.objects, fits)])
    info = {}
    for obj, twin_obj, fit, shift in zip(spec.objects, grounded, fits, shifts):
        info[obj.name] = {
            "pose_world": pose_to_json(twin_obj.pose),
            "rmse": fit.registration.rmse,
            "converged": bool(fit.registration.converged),
            "ransac_inlier_fraction": fit.ransac.inlier_fraction,
            "ransac_converged": bool(fit.ransac.converged),
            "ground_shift_m": shift,
            "scale": fit.scale,
            "coarse_similarity": fit.coarse.similarity,
            "material_known": material_lookup(obj.material)[1],
        }
    return SceneTwin(grounded), info


def align_scene(spec: SceneSpec, align_config: AlignConfig,
                color=None, depth=None, masks=None, meshes=None):
    """Two-stage alignment of every scene object into a grounded world-frame
    twin: the coarse step of every object, then the fine step and grounding.

    Returns (SceneTwin, per-object info dict). Assets are loaded from the
    spec unless the caller passes them in.
    """
    color = color if color is not None else load_color_ppm(spec.path(spec.rgb))
    depth = depth if depth is not None else _load_depth(spec.path(spec.depth))
    masks = masks if masks is not None else {
        obj.name: load_mask_pgm(spec.path(obj.mask)) for obj in spec.objects}
    meshes = meshes if meshes is not None else {
        obj.name: load_mesh(spec.path(obj.mesh)) for obj in spec.objects}
    return _register_objects(spec, meshes, _coarse_objects(
        spec, align_config, color, depth, masks, meshes))


def run_pipeline(spec: SceneSpec, config: PipelineConfig | None = None,
                 seed: int | None = None) -> PipelineResult:
    """Execute the full pipeline over one scene spec."""
    config = config or PipelineConfig()
    seed = spec.seed if seed is None else int(seed)
    report = RunReport(seed=seed)
    result = PipelineResult(report)
    state = {}

    def run_stage(name, fn):
        t0 = time.perf_counter()
        try:
            fn()
        except StageFailureError as exc:
            report.status = "failure"
            report.failed_stage = exc.stage or name
            report.failure_reason = exc.reason
            return False
        except (NoFeasibleGrasp, RejectedInput) as exc:
            report.status = "failure"
            report.failed_stage = name
            report.failure_reason = str(exc)
            return False
        finally:
            report.stages.append(name)
            report.timings[name] = time.perf_counter() - t0
        return True

    # -- segmentation-load ---------------------------------------------------
    def seg_load():
        state["color"] = load_color_ppm(spec.path(spec.rgb))
        state["depth"] = _load_depth(spec.path(spec.depth))
        state["masks"] = {}
        state["meshes"] = {}
        from .camera import backproject
        for obj in spec.objects:
            mask = load_mask_pgm(spec.path(obj.mask))
            valid = int((mask.values & state["depth"].valid_mask()).sum())
            if valid == 0:
                raise StageFailureError("segmentation-load",
                                        f"empty-mask:{obj.name}")
            if valid < MIN_MASK_PIXELS:
                raise StageFailureError("segmentation-load",
                                        f"segmentation-too-small:{obj.name}")
            state["masks"][obj.name] = mask
            state["meshes"][obj.name] = load_mesh(spec.path(obj.mesh))
        manip = spec.manipulated
        state["observed"] = backproject(state["depth"], spec.intrinsics,
                                        state["masks"][manip.name])
        report.data["segmentation"] = {
            o.name: state["masks"][o.name].count() for o in spec.objects}

    # -- grasp ---------------------------------------------------------------
    def grasp_stage():
        cloud = state["observed"]

        def provider(attempt):
            if spec.grasps and attempt == 0:
                cands = load_grasp_candidates(spec.path(spec.grasps))
            else:
                cands = synthetic_grasp_provider(cloud, seed=seed + attempt)
            return filter_by_object_proximity(top_k_by_confidence(cands),
                                              cloud)

        def checker(cand):
            lo, hi = spec.workspace
            p_world = spec.camera_pose.apply(cand.grasp_point)
            return bool(np.all(p_world >= np.asarray(lo))
                        and np.all(p_world <= np.asarray(hi)))

        chosen = grasp_with_retry(provider, checker)
        state["grasp"] = chosen
        report.data["grasp"] = {
            "pose": pose_to_json(chosen.pose),
            "width": chosen.width,
            "confidence": chosen.confidence,
        }

    # -- coarse-align / fine-register ----------------------------------------
    def coarse_stage():
        state["coarse"] = _coarse_objects(spec, config.align, state["color"],
                                          state["depth"], state["masks"],
                                          state["meshes"])

    def fine_stage():
        result.twin, report.data["alignment"] = _register_objects(
            spec, state["meshes"], state["coarse"])

    # -- region --------------------------------------------------------------
    def region_stage():
        mask = load_mask_pgm(spec.path(spec.region_mask))
        region = interaction_region(mask, state["depth"], spec.intrinsics,
                                    spec.camera_pose)
        state["region"] = region
        report.data["region"] = {
            "points": len(region.cloud),
            "centroid": [float(x) for x in region.centroid],
        }

    # -- sampling ------------------------------------------------------------
    def sampling_stage():
        s = spec.sampler
        verts = result.twin.manipulated.mesh.vertices
        ws = Aabb(np.asarray(spec.workspace[0], dtype=float),
                  np.asarray(spec.workspace[1], dtype=float))

        # aligned twin geometry can sit higher than the observed region
        # (scale estimation error), so release samples above whichever is
        # taller: the observed region or the twin support under it
        region = state["region"]
        base_z = float(region.centroid[2])
        for obj in result.twin.objects:
            if obj.role == "manipulated":
                continue
            w = obj.pose.apply(obj.mesh.vertices)
            lo, hi = w.min(axis=0), w.max(axis=0)
            near = (lo[0] - 0.02 <= region.centroid[0] <= hi[0] + 0.02
                    and lo[1] - 0.02 <= region.centroid[1] <= hi[1] + 0.02)
            if near:
                base_z = max(base_z, float(hi[2]))
        extra = base_z - float(region.centroid[2])

        def lift(q):
            return extra - float((verts @ quat_to_matrix(q).T)[:, 2].min())

        samples = sample_strategies(
            state["region"],
            n_rotations=int(s.get("n_rotations", 4)),
            n_offsets=int(s.get("n_offsets", 5)),
            offset_radius=float(s.get("offset_radius", DEFAULT_OFFSET_RADIUS)),
            reach=lambda p: builtin_reachability(p, ws),
            vertical_offset=lift)
        if not samples:
            raise StageFailureError("sampling", "no-reachable-samples")
        state["samples"] = samples
        report.data["sampling"] = {"count": len(samples)}

    # -- simulation + result-check -------------------------------------------
    def simulation_stage():
        simulator = SettleSimulator(result.twin, config.sim)
        evaluator = GeometricEvaluator(spec.goal)
        labeled = label_samples(result.twin, state["samples"], simulator,
                                evaluator, spec.instruction)
        state["labeled"] = labeled

    def result_check_stage():
        labeled = state["labeled"]
        pos = sum(1 for s in labeled if s.weak_label)
        reasons = {}
        for s in labeled:
            if s.failure_reason:
                reasons[s.failure_reason] = reasons.get(s.failure_reason, 0) + 1
        report.data["labels"] = {"total": len(labeled), "positive": pos,
                                 "failure_reasons": reasons}

    # -- gp-rank + select ----------------------------------------------------
    def gp_rank_stage():
        model = gpclassify.fit(state["labeled"])
        ranking = gpclassify.rank_and_select(model, state["labeled"])
        result.ranking = ranking
        state["model"] = model
        report.data["gp"] = {
            "degenerate": model.degenerate,
            "newton_iterations": model.newton_iterations,
        }

    def select_stage():
        ranking = result.ranking
        if not ranking.priority:
            raise StageFailureError("select", "no-positive-strategy")
        chosen = ranking.priority[0]
        result.selected = chosen
        result.outcome = chosen.outcome
        report.data["selected"] = {
            "sample_id": chosen.sample_id,
            "pose_world": pose_to_json(chosen.object_pose),
            "success_prob": float(chosen.success_prob),
            "weak_label": bool(chosen.weak_label),
        }

    plan = [("segmentation-load", seg_load), ("grasp", grasp_stage),
            ("coarse-align", coarse_stage), ("fine-register", fine_stage),
            ("region", region_stage), ("sampling", sampling_stage),
            ("simulation", simulation_stage),
            ("result-check", result_check_stage),
            ("gp-rank", gp_rank_stage), ("select", select_stage)]
    for name, fn in plan:
        if not run_stage(name, fn):
            break
    return result


def run_and_write(spec: SceneSpec, out_dir: str,
                  config: PipelineConfig | None = None,
                  seed: int | None = None) -> PipelineResult:
    """run_pipeline plus artifact dump: report.json and, after a successful
    plan, the selected outcome's render (outcome_rgb.ppm, outcome_depth.pgm)."""
    os.makedirs(out_dir, exist_ok=True)
    result = run_pipeline(spec, config, seed)
    result.report.dump(os.path.join(out_dir, "report.json"))
    if result.outcome is not None:
        render_outcome(result.outcome).dump(os.path.join(out_dir, "outcome"))
    return result
