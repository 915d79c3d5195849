"""End-to-end run: observation -> digital twin -> ranked strategy.

The twin is built by ``coarse-align`` (rest-pose search and scale) and
``fine-register`` (RANSAC, ICP, grounding). The nine stages run in a fixed
order, each inside ``_stage``; the first that fails ends the run with a
failure report naming the stage and reason. All numeric results are
deterministic for a fixed scene spec and seed, independent of the worker
count.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import gpclassify
from .camera import backproject
from .errors import RejectedInput, StageFailureError
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
from .simulate import (SceneObject, SceneTwin, SimConfig, ground_objects,
                       label_samples, render_outcome)
from .strategy import (DEFAULT_OFFSET_RADIUS, builtin_reachability,
                       interaction_region, sample_strategies)


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
    labeled: list = field(default_factory=list)
    selected: object = None
    ranking: object = None


def _load_depth(path):
    if path.endswith(".pgm"):
        return load_depth_pgm(path)
    return load_depth_raw(path)


def _camera_sized(spec: SceneSpec, name, image):
    """The image, unless it is not the camera's height x width: then fail
    segmentation-load naming the asset."""
    intr = spec.intrinsics
    if image.values.shape[:2] != (intr.height, intr.width):
        raise StageFailureError(
            "segmentation-load",
            f"image-size-mismatch:{name} is {image.width}x{image.height}, "
            f"camera {intr.width}x{intr.height}")
    return image


def _load_observation(spec: SceneSpec):
    """The scene's color image, depth image, and each object's mask and mesh
    (dicts by name). Each image must be the camera's size, and a mask must
    hold MIN_MASK_PIXELS pixels with valid depth. An unreadable or
    wrong-sized asset or a mask too small fails segmentation-load; a missing
    file raises FileNotFoundError."""
    try:
        color = _camera_sized(spec, spec.rgb,
                              load_color_ppm(spec.path(spec.rgb)))
        depth = _camera_sized(spec, spec.depth,
                              _load_depth(spec.path(spec.depth)))
        masks, meshes = {}, {}
        for obj in spec.objects:
            mask = _camera_sized(spec, obj.mask,
                                 load_mask_pgm(spec.path(obj.mask)))
            valid = int((mask.values & depth.valid_mask()).sum())
            if valid == 0:
                raise StageFailureError("segmentation-load",
                                        f"empty-mask:{obj.name}")
            if valid < MIN_MASK_PIXELS:
                raise StageFailureError("segmentation-load",
                                        f"segmentation-too-small:{obj.name}")
            masks[obj.name] = mask
            meshes[obj.name] = load_mesh(spec.path(obj.mesh))
    except RejectedInput as exc:
        raise StageFailureError("segmentation-load", str(exc)) from exc
    return color, depth, masks, meshes


def _coarse_objects(spec: SceneSpec, align_config: AlignConfig, color, depth,
                    masks, meshes) -> dict:
    """The coarse step (hypothesis search and scale) of every object. Input
    the step rejects fails coarse-align; a failure of the step itself
    (such as ``scale-clamped``) names its object."""
    coarse = {}
    for obj in spec.objects:
        try:
            coarse[obj.name] = coarse_align(
                meshes[obj.name], color, depth, masks[obj.name],
                spec.intrinsics, align_config, spec.camera_pose)
        except RejectedInput as exc:
            raise StageFailureError("coarse-align", str(exc)) from exc
        except StageFailureError as exc:
            raise StageFailureError(exc.stage,
                                    f"{exc.reason}:{obj.name}") from exc
    return coarse


def _register_objects(spec: SceneSpec, meshes, coarse: dict):
    """The fine step (RANSAC and ICP) of every object, into the world frame,
    then grounding. Returns (SceneTwin, per-object info dict). Input either
    step rejects, such as a mesh that encloses no volume, fails
    fine-register."""
    try:
        fits = [fine_register(meshes[obj.name], *coarse[obj.name])
                for obj in spec.objects]
        grounded, shifts = ground_objects([
            SceneObject(obj.name, fit.scaled_mesh,
                        spec.camera_pose.compose(fit.final_pose),
                        material_lookup(obj.material)[0], obj.role)
            for obj, fit in zip(spec.objects, fits)])
    except RejectedInput as exc:
        raise StageFailureError("fine-register", str(exc)) from exc
    info = {}
    for obj, twin_obj, fit, shift in zip(spec.objects, grounded, fits, shifts):
        info[obj.name] = {
            "pose_world": pose_to_json(twin_obj.pose),
            "rmse": fit.registration.rmse,
            "converged": bool(fit.registration.converged),
            "icp_iterations": fit.registration.iterations,
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

    Returns (SceneTwin, per-object info dict). Pass all four assets or
    none; without them they come from ``_load_observation``.
    """
    if color is None:
        color, depth, masks, meshes = _load_observation(spec)
    return _register_objects(spec, meshes, _coarse_objects(
        spec, align_config, color, depth, masks, meshes))


class _RunStopped(Exception):
    """Ends a run whose failure ``_stage`` has written into the report."""


@contextmanager
def _stage(report: RunReport, name: str):
    """Record one stage's name and wall time in the report. A
    StageFailureError (under its own stage name, else this one) or a
    RejectedInput (under this stage) becomes the report's failure and ends
    the run with _RunStopped."""
    t0 = time.perf_counter()
    try:
        yield
    except (StageFailureError, RejectedInput) as exc:
        report.status = "failure"
        if isinstance(exc, StageFailureError):
            report.failed_stage = exc.stage or name
            report.failure_reason = exc.reason
        else:
            report.failed_stage, report.failure_reason = name, str(exc)
        raise _RunStopped from exc
    finally:
        report.stages.append(name)
        report.timings[name] = time.perf_counter() - t0


def run_pipeline(spec: SceneSpec, config: PipelineConfig | None = None,
                 seed: int | None = None) -> PipelineResult:
    """Execute the full pipeline over one scene spec."""
    config = config or PipelineConfig()
    seed = spec.seed if seed is None else int(seed)
    result = PipelineResult(RunReport(seed=seed))
    try:
        _run_stages(spec, config, seed, result)
    except _RunStopped:
        pass
    return result


def _run_stages(spec: SceneSpec, config: PipelineConfig, seed: int,
                result: PipelineResult):
    """The stages in order, each filling its part of ``result``."""
    report = result.report
    with _stage(report, "segmentation-load"):
        color, depth, masks, meshes = _load_observation(spec)
        observed = backproject(depth, spec.intrinsics,
                               masks[spec.manipulated.name])
        report.data["segmentation"] = {
            o.name: masks[o.name].count() for o in spec.objects}

    # one batch, the spec's grasp file when it names one, else synthetic:
    # the most confident candidate near the object cloud whose world point
    # lies in the workspace
    with _stage(report, "grasp"):
        workspace = Aabb(*spec.workspace)
        if spec.grasps:
            batch = load_grasp_candidates(spec.path(spec.grasps))
        else:
            batch = synthetic_grasp_provider(observed, seed=seed)
        near = filter_by_object_proximity(top_k_by_confidence(batch), observed)
        grasp = next((c for c in near if workspace.contains(
            spec.camera_pose.apply(c.grasp_point))[0]), None)
        if grasp is None:
            raise StageFailureError(
                "grasp", f"no-feasible-grasp:{len(near)} near the object")
        report.data["grasp"] = {
            "pose": pose_to_json(grasp.pose),
            "width": grasp.width,
            "confidence": grasp.confidence,
        }

    with _stage(report, "coarse-align"):
        coarse = _coarse_objects(spec, config.align, color, depth, masks,
                                 meshes)

    with _stage(report, "fine-register"):
        twin, report.data["alignment"] = _register_objects(spec, meshes,
                                                           coarse)
        result.twin = twin

    with _stage(report, "region"):
        region = interaction_region(load_mask_pgm(spec.path(spec.region_mask)),
                                    depth, spec.intrinsics, spec.camera_pose)
        report.data["region"] = {
            "points": len(region.cloud),
            "centroid": [float(x) for x in region.centroid],
        }

    with _stage(report, "sampling"):
        verts = twin.manipulated.mesh.vertices
        # aligned twin geometry can sit higher than the observed region
        # (scale estimation error), so release samples above whichever is
        # taller: the observed region or the twin support under it
        base_z = float(region.centroid[2])
        for obj in twin.objects:
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

        s = spec.sampler
        samples = sample_strategies(
            region,
            n_rotations=int(s.get("n_rotations", 4)),
            n_offsets=int(s.get("n_offsets", 5)),
            offset_radius=float(s.get("offset_radius", DEFAULT_OFFSET_RADIUS)),
            reach=lambda p: builtin_reachability(p, workspace),
            vertical_offset=lift)
        if not samples:
            raise StageFailureError("sampling", "no-reachable-samples")
        report.data["sampling"] = {"count": len(samples)}

    with _stage(report, "simulation"):
        result.labeled = labeled = label_samples(twin, samples, spec.goal,
                                                 config.sim)
        report.data["labels"] = {
            "total": len(labeled),
            "positive": sum(1 for s in labeled if s.weak_label),
            "failure_reasons": dict(Counter(
                s.failure_reason for s in labeled if s.failure_reason)),
        }

    with _stage(report, "gp-rank"):
        model = gpclassify.fit([s.object_pose for s in labeled],
                               [s.weak_label for s in labeled])
        result.ranking = gpclassify.rank_and_select(model, labeled)
        report.data["gp"] = {
            "degenerate": model.degenerate,
            "newton_iterations": model.newton_iterations,
        }

    with _stage(report, "select"):
        if not result.ranking.priority:
            raise StageFailureError("select", "no-positive-strategy")
        result.selected = chosen = result.ranking.priority[0]
        report.data["selected"] = {
            "sample_id": chosen.sample_id,
            "pose_world": pose_to_json(chosen.object_pose),
            "success_prob": float(chosen.success_prob),
            "weak_label": bool(chosen.weak_label),
        }


def run_and_write(spec: SceneSpec, out_dir: str,
                  config: PipelineConfig | None = None,
                  seed: int | None = None) -> PipelineResult:
    """run_pipeline plus artifact dump: report.json and, after a successful
    plan, the selected outcome's render (outcome_rgb.ppm, outcome_depth.pgm)."""
    os.makedirs(out_dir, exist_ok=True)
    result = run_pipeline(spec, config, seed)
    result.report.dump(os.path.join(out_dir, "report.json"))
    if result.selected is not None:
        render_outcome(result.selected.outcome).dump(
            os.path.join(out_dir, "outcome"))
    return result
