import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from twinforge import simulate
from twinforge.camera import BinaryMask, backproject
from twinforge.cli import EXIT_STAGE_FAILURE, main
from twinforge.fileio import (load_depth_raw, load_mask_pgm, load_mesh,
                              save_mask_pgm, save_ply)
from twinforge.geometry import Aabb, TriangleMesh
from twinforge.grasp import (filter_by_object_proximity,
                             synthetic_grasp_provider, top_k_by_confidence)
from twinforge.pipeline import PipelineConfig, run_and_write, run_pipeline
from twinforge.register import AlignConfig
from twinforge.simulate import SimConfig
from twinforge.scene import load_scene_spec
from twinforge.synth import generate_synthetic_scene

# a coarser rotation grid keeps a full plan short
QUICK = PipelineConfig(align=AlignConfig(rotation_count=24))


def _quick_spec(task, out_dir, seed=0):
    """A generated scene sampled at one yaw and one offset per rest."""
    spec = load_scene_spec(generate_synthetic_scene(task, str(out_dir),
                                                    seed=seed))
    return replace(spec, sampler={**spec.sampler, "n_rotations": 1,
                                  "n_offsets": 1})


def test_stage_names(tmp_path):
    rep = run_pipeline(_quick_spec("cube-into-box", tmp_path), QUICK).report
    assert rep.status == "success"
    assert rep.stages == ["segmentation-load", "grasp", "coarse-align",
                          "fine-register", "region", "sampling",
                          "simulation", "gp-rank", "select"]
    assert list(rep.timings) == rep.stages


def test_pipeline_config_defaults():
    # the planner's values are the library defaults; the rest are constants
    cfg = PipelineConfig()
    assert [f.name for f in fields(cfg)] == ["align", "sim"]
    assert (cfg.align, cfg.sim) == (AlignConfig(), SimConfig())
    assert [(f.name, f.default) for f in fields(AlignConfig)] == [
        ("rotation_count", 384), ("skip_coarse", False)]
    assert [(f.name, f.default) for f in fields(SimConfig)] == [
        ("surface_samples", 1200), ("seed", 0)]
    assert simulate.CONTACT_TOL == 0.003


def _observed(spec):
    """The manipulated object's camera-frame cloud, as the planner reads it."""
    depth = load_depth_raw(spec.path(spec.depth))
    return backproject(depth, spec.intrinsics,
                       load_mask_pgm(spec.path(spec.manipulated.mask)))


def _with_grasp_file(spec, world_points_conf):
    """The spec with a grasp file of top-down candidates at the given world
    points and confidences."""
    camera_from_world = spec.camera_pose.inverse()
    lines = []
    for world, conf in world_points_conf:
        p = camera_from_world.apply(np.asarray(world, dtype=float))
        lines.append(" ".join(map(str, [1, 0, 0, 0, *p, *p, 0.04, conf])))
    (Path(spec.base_dir) / "grasps.txt").write_text("\n".join(lines) + "\n")
    return replace(spec, grasps="grasps.txt")


def _lowest_and_highest(spec):
    world = spec.camera_pose.apply(_observed(spec).points)
    return world[np.argmin(world[:, 2])], world[np.argmax(world[:, 2])]


def test_grasp_stage_skips_a_confident_grasp_outside_the_workspace(tmp_path):
    spec = _quick_spec("cube-onto-cube", tmp_path)
    low, high = _lowest_and_highest(spec)
    # 5 mm below the lowest observed point: within the proximity threshold
    # of the object cloud, but under the workspace floor at z = 0
    spec = _with_grasp_file(spec, [(low - [0, 0, 0.005], 0.9), (high, 0.5)])
    rep = run_pipeline(spec, QUICK).report
    assert rep.status == "success"
    grasp = rep.data["grasp"]
    assert grasp["confidence"] == 0.5
    assert np.allclose(spec.camera_pose.apply(grasp["pose"]["translation"]),
                       high)


def test_grasp_stage_falls_back_to_synthetic_grasps(tmp_path):
    spec = _quick_spec("cube-onto-cube", tmp_path)
    low, _ = _lowest_and_highest(spec)
    spec = _with_grasp_file(spec, [(low - [0, 0, 0.005], 0.9),
                                   (low - [0, 0, 0.006], 0.5)])
    rep = run_pipeline(spec, QUICK).report
    assert rep.status == "success"
    # no file candidate is feasible, so the second attempt's synthetic
    # batch (seed + 1) gives its most confident candidate in the workspace
    cloud = _observed(spec)
    batch = filter_by_object_proximity(top_k_by_confidence(
        synthetic_grasp_provider(cloud, seed=spec.seed + 1)), cloud)
    workspace = Aabb(*spec.workspace)
    expected = next(c for c in batch if workspace.contains(
        spec.camera_pose.apply(c.grasp_point))[0])
    assert rep.data["grasp"]["confidence"] == expected.confidence
    assert rep.data["grasp"]["pose"]["translation"] == \
        expected.pose.translation.tolist()


def test_grasp_stage_fails_when_the_workspace_excludes_the_object(tmp_path,
                                                                  capsys):
    scene_path = generate_synthetic_scene("cube-onto-cube", str(tmp_path),
                                          seed=0)
    doc = json.loads(Path(scene_path).read_text())
    doc["workspace"] = [[0.3, 0.3, 0.3], [0.35, 0.35, 0.4]]
    Path(scene_path).write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["plan", "--scene", scene_path,
                 "--out", str(out)]) == EXIT_STAGE_FAILURE
    reason = "no feasible grasp after 3 attempts (last batch had 50 candidates)"
    assert capsys.readouterr().out.strip().splitlines()[-1] == \
        f"plan failed at grasp: {reason}"
    doc = json.loads((out / "report.json").read_text())
    assert (doc["failed_stage"], doc["failure_reason"]) == ("grasp", reason)
    assert doc["stages"] == ["segmentation-load", "grasp"]


def test_plan_settles_each_strategy_once(tmp_path, monkeypatch):
    scene_path = generate_synthetic_scene("cube-into-box", str(tmp_path), seed=0)
    spec = load_scene_spec(scene_path)
    spec = replace(spec, sampler={**spec.sampler, "n_rotations": 1,
                                  "n_offsets": 1})
    calls = []
    original = simulate.settle_simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # count calls under every module name bound to the simulator
    for name, mod in list(sys.modules.items()):
        if name == "twinforge" or name.startswith("twinforge."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)

    out_dir = tmp_path / "out"
    result = run_and_write(spec, str(out_dir), seed=0)
    rep = result.report
    assert rep.status == "success"
    assert len(calls) == rep.data["labels"]["total"] == 6
    assert (out_dir / "outcome_rgb.ppm").exists()
    assert (out_dir / "outcome_depth.pgm").exists()


def test_pipeline_failure_report_on_empty_mask(tmp_path):
    scene_path = generate_synthetic_scene("cube-onto-cube", str(tmp_path), seed=1)
    spec = load_scene_spec(scene_path)
    # corrupt the manipulated object's mask: pipeline must fail cleanly
    empty = BinaryMask(np.zeros((spec.intrinsics.height,
                                 spec.intrinsics.width), dtype=bool))
    save_mask_pgm(spec.path(spec.manipulated.mask), empty)

    out_dir = tmp_path / "out"
    result = run_and_write(spec, str(out_dir))
    rep = result.report
    assert rep.status == "failure"
    assert rep.failed_stage == "segmentation-load"
    assert "empty-mask" in rep.failure_reason
    assert rep.stages == ["segmentation-load"]

    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["status"] == "failure"
    assert doc["failed_stage"] == "segmentation-load"


def test_pipeline_fails_segmentation_load_on_too_small_mask(tmp_path):
    scene_path = generate_synthetic_scene("cube-onto-cube", str(tmp_path), seed=1)
    spec = load_scene_spec(scene_path)
    # keep the first 20 mask pixels with valid depth: not empty, too small
    path = spec.path(spec.manipulated.mask)
    depth = load_depth_raw(spec.path(spec.depth))
    valid = load_mask_pgm(path).values & depth.valid_mask()
    small = np.zeros_like(valid)
    small.flat[np.flatnonzero(valid)[:20]] = True
    save_mask_pgm(path, BinaryMask(small))

    rep = run_and_write(spec, str(tmp_path / "out")).report
    assert rep.status == "failure"
    assert rep.failed_stage == "segmentation-load"
    assert rep.failure_reason == "segmentation-too-small:cube"
    assert rep.stages == ["segmentation-load"]
    assert main(["plan", "--scene", scene_path,
                 "--out", str(tmp_path / "cli")]) == EXIT_STAGE_FAILURE


def test_pipeline_seed_defaults_to_spec(tmp_path):
    scene_path = generate_synthetic_scene("cube-onto-cube", str(tmp_path), seed=9)
    spec = load_scene_spec(scene_path)
    empty = BinaryMask(np.zeros((spec.intrinsics.height,
                                 spec.intrinsics.width), dtype=bool))
    save_mask_pgm(spec.path(spec.manipulated.mask), empty)
    rep = run_pipeline(spec).report
    assert rep.seed == 9
    rep2 = run_pipeline(spec, seed=123).report
    assert rep2.seed == 123


def test_pipeline_fails_simulation_once_on_non_watertight_mesh(tmp_path):
    scene_path = generate_synthetic_scene("cube-onto-cube", str(tmp_path), seed=0)
    spec = load_scene_spec(scene_path)
    # drop one triangle: the mesh still aligns but encloses no solid
    path = spec.path(spec.manipulated.mesh)
    mesh = load_mesh(path)
    save_ply(path, TriangleMesh(mesh.vertices, mesh.triangles[1:],
                                mesh.vertex_colors))

    out_dir = tmp_path / "out"
    rep = run_and_write(spec, str(out_dir)).report
    assert rep.status == "failure"
    assert rep.failed_stage == "simulation"
    assert rep.failure_reason == "non-watertight-mesh"
    assert rep.stages[-1] == "simulation"
    assert "labels" not in rep.data

    doc = json.loads((out_dir / "report.json").read_text())
    assert (doc["failed_stage"], doc["failure_reason"]) == (
        "simulation", "non-watertight-mesh")
