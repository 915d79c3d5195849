import json
import os
import shutil

import numpy as np
import pytest

from twinforge.cli import (EXIT_INVALID_INPUT, EXIT_OK, EXIT_STAGE_FAILURE,
                           build_pipeline_config, main)
from twinforge.errors import RejectedInput
from twinforge.pipeline import PipelineConfig
from twinforge.register import AlignConfig
from twinforge.simulate import SimConfig
from twinforge.fileio import save_mask_pgm
from twinforge.camera import BinaryMask
from twinforge.scene import load_scene_spec


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(["gen-scene", "--task", "cube-onto-cube", "--seed", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    return out


def test_build_pipeline_config_sections():
    cfg = build_pipeline_config({"align": {"rotation_count": 24,
                                           "skip_coarse": True},
                                 "sim": {"surface_samples": 500, "seed": 3}})
    assert cfg.align == AlignConfig(rotation_count=24, skip_coarse=True)
    assert cfg.sim == SimConfig(surface_samples=500, seed=3)
    # a section left out keeps the defaults
    cfg = build_pipeline_config({"sim": {"seed": 2}})
    assert (cfg.align, cfg.sim) == (AlignConfig(), SimConfig(seed=2))
    assert build_pipeline_config({}) == PipelineConfig()
    for bad in ({"align": {"bogus": 1}}, {"bogus": 1}, {"sim": [1]},
                {"align": None}):
        with pytest.raises(RejectedInput):
            build_pipeline_config(bad)


@pytest.mark.parametrize("count", [0, 25, 72.0, "384", True])
def test_rotation_count_must_be_a_positive_multiple_of_6(scene_dir, tmp_path,
                                                          count):
    # six rest orientations share the hypotheses: any other count is invalid
    # input, rejected before any work
    with pytest.raises(RejectedInput):
        AlignConfig(rotation_count=count)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"align": {"rotation_count": count}}))
    out = tmp_path / "out"
    rc = main(["plan", "--scene", str(scene_dir / "scene.json"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_INVALID_INPUT
    assert not out.exists()


# former config keys: each value is now a module constant or the default of
# the layer function that uses it, so a config file cannot set it
DELETED_CONFIG_KEYS = [
    {"gp": {"rotation_scale": 0.3}}, {"grasp_top_k": 10},
    {"grasp_proximity": 0.02}, {"grasp_retries": 1},
    {"align": {"ransac": {"trials": 10}}},
    {"align": {"icp": {"max_iterations": 7}}},
    {"align": {"seed": 0}}, {"align": {"normals_k": 15}},
    {"align": {"fpfh_radius": 0.01}}, {"align": {"subsample": 1200}},
    {"align": {"min_mask_pixels": 100}}, {"sim": {"contact_tol": 0.003}},
    {"sim": {"penetration_tol": 0.001}}, {"sim": {"max_topple_steps": 6}},
    {"sim": {"topple_step_deg": 15.0}}]


@pytest.mark.parametrize("doc", DELETED_CONFIG_KEYS)
def test_deleted_config_keys_are_rejected(scene_dir, tmp_path, doc):
    with pytest.raises(RejectedInput):
        build_pipeline_config(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["align", "--scene", str(scene_dir / "scene.json"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_INVALID_INPUT
    assert not out.exists()  # rejected before any work


def test_gen_scene_writes_spec(scene_dir):
    spec = load_scene_spec(scene_dir / "scene.json")
    assert spec.goal[0] == "on_top"


def test_gen_scene_requires_out():
    assert main(["gen-scene", "--task", "cube-onto-cube"]) == EXIT_INVALID_INPUT


def test_unknown_task_is_invalid_input(tmp_path):
    rc = main(["gen-scene", "--task", "juggle", "--out", str(tmp_path)])
    assert rc == EXIT_INVALID_INPUT


def test_unknown_command_is_invalid_input():
    assert main(["frobnicate"]) == EXIT_INVALID_INPUT


def test_missing_scene_file(tmp_path):
    rc = main(["align", "--scene", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_INVALID_INPUT


DROP = object()
SPEC_FAULTS = [{key: DROP} for key in (
    "camera", "camera_pose", "rgb", "depth", "region_mask", "objects",
    "goal", "workspace")] + [
    {"camera": 5}, {"camera": {"fx": "wide"}}, {"rgb": 7},
    {"objects": [{"name": "cube", "role": "manipulated"}]},
    {"objects": [{"name": "cube", "role": "manipulated", "mesh": None,
                  "mask": "m.pgm"}]},
    {"goal": {"predicate": "on_top"}}, {"goal": ["on_top"]},
    {"workspace": [[0.0, 0.0, 0.0]]}, {"workspace": [[0, 0], [1, 1]]},
    {"camera_pose": {"rotation": [1, 0, 0]}}]


def _objects(*name_roles):
    return [{"name": name, "role": role, "mesh": f"{name}.ply",
             "mask": f"mask_{name}.pgm"} for name, role in name_roles]


# well-typed but meaningless: an unknown role or predicate, a goal naming an
# undeclared object or too few of them, and two objects with one name
SPEC_FAULTS += [
    {"objects": _objects(("cube", "manipulated"), ("base", "wat"))},
    {"goal": {"predicate": "levitate", "args": ["cube", "base"]}},
    {"goal": {"predicate": "on_top", "args": ["cube", "nope"]}},
    {"goal": {"predicate": "on_top", "args": ["cube"]}},
    {"objects": _objects(("cube", "manipulated"), ("cube", "interactive"))}]

# a sampler key or value that sample_strategies cannot take, and non-finite
# camera values
SPEC_FAULTS += [
    {"sampler": {"n_rotations": [1]}}, {"sampler": {"n_rotation": 2}},
    {"sampler": {"n_rotations": 0}}, {"sampler": {"offset_radius": -1.0}},
    {"camera_pose": {"rotation": [float("nan"), 0, 0, 0],
                     "translation": [0.0, 0.0, 0.5]}},
    {"camera": {"fx": float("nan"), "fy": 230.0, "cx": 100.0, "cy": 100.0,
                "width": 200, "height": 200}},
    {"camera": {"fx": 230.0, "fy": float("inf"), "cx": 100.0, "cy": 100.0,
                "width": 200, "height": 200}}]


@pytest.mark.parametrize("fault", SPEC_FAULTS)
def test_plan_rejects_incomplete_or_mistyped_spec(scene_dir, tmp_path, capsys,
                                                  fault):
    doc = json.loads((scene_dir / "scene.json").read_text())
    doc.update(fault)
    doc = {k: v for k, v in doc.items() if v is not DROP}
    # next to the scene's assets, so the spec is the only fault
    shutil.copytree(scene_dir, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    rc = main(["plan", "--scene", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID_INPUT
    assert not (tmp_path / "out").exists()  # rejected before any stage ran
    err = capsys.readouterr().err
    for key, value in fault.items():
        if value is DROP:
            assert f"missing key {key!r}" in err


def test_plan_reports_non_finite_mesh_vertex(scene_dir, tmp_path):
    shutil.copytree(scene_dir, tmp_path / "scene")
    ply = tmp_path / "scene" / "cube.ply"
    head, body = ply.read_text().split("end_header\n")
    first, rest = body.split("\n", 1)
    ply.write_text(head + "end_header\nnan" + first[first.index(" "):]
                   + "\n" + rest)
    out = tmp_path / "out"
    rc = main(["plan", "--scene", str(tmp_path / "scene" / "scene.json"),
               "--out", str(out)])
    assert rc == EXIT_STAGE_FAILURE
    doc = json.loads((out / "report.json").read_text())
    assert doc["failed_stage"] == "segmentation-load"
    assert "finite" in doc["failure_reason"]


def test_bad_config_keys(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"align": {"wat": 1}}))
    rc = main(["align", "--scene", str(scene_dir / "scene.json"),
               "--out", str(tmp_path), "--config", str(cfg)])
    assert rc == EXIT_INVALID_INPUT
    cfg.write_text("[1, 2]")
    rc = main(["align", "--scene", str(scene_dir / "scene.json"),
               "--out", str(tmp_path), "--config", str(cfg)])
    assert rc == EXIT_INVALID_INPUT
    # a section that is not an object, or names an unknown key; the removed
    # render options are unknown keys
    for doc in ({"align": 5}, {"sim": {"wat": 1}},
                {"sim": {"render": True}}, {"sim": {"render_size": 64}},
                {"sim": {"standoff": 0.5}}, {"sim": {"tilt_deg": -45.0}},
                {"render_selected": False}):
        cfg.write_text(json.dumps(doc))
        rc = main(["align", "--scene", str(scene_dir / "scene.json"),
                   "--out", str(tmp_path), "--config", str(cfg)])
        assert rc == EXIT_INVALID_INPUT, doc


def test_align_verb(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"align": {"rotation_count": 24}}))
    out = tmp_path / "align_out"
    rc = main(["align", "--scene", str(scene_dir / "scene.json"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_OK
    doc = json.loads((out / "alignment.json").read_text())
    assert set(doc) == {"cube", "base"}
    for rec in doc.values():
        assert {"pose_world", "rmse", "converged", "scale",
                "coarse_similarity", "material_known",
                "ransac_inlier_fraction", "ransac_converged",
                "ground_shift_m"} <= set(rec)
        assert isinstance(rec["scale"], float)


def test_simulate_verb_with_explicit_pose(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"align": {"rotation_count": 24},
                               "sim": {"surface_samples": 600}}))
    out = tmp_path / "sim_out"
    rc = main(["simulate", "--scene", str(scene_dir / "scene.json"),
               "--out", str(out), "--config", str(cfg),
               "--pose", "1,0,0,0,0,0,0.15"])
    assert rc == EXIT_OK
    doc = json.loads((out / "simulate.json").read_text())
    assert {"stable", "penetration", "settled_poses", "topple_steps"} <= set(doc)
    assert os.path.exists(out / "outcome_rgb.ppm")
    assert os.path.exists(out / "outcome_depth.pgm")


def test_simulate_rejects_short_pose(scene_dir, tmp_path):
    rc = main(["simulate", "--scene", str(scene_dir / "scene.json"),
               "--out", str(tmp_path), "--pose", "1,0,0"])
    assert rc == EXIT_INVALID_INPUT


def test_bench_align_verb(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1,
                               "primitives": ["box:0.07,0.05,0.04"],
                               "align": {"rotation_count": 24}}))
    out = tmp_path / "bench_out"
    rc = main(["bench-align", "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_OK
    text = (out / "benchmark.csv").read_text().strip().splitlines()
    assert len(text) == 3  # header + one object x two arms
    # its align section takes the same two keys as the planner's
    cfg.write_text(json.dumps({"trials": 1, "align": {"seed": 0}}))
    rc = main(["bench-align", "--out", str(tmp_path / "bad"),
               "--config", str(cfg)])
    assert rc == EXIT_INVALID_INPUT


def test_plan_stage_failure_exit_code(tmp_path):
    rc = main(["gen-scene", "--task", "cube-onto-cube", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    spec = load_scene_spec(tmp_path / "scene.json")
    empty = BinaryMask(np.zeros((spec.intrinsics.height,
                                 spec.intrinsics.width), dtype=bool))
    save_mask_pgm(spec.path(spec.manipulated.mask), empty)
    out = tmp_path / "plan_out"
    rc = main(["plan", "--scene", str(tmp_path / "scene.json"),
               "--out", str(out)])
    assert rc == EXIT_STAGE_FAILURE
    doc = json.loads((out / "report.json").read_text())
    assert doc["status"] == "failure"


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def _mangle_header(path):
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(b"DEPTHF32 two " + head.split()[2] + b"\n" + rest)


def _mangle_pnm_size(path):
    path.write_bytes(path.read_bytes().replace(b"\n", b"\nsix ", 1))


# a depth payload cut short, a raw depth header "DEPTHF32 two <h>" and a PNM
# size "six <w> <h>": unreadable observations, reported like a bad magic
@pytest.mark.parametrize("asset, damage", [("depth.f32", _truncate),
                                           ("depth.f32", _mangle_header),
                                           ("rgb.ppm", _mangle_pnm_size)])
def test_plan_reports_unreadable_observation(scene_dir, tmp_path, asset, damage):
    shutil.copytree(scene_dir, tmp_path / "scene")
    damage(tmp_path / "scene" / asset)
    out = tmp_path / "out"
    rc = main(["plan", "--scene", str(tmp_path / "scene" / "scene.json"),
               "--out", str(out)])
    assert rc == EXIT_STAGE_FAILURE
    doc = json.loads((out / "report.json").read_text())
    assert doc["status"] == "failure"
    assert doc["failed_stage"] == "segmentation-load"
