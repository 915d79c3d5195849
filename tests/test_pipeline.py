import json
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from twinforge import simulate
from twinforge.errors import NoFeasibleGrasp, RejectedInput
from twinforge.cli import EXIT_STAGE_FAILURE, main
from twinforge.fileio import (load_depth_raw, load_mask_pgm, load_mesh,
                              save_mask_pgm, save_ply)
from twinforge.camera import BinaryMask
from twinforge.geometry import TriangleMesh
from twinforge.pipeline import (STAGES, PipelineConfig, grasp_with_retry,
                                run_and_write, run_pipeline)
from twinforge.register import AlignConfig
from twinforge.simulate import SimConfig
from twinforge.scene import load_scene_spec
from twinforge.synth import generate_synthetic_scene


def test_stage_names():
    assert STAGES == ("segmentation-load", "grasp", "coarse-align",
                      "fine-register", "region", "sampling", "simulation",
                      "result-check", "gp-rank", "select")


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


class _Cand:
    def __init__(self, confidence, ok):
        self.confidence = confidence
        self.ok = ok


def test_grasp_with_retry_picks_best_feasible():
    batches = [[_Cand(0.9, False), _Cand(0.5, True)],
               [_Cand(0.8, True)]]
    calls = []

    def provider(attempt):
        calls.append(attempt)
        return batches[attempt]

    chosen = grasp_with_retry(provider, lambda c: c.ok, max_attempts=3)
    assert chosen.confidence == 0.5  # best feasible of the first batch
    assert calls == [0]

    # equal confidence goes to the earlier candidate
    tied = [_Cand(0.5, True), _Cand(0.9, True), _Cand(0.9, True)]
    assert grasp_with_retry(lambda _: tied, lambda c: c.ok) is tied[1]


def test_grasp_with_retry_exhausts_attempts():
    def provider(attempt):
        return [_Cand(0.9, False)]

    with pytest.raises(NoFeasibleGrasp):
        grasp_with_retry(provider, lambda c: c.ok, max_attempts=2)
    with pytest.raises(RejectedInput):
        grasp_with_retry(provider, lambda c: c.ok, max_attempts=0)


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
    # select reuses the outcome labelling computed
    assert result.outcome is result.selected.outcome
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
