import csv
import json

import numpy as np
import pytest

from twinforge import pipeline
from twinforge import quaternions as quat
from twinforge.benchmark import (BENCHMARK_PRIMITIVES, BenchmarkReport,
                                 BenchmarkRow, PlanRow, alignment_benchmark,
                                 plan_trial, surface_distance_mm,
                                 symmetry_aware_success, symmetry_group,
                                 truth_twin, write_benchmark_csv,
                                 write_plan_csv, write_plan_json)
from twinforge.geometry import RigidPose
from twinforge.register import AlignConfig
from twinforge.scene import load_scene_spec
from twinforge.simulate import label_samples
from twinforge.synth import generate_synthetic_scene


def test_symmetry_group_sizes():
    assert len(symmetry_group("box:0.07,0.05,0.04")) == 4
    assert len(symmetry_group("cylinder:0.03,0.1")) == 360
    assert len(symmetry_group("cup:0.035,0.09,0.005")) == 180
    assert len(symmetry_group("open_box:0.12,0.1,0.06,0.012")) == 2
    assert len(symmetry_group("open_box:0.1,0.1,0.06,0.012")) == 4  # square
    assert len(symmetry_group("ramp:0.1,0.08,0.05")) == 1


def test_symmetry_aware_success_box_flip():
    truth = RigidPose.identity()
    flipped = RigidPose(quat.quat_from_axis_angle([0, 0, 1], np.pi), np.zeros(3))
    group = symmetry_group("box:0.07,0.05,0.04")
    assert symmetry_aware_success(flipped, truth, 0.1, group)
    # a 90-degree yaw is not a box symmetry for distinct extents
    quarter = RigidPose(quat.quat_from_axis_angle([0, 0, 1], np.pi / 2), np.zeros(3))
    assert not symmetry_aware_success(quarter, truth, 0.1, group)


def test_symmetry_aware_success_cylinder_yaw():
    truth = RigidPose.identity()
    group = symmetry_group("cylinder:0.03,0.1")
    any_yaw = RigidPose(quat.quat_from_axis_angle([0, 0, 1], 1.234), np.zeros(3))
    assert symmetry_aware_success(any_yaw, truth, 0.1, group)
    tipped = RigidPose(quat.quat_from_axis_angle([1, 0, 0], np.pi / 2), np.zeros(3))
    assert not symmetry_aware_success(tipped, truth, 0.1, group)


def test_default_primitives():
    assert len(BENCHMARK_PRIMITIVES) == 4
    names = [p.partition(":")[0] for p in BENCHMARK_PRIMITIVES]
    assert names == ["box", "cylinder", "cup", "open_box"]


def test_small_benchmark_and_csv_layout(tmp_path):
    # 1 trial on 2 classes keeps this affordable; the statistical claim is
    # covered by the acceptance suite
    report = alignment_benchmark(
        trials=1, seed0=0, config=AlignConfig(rotation_count=24),
        primitives=("box:0.07,0.05,0.04", "cylinder:0.03,0.1"))
    assert isinstance(report, BenchmarkReport)
    assert len(report.rows) == 2
    assert report.trials_per_class == 1
    assert report.margin == pytest.approx(report.two_stage_rate
                                          - report.direct_rate)
    path = tmp_path / "bench.csv"
    write_benchmark_csv(path, report)
    with open(path) as f:
        rows = list(csv.reader(f))
    # header plus one row per object x arm
    assert rows[0] == ["object", "arm", "valid_samples", "success_rate",
                       "mean_success_rmse"]
    assert len(rows) == 1 + 2 * 2
    assert {r[1] for r in rows[1:]} == {"two-stage", "direct"}


def test_benchmark_row_structure():
    row = BenchmarkRow("box:1,1,1", 10, 0.8, 0.002, 0.1, 0.005)
    assert row.two_stage_rate > row.direct_rate


def test_plan_trial_scores_a_plan_against_its_truth(tmp_path, monkeypatch):
    spec = load_scene_spec(generate_synthetic_scene(
        "cube-onto-cube", str(tmp_path / "scene"), seed=2))
    truth = truth_twin(spec)
    # the truth is its own twin: zero surface distance
    cube = truth.by_name("cube")
    assert surface_distance_mm(cube.mesh, cube.pose, cube.mesh,
                               cube.pose) == pytest.approx(0.0, abs=1e-9)
    row = plan_trial("cube-onto-cube", spec)
    assert (row.task, row.seed, row.status, row.failed_stage) == (
        "cube-onto-cube", 2, "success", None)
    assert set(row.twin_err_mm) == {"cube", "base"}
    assert row.goal_met and row.twin_good and row.positive > 0
    assert row.both_positive <= min(row.positive, row.truth_positive)
    assert 1 <= row.top5_truth <= 5
    assert "simulation" in row.timings and row.minor_faults >= 0
    path = tmp_path / "bench_plan.csv"
    write_plan_csv(path, [row])
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["task", "seed", "status", "failed_stage", "goal_met",
                       "twin_err_mm", "worst_err_mm", "positive_labels",
                       "truth_positive", "both_positive", "top5_truth",
                       "plan_s"]
    assert rows[1][:5] == ["cube-onto-cube", "2", "success", "", "1"]
    assert rows[1][5].startswith("cube=") and ";base=" in rows[1][5]
    assert rows[1][8:11] == [str(row.truth_positive), str(row.both_positive),
                             str(row.top5_truth)]

    # label the plan's strategies in the truth twin itself: every twin label
    # is then a truth label, and the top five are truth successes
    def on_truth(twin, samples, goal, config):
        return label_samples(truth, samples, goal, config)

    monkeypatch.setattr(pipeline, "label_samples", on_truth)
    row = plan_trial("cube-onto-cube", spec)
    assert row.positive > 0 and row.goal_met
    assert row.both_positive == row.positive == row.truth_positive
    assert row.top5_truth == min(5, row.positive)


def test_plan_trial_of_a_plan_without_labels_scores_zeros(tmp_path):
    # a plan that stops before simulation settles nothing in the truth
    spec = load_scene_spec(generate_synthetic_scene(
        "cube-onto-cube", str(tmp_path / "scene"), seed=2))
    with open(spec.path("depth.f32"), "r+b") as f:
        f.truncate(8)
    row = plan_trial("cube-onto-cube", spec)
    assert row.status == "failure" and row.failed_stage == "segmentation-load"
    assert (row.goal_met, row.positive, row.truth_positive, row.both_positive,
            row.top5_truth) == (False, 0, 0, 0, 0)


def test_plan_summary_medians_per_task(tmp_path):
    def row(task, seed, plan_s, stages, faults, positive, truth=(0, 0, 0)):
        return PlanRow(task, seed, "success", None, True, {"cube": 1.0},
                       positive, *truth, plan_s, stages, faults)

    rows = [row("cube-onto-cube", 0, 0.5, {"grasp": 0.1, "select": 0.2},
                900, 45, (40, 36, 5)),
            row("cube-onto-cube", 1, 0.7, {"grasp": 0.3, "select": 0.4},
                100, 45, (42, 40, 4)),
            row("cube-onto-cube", 2, 0.6, {"grasp": 0.2}, 500, 0),
            row("cup-on-box", 0, 0.4, {"grasp": 0.05}, 20, 5)]
    path = tmp_path / "BENCH_plan.json"
    write_plan_json(path, rows)
    with open(path) as f:
        doc = json.load(f)
    assert list(doc["tasks"]) == ["cube-onto-cube", "cup-on-box"]
    cube = doc["tasks"]["cube-onto-cube"]
    assert cube["plans"] == 3
    assert cube["plan_s"] == pytest.approx(0.6)
    # a stage's median is over the plans that ran it
    assert cube["stage_s"] == pytest.approx({"grasp": 0.2, "select": 0.3})
    assert cube["minor_faults"] == 500
    # label counts are sums; precision is over the twin's positives and
    # recall over the truth's
    assert (cube["positive_labels"], cube["truth_positive"],
            cube["both_positive"], cube["top5_truth"]) == (90, 82, 76, 9)
    assert cube["precision"] == pytest.approx(76 / 90)
    assert cube["recall"] == pytest.approx(76 / 82)
    # with no truth success, recall has no denominator
    assert doc["tasks"]["cup-on-box"] == {
        "plans": 1, "plan_s": 0.4, "stage_s": {"grasp": 0.05},
        "minor_faults": 20, "positive_labels": 5, "truth_positive": 0,
        "both_positive": 0, "top5_truth": 0, "precision": 0.0,
        "recall": None}
    env = doc["env"]
    assert set(env) == {"python", "numpy", "scipy", "cpu_count",
                        "TWINFORGE_THREADS", "heap_policy"}
    assert env["numpy"] == np.__version__
    assert isinstance(env["heap_policy"], bool)
