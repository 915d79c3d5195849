import json

import numpy as np
import pytest

from twinforge import quaternions as quat
from twinforge.camera import CameraIntrinsics
from twinforge.errors import RejectedInput
from twinforge.geometry import RigidPose
from twinforge.scene import (ObjectSpec, RunReport, SceneSpec, load_scene_spec,
                             pose_from_json, pose_to_json,
                             report_determinism_key, save_scene_spec)


def make_spec(base_dir="."):
    return SceneSpec(
        intrinsics=CameraIntrinsics(fx=200.0, fy=210.0, cx=100.0, cy=99.5,
                                    width=200, height=200),
        camera_pose=RigidPose(quat.quat_from_axis_angle([1, 0, 0], 0.4),
                              [0.1, -0.2, 0.5]),
        rgb="rgb.ppm", depth="depth.f32", region_mask="region.pgm",
        objects=(ObjectSpec("cube", "manipulated", "cube.ply", "m.pgm", "wood"),
                 ObjectSpec("base", "interactive", "base.ply", "b.pgm")),
        instruction="stack it",
        goal=("on_top", ["cube", "base"]),
        workspace=((-0.3, -0.3, 0.0), (0.3, 0.3, 0.4)),
        seed=7,
        sampler={"n_rotations": 4},
        base_dir=base_dir)


def test_pose_json_roundtrip():
    pose = RigidPose(quat.quat_from_axis_angle([0, 1, 0], 1.1), [1, 2, 3])
    back = pose_from_json(pose_to_json(pose))
    assert np.allclose(back.matrix(), pose.matrix(), atol=1e-15)


def test_scene_spec_roundtrip(tmp_path):
    spec = make_spec()
    path = tmp_path / "scene.json"
    save_scene_spec(path, spec)
    back = load_scene_spec(path)
    assert back.intrinsics == spec.intrinsics
    assert np.allclose(back.camera_pose.matrix(), spec.camera_pose.matrix())
    assert back.objects == spec.objects
    assert back.goal == spec.goal
    assert back.workspace == spec.workspace
    assert back.seed == 7
    assert back.sampler == {"n_rotations": 4}
    assert back.manipulated.name == "cube"
    assert back.path("rgb.ppm").startswith(str(tmp_path))


def test_scene_spec_schema_version_checked(tmp_path):
    path = tmp_path / "scene.json"
    save_scene_spec(path, make_spec())
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(RejectedInput):
        load_scene_spec(path)


def test_scene_spec_requires_one_manipulated(tmp_path):
    path = tmp_path / "scene.json"
    save_scene_spec(path, make_spec())
    doc = json.loads(path.read_text())
    doc["objects"][0]["role"] = "static"
    path.write_text(json.dumps(doc))
    with pytest.raises(RejectedInput):
        load_scene_spec(path)


def _load_with(tmp_path, **changes):
    path = tmp_path / "scene.json"
    save_scene_spec(path, make_spec())
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return load_scene_spec(path)


def test_scene_spec_sampler_kept_as_given(tmp_path):
    for sampler in ({}, {"n_rotations": 1, "n_offsets": 3},
                    {"offset_radius": 0}, {"offset_radius": 0.025}):
        assert _load_with(tmp_path, sampler=sampler).sampler == sampler


@pytest.mark.parametrize("sampler", [
    [1], {"n_rotation": 2}, {"n_rotations": [1]}, {"n_rotations": 0},
    {"n_offsets": -1}, {"n_offsets": 2.0}, {"n_rotations": True},
    {"offset_radius": -0.01}, {"offset_radius": float("nan")},
    {"offset_radius": float("inf")}, {"offset_radius": "0.02"},
    {"offset_radius": False}])
def test_scene_spec_rejects_bad_sampler(tmp_path, sampler):
    with pytest.raises(RejectedInput):
        _load_with(tmp_path, sampler=sampler)


@pytest.mark.parametrize("changes", [
    {"camera_pose": {"rotation": [float("nan"), 0, 0, 0],
                     "translation": [0, 0, 0.5]}},
    {"camera": {"fx": float("nan"), "fy": 200.0, "cx": 100.0, "cy": 99.5,
                "width": 200, "height": 200}},
    {"camera": {"fx": 200.0, "fy": float("inf"), "cx": 100.0, "cy": 99.5,
                "width": 200, "height": 200}}])
def test_scene_spec_rejects_non_finite_camera(tmp_path, changes):
    with pytest.raises(RejectedInput):
        _load_with(tmp_path, **changes)


def _camera(**changes):
    return {"fx": 200.0, "fy": 210.0, "cx": 100.0, "cy": 99.5, "width": 200,
            "height": 200, **changes}


@pytest.mark.parametrize("changes, field", [
    ({"camera": _camera(width=200.7)}, "camera width"),
    ({"camera": _camera(width="200")}, "camera width"),
    ({"camera": _camera(height=True)}, "camera height"),
    ({"camera": _camera(width=0)}, "camera width"),
    ({"camera": _camera(fx="230")}, "camera fx"),
    ({"camera": _camera(fy=False)}, "camera fy"),
    ({"camera": _camera(cx=True)}, "camera cx"),
    ({"camera": _camera(cy="99.5")}, "camera cy"),
    ({"workspace": [[-0.3, "-0.3", 0.0], [0.3, 0.3, 0.4]]}, "workspace min"),
    ({"workspace": [[-0.3, -0.3, 0.0], [0.3, 0.3, True]]}, "workspace max")])
def test_scene_spec_rejects_mistyped_camera_and_workspace_numbers(
        tmp_path, changes, field):
    # each would be truncated or coerced by int() or float(), or rejected
    # with a message about some other field
    with pytest.raises(RejectedInput, match=field):
        _load_with(tmp_path, **changes)


def test_scene_spec_takes_integral_camera_numbers(tmp_path):
    spec = _load_with(tmp_path, camera=_camera(fx=200, cx=100),
                      workspace=[[-1, 0, 0], [1, 1, 1]])
    assert spec.intrinsics == CameraIntrinsics(200.0, 210.0, 100.0, 99.5,
                                               200, 200)
    assert spec.workspace == ((-1.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def test_run_report_dump_and_determinism_key(tmp_path):
    rep = RunReport(seed=3)
    rep.stages = ["a", "b"]
    rep.data["x"] = {"value": 1}
    rep.timings = {"a": 0.123456789, "b": 0.2}
    path = tmp_path / "report.json"
    rep.dump(path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["timings"]["a"] == 0.123457  # rounded

    other = dict(doc)
    other["timings"] = {"a": 9.9, "b": 9.9}
    assert report_determinism_key(doc) == report_determinism_key(other)
    changed = json.loads(json.dumps(doc))
    changed["data"]["x"]["value"] = 2
    assert report_determinism_key(doc) != report_determinism_key(changed)
