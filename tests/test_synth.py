import hashlib
import json

import numpy as np
import pytest

from twinforge.benchmark import BENCHMARK_PRIMITIVES
from twinforge.errors import RejectedInput
from twinforge.fileio import load_color_ppm, load_depth_raw, load_mask_pgm
from twinforge.camera import backproject
from twinforge.scene import load_scene_spec
from twinforge.solids import is_watertight, point_mesh_distance, signed_volume
from twinforge.synth import (_TASK_TABLE, PRIMITIVES, TASKS, canonical_mesh,
                             generate_synthetic_scene, label_submesh,
                             mesh_diameter, primitive_from_spec,
                             synthetic_observation)


def test_primitive_from_spec_all_shapes():
    for spec in ("box:0.07,0.05,0.04", "cylinder:0.03,0.1",
                 "open_box:0.12,0.1,0.06,0.012", "cup:0.035,0.09,0.005",
                 "ramp:0.1,0.08,0.05"):
        mesh = primitive_from_spec(spec)
        assert is_watertight(mesh)
        assert signed_volume(mesh) > 0
        assert mesh.vertex_colors is not None
        assert mesh.face_labels is not None
    with pytest.raises(RejectedInput):
        primitive_from_spec("torus:0.1")
    for spec in ("box:nan,0.05,0.04", "cylinder:nan,0.1"):
        with pytest.raises(RejectedInput, match="finite"):
            primitive_from_spec(spec)
    assert set(PRIMITIVES) == {"box", "cylinder", "open_box", "cup", "ramp"}


# sha256 of each primitive's vertex, triangle and colour bytes and its face
# labels, as the mesh builder welded and oriented them when it still did so
# with numpy rows
PRIMITIVE_DIGESTS = {
    "box": "95ce93129e490528c54c97a386961e5852c94f329ed8151d4aaaf97fc86bcdcd",
    "cylinder":
        "52e231029f37f3a4012250899c1e973c7751eac6c836f7ee4b41f82d3aad389b",
    "open_box":
        "f4922258f49a184f98c4b5db7231dcaecd5b2c7923692feaa1ffee1b3c8eba37",
    "cup": "0b26d3ea1effdb499c7cc7b241d91066bd21c8037d2c30a89a2ef0dfc845324a",
    "ramp": "8c77af00a2db2ceabbaf790e96aa2e4f337f63fd8fa4a7e20d41d48400874882",
    "box:0.07,0.05,0.04":
        "aa7572a4d0130f2c90eabfa05f1ebd57ff89ce80ba6e60f77c792345403c95f9",
    "cylinder:0.03,0.1":
        "52e231029f37f3a4012250899c1e973c7751eac6c836f7ee4b41f82d3aad389b",
    "cup:0.035,0.09,0.005":
        "2c6b284906b70eed6911ad105fab8f38468fd8a25fe910b344e471618bba44bf",
    "open_box:0.12,0.1,0.06,0.012":
        "5383a7ee2a64aebcf8a5e42451e0431cac2136e7c5c0fc87d3e6e5fd501b1f14",
}


@pytest.mark.parametrize("spec", PRIMITIVES + BENCHMARK_PRIMITIVES)
def test_primitive_bytes_are_pinned(spec):
    mesh = primitive_from_spec(spec)
    h = hashlib.sha256()
    for a in (mesh.vertices, mesh.triangles, mesh.vertex_colors):
        h.update(a.tobytes())
    h.update(repr(mesh.face_labels).encode())
    assert h.hexdigest() == PRIMITIVE_DIGESTS[spec]


TASK_PRIMITIVES = tuple(cfg[role][1] for cfg in _TASK_TABLE.values()
                        for role in ("manipulated", "other"))


@pytest.mark.parametrize(
    "spec", sorted(set(PRIMITIVES + BENCHMARK_PRIMITIVES + TASK_PRIMITIVES)))
def test_primitive_is_closed_and_wound_outward(spec):
    # each face is wound where it is built: every directed edge occurs once
    # and its reverse once, so neighbours agree, and the volume is positive
    mesh = primitive_from_spec(spec)
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    directed = {tuple(e) for e in edges.tolist()}
    assert len(directed) == len(edges)
    assert directed == {(b, a) for a, b in directed}
    assert signed_volume(mesh) > 0


@pytest.mark.parametrize("spec", ["box:0,0.05,0.05", "box:-0.05,0.05,0.05",
                                  "cup:0.035,-0.09,0.005", "cylinder:0.03,-0.0",
                                  "open_box:0.12,0.1,0.06,0"])
def test_primitive_size_must_be_positive(spec):
    with pytest.raises(RejectedInput, match="must be > 0"):
        primitive_from_spec(spec)


def test_wall_as_thick_as_the_primitive_is_rejected():
    for spec in ("cup:0.035,0.09,0.09", "cup:0.035,0.09,0.035",
                 "open_box:0.12,0.1,0.06,0.06", "open_box:0.12,0.1,0.06,0.05"):
        with pytest.raises(RejectedInput, match="wall too thick"):
            primitive_from_spec(spec)


def test_primitive_defaults():
    box = primitive_from_spec("box")
    ext = box.vertices.max(axis=0) - box.vertices.min(axis=0)
    assert np.allclose(ext, 0.06)


def test_canonical_mesh_centers_and_scales():
    mesh = primitive_from_spec("box:0.08,0.06,0.04")
    unit = canonical_mesh(mesh, true_scale=2.0)
    lo, hi = unit.vertices.min(axis=0), unit.vertices.max(axis=0)
    assert np.allclose(lo + hi, 0.0, atol=1e-12)
    assert np.allclose(hi - lo, [0.04, 0.03, 0.02])
    # scaling back up reproduces the original extents
    assert mesh_diameter(unit) * 2.0 == pytest.approx(mesh_diameter(mesh))


def test_label_submesh():
    box = primitive_from_spec("box:0.06,0.06,0.06")
    top = label_submesh(box, "top")
    assert len(top.triangles) > 0
    assert set(top.face_labels) == {"top"}
    # all top-face triangles lie in the z = +0.03 plane
    zs = top.vertices[top.triangles.ravel()][:, 2]
    assert np.allclose(zs, 0.03)


def test_synthetic_observation_consistency():
    obs = synthetic_observation("box:0.07,0.05,0.04", seed=2)
    assert obs.mask.count() > 200
    assert 0.8 <= obs.true_scale <= 1.25
    # masked depth back-projects onto the true-pose real-size mesh surface
    cloud = backproject(obs.depth, obs.intrinsics, obs.mask)
    real_mesh = obs.unit_mesh.scaled(obs.true_scale)
    world = real_mesh.transformed(obs.true_pose_cam)
    d = point_mesh_distance(cloud.points, world)
    assert np.max(d) < 2e-3
    assert obs.diameter == pytest.approx(
        np.linalg.norm([0.07, 0.05, 0.04]), rel=1e-9)


def test_synthetic_observation_deterministic():
    a = synthetic_observation("cup:0.035,0.09,0.005", seed=5)
    b = synthetic_observation("cup:0.035,0.09,0.005", seed=5)
    assert np.array_equal(a.depth.values, b.depth.values)
    assert np.array_equal(a.true_pose_cam.rotation, b.true_pose_cam.rotation)
    c = synthetic_observation("cup:0.035,0.09,0.005", seed=6)
    assert not np.array_equal(a.depth.values, c.depth.values)


def test_generate_synthetic_scene_assets(tmp_path):
    path = generate_synthetic_scene("cube-onto-cube", str(tmp_path), seed=1)
    spec = load_scene_spec(path)
    assert spec.goal == ("on_top", ["cube", "base"])
    assert len(spec.objects) == 2
    color = load_color_ppm(spec.path(spec.rgb))
    depth = load_depth_raw(spec.path(spec.depth))
    assert color.values.shape[:2] == depth.values.shape
    for obj in spec.objects:
        mask = load_mask_pgm(spec.path(obj.mask))
        assert mask.count() > 100
    region = load_mask_pgm(spec.path(spec.region_mask))
    assert region.count() > 50
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert set(truth["objects"]) == {"cube", "base"}


def test_generate_synthetic_scene_region_is_occluded_top(tmp_path):
    # the region mask must not overlap the manipulated object's mask
    path = generate_synthetic_scene("cube-into-box", str(tmp_path), seed=0)
    spec = load_scene_spec(path)
    manip_mask = load_mask_pgm(spec.path(spec.manipulated.mask))
    region = load_mask_pgm(spec.path(spec.region_mask))
    assert not np.any(manip_mask.values & region.values)


def test_unknown_task_rejected(tmp_path):
    with pytest.raises(RejectedInput):
        generate_synthetic_scene("juggle", str(tmp_path))
    assert TASKS == ("cube-into-box", "cube-onto-cube", "cup-on-box")
