import numpy as np
import pytest

from twinforge.camera import BinaryMask, ColorImage, DepthImage
from twinforge.errors import RejectedInput
from twinforge.fileio import (load_color_ppm, load_depth_pgm, load_depth_raw,
                              load_mask_pgm, load_mesh, load_obj, load_ply,
                              save_color_ppm, save_depth_pgm, save_depth_raw,
                              save_mask_pgm, save_ply)
from twinforge.geometry import TriangleMesh
from twinforge.solids import signed_volume


def test_color_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = ColorImage(rng.random((7, 5, 3)))
    path = tmp_path / "img.ppm"
    save_color_ppm(path, img)
    back = load_color_ppm(path)
    assert back.values.shape == (7, 5, 3)
    assert np.max(np.abs(back.values - img.values)) <= 0.5 / 255 + 1e-9


def test_depth_pgm_roundtrip(tmp_path):
    depth = DepthImage(np.array([[0.1, 0.0], [1.5, 0.25]]))
    path = tmp_path / "d.pgm"
    save_depth_pgm(path, depth)
    back = load_depth_pgm(path)
    assert np.max(np.abs(back.values - depth.values)) <= 0.001


def test_depth_raw_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    depth = DepthImage(rng.uniform(0.0, 2.0, size=(6, 9)))
    path = tmp_path / "d.f32"
    save_depth_raw(path, depth)
    back = load_depth_raw(path)
    assert back.values.shape == (6, 9)
    assert np.max(np.abs(back.values - depth.values)) < 1e-6


def test_depth_raw_nan_becomes_invalid(tmp_path):
    d = np.ones((2, 2))
    d[0, 0] = np.nan
    path = tmp_path / "d.f32"
    save_depth_raw(path, DepthImage(d))
    back = load_depth_raw(path)
    assert back.values[0, 0] == 0.0


def test_mask_pgm_roundtrip(tmp_path):
    mask = BinaryMask(np.eye(5, dtype=bool))
    path = tmp_path / "m.pgm"
    save_mask_pgm(path, mask)
    back = load_mask_pgm(path)
    assert np.array_equal(back.values, mask.values)


def test_pnm_comment_header(tmp_path):
    path = tmp_path / "c.pgm"
    with open(path, "wb") as f:
        f.write(b"P5\n# a comment\n2 2\n255\n")
        f.write(bytes([0, 255, 255, 0]))
    mask = load_mask_pgm(path)
    assert mask.count() == 2


def test_truncated_pnm_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    with open(path, "wb") as f:
        f.write(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(RejectedInput):
        load_mask_pgm(path)


@pytest.mark.parametrize("header", [b"P5\n4 four\n255\n", b"P5\n4 4\n2.5e2\n",
                                    b"P5\n0 4\n255\n", b"\xff\xfe\n4 4\n255\n"])
def test_malformed_pnm_header_rejected(tmp_path, header):
    path = tmp_path / "t.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(RejectedInput):
        load_mask_pgm(path)


@pytest.mark.parametrize("header", [b"DEPTHF32 two 200\n", b"DEPTHF32 4 -4\n",
                                    b"DEPTHF32 4 4.0\n", b"\xffDEPTHF32 4 4\n"])
def test_malformed_raw_depth_header_rejected(tmp_path, header):
    path = tmp_path / "d.f32"
    path.write_bytes(header + bytes(64))
    with pytest.raises(RejectedInput):
        load_depth_raw(path)


def test_truncated_raw_depth_rejected(tmp_path):
    path = tmp_path / "d.f32"
    save_depth_raw(path, DepthImage(np.ones((4, 5))))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(RejectedInput, match="truncated raw depth payload"):
        load_depth_raw(path)


def _mesh(colors=False):
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    vc = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=float) \
        if colors else None
    return TriangleMesh(verts, tris, vc)


# _mesh(colors=True) as OBJ text: the per-vertex colour extension, a
# comment, texture indices and one quad face, which load_obj fans into the
# mesh's two triangles
_OBJ_TEXT = """\
# two triangles as one quad
v 0 0 0 1 0 0
v 1 0 0 0 1 0
v 0 1 0 0 0 1
v 0 0 1 1 1 0
f 1/1 2/2 3/3 4/4
"""


def test_obj_roundtrip(tmp_path):
    mesh = _mesh(colors=True)
    path = tmp_path / "m.obj"
    path.write_text(_OBJ_TEXT)
    back = load_obj(str(path))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.vertex_colors, mesh.vertex_colors)


def test_ply_roundtrip(tmp_path):
    mesh = _mesh(colors=True)
    path = tmp_path / "m.ply"
    save_ply(path, mesh)
    back = load_ply(str(path))
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.max(np.abs(back.vertex_colors - mesh.vertex_colors)) <= 0.5 / 255


def test_ply_without_colors(tmp_path):
    mesh = _mesh(colors=False)
    path = tmp_path / "m.ply"
    save_ply(path, mesh)
    back = load_ply(str(path))
    assert back.vertex_colors is None


def test_load_mesh_dispatch(tmp_path):
    mesh = _mesh()
    (tmp_path / "a.obj").write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\n")
    save_ply(tmp_path / "a.ply", mesh)
    assert len(load_mesh(str(tmp_path / "a.obj")).triangles) == 2
    assert len(load_mesh(str(tmp_path / "a.ply")).triangles) == 2
    with pytest.raises(RejectedInput):
        load_mesh(str(tmp_path / "a.stl"))


def test_load_mesh_turns_a_closed_inward_mesh_outward(tmp_path):
    # a tetrahedron wound outward, the same wound inward, and an open
    # inward sheet: only the closed inward one is reversed
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    out = TriangleMesh(verts, [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    assert signed_volume(out) > 0
    for name, mesh, expect in (
            ("out", out, out.triangles),
            ("in", TriangleMesh(verts, out.triangles[:, ::-1]), out.triangles),
            ("open", _mesh(), _mesh().triangles)):
        save_ply(tmp_path / f"{name}.ply", mesh)
        assert np.array_equal(
            load_mesh(str(tmp_path / f"{name}.ply")).triangles, expect)
