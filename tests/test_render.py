import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from render_reference import ref_rasterize, ref_render_scene
from solids_reference import ray_mesh_depth
from twinforge import quaternions as quat
from twinforge.camera import CameraIntrinsics, backproject
from twinforge.coarse import _describe, grid_descriptor
from twinforge.geometry import RigidPose, TriangleMesh
from twinforge.render import (_LUMA, BACKGROUND, NEAR, _rasterize, render,
                              render_batch, render_scene)
from twinforge.solids import point_mesh_distance
from twinforge.synth import (PRIMITIVES, make_box, make_cup, make_cylinder,
                             make_open_box, make_ramp)


def intr(size=64, focal=80.0):
    return CameraIntrinsics(fx=focal, fy=focal, cx=size / 2.0, cy=size / 2.0,
                            width=size, height=size)


def batch_of(mesh, poses, cam):
    """render_batch of a pose list, passed as rotation and translation
    arrays."""
    return render_batch(mesh, np.array([p.rotation for p in poses]),
                        np.array([p.translation for p in poses]), cam)


def box_pose(seed=0, z=0.5):
    rng = np.random.default_rng(seed)
    return RigidPose(quat.random_quat(rng), [0.0, 0.0, z])


def test_background_and_empty_mesh():
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    view = render(mesh, RigidPose.identity(), intr())
    assert np.allclose(view.rgb.values, BACKGROUND)
    assert np.all(view.depth.values == 0.0)
    assert np.all(view.object_ids == -1)
    # render_batch gives every pose its background image, also when the mesh
    # has no triangles or a pose's triangles are all culled or clipped
    box = make_box([0.08, 0.06, 0.05])
    behind = RigidPose(quat.IDENTITY, [0.0, 0.0, -0.5])
    background = view.rgb.values @ _LUMA
    for m, poses in ((mesh, [RigidPose.identity()] * 3),
                     (box, [behind, box_pose(2), behind])):
        batch = batch_of(m, poses, intr())
        assert batch.shape == (3, 64, 64)
        for i, pose in enumerate(poses):
            assert np.array_equal(batch[i], render(m, pose, intr()).rgb.values
                                  @ _LUMA)
    assert np.array_equal(batch[[0, 2]], [background] * 2)
    assert not np.array_equal(batch[1], background)


def test_depth_matches_ray_oracle_on_box():
    cam = intr()
    mesh = make_box([0.08, 0.06, 0.05])
    pose = box_pose(3)
    view = render(mesh, pose, cam)
    world = mesh.transformed(pose)
    covered = np.argwhere(view.depth.values > 0)
    assert len(covered) > 100
    bad = 0
    for v, u in covered:
        d = np.array([(u + 0.5 - cam.cx) / cam.fx,
                      (v + 0.5 - cam.cy) / cam.fy, 1.0])
        t = ray_mesh_depth([0.0, 0.0, 0.0], d, world)
        if not np.isfinite(t) or abs(t - view.depth.values[v, u]) > 1e-4:
            bad += 1
    assert bad == 0


def test_render_backproject_points_on_surface():
    cam = intr(size=128, focal=160.0)
    mesh = make_box([0.08, 0.06, 0.05])
    pose = box_pose(7)
    view = render(mesh, pose, cam)
    cloud = backproject(view.depth, cam)
    assert len(cloud) > 500
    d = point_mesh_distance(cloud.points, mesh.transformed(pose))
    assert np.max(d) < 1e-3


def test_near_plane_rejection():
    mesh = make_box([0.08, 0.08, 0.08])
    view = render(mesh, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.02]), intr())
    # the box straddles the near plane: triangles touching z < near are
    # dropped whole, so only the back face at z = 0.06 can remain
    vals = view.depth.values
    assert np.all((vals == 0.0) | (np.abs(vals - 0.06) < 1e-9))
    assert np.any(np.abs(vals - 0.06) < 1e-9)


def test_mesh_behind_camera_invisible():
    mesh = make_box([0.08, 0.08, 0.08])
    view = render(mesh, RigidPose(quat.IDENTITY, [0.0, 0.0, -0.5]), intr())
    assert np.all(view.depth.values == 0.0)


def test_each_pixel_owned_once():
    # adjacent triangles sharing an edge: every covered pixel is drawn exactly
    # once, so depth is well defined and no seams appear between them
    verts = np.array([[-0.1, -0.1, 0.5], [0.1, -0.1, 0.5],
                      [0.1, 0.1, 0.5], [-0.1, 0.1, 0.5]])
    mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3]],
                        np.tile([[0.2, 0.4, 0.6]], (4, 1)))
    view = render(mesh, RigidPose.identity(), intr())
    covered = view.depth.values > 0
    assert covered.sum() > 500
    assert np.allclose(view.depth.values[covered], 0.5, atol=1e-9)
    # no pixel along the shared diagonal may be missing (no cracks)
    ys, xs = np.nonzero(covered)
    for y in range(ys.min() + 1, ys.max()):
        row = covered[y]
        on = np.nonzero(row)[0]
        assert np.array_equal(on, np.arange(on[0], on[-1] + 1))


def test_zbuffer_occlusion_order_independent():
    front = make_box([0.06, 0.06, 0.02])
    back = make_box([0.1, 0.1, 0.02])
    p_front = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.4])
    p_back = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.6])
    cam_pose = RigidPose.identity()
    a = render_scene([(front, p_front), (back, p_back)], cam_pose, intr())
    b = render_scene([(back, p_back), (front, p_front)], cam_pose, intr())
    center = a.object_ids[32, 32]
    assert center == 0  # the nearer object wins
    assert b.object_ids[32, 32] == 1  # same object, other index
    assert np.allclose(a.depth.values, b.depth.values, atol=1e-12)


def test_render_scene_single_identity_matches_render():
    cam = intr()
    mesh = make_box([0.08, 0.06, 0.05])
    pose = box_pose(11)
    direct = render(mesh, pose, cam)
    scene = render_scene([(mesh, pose)], RigidPose.identity(), cam)
    assert np.array_equal(direct.depth.values, scene.depth.values)
    assert np.array_equal(direct.rgb.values, scene.rgb.values)


def test_object_ids_match_coverage():
    cam = intr()
    mesh = make_box([0.08, 0.06, 0.05])
    view = render(mesh, box_pose(13), cam)
    covered = view.depth.values > 0
    assert np.array_equal(view.object_ids >= 0, covered)


def test_shading_modulates_color():
    # a tilted face must render darker than a fronto-parallel one
    verts = np.array([[-0.1, -0.1, 0.5], [0.1, -0.1, 0.5], [0.0, 0.1, 0.5]])
    flat = TriangleMesh(verts, [[0, 1, 2]], np.ones((3, 3)))
    tilted_verts = verts.copy()
    tilted_verts[2, 2] = 0.75
    tilted = TriangleMesh(tilted_verts, [[0, 1, 2]], np.ones((3, 3)))
    va = render(flat, RigidPose.identity(), intr())
    vb = render(tilted, RigidPose.identity(), intr())
    ca = va.rgb.values[va.depth.values > 0].mean()
    cb = vb.rgb.values[vb.depth.values > 0].mean()
    assert cb < ca


def test_dump_writes_files(tmp_path):
    view = render(make_box([0.08, 0.06, 0.05]), box_pose(1), intr())
    view.dump(str(tmp_path / "out"))
    assert (tmp_path / "out_rgb.ppm").exists()
    assert (tmp_path / "out_depth.pgm").exists()


def test_backface_cull_image_identical():
    # consistently wound watertight meshes render identically with culling
    cam = intr()
    for spec in ([0.08, 0.06, 0.05], [0.04, 0.04, 0.09]):
        mesh = make_box(spec)
        for seed in range(3):
            args = (box_pose(seed).apply(mesh.vertices), mesh.triangles,
                    mesh.vertex_colors, np.zeros(len(mesh.triangles), np.int64),
                    cam)
            _assert_same_buffers(_rasterize(*args, cull=True),
                                 _rasterize(*args, cull=False))


BATCH_SIZES = ((12, 9), (40, 37), (128, 128))


def _ref_color(mesh, pose, cam, cull):
    """The reference rasterizer's (H, W, 3) colour of one posed mesh."""
    return ref_rasterize(pose.apply(mesh.vertices), mesh.triangles,
                         mesh.vertex_colors,
                         np.zeros(len(mesh.triangles), dtype=np.int64), cam,
                         NEAR, BACKGROUND, cull=cull)[1]


def _meshes_with_and_without_colours():
    for name, mesh in PRIMITIVE_MESHES.items():
        yield name, mesh
        yield f"{name} uncoloured", TriangleMesh(mesh.vertices, mesh.triangles)


def test_render_batch_matches_single_renders():
    # image i is the luminance of pose i drawn alone with every face, bit
    # for bit, for every built-in primitive: culling back faces changes no
    # pixel of these meshes
    poses = [box_pose(s, z=0.3) for s in range(9)]
    for w, h in BATCH_SIZES:
        cam = CameraIntrinsics(60.0, 60.0, w / 2, h / 2, w, h)
        for name, mesh in _meshes_with_and_without_colours():
            lum = batch_of(mesh, poses, cam)
            assert lum.shape == (9, h, w) and lum.flags.c_contiguous
            for pose, image in zip(poses, lum):
                want = _ref_color(mesh, pose, cam, False) @ _LUMA
                assert np.array_equal(image, want), (name, w, h)


def test_batch_descriptors_equal_single_render_descriptors():
    # the descriptor of a batch image is the descriptor grid_descriptor
    # gives the reference colour image of its pose alone, bit for bit
    poses = [box_pose(s, z=0.3) for s in range(6)]
    for w, h in BATCH_SIZES:
        cam = CameraIntrinsics(60.0, 60.0, w / 2, h / 2, w, h)
        for name, mesh in _meshes_with_and_without_colours():
            got = _describe(batch_of(mesh, poses, cam))
            want = [grid_descriptor(_ref_color(mesh, p, cam, True)[None])[0]
                    for p in poses]
            assert np.array_equal(got, want), (name, w, h)


# ---------------------------------------------------------------------------
# Row-span rasterizer and stacked images against the bounding-box reference

PRIMITIVE_MESHES = {
    "box": make_box([0.06, 0.05, 0.04]),
    "cylinder": make_cylinder(0.03, 0.08),
    "open_box": make_open_box([0.12, 0.1, 0.06], 0.012),
    "cup": make_cup(0.035, 0.09, 0.005),
    "ramp": make_ramp([0.1, 0.08, 0.05]),
}
assert set(PRIMITIVE_MESHES) == set(PRIMITIVES)

_unit = st.floats(-1.0, 1.0, allow_nan=False)
# z from behind the camera, through the near plane, out to far away
poses = st.builds(
    lambda q, xy, z: RigidPose(quat.quat_normalize(np.array(q)),
                               np.array([xy[0], xy[1], z])),
    st.tuples(_unit, _unit, _unit, _unit).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15)),
    st.sampled_from([0.0, 0.02, 0.04]) | st.floats(-0.1, 1.0))
cameras = st.builds(
    lambda w, h, f, cx, cy: CameraIntrinsics(f, f, cx * w, cy * h, w, h),
    st.integers(1, 48), st.integers(1, 48), st.floats(20.0, 200.0),
    st.floats(0.0, 0.999), st.floats(0.0, 0.999))


def _assert_same_buffers(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PRIMITIVE_MESHES)), pose=poses, cam=cameras,
       cull=st.booleans(), colored=st.booleans())
def test_rasterize_primitives_match_bbox_reference(name, pose, cam, cull,
                                                   colored):
    mesh = PRIMITIVE_MESHES[name]
    verts = pose.apply(mesh.vertices)
    colors = mesh.vertex_colors if colored else None
    args = (verts, mesh.triangles, colors, np.arange(len(mesh.triangles)), cam)
    _assert_same_buffers(_rasterize(*args, cull=cull),
                         ref_rasterize(*args, NEAR, BACKGROUND, cull=cull))


def _pixel_soup(kind, rng, w, h):
    """(T, 3, 2) pixel-space triangles of one stress kind."""
    n = 24
    if kind == "centres":  # every vertex on a pixel centre
        return rng.integers(-3, max(w, h) + 3, (n, 3, 2)) + 0.5
    if kind == "axis":  # one horizontal and one vertical edge each
        a = rng.uniform(-2, max(w, h) + 2, (n, 2))
        ext = rng.choice([-1, 1], (n, 2)) * rng.uniform(0.3, 8, (n, 2))
        b = a + np.stack([ext[:, 0], np.zeros(n)], axis=1)
        c = a + np.stack([np.zeros(n), ext[:, 1]], axis=1)
        return np.round(np.stack([a, b, c], axis=1) * 4) / 4
    if kind == "subpixel":
        a = rng.uniform(0, max(w, h), (n, 1, 2))
        return a + rng.uniform(-0.6, 0.6, (n, 3, 2))
    if kind == "sliver":  # nearly collinear, from 1e-9 px to 1e-2 px thick
        a = rng.uniform(0, max(w, h), (n, 2))
        b = a + rng.uniform(-20, 20, (n, 2))
        d = b - a
        perp = np.stack([-d[:, 1], d[:, 0]], axis=1)
        perp /= np.maximum(np.linalg.norm(perp, axis=1, keepdims=True), 1e-12)
        c = (a + rng.uniform(-0.5, 1.5, (n, 1)) * d
             + 10.0 ** rng.uniform(-9, -2, (n, 1)) * perp)
        return np.stack([a, b, c], axis=1)
    if kind == "rows":  # each vertex 1e-9 to 1e-15 px off a centre row
        k = rng.integers(-1, h + 1, (n, 3))
        dy = rng.choice([-1, 1], (n, 3)) * 10.0 ** -rng.integers(9, 16, (n, 3))
        x = rng.integers(-1, w + 1, (n, 3)) + rng.choice([0.5, 0.0, 0.3], (n, 3))
        return np.stack([x, k + 0.5 + dy], axis=2)
    if kind == "through":  # edges through pixel centres, off-grid endpoints
        p = rng.integers(0, max(w, h), (n, 2)) + 0.5
        q = p + rng.integers(-6, 7, (n, 2))
        s, t = rng.choice([1 / 3, 0.1, 0.7, 1 / 7], (2, n, 1))
        a, b = p - s * (q - p), q + t * (q - p)
        c = rng.uniform(-2, max(w, h) + 2, (n, 2))
        return np.stack([a, b, c], axis=1)
    return rng.uniform(-0.5 * w, 1.5 * max(w, h), (n, 3, 2))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["centres", "axis", "subpixel", "sliver",
                             "through", "rows", "random"]),
       size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       seed=st.integers(0, 2**16), cull=st.booleans(), stacked=st.booleans())
def test_rasterize_stress_triangles_match_bbox_reference(kind, size, seed, cull,
                                                         stacked):
    # unit focal length and principal point at the origin: a vertex at
    # (u z, v z, z) with a power-of-two z projects to exactly (u, v)
    w, h = size
    rng = np.random.default_rng(seed)
    uv = _pixel_soup(kind, rng, w, h)
    z = 2.0 ** rng.integers(-1, 3, uv.shape[:2])
    # a few vertices on or in front of the near plane
    z[rng.random(z.shape) < 0.05] = rng.choice([0.01, 0.005, -1.0])
    verts = np.concatenate([uv * z[..., None], z[..., None]], axis=2)
    verts = verts.reshape(-1, 3)
    tris = np.arange(len(verts)).reshape(-1, 3)
    colors = rng.random((len(verts), 3))
    cam = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, w, h)
    if not stacked:
        args = (verts, tris, colors, np.arange(len(tris)), cam)
        _assert_same_buffers(_rasterize(*args, cull=cull),
                             ref_rasterize(*args, NEAR, BACKGROUND, cull=cull))
        return
    # each triangle goes to a random image of the stack, some images get
    # none: image i must be the render of its own triangles alone
    n = int(rng.integers(1, 5))
    image = rng.integers(0, n, len(tris))
    got = _rasterize(verts, tris, colors, image, cam, cull=cull, images=n)
    assert got[0].shape == (n, h, w)
    for i in range(n):
        own = image == i
        _assert_same_buffers([b[i] for b in got],
                             ref_rasterize(verts, tris[own], colors, image[own],
                                           cam, NEAR, BACKGROUND, cull=cull))


def test_exact_depth_ties_go_to_the_earliest_triangle():
    # the same quad twice: every covered pixel ties exactly in depth
    verts = np.array([[-0.1, -0.1, 0.5], [0.1, -0.1, 0.5],
                      [0.1, 0.1, 0.5], [-0.1, 0.1, 0.5]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 1, 2], [0, 2, 3]])
    ids = np.array([0, 0, 1, 1])
    args = (verts, tris, None, ids, intr())
    got = _rasterize(*args)
    _assert_same_buffers(got, ref_rasterize(*args, NEAR, BACKGROUND))
    assert np.all(got[2][got[0] < np.inf] == 0)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(PRIMITIVE_MESHES)),
       pose_list=st.lists(poses, min_size=1, max_size=10),
       size=st.sampled_from(BATCH_SIZES),
       colored=st.booleans())
def test_render_batch_matches_per_pose_reference(name, pose_list, size,
                                                 colored):
    # (128, 128) draws four poses per pass, so ten poses take three passes.
    # The batch always culls back faces; the stress test covers the unculled
    # path.
    mesh = PRIMITIVE_MESHES[name]
    if not colored:
        mesh = TriangleMesh(mesh.vertices, mesh.triangles)
    w, h = size
    cam = CameraIntrinsics(60.0, 60.0, w / 2, h / 2, w, h)
    got = batch_of(mesh, pose_list, cam)
    assert got.shape == (len(pose_list), h, w) and got.flags.c_contiguous
    assert not got.flags.writeable
    for pose, lum in zip(pose_list, got):
        _assert_same_buffers([lum], [_ref_color(mesh, pose, cam, True) @ _LUMA])


@settings(max_examples=40, deadline=None)
@given(scene=st.lists(st.tuples(st.sampled_from(sorted(PRIMITIVE_MESHES)),
                                st.booleans(), st.integers(0, 2**16)),
                      min_size=1, max_size=3),
       view_seed=st.integers(0, 2**16), standoff=st.floats(0.05, 0.8),
       cam=cameras)
def test_render_scene_matches_per_object_reference(scene, view_seed, standoff,
                                                   cam):
    # objects at random world poses round the origin, some without colours;
    # the camera sits at a random orientation, looking at the origin from
    # a standoff that puts some objects through the near plane
    objects = []
    for name, colored, seed in scene:
        mesh = PRIMITIVE_MESHES[name]
        if not colored:
            mesh = TriangleMesh(mesh.vertices, mesh.triangles)
        rng = np.random.default_rng(seed)
        objects.append((mesh, RigidPose(quat.random_quat(rng),
                                        rng.uniform(-0.1, 0.1, 3))))
    q = quat.random_quat(np.random.default_rng(view_seed))
    view = RigidPose(q, -quat.quat_rotate(q, [0.0, 0.0, standoff]))
    got = render_scene(objects, view, cam)
    want = ref_render_scene(objects, view, cam)
    _assert_same_buffers((got.rgb.values, got.depth.values, got.object_ids),
                         (want.rgb.values, want.depth.values, want.object_ids))
