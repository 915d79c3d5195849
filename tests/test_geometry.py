import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinforge import quaternions as quat
from twinforge.errors import RejectedInput
from twinforge.geometry import (Aabb, PointCloud, RigidPose, TriangleMesh,
                                compute_aabb, sample_mesh_surface)


def random_pose(rng):
    return RigidPose(quat.random_quat(rng), rng.normal(scale=0.2, size=3))


def test_pose_compose_matches_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose(a.compose(b).matrix(), a.matrix() @ b.matrix(),
                           atol=1e-12)


def test_pose_inverse():
    rng = np.random.default_rng(1)
    p = random_pose(rng)
    assert np.allclose(p.compose(p.inverse()).matrix(), np.eye(4), atol=1e-12)
    assert np.allclose(p.inverse().matrix(), np.linalg.inv(p.matrix()), atol=1e-12)


def test_pose_apply_matches_matrix():
    rng = np.random.default_rng(2)
    p = random_pose(rng)
    pts = rng.normal(size=(9, 3))
    hom = np.hstack([pts, np.ones((9, 1))])
    assert np.allclose(p.apply(pts), (p.matrix() @ hom.T).T[:, :3], atol=1e-12)


unit_quats = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(
    np.array).filter(lambda q: np.linalg.norm(q) > 0.1).map(quat.quat_normalize)
poses = st.builds(RigidPose, unit_quats,
                  st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
point_sets = st.lists(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
                      min_size=1, max_size=8).map(np.array)


@settings(max_examples=200, deadline=None)
@given(a=poses, b=poses, c=poses, pts=point_sets)
def test_pose_algebra_properties(a, b, c, pts):
    # compose is associative, on matrices and on points
    left, right = a.compose(b).compose(c), a.compose(b.compose(c))
    assert np.allclose(left.matrix(), right.matrix(), rtol=0, atol=1e-12)
    assert np.allclose(left.apply(pts), right.apply(pts), rtol=0, atol=1e-12)
    # an inverse undoes its pose from either side
    for ident in (a.inverse().compose(a), a.compose(a.inverse())):
        assert np.allclose(ident.matrix(), np.eye(4), rtol=0, atol=1e-12)
        assert np.allclose(ident.apply(pts), pts, rtol=0, atol=1e-12)
    # apply is the homogeneous matrix product
    hom = np.hstack([pts, np.ones((len(pts), 1))])
    assert np.allclose(a.apply(pts), (a.matrix() @ hom.T).T[:, :3],
                       rtol=0, atol=1e-12)


def test_pose_from_matrix_roundtrip():
    rng = np.random.default_rng(3)
    p = random_pose(rng)
    q = RigidPose.from_rotation_matrix(quat.quat_to_matrix(p.rotation),
                                       p.translation)
    assert np.allclose(q.matrix(), p.matrix(), atol=1e-9)


def test_pose_rejects_bad_input():
    with pytest.raises(ValueError):
        RigidPose(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(RejectedInput):
        RigidPose(quat.IDENTITY, [np.nan, 0.0, 0.0])


def test_pose_immutable():
    p = RigidPose.identity()
    with pytest.raises(ValueError):
        p.translation[0] = 1.0


def test_point_cloud_validation():
    c = PointCloud(np.zeros((4, 3)))
    assert len(c) == 4
    with pytest.raises(RejectedInput):
        PointCloud(np.array([[np.inf, 0, 0]]))


def test_mesh_validation_and_areas():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    assert mesh.triangle_areas() == pytest.approx([0.5])
    with pytest.raises(RejectedInput):
        TriangleMesh(verts, [[0, 1, 9]])
    with pytest.raises(RejectedInput):
        TriangleMesh(verts, [[0, 1, -1]])
    for bad in (np.nan, np.inf):
        broken = verts.copy()
        broken[3, 1] = bad
        with pytest.raises(RejectedInput):
            TriangleMesh(broken, [[0, 1, 2]])


def test_mesh_transform_and_scale():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    pose = RigidPose(quat.IDENTITY, [0, 0, 2.0])
    assert np.allclose(mesh.transformed(pose).vertices[:, 2], 2.0)
    scaled = mesh.scaled([2.0, 3.0, 1.0])
    assert np.allclose(scaled.vertices[1], [2, 0, 0])
    assert np.allclose(scaled.vertices[2], [0, 3, 0])


def test_aabb():
    box = Aabb([0, 0, 0], [1, 2, 3])
    assert np.allclose(box.extents, [1, 2, 3])
    assert box.contains([0.5, 0.5, 0.5])[0]
    assert not box.contains([1.5, 0.5, 0.5])[0]
    assert box.contains([1.05, 0.5, 0.5], margin=0.1)[0]
    with pytest.raises(RejectedInput):
        Aabb([1, 0, 0], [0, 1, 1])


def test_compute_aabb():
    box = compute_aabb(PointCloud([[1, 0, 0], [2, 1, 1]]))
    assert np.allclose(box.min, [1, 0, 0])
    assert np.allclose(box.max, [2, 1, 1])
    with pytest.raises(RejectedInput):
        compute_aabb(np.empty((0, 3)))


def test_sample_mesh_surface_area_weighting():
    # two parallel triangles with a 9:1 area ratio; sample counts must follow
    verts = np.array([
        [0, 0, 0], [3, 0, 0], [0, 6, 0],     # area 9
        [5, 0, 0], [6, 0, 0], [5, 2, 0],     # area 1
    ], dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
    cloud = sample_mesh_surface(mesh, 20000, seed=0)
    on_big = np.mean(cloud.points[:, 0] < 4.0)
    assert abs(on_big - 0.9) < 0.05 * 0.9


def test_sample_mesh_surface_deterministic_and_on_surface():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    a = sample_mesh_surface(mesh, 100, seed=5)
    b = sample_mesh_surface(mesh, 100, seed=5)
    assert np.array_equal(a.points, b.points)
    assert np.allclose(a.points[:, 2], 0.0)
    # barycentric points stay inside the triangle
    assert np.all(a.points[:, 0] + a.points[:, 1] <= 1.0 + 1e-12)
    with pytest.raises(RejectedInput):
        sample_mesh_surface(mesh, 0, seed=0)
