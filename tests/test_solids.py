import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinforge import quaternions as quat
from twinforge.errors import RejectedInput
from twinforge.geometry import RigidPose, TriangleMesh, sample_mesh_surface
from twinforge.solids import (PARITY_DIRECTION, MeshIndex, is_watertight,
                              point_mesh_distance, points_inside,
                              signed_volume, volume_and_com)
from twinforge.synth import make_box, make_cup, make_cylinder, make_open_box, make_ramp

from solids_reference import (ray_mesh_depth, ref_exit, ref_first_hit,
                              ref_points_inside)


def test_box_is_watertight_with_correct_volume():
    box = make_box([0.1, 0.2, 0.3])
    assert is_watertight(box)
    vol, com = volume_and_com(box)
    assert vol == pytest.approx(0.1 * 0.2 * 0.3, rel=1e-9)
    assert np.allclose(com, 0.0, atol=1e-9)


def test_signed_volume_orientation():
    box = make_box([0.1, 0.1, 0.1])
    assert signed_volume(box) > 0
    flipped = TriangleMesh(box.vertices, box.triangles[:, ::-1])
    assert signed_volume(flipped) == pytest.approx(-signed_volume(box))


def test_open_mesh_not_watertight():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    assert not is_watertight(mesh)
    with pytest.raises(RejectedInput):
        volume_and_com(mesh)


def test_all_primitives_watertight():
    for mesh in (make_cylinder(0.03, 0.1), make_open_box([0.12, 0.1, 0.06], 0.012),
                 make_cup(0.035, 0.09, 0.005), make_ramp([0.1, 0.08, 0.05])):
        assert is_watertight(mesh)
        vol, _ = volume_and_com(mesh)
        assert vol > 0


def test_open_box_cavity_volume():
    # shell volume is much less than the bounding box volume
    mesh = make_open_box([0.1, 0.1, 0.05], wall=0.005)
    vol, com = volume_and_com(mesh)
    assert vol < 0.5 * 0.1 * 0.1 * 0.05
    assert com[2] < 0.0  # material concentrated toward the bottom


def test_points_inside_box():
    box = make_box([0.2, 0.2, 0.2])
    pts = np.array([[0, 0, 0], [0.05, 0.05, 0.05], [0.15, 0, 0], [0, 0, 0.11]])
    inside = points_inside(pts, box)
    assert inside.tolist() == [True, True, False, False]


def test_points_inside_cup_cavity():
    cup = make_cup(0.035, 0.09, 0.005)
    # cavity point (above interior floor, inside inner radius) is outside the solid
    assert not points_inside(np.array([[0.0, 0.0, 0.02]]), cup)[0]
    # wall point is inside the solid
    assert points_inside(np.array([[0.0335, 0.0, 0.0]]), cup)[0]


def test_ray_mesh_depth_box_face():
    box = make_box([0.2, 0.2, 0.2])
    d = ray_mesh_depth([0.0, 0.0, -1.0], [0.0, 0.0, 1.0], box)
    assert d == pytest.approx(0.9, abs=1e-9)
    assert ray_mesh_depth([5.0, 5.0, -1.0], [0.0, 0.0, 1.0], box) == np.inf
    # a point inside a down index's box exits upward through the top face,
    # 0.02 above the origin; a point above or below the box has no exit.
    # The rays run off the diagonals that split each face in two.
    index = MeshIndex(make_box([0.06, 0.05, 0.04]), (0.0, 0.0, -1.0))
    exits = index.exit([[0.01, 0.004, z] for z in (0.01, -0.01, 0.1, -0.1)])
    assert exits[:2] == pytest.approx([0.01, 0.03], abs=1e-12)
    assert np.all(exits[2:] == np.inf)
    assert index.exit(np.empty((0, 3))).shape == (0,)


def test_point_mesh_distance_exact():
    box = make_box([0.2, 0.2, 0.2])
    pts = np.array([
        [0.0, 0.0, 0.3],        # 0.2 above the top face
        [0.1, 0.0, 0.0],        # on the +x face
        [0.2, 0.2, 0.2],        # corner distance
    ])
    d = point_mesh_distance(pts, box)
    assert d[0] == pytest.approx(0.2, abs=1e-9)
    assert d[1] == pytest.approx(0.0, abs=1e-9)
    assert d[2] == pytest.approx(np.sqrt(3 * 0.1 ** 2), abs=1e-9)


def test_point_mesh_distance_matches_dense_sampling():
    ramp = make_ramp([0.1, 0.08, 0.05])
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.1, 0.1, size=(20, 3))
    exact = point_mesh_distance(pts, ramp)
    surf = sample_mesh_surface(ramp, 20000, seed=1).points
    from scipy.spatial import cKDTree
    approx, _ = cKDTree(surf).query(pts)
    assert np.all(exact <= approx + 1e-9)
    assert np.max(approx - exact) < 0.005


# ---------------------------------------------------------------------------
# MeshIndex against the brute-force scans

def _with_degenerate(mesh):
    """The mesh plus an exactly collinear, a repeated-vertex and a nearly
    collinear triangle, each spanning the mesh's longest vertex chord."""
    v = mesh.vertices
    far = int(np.argmax(np.linalg.norm(v - v[0], axis=1)))
    a, b = v[0], v[far]
    extra = np.array([0.5 * (a + b), 0.5 * (a + b) + [0.0, 0.0, 1e-12]])
    n = len(v)
    tris = np.vstack([mesh.triangles, [[0, far, n], [0, 0, far], [0, n + 1, far]]])
    return TriangleMesh(np.vstack([v, extra]), tris)


MESHES = {
    "box": make_box([0.06, 0.05, 0.04]),
    "cylinder": make_cylinder(0.03, 0.08),
    "open_box": make_open_box([0.12, 0.1, 0.06], 0.012),
    "cup": make_cup(0.035, 0.09, 0.005),
    "ramp": make_ramp([0.1, 0.08, 0.05]),
}
MESHES["box+degenerate"] = _with_degenerate(MESHES["box"])

_unit = st.floats(-1.0, 1.0, allow_nan=False)
poses = st.builds(
    lambda q, t: RigidPose(quat.quat_normalize(np.array(q)), np.array(t)),
    st.tuples(_unit, _unit, _unit, _unit).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    st.tuples(*[st.floats(-0.3, 0.3)] * 3))
# half turns about the axes keep faces square to the axis-aligned casts, so
# rays from points just off a flat face tie on its distance up to rounding:
# the cases where a bound with no slack would skip the nearest hit
square_poses = st.builds(
    lambda q, t: RigidPose(np.array(q, dtype=float), np.array(t)),
    st.sampled_from([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    st.tuples(*[st.floats(-0.3, 0.3)] * 3))


def _query_points(mesh, tol, seed, per_kind=80):
    """Vertices, edge midpoints, face points, face points moved +-tol along
    the face normal, and points far outside the mesh."""
    rng = np.random.default_rng(seed)
    tri = mesh.vertices[mesh.triangles]
    mids = (0.5 * (tri + np.roll(tri, 1, axis=1))).reshape(-1, 3)
    faces = np.einsum("tk,tkj->tj", rng.dirichlet(np.ones(3), len(tri)), tri)
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    length = np.linalg.norm(normal, axis=1)
    keep = length > 0
    unit = normal[keep] / length[keep, None]
    center = mesh.vertices.mean(axis=0)
    dirs = rng.normal(size=(per_kind, 3))
    far = center + dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * 2.0

    def pick(p):
        return p[rng.choice(len(p), min(per_kind, len(p)), replace=False)]

    return np.vstack([pick(mesh.vertices), pick(mids), pick(faces),
                      pick(faces[keep] + tol * unit),
                      pick(faces[keep] - tol * unit), far])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), pose=poses,
       tol=st.sampled_from([0.0, 0.001, 0.003]) | st.floats(-0.005, 0.02),
       seed=st.integers(0, 2**16))
def test_mesh_index_matches_brute_force(name, pose, tol, seed):
    mesh = MESHES[name].transformed(pose)
    pts = _query_points(mesh, tol, seed)
    index = MeshIndex(mesh, PARITY_DIRECTION)
    assert np.array_equal(index.exit(pts),
                          ref_exit(pts, np.negative(PARITY_DIRECTION), mesh))
    expect = point_mesh_distance(pts, mesh) <= tol
    assert np.array_equal(index.within(pts, tol), expect)
    # the settle's contact band runs on its vertical index
    vertical = MeshIndex(mesh, (0.0, 0.0, -1.0))
    assert np.array_equal(vertical.within(pts, tol), expect)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)),
       direction=st.sampled_from([PARITY_DIRECTION, (0.0, 0.0, 1.0),
                                  (1.0, 1.0, 0.0)])
       | st.tuples(_unit, _unit, _unit).filter(
           lambda d: np.linalg.norm(d) > 0.1),
       seed=st.integers(0, 2**16))
def test_points_inside_any_direction_matches_brute_force(name, direction, seed):
    # axis-aligned rays run parallel to whole faces of the box primitives
    mesh = MESHES[name]
    pts = _query_points(mesh, 0.002, seed)
    assert np.array_equal(points_inside(pts, mesh, direction),
                          ref_points_inside(pts, mesh, direction))


CAST_DIRECTIONS = [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (0.3, -0.2, 0.9)]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), pose=poses | square_poses,
       direction=st.sampled_from(CAST_DIRECTIONS),
       gap=st.sampled_from([1e-9, 1e-6, 1e-3]),
       seed=st.integers(0, 2**16))
def test_exit_matches_brute_force(name, pose, direction, gap, seed):
    # the exit ray runs against the index's direction
    mesh = MESHES[name].transformed(pose)
    pts = _query_points(mesh, gap, seed)
    index = MeshIndex(mesh, direction)
    back = np.negative(direction)
    assert np.array_equal(index.exit(pts), ref_exit(pts, back, mesh))
    assert index.exit(np.empty((0, 3))).shape == (0,)
    # rays that start beside the mesh, off the index's grid, have no exit;
    # the far query points sit 2.0 from the mesh centre, so shifting by 2.0
    # could bring one back over the mesh: shift well past that radius
    d = np.asarray(direction) / np.linalg.norm(direction)
    side = np.cross(d, [1.0, 0.0, 0.0] if abs(d[0]) < 0.9 else [0.0, 1.0, 0.0])
    side /= np.linalg.norm(side)
    off = pts + 5.0 * side
    assert np.all(index.exit(off) == np.inf)
    assert np.all(ref_first_hit(off, back, mesh) == np.inf)


CLOSED = sorted(name for name, mesh in MESHES.items() if is_watertight(mesh))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CLOSED), pose=poses | square_poses,
       direction=st.sampled_from(CAST_DIRECTIONS[:2]),
       gap=st.sampled_from([1e-6, 3e-3]) | st.floats(1e-6, 3e-3),
       seed=st.integers(0, 2**16))
def test_vertical_exit_is_finite_exactly_inside(name, pose, direction, gap,
                                                seed):
    # parity along any ray in general position gives the same answer on a
    # closed mesh: a vertical index's exit is finite exactly where the
    # generic parity direction says inside. Points in general position only:
    # face points moved gap along the face normal either way and uniform
    # points in the bounding box; a vertical ray from a vertex or an edge
    # midpoint can run along the surface.
    mesh = MESHES[name].transformed(pose)
    rng = np.random.default_rng(seed)
    tri = mesh.vertices[mesh.triangles]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    rows = rng.choice(len(tri), 200)
    faces = np.einsum("tk,tkj->tj", rng.dirichlet(np.ones(3), 200), tri[rows])
    sign = rng.choice([-1.0, 1.0], size=(200, 1))
    v = mesh.vertices
    pts = np.vstack([faces + sign * gap * normal[rows],
                     rng.uniform(v.min(axis=0), v.max(axis=0), (200, 3))])
    inside = ref_points_inside(pts, mesh)
    assert inside.any()
    assert np.array_equal(np.isfinite(MeshIndex(mesh, direction).exit(pts)),
                          inside)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), pose=poses | square_poses,
       direction=st.sampled_from(CAST_DIRECTIONS),
       gap=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
       quantile=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_first_hit_matches_brute_force_min(name, pose, direction, gap,
                                           quantile, seed):
    mesh = MESHES[name].transformed(pose)
    rng = np.random.default_rng(seed)
    d = np.asarray(direction) / np.linalg.norm(direction)
    # face points moved gap back along the ray, so each first hits its
    # face about gap away, and points beside the mesh, off the grid
    tri = mesh.vertices[mesh.triangles]
    faces = np.einsum("tk,tkj->tj", rng.dirichlet(np.ones(3), len(tri)), tri)
    side = np.cross(d, [1.0, 0.0, 0.0] if abs(d[0]) < 0.9 else [0.0, 1.0, 0.0])
    side /= np.linalg.norm(side)
    pts = _query_points(mesh, gap, seed)
    pts = np.vstack([pts, faces - gap * d, pts[::7] + 5.0 * side])
    expect = ref_first_hit(pts, direction, mesh)
    finite = expect[np.isfinite(expect)]
    between = float(np.quantile(finite, quantile)) if len(finite) else 0.05
    subsets = [np.arange(len(pts)), rng.choice(len(pts), 3, replace=False)]
    subsets += [rng.choice(len(pts), rng.integers(1, len(pts)), replace=False)
                for _ in range(6)]
    index = MeshIndex(mesh, direction)
    for limit in (0.0, np.inf, between):
        assert index.first_hit(np.empty((0, 3)), limit) == limit
        for rows in subsets:
            assert index.first_hit(pts[rows], limit) \
                == min(limit, expect[rows].min())


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), pose=square_poses,
       direction=st.sampled_from(CAST_DIRECTIONS[:2]),
       gap=st.sampled_from([1e-9, 1e-6, 1e-3, 0.02]),
       seed=st.integers(0, 2**16))
def test_first_hit_ties_on_a_face_square_to_the_ray(name, pose, direction,
                                                     gap, seed):
    # rays from one plane gap short of a flat face all hit it at gap, up to
    # the last bits: the nearest is found however those bits fall
    mesh = MESHES[name].transformed(pose)
    rng = np.random.default_rng(seed)
    v = mesh.vertices
    pts = rng.uniform(v.min(axis=0), v.max(axis=0), size=(200, 3))
    pts[:, 2] = (v @ direction).min() * direction[2] - gap * direction[2]
    expect = ref_first_hit(pts, direction, mesh)
    index = MeshIndex(mesh, direction)
    for limit in (np.inf, gap):
        assert index.first_hit(pts, limit) == min(limit, expect.min())


@settings(max_examples=50, deadline=None)
@given(tilt=st.floats(-10.5, -9.0), yaw=st.floats(0.0, 2 * np.pi),
       offset=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
       seed=st.integers(0, 2**16))
def test_first_hit_near_parallel_sliver(tilt, yaw, offset, seed):
    # a triangle 10**tilt rad off parallel to the ray: rays a metre below
    # its lowest edge compute hits up to ~1e-7 nearer than that edge, more
    # than _PAD, so its lowest vertex bounds no ray. Four rays start
    # highest and are cast first; the rest start a little lower.
    c, s = np.cos(yaw), np.sin(yaw)
    spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    v = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                  [0.05, 0.1 * 10 ** tilt, 0.1]]) @ spin.T + offset
    mesh = TriangleMesh(v, [[0, 1, 2]])
    index = MeshIndex(mesh, (0.0, 0.0, 1.0))
    w = np.random.default_rng(seed).dirichlet(np.ones(3), 200)
    w[:, 2] *= 1e-9
    w /= w.sum(axis=1, keepdims=True)
    for deeper in (1e-8, 3e-8, 1e-7):
        pts = w @ v
        pts[:, 2] = v[:, 2].min() - 1.0
        pts[4:, 2] -= deeper
        assert index.first_hit(pts) \
            == ref_first_hit(pts, (0.0, 0.0, 1.0), mesh).min()
