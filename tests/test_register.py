import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from twinforge import quaternions as quat
from twinforge import register
from twinforge.errors import RejectedInput, StageFailureError
from twinforge.geometry import PointCloud, RigidPose, sample_mesh_surface
from twinforge.register import (NORMAL_K, AlignConfig, IcpParams, Neighbours,
                                RMSE_INF, SCALE_CLAMP, RansacParams,
                                alignment_success, compute_fpfh,
                                estimate_normals, estimate_scale, icp_refine,
                                kabsch, mutual_correspondences,
                                ransac_register, two_stage_align)
from twinforge.synth import make_ramp, synthetic_observation

from register_reference import (ref_compute_fpfh, ref_icp_refine,
                                ref_mutual_correspondences, ref_pair_features,
                                ref_fit_svd, ref_ransac_register,
                                ref_trial_inliers)


def _aabb_corner_cloud(extents):
    ex, ey, ez = extents
    corners = np.array([[x, y, z] for x in (0, ex) for y in (0, ey)
                        for z in (0, ez)], dtype=float)
    return PointCloud(corners)


def test_estimate_scale_is_median_ratio():
    # rendered extents (1, 2, 4) vs observed (2, 2, 4): ratios (2, 1, 1),
    # one scale, their median
    scale = estimate_scale(_aabb_corner_cloud((1, 2, 4)),
                           _aabb_corner_cloud((2, 2, 4)))
    assert scale == pytest.approx(1.0)


def test_estimate_scale_degenerate_axis_falls_back_to_median():
    # a flat rendered axis has no ratio; the others set the scale
    flat = PointCloud([[0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 2, 0]])
    obs = _aabb_corner_cloud((2, 4, 1))
    assert estimate_scale(flat, obs) == pytest.approx(2.0)


def test_estimate_scale_clamped():
    # the ratio is not clipped: a scale outside SCALE_CLAMP reaches
    # coarse_align, which fails on it
    scale = estimate_scale(_aabb_corner_cloud((1, 1, 1)),
                           _aabb_corner_cloud((100, 100, 100)))
    assert scale == 100.0
    assert not SCALE_CLAMP[0] <= scale <= SCALE_CLAMP[1]
    with pytest.raises(RejectedInput):
        estimate_scale(PointCloud(np.empty((0, 3))), _aabb_corner_cloud((1, 1, 1)))


def _plane_cloud(n=20, spacing=0.005, z=0.0):
    xs = np.arange(n) * spacing
    xx, yy = np.meshgrid(xs, xs)
    return PointCloud(np.stack([xx.ravel(), yy.ravel(),
                                np.full(n * n, z)], axis=1))


def test_estimate_normals_plane():
    cloud = _plane_cloud()
    normals, valid = estimate_normals(cloud)
    assert valid.all()
    assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
    with pytest.raises(RejectedInput):
        estimate_normals(PointCloud(np.zeros((5, 3))))


def test_fpfh_plane_descriptors_nearly_identical():
    cloud = _plane_cloud(z=0.3)
    normals, valid = estimate_normals(cloud)
    desc = compute_fpfh(cloud, normals, valid=valid)
    # interior points (away from the boundary) share the same local geometry
    pts = cloud.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    interior = np.all((pts[:, :2] > lo[:2] + 0.02) & (pts[:, :2] < hi[:2] - 0.02),
                      axis=1)
    d = desc[interior]
    pair_l1 = np.abs(d[:, None, :] - d[None, :, :]).sum(axis=2)
    assert pair_l1.max() < 0.1


def test_fpfh_edge_differs_from_plane():
    # L-shaped surface: points on the fold line get different descriptors
    n, s = 20, 0.005
    xs = np.arange(n) * s
    flat = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    plane = np.column_stack([flat, np.zeros(len(flat))])
    wall = np.column_stack([flat[:, 0], np.full(len(flat), xs[-1]), flat[:, 1] + s])
    cloud = PointCloud(np.vstack([plane, wall]))
    normals, valid = estimate_normals(cloud)
    desc = compute_fpfh(cloud, normals, valid=valid)
    pts = cloud.points
    interior = (pts[:, 2] == 0) & (pts[:, 1] > 0.02) & (pts[:, 1] < 0.07) \
        & (pts[:, 0] > 0.02) & (pts[:, 0] < 0.07)
    edge = (pts[:, 2] == 0) & (pts[:, 1] >= xs[-1] - s / 2)
    ref = desc[interior].mean(axis=0)
    d_int = np.abs(desc[interior] - ref).sum(axis=1).mean()
    d_edge = np.abs(desc[edge] - ref).sum(axis=1).mean()
    assert d_edge > 2 * d_int


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 300), seed=st.integers(0, 2**16),
       invalid=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       isolated=st.integers(0, 5), duplicates=st.integers(0, 5),
       radius=st.none() | st.floats(0.001, 0.05), shared=st.booleans())
def test_fpfh_matches_loop_reference(n, seed, invalid, isolated, duplicates,
                                     radius, shared):
    # clustered points, a few far from everything, a few exact duplicates
    # (zero-length pairs), some normals invalid; descriptors bit for bit,
    # with the cloud's neighbourhood built inside or handed in
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=0.02, size=(n, 3))
    pts[:isolated] += rng.choice([-1.0, 1.0], (min(isolated, n), 3))
    dup = rng.integers(0, n, duplicates)
    pts = np.vstack([pts, pts[dup]])
    normals = rng.normal(size=pts.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = rng.random(len(pts)) >= invalid
    cloud = PointCloud(pts)
    got = compute_fpfh(cloud, normals, radius, valid,
                       Neighbours.of(cloud) if shared else None)
    want = ref_compute_fpfh(cloud, normals, radius, valid)
    assert got.shape == want.shape == (len(pts), 33)
    assert np.array_equal(got, want)


def test_fpfh_matches_loop_reference_on_alignment_clouds():
    obs = synthetic_observation("cup:0.035,0.09", seed=0)
    for mesh_pts in (sample_mesh_surface(obs.unit_mesh, 800, seed=1),
                     _ramp_cloud(800, seed=2)):
        # one neighbourhood for the normals and the descriptors, as
        # fine_register shares it
        shared = Neighbours.of(mesh_pts)
        normals, valid = estimate_normals(mesh_pts, shared)
        assert np.array_equal(estimate_normals(mesh_pts)[0], normals)
        assert np.array_equal(compute_fpfh(mesh_pts, normals, valid=valid,
                                           neighbours=shared),
                              ref_compute_fpfh(mesh_pts, normals, valid=valid))


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _flat_grid(n=12, spacing=0.005):
    # one normal for all: every pair line lies in the plane, |n.d| = 0 twice
    cloud = _plane_cloud(n, spacing, z=0.3)
    return cloud.points, np.tile([0.0, 0.0, -1.0], (len(cloud), 1))


def _mirrored_pairs(n=60, seed=0):
    # each point and normal mirrored about z = 0: n1.d == -(n2.d)
    rng = np.random.default_rng(seed)
    top = np.column_stack([rng.uniform(0, 0.05, (n, 2)),
                           rng.uniform(0.001, 0.01, n)])
    flip = np.array([1.0, 1.0, -1.0])
    normals = _unit_rows(rng, n)
    return np.vstack([top, top * flip]), np.vstack([normals, normals * flip])


def _stacked_twins(n=60, seed=0):
    # each point has a twin 4 mm straight above it whose normal is its own
    # turned about z: n1.d == n2.d, so read from the twin the pair's phi
    # changes sign
    rng = np.random.default_rng(seed)
    low = np.column_stack([rng.uniform(0, 0.05, (n, 2)), np.full(n, 0.3)])
    normals = _unit_rows(rng, n)
    turn = rng.uniform(0, 2 * np.pi, n)
    c, s = np.cos(turn), np.sin(turn)
    turned = np.column_stack([c * normals[:, 0] - s * normals[:, 1],
                              s * normals[:, 0] + c * normals[:, 1], normals[:, 2]])
    return np.vstack([low, low + [0.0, 0.0, 0.004]]), np.vstack([normals, turned])


def _recorded_fpfh(monkeypatch, pts, normals, radius=None, valid=None):
    """compute_fpfh's output and the (i, j) index pairs each
    ``_pair_features`` call described, with the first call's tie flags."""
    calls = []
    real = register._pair_features

    def recording(p1, p2, n1, n2):
        out = real(p1, p2, n1, n2)
        calls.append((p1, p2, out[4]))
        return out

    monkeypatch.setattr(register, "_pair_features", recording)
    desc = compute_fpfh(PointCloud(pts), normals, radius, valid)
    index = {tuple(p): i for i, p in enumerate(pts)}
    described = [[(index[tuple(a)], index[tuple(b)]) for a, b in zip(p1, p2)]
                 for p1, p2, _ in calls]
    return desc, described, calls[0][2]


@pytest.mark.parametrize("make", [_flat_grid, _mirrored_pairs, _stacked_twins])
def test_fpfh_matches_loop_reference_on_tied_pairs(make, monkeypatch):
    pts, normals = make()
    desc, _, tie = _recorded_fpfh(monkeypatch, pts, normals)
    assert tie.sum() > 0
    assert np.array_equal(desc, ref_compute_fpfh(PointCloud(pts), normals))


def test_stacked_twins_read_differently_from_each_end():
    # why a tied pair is described again: read backward, phi flips sign
    pts, normals = _stacked_twins()
    low, high = slice(0, 60), slice(60, 120)
    phi_up = ref_pair_features(pts[low], pts[high], normals[low], normals[high])[1]
    phi_down = ref_pair_features(pts[high], pts[low], normals[high], normals[low])[1]
    assert np.array_equal(phi_down, -phi_up) and np.all(phi_up != 0)


def test_fpfh_describes_each_pair_once_and_tied_pairs_twice(monkeypatch):
    # stacked twins plus scattered points, some normals invalid
    rng = np.random.default_rng(3)
    twins, twin_normals = _stacked_twins(40, seed=3)
    scatter = np.column_stack([rng.uniform(0, 0.05, (80, 2)),
                               rng.uniform(0.29, 0.31, 80)])
    pts = np.vstack([twins, scatter])
    normals = np.vstack([twin_normals, _unit_rows(rng, 80)])
    valid = rng.random(len(pts)) > 0.1
    radius = 0.012
    desc, described, tie = _recorded_fpfh(monkeypatch, pts, normals, radius, valid)
    neighbours = cKDTree(pts).query_ball_point(pts, radius)
    want = {(i, j) for i, lst in enumerate(neighbours) for j in lst
            if i < j and valid[i] and valid[j]}
    forward, backward = described[0], sum(described[1:], [])
    assert len(forward) == len(want) == len(set(forward))
    assert {tuple(sorted(p)) for p in forward} == want
    tied = [p for p, t in zip(forward, tie) if t]
    assert len(tied) >= 30
    assert sorted(backward) == sorted((j, i) for i, j in tied)
    assert np.array_equal(desc, ref_compute_fpfh(PointCloud(pts), normals,
                                                 radius, valid))


def test_fpfh_all_duplicate_cloud_is_all_zero():
    pts = np.tile([[0.01, -0.02, 0.3]], (40, 1))
    normals = _unit_rows(np.random.default_rng(0), 40)
    for radius in (None, 0.01):
        desc = compute_fpfh(PointCloud(pts), normals, radius)
        assert desc.shape == (40, 33) and not desc.any()
        assert np.array_equal(desc, ref_compute_fpfh(PointCloud(pts), normals,
                                                     radius))


def _nan_row(a, row):
    a = a.copy()
    a[row] = np.nan
    return a


_FPFH_NORMALS = _unit_rows(np.random.default_rng(1), 50)


@pytest.mark.parametrize("bad", [
    {"valid": np.ones(50, int)},  # an index array, not a mask
    {"valid": np.ones(40, bool)},
    {"valid": np.ones(60, bool)},
    {"normals": _FPFH_NORMALS[:40]},
    {"normals": _FPFH_NORMALS[:, :2]},
    {"normals": _nan_row(_FPFH_NORMALS, 3)},
    {"radius": -1.0},
    {"radius": 0.0},
    {"radius": float("nan")},
    {"radius": float("inf")},
])
def test_fpfh_rejects_bad_input(bad):
    cloud = PointCloud(np.random.default_rng(1).normal(scale=0.02, size=(50, 3)))
    args = {"normals": _FPFH_NORMALS, "radius": None, "valid": None, **bad}
    with pytest.raises(RejectedInput):
        compute_fpfh(cloud, **args)


@pytest.mark.parametrize("n", [0, 1])
def test_fpfh_default_radius_needs_two_points(n):
    # no nearest-neighbour distance to scale the radius by: rejected, not a
    # NaN or infinite radius; a given radius still describes the cloud
    cloud = PointCloud(np.full((n, 3), 0.3))
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    with pytest.raises(RejectedInput):
        compute_fpfh(cloud, normals)
    assert not compute_fpfh(cloud, normals, radius=0.01).any()


def test_fpfh_ignores_nan_normals_flagged_invalid():
    cloud = PointCloud(np.random.default_rng(2).normal(scale=0.02, size=(50, 3)))
    normals = _nan_row(_FPFH_NORMALS, 3)
    valid = np.arange(50) != 3
    desc = compute_fpfh(cloud, normals, valid=valid)
    assert not desc[3].any() and desc[valid].any()
    assert np.array_equal(desc, ref_compute_fpfh(cloud, normals, valid=valid))


def test_kabsch_exact():
    rng = np.random.default_rng(0)
    src = rng.normal(size=(30, 3))
    R_true = quat.quat_to_matrix(quat.random_quat(rng))
    t_true = rng.normal(size=3)
    tgt = src @ R_true.T + t_true
    R, t = kabsch(src, tgt)
    assert np.allclose(R, R_true, atol=1e-10)
    assert np.allclose(t, t_true, atol=1e-10)


unit_quats = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(
    np.array).filter(lambda q: np.linalg.norm(q) > 0.1).map(quat.quat_normalize)


@settings(max_examples=200, deadline=None)
@given(points=st.integers(3, 40).flatmap(lambda n: st.lists(
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           min_size=n, max_size=n)),
       q=unit_quats,
       t=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_kabsch_recovers_random_rigid_transform(points, q, t):
    src = np.array(points)
    # non-collinear: the spread across the best-fit line is not negligible
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    assume(sv[1] > 0.05)
    R_true = quat.quat_to_matrix(q)
    tgt = src @ R_true.T + np.array(t)
    R, t_est = kabsch(src, tgt)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(R, R_true, rtol=0, atol=1e-9)
    assert np.allclose(t_est, t, rtol=0, atol=1e-9)


def test_mutual_correspondences_excludes_zero_descriptors():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.1], [1.1, 0.0]])
    si, ti = mutual_correspondences(a, b)
    pairs = set(zip(si.tolist(), ti.tolist()))
    assert pairs == {(0, 1), (2, 0)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 120), m=st.integers(0, 120), seed=st.integers(0, 2**16),
       copies=st.integers(0, 40), levels=st.sampled_from([2, 5, 1000]))
def test_mutual_correspondences_match_full_back_query(n, m, seed, copies,
                                                      levels):
    # coarse descriptor values and copied rows on both sides give exact
    # ties, where the trees' own choices decide which pairs are mutual;
    # some rows are all zero
    rng = np.random.default_rng(seed)
    src = rng.integers(0, levels, size=(n, 33)) / levels
    tgt = rng.integers(0, levels, size=(m, 33)) / levels
    if n and m:
        src = np.vstack([src, tgt[rng.integers(0, m, copies)]])
        tgt = np.vstack([tgt, src[rng.integers(0, len(src), copies)]])
    src[rng.random(len(src)) < 0.1] = 0.0
    got = mutual_correspondences(src, tgt)
    want = ref_mutual_correspondences(src, tgt)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _ramp_cloud(n=600, seed=0):
    return PointCloud(sample_mesh_surface(make_ramp([0.1, 0.08, 0.05]),
                                          n, seed=seed).points)


def test_ransac_self_registration_is_identity():
    cloud = _ramp_cloud()
    normals, valid = estimate_normals(cloud)
    desc = compute_fpfh(cloud, normals, valid=valid)
    res = ransac_register(cloud, cloud, desc, desc)
    assert res.converged
    assert quat.geodesic_angle(res.pose.rotation, quat.IDENTITY) < np.deg2rad(0.5)
    assert np.linalg.norm(res.pose.translation) < 1e-3


def test_ransac_recovers_known_transform():
    cloud = _ramp_cloud()
    normals, valid = estimate_normals(cloud)
    desc = compute_fpfh(cloud, normals, valid=valid)
    rng = np.random.default_rng(42)
    hits = 0
    trials = 50
    for _ in range(trials):
        T = RigidPose(quat.random_quat(rng), rng.uniform(-0.05, 0.05, size=3))
        target = PointCloud(T.apply(cloud.points))
        tn, tv = estimate_normals(target)
        td = compute_fpfh(target, tn, valid=tv)
        res = ransac_register(cloud, target, desc, td)
        rot_err = quat.geodesic_angle(res.pose.rotation, T.rotation)
        trans_err = np.linalg.norm(res.pose.translation - T.translation)
        if rot_err <= np.deg2rad(3.0) and trans_err <= 0.005:
            hits += 1
    assert hits / trials >= 0.95


def test_ransac_too_few_correspondences():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(10, 3)))
    zeros = np.zeros((10, 33))
    res = ransac_register(cloud, cloud, zeros, zeros)
    assert not res.converged
    assert res.inlier_fraction == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 150), seed=st.integers(0, 2**16),
       zero=st.sampled_from([0.0, 0.3, 1.0]),
       noise=st.sampled_from([0.0, 0.003, 0.05]),
       trials=st.sampled_from([1, 50, 4096]))
def test_ransac_matches_einsum_reference(n, seed, zero, noise, trials):
    # a rigidly moved, noisy, shuffled copy of a random cloud with its
    # descriptors shuffled alike; some descriptors all zero, on either side,
    # so anywhere from no correspondence to all of them survive
    _check_ransac_against_reference(n, seed, zero, noise, trials)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 9), seed=st.integers(0, 2**16),
       noise=st.sampled_from([0.0, 0.003, 0.05]),
       trials=st.sampled_from([1, 7, 50, 4096]))
def test_ransac_matches_einsum_reference_on_repeated_triples(n, seed, noise,
                                                             trials):
    # 3-9 correspondences: 4096 draws repeat each distinct triple many
    # times, and every trial of a repeated triple must score alike
    _check_ransac_against_reference(n, seed, 0.0, noise, trials)


def _check_ransac_against_reference(n, seed, zero, noise, trials):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=0.05, size=(n, 3))
    move = RigidPose(quat.random_quat(rng), rng.uniform(-0.1, 0.1, 3))
    perm = rng.permutation(n)
    moved = move.apply(pts) + rng.normal(scale=noise, size=(n, 3))
    desc = rng.random((n, 33))
    desc[rng.random(n) < zero] = 0.0
    tdesc = desc[perm]
    tdesc[rng.random(n) < zero / 2] = 0.0
    source, target = PointCloud(pts), PointCloud(moved[perm])
    params = RansacParams(trials=trials, seed=seed)
    got = ransac_register(source, target, desc, tdesc, params)
    want = ref_ransac_register(source, target, desc, tdesc, params)
    assert np.array_equal(got.pose.rotation, want.pose.rotation)
    assert np.array_equal(got.pose.translation, want.pose.translation)
    assert (got.rmse, got.inlier_fraction, got.converged, got.iterations) == \
        (want.rmse, want.inlier_fraction, want.converged, want.iterations)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.sampled_from([1e-3, 0.05, 2.0]),
       noise=st.sampled_from([0.0, 1e-3, 0.3]))
def test_closed_form_fit_is_the_svd_fit_where_h_is_well_conditioned(
        seed, scale, noise):
    # random triangles and noisy moved copies: wherever H's second singular
    # value exceeds 1e-3 of its first, the closed-form rotation lies within
    # 1e-9 of the SVD oracle's
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=scale, size=(300, 3, 3))
    move = quat.quat_to_matrix(quat.random_quat(rng))
    b = a @ move.T + rng.normal(scale=noise * scale, size=a.shape)
    a -= a.mean(axis=1, keepdims=True)
    b -= b.mean(axis=1, keepdims=True)
    H = np.einsum("tki,tkj->tij", a, b)
    s = np.linalg.svd(H, compute_uv=False)
    well = s[:, 1] > 1e-3 * s[:, 0]
    R = register._fit_closed_form(H)[well]
    R_svd, _ = ref_fit_svd(H[well], np.zeros((well.sum(), 3)),
                           np.zeros((well.sum(), 3)))
    assert np.all(np.linalg.norm(R - R_svd, ord=2, axis=(1, 2)) <= 1e-9)
    assert np.allclose(np.linalg.det(R), 1.0)


def test_thin_triples_count_no_inliers():
    # a moved copy of a cloud whose triples 0-2 are collinear, 3-5
    # coincident and 6-8 hold a duplicated point: the SVD fit of each maps
    # its own three points onto their targets, yet none of them scores;
    # the last triple is a fair triangle and scores
    rng = np.random.default_rng(3)
    src = rng.normal(scale=0.05, size=(40, 3))
    src[1] = src[0] + 0.4 * (src[2] - src[0])
    src[4] = src[5] = src[3]
    src[7] = src[6]
    tgt = RigidPose(quat.random_quat(rng), [0.02, -0.01, 0.03]).apply(src)
    triples = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
    a, b = src[triples], tgt[triples]
    ca, cb = a.mean(axis=1, keepdims=True), b.mean(axis=1, keepdims=True)
    R, t = ref_fit_svd(np.einsum("tki,tkj->tij", a - ca, b - cb),
                       ca[:, 0], cb[:, 0])
    would = ref_trial_inliers(R, t, src, tgt, 0.015)
    assert np.all(would[np.arange(4)[:, None], triples])
    for s, g in ((src, tgt), (tgt, src)):
        got = register._triple_inliers(s, g, triples, 0.015)
        assert not got[:3].any()
        assert got[3].sum() == len(src)


def test_ransac_over_collinear_correspondences_finds_no_model():
    # every triangle of points on one line is thin, so no trial scores
    rng = np.random.default_rng(4)
    pts = np.outer(rng.uniform(-0.1, 0.1, 60), [0.6, -0.8, 0.0]) + 0.3
    moved = RigidPose(quat.random_quat(rng), [0.01, 0.02, 0.0]).apply(pts)
    desc = rng.random((60, 33))
    res = ransac_register(PointCloud(pts), PointCloud(moved), desc, desc)
    assert (res.rmse, res.inlier_fraction, res.converged) == \
        (RMSE_INF, 0.0, False)


def test_ransac_matches_einsum_reference_on_alignment_clouds():
    cloud = _ramp_cloud()
    normals, valid = estimate_normals(cloud)
    desc = compute_fpfh(cloud, normals, valid=valid)
    rng = np.random.default_rng(7)
    for _ in range(3):
        move = RigidPose(quat.random_quat(rng), rng.uniform(-0.05, 0.05, 3))
        target = PointCloud(move.apply(cloud.points)
                            + rng.normal(scale=0.002, size=cloud.points.shape))
        tn, tv = estimate_normals(target)
        td = compute_fpfh(target, tn, valid=tv)
        got = ransac_register(cloud, target, desc, td)
        want = ref_ransac_register(cloud, target, desc, td)
        assert np.array_equal(got.pose.rotation, want.pose.rotation)
        assert np.array_equal(got.pose.translation, want.pose.translation)
        assert (got.rmse, got.inlier_fraction, got.converged) == \
            (want.rmse, want.inlier_fraction, want.converged)


def test_icp_identical_clouds_zero_rmse():
    cloud = _ramp_cloud()
    res = icp_refine(cloud, cloud, RigidPose.identity())
    assert res.rmse <= 1e-9
    assert res.converged


def test_icp_converges_from_5deg_5mm():
    cloud = _ramp_cloud(n=1000)
    rng = np.random.default_rng(1)
    axis = rng.normal(size=3)
    init = RigidPose(quat.quat_from_axis_angle(axis, np.deg2rad(5.0)),
                     rng.uniform(-0.005, 0.005, size=3))
    res = icp_refine(cloud, cloud, init)
    assert quat.geodesic_angle(res.pose.rotation, quat.IDENTITY) <= np.deg2rad(0.5)
    assert np.linalg.norm(res.pose.translation) <= 1e-3


def test_icp_rmse_monotone_nonincreasing():
    rng = np.random.default_rng(2)
    cloud = _ramp_cloud(n=500)
    for k in range(20):
        axis = rng.normal(size=3)
        init = RigidPose(quat.quat_from_axis_angle(axis, rng.uniform(0, 0.15)),
                         rng.uniform(-0.008, 0.008, size=3))
        res = icp_refine(cloud, cloud, init)
        hist = np.asarray(res.rmse_history)
        assert len(hist) >= 1
        assert np.all(np.diff(hist) <= 1e-9)


def _same_fit(got, want):
    assert np.array_equal(got.pose.rotation, want.pose.rotation)
    assert np.array_equal(got.pose.translation, want.pose.translation)
    assert (got.rmse, got.inlier_fraction, got.converged, got.iterations,
            got.rmse_history) == (want.rmse, want.inlier_fraction,
                                  want.converged, want.iterations,
                                  want.rmse_history)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(NORMAL_K + 1, 150), seed=st.integers(0, 2**16),
       duplicates=st.integers(0, 30), angle=st.floats(0.0, 0.6),
       shift=st.floats(0.0, 0.03), lattice=st.booleans(),
       shared=st.booleans(), far=st.integers(0, 5), at_cap=st.booleans())
def test_icp_matches_per_iteration_query_reference(n, seed, duplicates, angle,
                                                   shift, lattice, shared,
                                                   far, at_cap):
    # a target with exact duplicate points (tied nearest neighbours) and a
    # source started up to 34 degrees and 3 cm off, so points cross Voronoi
    # cells between iterations; on a lattice of binary-exact spacing some
    # source points start on exact midpoints, tied between two points. Up to
    # five source points lie a metre behind the rest, beyond the cap, where
    # the bounded query returns index len(target); with ``at_cap`` the
    # source starts in place with one more point exactly the cap beyond the
    # target point of largest x, which matches as ``d <= cap`` does.
    rng = np.random.default_rng(seed)
    if lattice:
        g = np.arange(6) * 2.0 ** -7
        target = np.stack(np.meshgrid(g, g, g[:3]), axis=-1).reshape(-1, 3) + 0.5
        source = target[rng.integers(0, len(target), n)]
        source = source + 2.0 ** -8 * rng.integers(0, 2, size=source.shape)
    else:
        target = rng.normal(scale=0.03, size=(n, 3)) + [0.1, -0.05, 0.6]
        source = target[rng.permutation(n)[:max(1, n // 2)]]
        source = source + rng.normal(scale=0.002, size=source.shape)
    target = np.vstack([target, target[rng.integers(0, len(target), duplicates)]])
    source = np.vstack([source, source[:far] + [0.0, 0.0, 1.0]])
    init = RigidPose(quat.quat_from_axis_angle(rng.normal(size=3), angle),
                     rng.normal(size=3) * shift)
    if lattice and seed % 2:
        init = RigidPose.identity()
    cap = 0.03
    if at_cap:
        init = RigidPose.identity()
        edge = target[np.argmax(target[:, 0])]
        beyond = edge + [cap, 0.0, 0.0]
        cap = float(beyond[0] - edge[0])  # exact, by Sterbenz's lemma
        assert cKDTree(target).query(beyond)[0] == cap
        source = np.vstack([source, beyond])
    src, tgt = PointCloud(source), PointCloud(target)
    params = IcpParams(max_iterations=30, max_correspondence_distance=cap)
    normals = estimate_normals(tgt)
    got = icp_refine(src, tgt, init, params,
                     Neighbours.of(tgt) if shared else None,
                     normals if shared else None)
    want = ref_icp_refine(src, tgt, init, normals, params)
    _same_fit(got, want)


def test_icp_keeps_a_planar_target_plane_and_stays_finite():
    # source and target on the plane z = 0.6: the rows [(p - c) x n, n]
    # have n = (0, 0, 1) and span only the out-of-plane rotations and the
    # normal shift, rank 3 of 6. From a start 4 mm off the plane and tilted
    # 3 degrees, the minimum-norm steps land the source on the plane and
    # move it in no in-plane direction they cannot see.
    rng = np.random.default_rng(0)
    g = rng.uniform(-0.04, 0.04, size=(600, 2))
    target = PointCloud(np.column_stack([g, np.full(600, 0.6)]))
    source = PointCloud(target.points[::3])
    centre = source.points.mean(axis=0)
    tilt = quat.quat_from_axis_angle([1.0, 0.0, 0.0], np.deg2rad(3.0))
    init = RigidPose(tilt, centre + [0.0, 0.0, 0.004]
                     - quat.quat_rotate(tilt, centre))
    res = icp_refine(source, target, init)
    moved = res.pose.apply(source.points)
    assert np.all(np.isfinite(res.pose.translation))
    assert np.abs(moved[:, 2] - 0.6).max() < 1e-6
    assert np.abs(moved[:, :2] - init.apply(source.points)[:, :2]).max() < 1e-4
    assert res.rmse < 1e-3


def test_icp_stops_converged_without_a_valid_target_normal():
    # a target on one line has no valid normal: the first iteration's
    # matches give the RMSE but no plane to step against
    target = PointCloud(np.outer(np.linspace(0.0, 0.1, 50), [0.6, 0.8, 0.0])
                        + [0.1, -0.05, 0.6])
    assert not estimate_normals(target)[1].any()
    init = RigidPose(quat.IDENTITY, [0.0, 0.0, 0.002])
    res = icp_refine(target, target, init)
    assert (res.converged, res.iterations) == (True, 1)
    assert res.pose is init and res.rmse == pytest.approx(0.002)


def test_icp_rejects_a_target_too_small_for_normals():
    # normals need more than NORMAL_K points; given the target's normals,
    # ICP runs on the small target itself
    cloud = _ramp_cloud(n=100)
    small = PointCloud(cloud.points[:NORMAL_K])
    with pytest.raises(RejectedInput):
        icp_refine(cloud, small, RigidPose.identity())
    valid = np.ones(NORMAL_K, dtype=bool)
    normals = np.tile([0.0, 0.0, 1.0], (NORMAL_K, 1))
    res = icp_refine(small, small, RigidPose.identity(),
                     normals=(normals, valid))
    assert res.rmse == 0.0


def test_icp_rejects_empty():
    cloud = _ramp_cloud(n=100)
    with pytest.raises(RejectedInput):
        icp_refine(PointCloud(np.empty((0, 3))), cloud, RigidPose.identity())


def test_icp_params_validation():
    with pytest.raises(RejectedInput):
        IcpParams(max_iterations=0)
    with pytest.raises(RejectedInput):
        IcpParams(tolerance=-1.0)


@pytest.mark.parametrize("bad", [
    {"tolerance": float("nan")}, {"max_correspondence_distance": float("nan")},
    {"max_correspondence_distance": float("inf")}, {"max_iterations": 2.5},
    {"max_iterations": True}])
def test_icp_params_rejects_non_finite_and_non_int(bad):
    # before: each was accepted; a NaN distance matched nothing, an
    # infinite one everything, 2.5 iterations raised a TypeError inside
    # ICP and True ran one iteration
    with pytest.raises(RejectedInput):
        IcpParams(**bad)
    IcpParams(max_iterations=np.int64(3), max_correspondence_distance=1,
              tolerance=np.float32(1e-3))


@pytest.mark.parametrize("bad", [
    {"trials": 0}, {"trials": -2}, {"trials": 2.5}, {"trials": True},
    {"trials": "8"}, {"inlier_threshold": -1.0}, {"inlier_threshold": 0.0},
    {"inlier_threshold": float("nan")}, {"inlier_threshold": float("inf")},
    {"inlier_threshold": "0.01"}, {"inlier_threshold": None},
    {"seed": -1}, {"seed": 0.5}, {"seed": True}])
def test_ransac_params_validation(bad):
    # before: trials 0 raised numpy's argmax error, 2.5 a TypeError, and a
    # negative or NaN threshold silently found no model
    with pytest.raises(RejectedInput):
        RansacParams(**bad)
    RansacParams(trials=np.int64(3), inlier_threshold=1, seed=np.int64(0))


def test_alignment_success_thresholds():
    truth = RigidPose.identity()
    good = RigidPose(quat.quat_from_axis_angle([0, 0, 1], np.deg2rad(10.0)),
                     [0.005, 0.0, 0.0])
    bad_rot = RigidPose(quat.quat_from_axis_angle([0, 0, 1], np.deg2rad(20.0)),
                        np.zeros(3))
    bad_t = RigidPose(quat.IDENTITY, [0.05, 0.0, 0.0])
    assert alignment_success(good, truth, 0.1)
    assert not alignment_success(bad_rot, truth, 0.1)
    assert not alignment_success(bad_t, truth, 0.1)
    # translation threshold scales with diameter: 10% of 1.0 m allows 0.05
    assert alignment_success(bad_t, truth, 1.0)
    with pytest.raises(RejectedInput):
        alignment_success(truth, truth, 0.0)


def test_two_stage_align_rejects_tiny_mask():
    obs = synthetic_observation("box:0.07,0.05,0.04", seed=0)
    from twinforge.camera import BinaryMask
    empty = BinaryMask(np.zeros_like(obs.mask.values))
    with pytest.raises(StageFailureError):
        two_stage_align(obs.unit_mesh, obs.color, obs.depth, empty,
                        obs.intrinsics, AlignConfig())


def test_two_stage_align_recovers_synthetic_pose():
    obs = synthetic_observation("box:0.07,0.05,0.04", seed=1)
    res = two_stage_align(obs.unit_mesh, obs.color, obs.depth, obs.mask,
                          obs.intrinsics, AlignConfig(rotation_count=384),
                          obs.camera_pose)
    assert res.registration.rmse < 0.01
    # translation agrees with the ground truth up to the diameter threshold
    trans_err = np.linalg.norm(res.final_pose.translation
                               - obs.true_pose_cam.translation)
    assert trans_err <= max(0.01, 0.1 * obs.diameter)
    # the one recovered scale is near the true scale
    assert abs(res.scale - obs.true_scale) < 0.25


def test_fine_register_starts_icp_once_without_a_ransac_model(monkeypatch):
    # no mutual correspondences: RANSAC returns its no-model identity, which
    # is also the coarse start, so ICP runs once, and its fit is what the
    # min over the two identical starts kept
    obs = synthetic_observation("box:0.07,0.05,0.04", seed=1)
    observed, coarse, scale = register.coarse_align(
        obs.unit_mesh, obs.color, obs.depth, obs.mask, obs.intrinsics,
        AlignConfig(rotation_count=24), obs.camera_pose)
    monkeypatch.setattr(register, "mutual_correspondences",
                        lambda a, b: (np.empty(0, int), np.empty(0, int)))
    calls = []

    def recording(src, tgt, init, params=IcpParams(), neighbours=None,
                  normals=None):
        calls.append((src, tgt, init, normals))
        return icp_refine(src, tgt, init, params, neighbours, normals)

    monkeypatch.setattr(register, "icp_refine", recording)
    res = register.fine_register(obs.unit_mesh, observed, coarse, scale)
    assert res.ransac.rmse == register.RMSE_INF
    assert len(calls) == 1
    src, tgt, init, normals = calls[0]
    assert np.array_equal(init.rotation, quat.IDENTITY)
    assert np.array_equal(init.translation, np.zeros(3))
    # the target normals FPFH used, as ICP would estimate them itself
    for given, own in zip(normals, estimate_normals(tgt)):
        assert np.array_equal(given, own)
    cap = IcpParams().max_correspondence_distance
    want = min((icp_refine(src, tgt, RigidPose.identity()) for _ in range(2)),
               key=lambda fit: fit.inlier_fraction
               * (min(fit.rmse, cap) ** 2 - cap ** 2))
    got = res.registration
    assert np.array_equal(got.pose.rotation, want.pose.rotation)
    assert np.array_equal(got.pose.translation, want.pose.translation)
    assert (got.rmse, got.inlier_fraction, got.converged, got.iterations,
            got.rmse_history) == (want.rmse, want.inlier_fraction,
                                  want.converged, want.iterations,
                                  want.rmse_history)
