import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from coarse_reference import ref_cosine_similarity, ref_grid_descriptor
from twinforge import quaternions as quat
from twinforge.benchmark import BENCHMARK_PRIMITIVES
from twinforge.camera import BinaryMask, ColorImage
from twinforge.coarse import (DESCRIPTOR_DIM, _cosine_similarities,
                              _scoring_intrinsics, generate_hypotheses,
                              grid_descriptor, mask_observation,
                              partial_cloud_from_pose, select_coarse_pose)
from twinforge.errors import RejectedInput
from twinforge.geometry import RigidPose, sample_mesh_surface
from twinforge.render import render, render_batch
from twinforge.strategy import rest_orientations
from twinforge.synth import default_intrinsics, make_box, primitive_from_spec


def test_hypotheses_count_and_anchor():
    hyps = generate_hypotheses([0.0, 0.0, 0.5], 72)
    assert len(hyps) == 72
    for p in hyps:
        assert np.allclose(p.translation, [0.0, 0.0, 0.5])
    # identity (first rest orientation, yaw 0) comes first
    assert np.allclose(hyps[0].rotation, quat.IDENTITY, atol=1e-12)
    # all distinct
    quats = np.array([p.rotation for p in hyps])
    dots = np.abs(quats @ quats.T)
    np.fill_diagonal(dots, 0.0)
    assert dots.max() < 1.0 - 1e-9


@pytest.mark.parametrize("count", [0, -6, 1, 5, 7, 73, 6.0, True, "12"])
def test_hypotheses_reject_counts_that_are_not_multiples_of_6(count):
    with pytest.raises(RejectedInput):
        generate_hypotheses(np.zeros(3), count)


_unit_quats = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(quat.quat_normalize)
_counts = st.integers(1, 64).map(lambda k: 6 * k)
_anchors = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def _world_rotations(hyps, camera):
    return [camera.rotation_matrix() @ p.rotation_matrix() for p in hyps]


@settings(max_examples=40, deadline=None)
@given(count=_counts, anchor=_anchors, q=_unit_quats)
def test_hypotheses_count_and_shared_anchor(count, anchor, q):
    hyps = generate_hypotheses(anchor, count, RigidPose(q, [0.1, 0.2, 0.3]))
    assert len(hyps) == count
    for p in hyps:
        assert np.array_equal(p.translation, np.asarray(anchor, dtype=float))


@settings(max_examples=40, deadline=None)
@given(count=_counts, q=_unit_quats)
def test_hypotheses_rest_on_a_local_axis(count, q):
    # seen from the world, every hypothesis points one local +-axis up
    camera = RigidPose(q, np.zeros(3))
    for R in _world_rotations(generate_hypotheses(np.zeros(3), count, camera),
                              camera):
        up_local = R.T @ [0.0, 0.0, 1.0]
        assert np.abs(up_local).max() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(count=_counts, q=_unit_quats, rest=st.integers(0, 5),
       yaw=st.floats(0.0, 2 * np.pi))
def test_hypotheses_cover_rest_yaw_rotations(count, q, rest, yaw):
    # any rest orientation under any yaw about world up lies within half a
    # yaw step of some hypothesis
    camera = RigidPose(q, np.zeros(3))
    hyps = generate_hypotheses(np.zeros(3), count, camera)
    want = quat.quat_multiply(quat.quat_from_axis_angle([0, 0, 1], yaw),
                              rest_orientations()[rest])
    got = [quat.matrix_to_quat(R) for R in _world_rotations(hyps, camera)]
    nearest = min(quat.geodesic_angle(g, want) for g in got)
    assert nearest <= np.pi / (count // 6) + 1e-9


def test_descriptor_dimension_and_norm():
    rng = np.random.default_rng(1)
    f = grid_descriptor(rng.random((1, 60, 60, 3)))
    assert f.shape == (1, DESCRIPTOR_DIM) and DESCRIPTOR_DIM == 576
    assert np.linalg.norm(f[0]) == pytest.approx(1.0)
    zero = grid_descriptor(np.zeros((1, 32, 32, 3)))
    assert np.allclose(zero, 0.0)


def test_descriptor_discriminates_90_degree_rotation():
    rng = np.random.default_rng(2)
    img = rng.random((64, 64, 3))
    a, b = grid_descriptor(np.stack([img, np.rot90(img)]))
    assert _cosine_similarities(b[None], a)[0] < 0.95


def test_descriptor_identical_images():
    rng = np.random.default_rng(3)
    f = grid_descriptor(np.repeat(rng.random((1, 48, 48, 3)), 2, axis=0))
    assert np.array_equal(f[0], f[1])
    assert _cosine_similarities(f[:1], f[1])[0] == pytest.approx(1.0)


def test_cosine_similarity_validation():
    # a zero descriptor (an all-black observation filling its mask) has no
    # direction to compare; a non-finite image has no descriptor
    with pytest.raises(RejectedInput):
        _cosine_similarities(np.ones((2, 4)), np.zeros(4))
    with pytest.raises(RejectedInput):
        _cosine_similarities(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))
    with pytest.raises(RejectedInput):
        select_coarse_pose(make_box([0.06, 0.06, 0.06]),
                           generate_hypotheses([0.0, 0.0, 0.4], 6),
                           ColorImage(np.zeros((8, 8, 3))),
                           BinaryMask(np.ones((8, 8), dtype=bool)),
                           default_intrinsics(8, 10.0))
    with pytest.raises(RejectedInput):
        grid_descriptor(np.full((1, 8, 8, 3), np.nan))
    with pytest.raises(RejectedInput):
        grid_descriptor(np.zeros((8, 8, 3)))


_STACK_KINDS = ("random", "zero", "constant", "blocks", "mixed")


def _image_stack(rng, kind, b, h, w):
    if kind == "zero":
        return np.zeros((b, h, w, 3))
    if kind == "constant":
        return np.broadcast_to(rng.random((b, 1, 1, 3)), (b, h, w, 3)).copy()
    if kind == "blocks":  # flat regions with exact zero gradients and edges
        return np.round(rng.random((b, h, w, 3)) * 2) / 2
    stack = rng.random((b, h, w, 3))
    if kind == "mixed":  # zero and constant images among random ones
        stack[::3] = 0.0
        stack[1::3] = rng.random(3)
    return stack


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 7), h=st.integers(1, 48), w=st.integers(1, 48),
       kind=st.sampled_from(_STACK_KINDS), seed=st.integers(0, 2**16))
def test_descriptor_batch_matches_per_image_reference(b, h, w, kind, seed):
    # one pass over a (B, H, W, 3) stack equals describing each image alone,
    # bit for bit, at every size the area resize handles (up and down)
    stack = _image_stack(np.random.default_rng(seed), kind, b, h, w)
    got = grid_descriptor(stack)
    assert got.shape == (b, DESCRIPTOR_DIM)
    for g, img in zip(got, stack):
        assert np.array_equal(g, ref_grid_descriptor(img))


@pytest.mark.parametrize("spec", BENCHMARK_PRIMITIVES)
def test_select_coarse_pose_scores_match_per_image_reference(spec):
    # the hypothesis tiles of a real search, described and scored one at a
    # time by the reference: every similarity is bit-identical
    mesh = primitive_from_spec(spec)
    intr = default_intrinsics(size=120, focal=150.0)
    hyps = generate_hypotheses([0.0, 0.01, 0.4], 96)
    obs = render(mesh, RigidPose(quat.random_quat(np.random.default_rng(5)),
                                 [0.0, 0.0, 0.4]), intr)
    mask = BinaryMask(obs.object_ids >= 0)
    result = select_coarse_pose(mesh, hyps, obs.rgb, mask, intr)
    obs_feat = ref_grid_descriptor(mask_observation(obs.rgb, mask).values)
    tiles = render_batch(mesh, hyps, _scoring_intrinsics(intr)).rgb
    want = [ref_cosine_similarity(ref_grid_descriptor(t), obs_feat)
            for t in tiles]
    assert [s for _, s in result.all_scores] == want
    assert result.similarity == max(want)


def test_mask_observation_replaces_background():
    img = ColorImage(np.ones((4, 4, 3)))
    mask = BinaryMask(np.eye(4, dtype=bool))
    out = mask_observation(img, mask)
    assert np.allclose(out.values[0, 0], 1.0)
    assert np.allclose(out.values[0, 1], 0.5)


def test_partial_cloud_is_partial_view_of_cube():
    # the rendered partial of a cube covers well under 60% of its surface
    mesh = make_box([0.06, 0.06, 0.06])
    pose = RigidPose(quat.quat_from_axis_angle([1, 1, 0], 0.4), [0.0, 0.0, 0.4])
    intr = default_intrinsics()
    partial = partial_cloud_from_pose(mesh, pose, intr)
    assert len(partial) > 200
    full = pose.apply(sample_mesh_surface(mesh, 4000, seed=0).points)
    d, _ = cKDTree(partial.points).query(full)
    visible_fraction = float(np.mean(d < 0.004))
    assert visible_fraction < 0.6


def test_select_coarse_pose_finds_rendered_truth():
    # observation rendered from one of the hypotheses: that hypothesis must
    # win; similarity stays below 1.0 because hypotheses are scored at the
    # capped 40 px resolution while the observation render is 120 px
    mesh = make_box([0.08, 0.05, 0.04])
    intr = default_intrinsics(size=120, focal=150.0)
    hyps = generate_hypotheses([0.0, 0.0, 0.4], 24)
    true_idx = 13
    view = render(mesh, hyps[true_idx], intr)
    mask = BinaryMask(view.object_ids >= 0)
    result = select_coarse_pose(mesh, hyps, view.rgb, mask, intr)
    assert np.allclose(result.best_pose.rotation, hyps[true_idx].rotation)
    assert result.similarity > 0.9
    assert result.similarity == max(s for _, s in result.all_scores)
    assert len(result.all_scores) == 24


def test_select_coarse_pose_empty_hypotheses():
    mesh = make_box([0.06, 0.06, 0.06])
    with pytest.raises(RejectedInput):
        select_coarse_pose(mesh, (), ColorImage(np.zeros((8, 8, 3))),
                           BinaryMask(np.zeros((8, 8), dtype=bool)),
                           default_intrinsics(8, 10.0))


def _mask_at(row, col, size, shape=(240, 320)):
    mask = np.zeros(shape, dtype=bool)
    mask[row:row + size, col:col + size] = True
    return BinaryMask(mask)


def test_select_coarse_pose_on_crop_with_principal_point_at_far_edge():
    # a 10 px mask at row 108, col 294 of a 320x240, f=300 camera crops to a
    # 146x16 viewport with cy = 15; scaled to 40x4.38 px, rounding the height
    # down to 4 used to leave cy = 4.11 outside and reject the observation
    from twinforge.camera import CameraIntrinsics
    from twinforge.register import _crop_to_mask
    cam = CameraIntrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    rng = np.random.default_rng(0)
    color, mask, crop = _crop_to_mask(ColorImage(rng.random((240, 320, 3))),
                                      _mask_at(108, 294, 10), cam)
    assert (crop.cx, crop.cy, crop.width, crop.height) == (0, 15, 146, 16)
    hyps = generate_hypotheses([0.2, -0.02, 0.5], 12)
    result = select_coarse_pose(make_box([0.06, 0.05, 0.04]), hyps, color,
                                mask, crop)
    assert len(result.all_scores) == 12
    assert np.isfinite(result.similarity)


def test_scoring_intrinsics_keep_principal_point_and_rounded_size():
    # every crop scales to at most 40 px a side with the principal point
    # inside; a dimension grows past its rounded size only when the point
    # would otherwise fall outside
    from twinforge.camera import CameraIntrinsics
    from twinforge.coarse import _SCORE_MAX_DIM, _scoring_intrinsics
    from twinforge.register import _crop_to_mask
    cam = CameraIntrinsics(300.0, 300.0, 160.0, 120.0, 320, 240)
    color = ColorImage(np.zeros((240, 320, 3)))
    grown = 0
    for size in (4, 10):
        for row in range(0, 240 - size + 1, 6):
            for col in range(0, 320 - size + 1, 6):
                _, _, crop = _crop_to_mask(color, _mask_at(row, col, size), cam)
                out = _scoring_intrinsics(crop)
                s = _SCORE_MAX_DIM / max(crop.width, crop.height)
                if s >= 1.0:
                    assert out == crop
                    continue
                assert max(out.width, out.height) <= _SCORE_MAX_DIM
                for n, c, got in ((crop.width, out.cx, out.width),
                                  (crop.height, out.cy, out.height)):
                    rounded = max(1, round(n * s))
                    assert got == (rounded if c < rounded
                                   else int(np.floor(c)) + 1)
                    grown += got != rounded
    assert grown > 0
