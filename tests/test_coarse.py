import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from coarse_reference import (ref_cosine_similarity, ref_generate_hypotheses,
                              ref_grid_descriptor, ref_select_exhaustive)
from twinforge import coarse
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


def _pose(hyps, index, anchor):
    """The pose of flat hypothesis index rest * Y + yaw at the anchor."""
    return RigidPose(hyps.reshape(-1, 4)[index], anchor)


def _same_pose(a, b):
    return (a.rotation.tobytes() == b.rotation.tobytes()
            and a.translation.tobytes() == b.translation.tobytes())


def test_hypotheses_count_and_anchor():
    hyps = generate_hypotheses(72)
    assert hyps.shape == (6, 12, 4)
    # identity (first rest orientation, yaw 0) comes first
    assert np.allclose(hyps[0, 0], quat.IDENTITY, atol=1e-12)
    # all distinct
    quats = hyps.reshape(-1, 4)
    dots = np.abs(quats @ quats.T)
    np.fill_diagonal(dots, 0.0)
    assert dots.max() < 1.0 - 1e-9
    # the search's winner sits at the anchor it was given
    mesh = make_box([0.06, 0.05, 0.04])
    intr = default_intrinsics(size=40, focal=50.0)
    view = render(mesh, _pose(hyps, 5, [0.0, 0.0, 0.5]), intr)
    result = select_coarse_pose(mesh, hyps, [0.01, 0.0, 0.5], view.rgb,
                                BinaryMask(view.object_ids >= 0), intr)
    assert np.array_equal(result.best_pose.translation, [0.01, 0.0, 0.5])


@pytest.mark.parametrize("count", [0, -6, 1, 5, 7, 73, 6.0, True, "12"])
def test_hypotheses_reject_counts_that_are_not_multiples_of_6(count):
    with pytest.raises(RejectedInput):
        generate_hypotheses(count)


_unit_quats = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(quat.quat_normalize)
_counts = st.integers(1, 64).map(lambda k: 6 * k)
_anchors = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def _world_rotations(hyps, camera):
    return [quat.quat_to_matrix(camera.rotation) @ quat.quat_to_matrix(q)
            for q in hyps.reshape(-1, 4)]


@settings(max_examples=40, deadline=None)
@given(count=st.sampled_from([6, 12, 24, 384]), anchor=_anchors,
       q=st.none() | _unit_quats)
def test_hypotheses_count_and_shared_anchor(count, anchor, q):
    # the grid holds count hypotheses, rest-major; at a shared anchor each
    # becomes, bit for bit, the pose the one-pose-per-hypothesis loop built
    # (also the rotation the search renders), under any camera and none
    camera = None if q is None else RigidPose(q, [0.1, 0.2, 0.3])
    hyps = generate_hypotheses(count, camera)
    want = ref_generate_hypotheses(anchor, count, camera)
    assert hyps.shape == (6, count // 6, 4)
    rendered = coarse._unit_rows(hyps.reshape(-1, 4))
    for i, ref in enumerate(want):
        assert _same_pose(_pose(hyps, i, anchor), ref)
        assert rendered[i].tobytes() == ref.rotation.tobytes()


@settings(max_examples=40, deadline=None)
@given(count=_counts, q=_unit_quats)
def test_hypotheses_rest_on_a_local_axis(count, q):
    # seen from the world, every hypothesis points one local +-axis up
    camera = RigidPose(q, np.zeros(3))
    for R in _world_rotations(generate_hypotheses(count, camera), camera):
        up_local = R.T @ [0.0, 0.0, 1.0]
        assert np.abs(up_local).max() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(count=_counts, q=_unit_quats, rest=st.integers(0, 5),
       yaw=st.floats(0.0, 2 * np.pi))
def test_hypotheses_cover_rest_yaw_rotations(count, q, rest, yaw):
    # any rest orientation under any yaw about world up lies within half a
    # yaw step of some hypothesis
    camera = RigidPose(q, np.zeros(3))
    hyps = generate_hypotheses(count, camera)
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
                           generate_hypotheses(6), [0.0, 0.0, 0.4],
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
    # the hypotheses a real search scores, each rendered alone, described
    # and scored one at a time by the reference: every similarity is
    # bit-identical
    mesh = primitive_from_spec(spec)
    intr = default_intrinsics(size=120, focal=150.0)
    hyps = generate_hypotheses(96)
    anchor = [0.0, 0.01, 0.4]
    obs = render(mesh, RigidPose(quat.random_quat(np.random.default_rng(5)),
                                 [0.0, 0.0, 0.4]), intr)
    mask = BinaryMask(obs.object_ids >= 0)
    result = select_coarse_pose(mesh, hyps, anchor, obs.rgb, mask, intr)
    obs_feat = ref_grid_descriptor(mask_observation(obs.rgb, mask).values)
    small = _scoring_intrinsics(intr)
    want = [(i, ref_cosine_similarity(
                ref_grid_descriptor(
                    render(mesh, _pose(hyps, i, anchor), small).rgb.values),
                obs_feat))
            for i, _ in result.all_scores]
    assert list(result.all_scores) == want
    assert result.similarity == max(s for _, s in want)


def _search(mesh, hyps, anchor, obs, mask, intr):
    """select_coarse_pose, and the number of hypotheses it rendered."""
    rendered = []

    def counting(mesh, rotations, translations, intrinsics):
        rendered.extend(rotations)
        return render_batch(mesh, rotations, translations, intrinsics)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coarse, "render_batch", counting)
        result = select_coarse_pose(mesh, hyps, anchor, obs, mask, intr)
    return result, len(rendered)


@settings(max_examples=12, deadline=None)
@given(spec=st.sampled_from(BENCHMARK_PRIMITIVES), q=_unit_quats,
       camera=_unit_quats)
def test_two_level_search_agrees_with_exhaustive_oracle(spec, q, camera):
    # at the production count: every 4th yaw of each rest is scored, and
    # every scored similarity is the oracle's, bit for bit; the winner is
    # the scored argmax, ties to the lowest index, and is the oracle's
    # winner whenever that was scored; at most half the hypotheses are
    # rendered
    mesh = primitive_from_spec(spec)
    intr = default_intrinsics(size=120, focal=150.0)
    hyps = generate_hypotheses(384, RigidPose(camera, [0.0, 0.0, 0.0]))
    anchor = [0.0, 0.01, 0.4]
    obs = render(mesh, RigidPose(q, [0.0, 0.0, 0.4]), intr)
    mask = BinaryMask(obs.object_ids >= 0)
    result, rendered = _search(mesh, hyps, anchor, obs.rgb, mask, intr)
    oracle_idx, oracle_sims = ref_select_exhaustive(mesh, hyps, anchor,
                                                    obs.rgb, mask, intr)
    indices = [i for i, _ in result.all_scores]
    assert indices == sorted(set(indices))
    assert set(range(0, 384, 4)) <= set(indices)
    assert rendered == len(indices) <= 192
    for i, s in result.all_scores:
        assert s == oracle_sims[i]
    best = max(s for _, s in result.all_scores)
    best_idx = min(i for i, s in result.all_scores if s == best)
    assert result.similarity == best
    assert _same_pose(result.best_pose, _pose(hyps, best_idx, anchor))
    if oracle_idx in indices:
        assert best_idx == oracle_idx


@pytest.mark.parametrize("count", [6, 12, 24])
def test_small_grids_score_every_hypothesis(count):
    # with at most 4 yaws per rest, every yaw is a first-level pose or within
    # 3 yaws of one, and there are at most 16 first-level poses
    mesh = make_box([0.08, 0.05, 0.04])
    intr = default_intrinsics(size=120, focal=150.0)
    hyps = generate_hypotheses(count)
    anchor = [0.0, 0.0, 0.4]
    view = render(mesh, RigidPose(quat.random_quat(np.random.default_rng(3)),
                                  [0.0, 0.0, 0.4]), intr)
    mask = BinaryMask(view.object_ids >= 0)
    result, rendered = _search(mesh, hyps, anchor, view.rgb, mask, intr)
    oracle_idx, oracle_sims = ref_select_exhaustive(mesh, hyps, anchor,
                                                    view.rgb, mask, intr)
    assert rendered == count
    assert list(result.all_scores) == list(enumerate(oracle_sims.tolist()))
    assert _same_pose(result.best_pose, _pose(hyps, oracle_idx, anchor))


def test_two_level_search_breaks_ties_to_the_lower_index():
    # 384 copies of one pose all score the same: the 16 best first-level
    # poses are yaws 0, 4, ..., 60 of rest 0, so the second level scores the
    # rest of rest 0 (wrapping 0 - 3 to yaw 61), and the winner is index 0
    mesh = make_box([0.08, 0.05, 0.04])
    intr = default_intrinsics(size=120, focal=150.0)
    q = quat.random_quat(np.random.default_rng(4))
    hyps = np.broadcast_to(q, (6, 64, 4))
    view = render(mesh, RigidPose(q, [0.0, 0.01, 0.4]), intr)
    result, rendered = _search(mesh, hyps, [0.0, 0.0, 0.4], view.rgb,
                               BinaryMask(view.object_ids >= 0), intr)
    scored = set(range(0, 384, 4)) | set(range(64))
    assert [i for i, _ in result.all_scores] == sorted(scored)
    assert rendered == len(scored) == 144
    assert len({s for _, s in result.all_scores}) == 1
    assert _same_pose(result.best_pose, RigidPose(q, [0.0, 0.0, 0.4]))


def test_coarse_search_peak_memory_does_not_grow_with_hypotheses():
    # each level is rendered, described and scored one render_batch pass at
    # a time, so the traced peak at 1536 hypotheses stays within 10% of the
    # peak at 96
    mesh = primitive_from_spec("cup:0.035,0.09,0.005")
    intr = default_intrinsics(size=120, focal=150.0)
    obs = render(mesh, RigidPose(quat.random_quat(np.random.default_rng(5)),
                                 [0.0, 0.0, 0.4]), intr)
    mask = BinaryMask(obs.object_ids >= 0)
    peaks = []
    for count in (96, 1536):
        hyps = generate_hypotheses(count)
        tracemalloc.start()
        try:
            select_coarse_pose(mesh, hyps, [0.0, 0.01, 0.4], obs.rgb, mask,
                               intr)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


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
    hyps = generate_hypotheses(24)
    truth = _pose(hyps, 13, [0.0, 0.0, 0.4])
    view = render(mesh, truth, intr)
    mask = BinaryMask(view.object_ids >= 0)
    result = select_coarse_pose(mesh, hyps, truth.translation, view.rgb, mask,
                                intr)
    assert _same_pose(result.best_pose, truth)
    assert result.similarity > 0.9
    assert result.similarity == max(s for _, s in result.all_scores)
    assert len(result.all_scores) == 24


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
    result = select_coarse_pose(make_box([0.06, 0.05, 0.04]),
                                generate_hypotheses(12), [0.2, -0.02, 0.5],
                                color, mask, crop)
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
