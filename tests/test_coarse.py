import numpy as np
import pytest
from scipy.spatial import cKDTree

from twinforge import quaternions as quat
from twinforge.camera import BinaryMask, ColorImage
from twinforge.coarse import (DESCRIPTOR_DIM, FeatureVector, cosine_similarity,
                              generate_hypotheses, grid_descriptor,
                              mask_observation, partial_cloud_from_pose,
                              select_coarse_pose)
from twinforge.errors import RejectedInput
from twinforge.geometry import RigidPose, sample_mesh_surface
from twinforge.synth import default_intrinsics, make_box


def test_hypotheses_count_and_anchor():
    hyps = generate_hypotheses([0.0, 0.0, 0.5], 72)
    assert len(hyps) == 72
    for p in hyps:
        assert np.allclose(p.translation, [0.0, 0.0, 0.5])
    # identity comes first
    assert np.allclose(hyps[0].rotation, quat.IDENTITY, atol=1e-12)
    # all distinct
    quats = np.array([p.rotation for p in hyps])
    dots = np.abs(quats @ quats.T)
    np.fill_diagonal(dots, 0.0)
    assert dots.max() < 1.0 - 1e-9


def test_hypotheses_random_supplement_deterministic():
    a = generate_hypotheses(np.zeros(3), 100, seed=5)
    b = generate_hypotheses(np.zeros(3), 100, seed=5)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.rotation, pb.rotation)
    c = generate_hypotheses(np.zeros(3), 100, seed=6)
    assert not np.array_equal(a[99].rotation, c[99].rotation)
    with pytest.raises(RejectedInput):
        generate_hypotheses(np.zeros(3), 0)


def test_72_hypothesis_covering_radius():
    # Monte-Carlo covering radius of the deterministic 72-rotation set:
    # every random rotation is within 0.62 chordal of some hypothesis
    hyps = generate_hypotheses(np.zeros(3), 72)
    H = np.array([p.rotation for p in hyps])
    rng = np.random.default_rng(0)
    samples = np.array([quat.random_quat(rng) for _ in range(10000)])
    dots = np.clip(np.abs(samples @ H.T), 0.0, 1.0)
    chordal = np.sqrt(np.clip(2.0 - 2.0 * dots, 0.0, None))
    assert chordal.min(axis=1).max() < 0.62


def test_descriptor_dimension_and_norm():
    rng = np.random.default_rng(1)
    img = ColorImage(rng.random((60, 60, 3)))
    f = grid_descriptor(img)
    assert len(f) == DESCRIPTOR_DIM == 576
    assert np.linalg.norm(f.values) == pytest.approx(1.0)
    zero = grid_descriptor(ColorImage(np.zeros((32, 32, 3))))
    assert np.allclose(zero.values, 0.0)


def test_descriptor_discriminates_90_degree_rotation():
    rng = np.random.default_rng(2)
    img = rng.random((64, 64, 3))
    a = grid_descriptor(ColorImage(img))
    b = grid_descriptor(ColorImage(np.rot90(img).copy()))
    assert cosine_similarity(a, b) < 0.95


def test_descriptor_identical_images():
    rng = np.random.default_rng(3)
    img = ColorImage(rng.random((48, 48, 3)))
    assert cosine_similarity(grid_descriptor(img), grid_descriptor(img)) == \
        pytest.approx(1.0)


def test_cosine_similarity_validation():
    a = FeatureVector(np.ones(4))
    with pytest.raises(RejectedInput):
        cosine_similarity(a, FeatureVector(np.ones(5)))
    with pytest.raises(RejectedInput):
        cosine_similarity(a, FeatureVector(np.zeros(4)))
    with pytest.raises(RejectedInput):
        FeatureVector(np.array([np.nan, 1.0]))


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
    from twinforge.render import render
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
    hyps = generate_hypotheses([0.2, -0.02, 0.5], 8)
    result = select_coarse_pose(make_box([0.06, 0.05, 0.04]), hyps, color,
                                mask, crop)
    assert len(result.all_scores) == 8
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
