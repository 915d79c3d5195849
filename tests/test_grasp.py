import numpy as np
import pytest

from twinforge.errors import RejectedInput
from twinforge.geometry import PointCloud, RigidPose
from twinforge.grasp import (GraspCandidate, filter_by_object_proximity,
                             load_grasp_candidates,
                             synthetic_grasp_provider, top_k_by_confidence)


def cand(point, confidence, width=0.04):
    return GraspCandidate(RigidPose.identity(), np.asarray(point, dtype=float),
                          width, confidence)


def test_candidate_validation():
    with pytest.raises(RejectedInput):
        cand([0, 0, 0], confidence=-0.1)
    with pytest.raises(RejectedInput):
        GraspCandidate(RigidPose.identity(), np.zeros(3), -0.01, 0.5)


def test_top_k_orders_and_breaks_ties_by_input_order():
    cands = [cand([0, 0, 0], 0.5), cand([1, 0, 0], 0.9),
             cand([2, 0, 0], 0.5), cand([3, 0, 0], 0.7)]
    top = top_k_by_confidence(cands, 3)
    assert [c.confidence for c in top] == [0.9, 0.7, 0.5]
    assert np.allclose(top[2].grasp_point, [0, 0, 0])  # earlier tie first
    with pytest.raises(RejectedInput):
        top_k_by_confidence(cands, 0)


def test_proximity_filter_boundary_is_inclusive():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    tau = 0.01
    at_threshold = cand([tau, 0.0, 0.0], 0.9)
    just_outside = cand([tau + 1e-6, 0.0, 0.0], 0.9)
    kept = filter_by_object_proximity([at_threshold, just_outside], cloud, tau)
    assert kept == [at_threshold]


def test_proximity_filter_preserves_order():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    a, b, c = cand([0, 0, 0], 0.1), cand([1, 1, 1], 0.9), cand([0.001, 0, 0], 0.5)
    assert filter_by_object_proximity([a, b, c], cloud, 0.01) == [a, c]
    assert filter_by_object_proximity([], cloud, 0.01) == []
    with pytest.raises(RejectedInput):
        filter_by_object_proximity([a], PointCloud(np.empty((0, 3))), 0.01)
    with pytest.raises(RejectedInput):
        filter_by_object_proximity([a], cloud, 0.0)


def test_proximity_filter_matches_brute_force():
    # the kept set, in input order, is the candidates whose nearest cloud
    # point, found by brute force, lies within the threshold
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 3))
    queries = rng.normal(size=(80, 3))
    cands = [cand(q, 0.5) for q in queries]
    nearest = np.linalg.norm(pts[None] - queries[:, None], axis=2).min(axis=1)
    for tau in (0.15, 0.3, 0.5):
        assert np.min(np.abs(nearest - tau)) > 1e-9
        want = [c for c, d in zip(cands, nearest) if d <= tau]
        kept = filter_by_object_proximity(cands, PointCloud(pts), tau)
        assert kept == want
        assert 0 < len(kept) < len(cands)


def test_candidate_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    from twinforge import quaternions as quat
    cands = [GraspCandidate(RigidPose(quat.random_quat(rng), rng.normal(size=3)),
                            rng.normal(size=3), 0.03, float(rng.random()))
             for _ in range(5)]
    path = tmp_path / "grasps.txt"
    lines = ["# qw qx qy qz tx ty tz gx gy gz width confidence"]
    for c in cands:
        fields = (*c.pose.rotation, *c.pose.translation, *c.grasp_point,
                  c.width, c.confidence)
        lines.append(" ".join(f"{x:.9g}" for x in fields))
    path.write_text("\n".join(lines) + "\n")
    back = load_grasp_candidates(path)
    assert len(back) == 5
    for a, b in zip(cands, back):
        assert np.allclose(a.grasp_point, b.grasp_point, atol=1e-6)
        assert a.confidence == pytest.approx(b.confidence, abs=1e-6)


GOOD_ROW = "1 0 0 0 0 0 0 0 0 0 0.04 0.5"


@pytest.mark.parametrize("row, reason", [
    ("1 0 0 0 0 0 0 0 0 0 0.04", "expected 12 fields, got 11"),
    ("1 0 0 0 x 0 0 0 0 0 0.04 0.5", "could not convert string to float"),
    ("1 1 0 0 0 0 0 0 0 0 0.04 0.5", "quaternion is not unit norm"),
    ("1 0 0 0 0 0 nan 0 0 0 0.04 0.5", "non-finite translation"),
    ("1 0 0 0 0 0 0 0 inf 0 0.04 0.5", "grasp point must be finite"),
    ("1 0 0 0 0 0 0 0 0 0 nan 0.5", "grasp width must be finite"),
    ("1 0 0 0 0 0 0 0 0 0 0.04 nan", "grasp confidence must be finite"),
    ("1 0 0 0 0 0 0 0 0 0 0.04 -1", "grasp confidence must be finite")],
    ids=["11-fields", "not-a-number", "non-unit-quaternion",
         "nan-translation", "inf-point", "nan-width", "nan-confidence",
         "negative-confidence"])
def test_candidate_file_rejects_bad_rows(tmp_path, row, reason):
    # every bad record is a RejectedInput naming its file and line
    path = tmp_path / "bad.txt"
    path.write_text(f"# header\n{GOOD_ROW}\n{row}\n")
    with pytest.raises(RejectedInput) as err:
        load_grasp_candidates(path)
    assert str(err.value).startswith(f"{path}:3: {reason}")


def test_synthetic_provider_on_cloud():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.normal(scale=0.02, size=(300, 3)))
    cands = synthetic_grasp_provider(cloud, n=40, seed=2)
    assert len(cands) == 40
    assert all(0 < c.confidence <= 1 for c in cands)
    again = synthetic_grasp_provider(cloud, n=40, seed=2)
    assert all(np.array_equal(a.grasp_point, b.grasp_point)
               for a, b in zip(cands, again))
    with pytest.raises(RejectedInput):
        synthetic_grasp_provider(PointCloud(np.empty((0, 3))))
