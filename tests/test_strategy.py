import numpy as np
import pytest

from twinforge import quaternions as quat
from twinforge.camera import BinaryMask, CameraIntrinsics, DepthImage
from twinforge.errors import RejectedInput
from twinforge.geometry import Aabb, PointCloud, RigidPose
from twinforge.strategy import (CLEARANCE, UP, InteractionRegion,
                                builtin_reachability, halton_disc_offsets,
                                interaction_region, rest_orientations,
                                rest_yaw_grid, sample_strategies)


def test_rest_orientations():
    rests = rest_orientations()
    assert len(rests) == 6
    for q in rests:
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    # identity first; the last is the 180-degree flip
    assert np.allclose(rests[0], quat.IDENTITY)
    up = quat.quat_rotate(rests[5], [0.0, 0.0, 1.0])
    assert np.allclose(up, [0.0, 0.0, -1.0], atol=1e-12)


def test_rest_yaw_grid_is_rest_major_with_yaw_0_first():
    grid = rest_yaw_grid(8)
    assert grid.shape == (6, 8, 4) and grid.flags.c_contiguous
    for r, rest in enumerate(rest_orientations()):
        assert np.array_equal(grid[r, 0], rest)
        for k in range(8):
            yaw = quat.quat_from_axis_angle(UP, 2 * np.pi * k / 8)
            assert np.array_equal(grid[r, k], quat.quat_multiply(yaw, rest))


def test_halton_offsets_inside_disc_and_deterministic():
    offs = halton_disc_offsets(50, 0.03)
    assert offs.shape == (50, 3)
    assert np.all(np.linalg.norm(offs[:, :2], axis=1) <= 0.03 + 1e-12)
    assert np.all(offs[:, 2] == 0.0)
    assert np.array_equal(offs, halton_disc_offsets(50, 0.03))
    # low-discrepancy: no duplicate points
    assert len(np.unique(np.round(offs, 12), axis=0)) == 50


def test_interaction_region_world_frame():
    cam = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=2.0, width=4, height=4)
    depth = DepthImage(np.full((4, 4), 2.0))
    mask = BinaryMask(np.ones((4, 4), dtype=bool))
    region_cam = interaction_region(mask, depth, cam)
    assert len(region_cam.cloud) == 16
    world = RigidPose(quat.IDENTITY, [0.0, 0.0, 5.0])
    region_world = interaction_region(mask, depth, cam, world)
    assert np.allclose(region_world.centroid, region_cam.centroid + [0, 0, 5])
    with pytest.raises(RejectedInput):
        interaction_region(BinaryMask(np.zeros((4, 4), dtype=bool)), depth, cam)


def test_builtin_reachability():
    ws = Aabb([-1, -1, 0], [1, 1, 1])
    assert builtin_reachability(RigidPose(quat.IDENTITY, [0, 0, 0.5]), ws)
    # outside the workspace
    assert not builtin_reachability(RigidPose(quat.IDENTITY, [2, 0, 0.5]), ws)
    # 90-degree tilt exceeds the 60-degree limit but is an exact rest pose
    tilted = RigidPose(quat.quat_from_axis_angle([1, 0, 0], np.pi / 2), [0, 0, 0.5])
    assert builtin_reachability(tilted, ws)
    # 80-degree tilt: beyond the limit and not near any rest orientation
    odd = RigidPose(quat.quat_from_axis_angle([1, 0, 0], np.deg2rad(80)), [0, 0, 0.5])
    assert not builtin_reachability(odd, ws)


def region_at(center):
    center = np.asarray(center, dtype=float)
    return InteractionRegion(cloud=PointCloud(center.reshape(1, 3)),
                             centroid=center)


def test_sample_strategies_count_and_ids():
    region = region_at([0.0, 0.0, 0.1])
    samples = sample_strategies(region, n_rotations=3, n_offsets=4,
                                offset_radius=0.02, reach=None,
                                vertical_offset=0.05)
    assert len(samples) == 6 * 3 * 4
    assert [s.sample_id for s in samples] == list(range(len(samples)))
    # identity-rotation samples sit lift+clearance above the centroid
    first = samples[0]
    assert first.object_pose.translation[2] == pytest.approx(0.1 + 0.05 + 0.005)


def test_sample_strategies_callable_vertical_offset():
    region = region_at([0.0, 0.0, 0.0])
    seen = []

    def lift(q):
        seen.append(q)
        return 0.02

    samples = sample_strategies(region, n_rotations=2, n_offsets=1,
                                offset_radius=0.0, reach=None,
                                vertical_offset=lift)
    assert len(seen) == 12  # once per rotation
    assert all(s.object_pose.translation[2] == pytest.approx(0.025)
               for s in samples)


def test_sample_strategies_reachability_drops():
    region = region_at([0.0, 0.0, 0.1])
    keep_none = sample_strategies(region, 2, 2, 0.01, reach=lambda p: False)
    assert keep_none == []
    ws = Aabb([-1, -1, 0], [1, 1, 1])
    kept = sample_strategies(region, 2, 2, 0.01,
                             reach=lambda p: builtin_reachability(p, ws))
    assert len(kept) > 0
    assert [s.sample_id for s in kept] == list(range(len(kept)))


def _ref_sample_poses(region, n_rotations, n_offsets, offset_radius, reach,
                      vertical_offset):
    """The sampler's poses as one rest and one yaw at a time composed them
    before the rest x yaw grid became one array."""
    poses = []
    for rest in rest_orientations():
        for yi in range(n_rotations):
            yaw = quat.quat_from_axis_angle(UP, 2 * np.pi * yi / n_rotations)
            q = quat.quat_normalize(quat.quat_multiply(yaw, rest))
            lift = vertical_offset(q)
            for off in halton_disc_offsets(n_offsets, offset_radius):
                pose = RigidPose(q, region.centroid + off
                                 + (lift + CLEARANCE) * UP)
                if reach(pose):
                    poses.append(pose)
    return poses


@pytest.mark.parametrize("n_rotations", range(1, 9))
def test_sample_strategies_match_scalar_loop(n_rotations):
    # every pose, bit for bit, and the same ones dropped by reachability
    region = region_at([0.01, -0.02, 0.1])
    ws = Aabb([-1, -1, 0], [1, 1, 1])
    args = (region, n_rotations, 3, 0.02,
            lambda p: builtin_reachability(p, ws),
            lambda q: 0.03 + 0.01 * abs(float(q[1])))
    got = [s.object_pose for s in sample_strategies(*args)]
    want = _ref_sample_poses(*args)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.rotation.tobytes() == w.rotation.tobytes()
        assert g.translation.tobytes() == w.translation.tobytes()


def test_sample_strategies_validation():
    region = region_at([0, 0, 0])
    with pytest.raises(RejectedInput):
        sample_strategies(region, 0, 1, 0.01, None)
    with pytest.raises(RejectedInput):
        sample_strategies(region, 1, 1, -0.01, None)


def test_sample_with_outcome_and_prob():
    region = region_at([0, 0, 0])
    s = sample_strategies(region, 1, 1, 0.0, None)[0]
    labeled = s.with_outcome("outcome", True)
    assert labeled.weak_label is True and labeled.outcome == "outcome"
    ranked = labeled.with_prob(0.75)
    assert ranked.success_prob == 0.75
    assert s.success_prob is None  # immutably derived
