"""Statistical accuracy of the coarse stage on synthetic box observations."""

import numpy as np

from twinforge import quaternions as quat
from twinforge.camera import backproject
from twinforge.coarse import generate_hypotheses, select_coarse_pose
from twinforge.register import _crop_to_mask
from twinforge.synth import synthetic_observation

# pi flips about each axis: a box's appearance symmetry group
_D2 = [quat.IDENTITY.copy()] + [quat.quat_from_axis_angle(ax, np.pi)
                                for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _coarse_rotation_error(seed, rotation_count):
    obs = synthetic_observation("box:0.07,0.05,0.04", seed=seed)
    observed = backproject(obs.depth, obs.intrinsics, obs.mask)
    anchor = observed.points.mean(axis=0)
    color, mask, intr = _crop_to_mask(obs.color, obs.mask, obs.intrinsics)
    hyps = generate_hypotheses(rotation_count, obs.camera_pose)
    coarse = select_coarse_pose(obs.unit_mesh, hyps, anchor, color, mask, intr)
    truth = obs.true_pose_cam.rotation
    return min(quat.geodesic_angle(
        coarse.best_pose.rotation,
        quat.quat_normalize(quat.quat_multiply(truth, s))) for s in _D2)


def test_coarse_orientation_beats_chance():
    # a uniformly random rotation lands within 45 degrees of one of the four
    # D2-symmetric ground truths about 10% of the time; the coarse stage at
    # the production hypothesis count does far better (74% measured, median
    # error 3.4 degrees), even though it sees only the unit-diameter mesh
    # against a real-scale view
    errors = [_coarse_rotation_error(seed, 384) for seed in range(50)]
    errors = np.rad2deg(errors)
    within45 = np.mean(errors <= 45.0)
    assert within45 >= 0.4, f"only {within45:.0%} of coarse poses within 45 deg"
    assert np.median(errors) <= 45.0
