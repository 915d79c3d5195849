import numpy as np
import pytest

from twinforge.camera import (BinaryMask, CameraIntrinsics, ColorImage,
                              DepthImage, backproject)
from twinforge.errors import RejectedInput


def intr(w=64, h=48):
    return CameraIntrinsics(fx=80.0, fy=80.0, cx=w / 2.0, cy=h / 2.0,
                            width=w, height=h)


def test_intrinsics_validation():
    with pytest.raises(RejectedInput):
        CameraIntrinsics(fx=-1, fy=1, cx=1, cy=1, width=4, height=4)
    with pytest.raises(RejectedInput):
        CameraIntrinsics(fx=1, fy=1, cx=10, cy=1, width=4, height=4)


@pytest.mark.parametrize("fx, fy", [(np.nan, 1.0), (1.0, np.nan),
                                    (np.inf, 1.0), (1.0, np.inf)])
def test_intrinsics_reject_non_finite_focal_length(fx, fy):
    with pytest.raises(RejectedInput):
        CameraIntrinsics(fx=fx, fy=fy, cx=1, cy=1, width=4, height=4)


def test_depth_image_validation():
    DepthImage(np.ones((4, 4)))
    DepthImage(np.full((4, 4), np.nan))  # NaN = invalid, allowed
    with pytest.raises(RejectedInput):
        DepthImage(np.full((4, 4), -1.0))
    with pytest.raises(RejectedInput):
        DepthImage(np.ones((4, 4, 1)))


def test_depth_valid_mask():
    d = np.array([[1.0, 0.0], [np.nan, 2.0]])
    assert np.array_equal(DepthImage(d).valid_mask(),
                          [[True, False], [False, True]])


def test_color_image_clipping_and_validation():
    img = ColorImage(np.full((2, 2, 3), 1.0 + 1e-10))
    assert img.values.max() <= 1.0
    with pytest.raises(RejectedInput):
        ColorImage(np.full((2, 2, 3), 1.5))
    with pytest.raises(RejectedInput):
        ColorImage(np.zeros((2, 2, 4)))


def test_binary_mask_count():
    m = BinaryMask(np.array([[1, 0], [1, 1]]))
    assert m.count() == 3
    assert m.width == 2 and m.height == 2


def test_backproject_pixel_center_convention():
    # a pixel whose center sits at the principal point maps to the optical axis
    cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=2.5, cy=1.5, width=5, height=3)
    depth = np.zeros((3, 5))
    depth[1, 2] = 2.0  # center (2.5, 1.5) == (cx, cy)
    cloud = backproject(DepthImage(depth), cam)
    assert np.allclose(cloud.points[0], [0.0, 0.0, 2.0], atol=1e-15)


def test_backproject_reproject_roundtrip():
    cam = intr()
    rng = np.random.default_rng(0)
    depth = rng.uniform(0.5, 2.0, size=(cam.height, cam.width))
    cloud = backproject(DepthImage(depth), cam)
    x, y, z = cloud.points.T
    uv = np.stack([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy], axis=1)
    v_idx, u_idx = np.nonzero(depth > 0)
    expected = np.stack([u_idx + 0.5, v_idx + 0.5], axis=1)
    assert np.max(np.abs(uv - expected)) < 1e-6


def test_backproject_mask_and_color():
    cam = intr(4, 4)
    depth = np.ones((4, 4))
    mask = BinaryMask(np.eye(4, dtype=bool))
    cloud = backproject(DepthImage(depth), cam, mask)
    assert len(cloud) == 4
    # only the diagonal pixels: x == y for each point
    assert np.array_equal(cloud.points[:, 0], cloud.points[:, 1])


def test_backproject_skips_invalid_depth():
    cam = intr(4, 4)
    depth = np.ones((4, 4))
    depth[0, 0] = 0.0
    depth[1, 1] = np.nan
    cloud = backproject(DepthImage(depth), cam)
    assert len(cloud) == 14


def test_backproject_dimension_mismatch():
    cam = intr(4, 4)
    with pytest.raises(RejectedInput):
        backproject(DepthImage(np.ones((5, 5))), cam)
    with pytest.raises(RejectedInput):
        backproject(DepthImage(np.ones((4, 4))), cam,
                    BinaryMask(np.ones((5, 5), dtype=bool)))
