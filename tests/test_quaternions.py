import numpy as np
import pytest

from twinforge import quaternions as quat


def test_identity_is_unit():
    assert np.allclose(quat.IDENTITY, [1.0, 0.0, 0.0, 0.0])
    quat.check_unit(quat.IDENTITY)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        quat.quat_normalize([0.0, 0.0, 0.0, 0.0])


def test_check_unit_shape_and_norm():
    with pytest.raises(ValueError):
        quat.check_unit([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        quat.check_unit([2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("q", [[np.nan, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0],
                               [np.inf, 0.0, 0.0, 0.0]])
def test_check_unit_rejects_non_finite(q):
    with pytest.raises(ValueError):
        quat.check_unit(q)


def test_multiply_matches_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = quat.random_quat(rng)
        b = quat.random_quat(rng)
        Rab = quat.quat_to_matrix(quat.quat_multiply(a, b))
        assert np.allclose(Rab, quat.quat_to_matrix(a) @ quat.quat_to_matrix(b),
                           atol=1e-12)


def test_conjugate_inverts_rotation():
    rng = np.random.default_rng(4)
    q = quat.random_quat(rng)
    r = quat.quat_multiply(q, quat.quat_conjugate(q))
    assert np.allclose(r, quat.IDENTITY, atol=1e-12)


def test_matrix_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = quat.random_quat(rng)
        q2 = quat.matrix_to_quat(quat.quat_to_matrix(q))
        # sign-flip equivalence
        assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9


def test_matrix_to_quat_covers_all_branches():
    # matrices dominated by each diagonal entry plus the trace branch
    for axis in range(3):
        R = -np.eye(3)
        R[axis, axis] = 1.0
        q = quat.matrix_to_quat(R)
        assert np.allclose(quat.quat_to_matrix(q), R, atol=1e-12)
    q = quat.matrix_to_quat(np.eye(3))
    assert np.allclose(q, quat.IDENTITY)


def test_from_axis_angle():
    q = quat.quat_from_axis_angle([0, 0, 1], np.pi / 2)
    p = quat.quat_rotate(q, [1.0, 0.0, 0.0])
    assert np.allclose(p, [0.0, 1.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        quat.quat_from_axis_angle([0, 0, 0], 1.0)


def test_rotate_batch():
    rng = np.random.default_rng(6)
    q = quat.random_quat(rng)
    pts = rng.normal(size=(17, 3))
    assert np.allclose(quat.quat_rotate(q, pts), pts @ quat.quat_to_matrix(q).T)


def test_geodesic_angle():
    q = quat.quat_from_axis_angle([1, 0, 0], 0.3)
    assert quat.geodesic_angle(quat.IDENTITY, q) == pytest.approx(0.3, abs=1e-12)
    # acos near 1.0 has ~1e-8 floating-point noise; sign flips are the
    # same rotation
    assert quat.geodesic_angle(q, -q) == pytest.approx(0.0, abs=1e-7)


def test_random_quat_deterministic_and_unit():
    a = quat.random_quat(np.random.default_rng(11))
    b = quat.random_quat(np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
