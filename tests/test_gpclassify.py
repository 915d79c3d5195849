import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinforge import quaternions as quat
from twinforge.errors import RejectedInput
from twinforge.geometry import RigidPose
from twinforge.gpclassify import (Se3KernelParams, fit, gram_matrix,
                                  predict_prob_batch, rank_and_select)
from twinforge.strategy import StrategySample

from gp_reference import ref_gram, ref_kernel, ref_predict


def random_poses(n, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return [RigidPose(quat.random_quat(rng), rng.normal(scale=scale, size=3))
            for _ in range(n)]


def test_kernel_params_validation():
    with pytest.raises(RejectedInput):
        Se3KernelParams(signal_variance=0.0)
    with pytest.raises(RejectedInput):
        Se3KernelParams(jitter=-1.0)


def test_kernel_properties():
    params = Se3KernelParams()
    poses = random_poses(8, seed=1)
    for p in poses:
        assert ref_kernel(p, p, params) == pytest.approx(params.signal_variance)
    K = gram_matrix(poses, poses, params)
    assert np.allclose(K, K.T)
    eig = np.linalg.eigvalsh(K + params.jitter * np.eye(len(poses)))
    assert eig.min() > 0
    # sign-flip invariance of the rotation part
    a = poses[0]
    b = RigidPose(-poses[1].rotation, poses[1].translation)
    assert ref_kernel(a, b, params) == pytest.approx(ref_kernel(a, poses[1], params))


def test_gram_matches_reference():
    params = Se3KernelParams()
    pa, pb = random_poses(6, 2), random_poses(5, 3)
    assert np.allclose(gram_matrix(pa, pb, params), ref_gram(pa, pb, params),
                       atol=1e-14)


def test_fit_requires_enough_labels():
    poses = random_poses(1)
    with pytest.raises(RejectedInput):
        fit(poses, [1])
    # one label per pose: a short list is not read as a single class
    with pytest.raises(RejectedInput, match="3 poses but 1 labels"):
        fit(random_poses(3), [1])


def test_degenerate_all_positive_rate():
    poses = random_poses(5, seed=4)
    model = fit(poses, [1, 1, 1, 1, 1])
    assert model.degenerate
    # smoothed empirical rate (5+1)/(5+2) everywhere
    probs = predict_prob_batch(model, random_poses(10, seed=5))
    assert np.allclose(probs, 6.0 / 7.0)


def test_degenerate_all_negative_rate():
    poses = random_poses(4, seed=6)
    model = fit(poses, [0, 0, 0, 0])
    assert predict_prob_batch(model, poses[:1])[0] == pytest.approx(1.0 / 6.0)


def test_predictions_match_dense_reference():
    params = Se3KernelParams()
    for n in (5, 12, 30):
        poses = random_poses(n, seed=n)
        rng = np.random.default_rng(n + 100)
        labels = rng.integers(0, 2, size=n)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=n)
        model = fit(poses, labels, params=params)
        tests = random_poses(7, seed=n + 200)
        ours = predict_prob_batch(model, tests)
        ref = ref_predict(poses, labels, params, tests)
        assert np.max(np.abs(ours - ref)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**16),
       positive=st.floats(0.05, 0.95),
       signal_variance=st.floats(0.5, 2.0),
       translation_scale=st.floats(0.03, 0.1),
       rotation_scale=st.floats(0.3, 1.0))
def test_fit_and_predict_match_dense_reference(n, seed, positive,
                                               signal_variance,
                                               translation_scale,
                                               rotation_scale):
    # two-class label sets over random poses and kernel settings: the
    # Cholesky-based fit and prediction agree with the explicit-inverse
    # reference, at the tolerances of the fixed-case tests above
    params = Se3KernelParams(signal_variance, translation_scale,
                             rotation_scale)
    poses = random_poses(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    labels = (rng.random(n) < positive).astype(int)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    tests = random_poses(7, seed=seed + 2) + poses[:2]
    assert np.allclose(gram_matrix(poses, tests, params),
                       ref_gram(poses, tests, params), atol=1e-14)
    model = fit(poses, labels, params=params)
    assert not model.degenerate
    ours = predict_prob_batch(model, tests)
    ref = ref_predict(poses, labels, params, tests)
    assert np.max(np.abs(ours - ref)) < 1e-6


def test_far_field_reverts_to_half():
    params = Se3KernelParams()
    poses = random_poses(20, seed=9)
    labels = [i % 2 for i in range(20)]
    model = fit(poses, labels, params=params)
    # 20 translation length scales away: prior dominates
    far = [RigidPose(quat.IDENTITY, [20 * params.translation_scale + 1.0, 0, 0])]
    p = predict_prob_batch(model, far)[0]
    assert abs(p - 0.5) <= 0.02


def test_label_flip_symmetry():
    poses = random_poses(15, seed=10)
    labels = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1])
    tests = random_poses(6, seed=11)
    p = predict_prob_batch(fit(poses, labels), tests)
    q = predict_prob_batch(fit(poses, 1 - labels), tests)
    assert np.max(np.abs(p + q - 1.0)) < 1e-9


def test_predictions_in_unit_interval_and_training_consistency():
    poses = random_poses(16, seed=12)
    labels = [1 if p.translation[0] > 0 else 0 for p in poses]
    model = fit(poses, labels)
    probs = predict_prob_batch(model, poses)
    assert np.all((probs > 0) & (probs < 1))
    # training points predict toward their own labels
    agree = np.mean((probs > 0.5) == np.asarray(labels, dtype=bool))
    assert agree >= 0.9


def test_rank_and_select_orders_and_breaks_ties():
    poses = random_poses(8, seed=14)
    labels = [1, 1, 1, 1, 0, 0, 0, 0]
    model = fit(poses, labels)
    samples = [StrategySample(p, i).with_outcome(None, bool(l))
               for i, (p, l) in enumerate(zip(poses, labels))]
    ranking = rank_and_select(model, samples)
    probs = [c.success_prob for c in ranking.ranked]
    assert probs == sorted(probs, reverse=True)
    assert all(c.weak_label for c in ranking.priority)
    with pytest.raises(RejectedInput):
        rank_and_select(model, [])


def test_rank_ties_by_sample_id():
    pose = RigidPose.identity()
    other = random_poses(2, seed=15)
    model = fit([pose] + other, [1, 0, 1])
    # identical poses get identical probabilities: order falls back to id
    samples = [StrategySample(pose, 5).with_outcome(None, True),
               StrategySample(pose, 2).with_outcome(None, True)]
    ranking = rank_and_select(model, samples)
    assert [c.sample_id for c in ranking.ranked] == [2, 5]
