"""Gaussian Process classifier over SE(3) with a Laplace-approximated
posterior (logistic likelihood, labels mapped {0,1} -> {-1,+1}).

Kernel: product of squared exponentials over translation distance and
sign-invariant chordal quaternion distance, which is positive definite via
the linear embedding of the chordal metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInput

# Newton steps of the Laplace fit: at most MAX_NEWTON, ending once no
# latent value moves by NEWTON_TOL or more
MAX_NEWTON = 100
NEWTON_TOL = 1e-8


@dataclass(frozen=True)
class Se3KernelParams:
    signal_variance: float = 1.0
    translation_scale: float = 0.05
    rotation_scale: float = 0.5
    jitter: float = 1e-6

    def __post_init__(self):
        if min(self.signal_variance, self.translation_scale,
               self.rotation_scale, self.jitter) <= 0:
            raise RejectedInput("kernel parameters must all be positive")


def _pose_arrays(poses):
    t = np.array([p.translation for p in poses])
    q = np.array([p.rotation for p in poses])
    return t, q


def gram_matrix(poses_a, poses_b, params: Se3KernelParams) -> np.ndarray:
    ta, qa = _pose_arrays(poses_a)
    tb, qb = _pose_arrays(poses_b)
    dt2 = np.sum((ta[:, None, :] - tb[None, :, :]) ** 2, axis=2)
    dot = np.abs(qa @ qb.T)
    # chordal^2 = 2 - 2|qa . qb| under sign-flip invariance
    dr2 = np.clip(2.0 - 2.0 * np.clip(dot, -1.0, 1.0), 0.0, None)
    return params.signal_variance * np.exp(
        -dt2 / (2 * params.translation_scale ** 2)
        - dr2 / (2 * params.rotation_scale ** 2))


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class GpModel:
    poses: tuple
    params: Se3KernelParams
    mode: np.ndarray              # latent posterior mode f_hat
    grad_at_mode: np.ndarray      # d log p(y|f) / df at the mode
    sqrt_w: np.ndarray
    chol_b: np.ndarray            # Cholesky of B = I + W^1/2 K W^1/2
    degenerate: bool = False
    degenerate_rate: float = 0.5
    newton_iterations: int = 0


def fit(poses, labels, params: Se3KernelParams = Se3KernelParams()) -> GpModel:
    """Laplace fit of one label per pose, success when truthy.

    Single-class label sets yield a degenerate model that predicts the
    smoothed empirical rate (sum(y)+1)/(n+2) everywhere.
    """
    poses = list(poses)
    y01 = np.asarray([1 if l else 0 for l in labels], dtype=float)
    n = len(poses)
    if len(y01) != n:
        raise RejectedInput(f"{n} poses but {len(y01)} labels")
    if n < 2:
        raise RejectedInput("need at least 2 labeled samples")
    if y01.min() == y01.max():
        rate = (y01.sum() + 1.0) / (n + 2.0)
        return GpModel(tuple(poses), params, np.zeros(n), np.zeros(n),
                       np.zeros(n), np.eye(n), degenerate=True,
                       degenerate_rate=float(rate))

    y = 2.0 * y01 - 1.0
    K = gram_matrix(poses, poses, params)
    K[np.diag_indices_from(K)] += params.jitter
    f, iters, delta = np.zeros(n), 0, np.inf
    while True:
        pi = _sigmoid(f)
        grad = (y + 1.0) / 2.0 - pi
        W = pi * (1.0 - pi)
        sw = np.sqrt(W)
        B = np.eye(n) + sw[:, None] * K * sw[None, :]
        L = np.linalg.cholesky(B)
        if delta < NEWTON_TOL or iters >= MAX_NEWTON:
            break
        b = W * f + grad
        v = np.linalg.solve(L, sw * (K @ b))
        a = b - sw * np.linalg.solve(L.T, v)
        f_new = K @ a
        delta = float(np.max(np.abs(f_new - f)))
        f = f_new
        iters += 1
    return GpModel(tuple(poses), params, f, grad, sw, L,
                   newton_iterations=iters)


def predict_prob_batch(model: GpModel, poses) -> np.ndarray:
    """Laplace predictive probabilities with the probit-style logistic
    approximation sigma(mu / sqrt(1 + pi s^2 / 8)). Always in (0, 1)."""
    if model.degenerate:
        return np.full(len(poses), model.degenerate_rate)
    ks = gram_matrix(model.poses, poses, model.params)  # (n, m)
    mu = ks.T @ model.grad_at_mode
    v = np.linalg.solve(model.chol_b, model.sqrt_w[:, None] * ks)
    kss = model.params.signal_variance + model.params.jitter
    var = np.clip(kss - np.sum(v * v, axis=0), 1e-12, None)
    return _sigmoid(mu / np.sqrt(1.0 + np.pi * var / 8.0))


@dataclass(frozen=True)
class Ranking:
    ranked: list
    priority: list  # evaluator-positive samples, highest probability first


def rank_and_select(model: GpModel, candidates) -> Ranking:
    """Annotate candidates with success probabilities and rank them.

    Descending probability, ties by ascending sample_id. The priority list
    restates the ranking over evaluator-positive candidates only.
    """
    if not candidates:
        raise RejectedInput("no candidates to rank")
    probs = predict_prob_batch(model, [c.object_pose for c in candidates])
    annotated = [c.with_prob(p) for c, p in zip(candidates, probs)]
    ranked = sorted(annotated, key=lambda c: (-c.success_prob, c.sample_id))
    priority = [c for c in ranked if c.weak_label]
    return Ranking(ranked, priority)
