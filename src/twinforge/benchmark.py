"""Alignment benchmark: two-stage vs direct registration on synthetic
single-view observations of primitive shapes.

Each trial renders one primitive at a random resting pose, then recovers the
camera-frame pose from the masked RGB-D observation twice: once with the
full two-stage pipeline (coarse appearance search seeding RANSAC + ICP) and
once with the direct arm (identity-orientation initialization, same
RANSAC + ICP). Success is symmetry-aware: the pose error is minimized over
the shape's rotational symmetry group before thresholding, because the
geometric stages cannot (and need not) distinguish symmetric orientations.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from . import quaternions as quat
from .errors import StageFailureError
from .register import AlignConfig, alignment_success, two_stage_align
from .synth import synthetic_observation

BENCHMARK_PRIMITIVES = (
    "box:0.07,0.05,0.04",
    "cylinder:0.03,0.1",
    "cup:0.035,0.09,0.005",
    "open_box:0.12,0.1,0.06,0.012",
)


def symmetry_group(primitive_spec: str):
    """Local-frame rotations that leave the shape's geometry unchanged.

    Boxes with distinct extents have the D2 group (pi flips about each
    axis); cylinders add continuous rotation about z plus an end-over-end
    flip; cups keep only the continuous z rotation (the open top breaks the
    flip); ramps are asymmetric. Continuous symmetries are discretized on a
    fine yaw grid, which is far below the success threshold spacing.
    """
    name, _, rest = primitive_spec.partition(":")
    args = [float(x) for x in rest.split(",")] if rest else []
    ident = (quat.IDENTITY.copy(),)
    flips = tuple(quat.quat_from_axis_angle(axis, np.pi)
                  for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    yaws = tuple(quat.quat_from_axis_angle((0, 0, 1), a)
                 for a in np.linspace(0, 2 * np.pi, 180, endpoint=False))
    if name == "box":
        return ident + flips
    if name == "cylinder":
        flip = quat.quat_from_axis_angle((1, 0, 0), np.pi)
        return yaws + tuple(quat.quat_multiply(y, flip) for y in yaws)
    if name == "cup":
        return yaws
    if name == "open_box":
        square = len(args) >= 2 and abs(args[0] - args[1]) < 1e-12
        steps = (0.5 * np.pi, np.pi, 1.5 * np.pi) if square else (np.pi,)
        return ident + tuple(quat.quat_from_axis_angle((0, 0, 1), a)
                             for a in steps)
    return ident


def symmetry_aware_success(estimated, truth, diameter, group) -> bool:
    """alignment_success minimized over the local symmetry group."""
    for s in group:
        adjusted = replace(
            truth, rotation=quat.quat_normalize(quat.quat_multiply(truth.rotation, s)))
        if alignment_success(estimated, adjusted, diameter):
            return True
    return False


@dataclass(frozen=True)
class TrialResult:
    primitive: str
    seed: int
    arm: str          # "two-stage" | "direct"
    success: bool
    rmse: float


@dataclass(frozen=True)
class BenchmarkRow:
    primitive: str
    trials: int
    two_stage_rate: float
    two_stage_rmse: float   # mean over successful trials (nan if none)
    direct_rate: float
    direct_rmse: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple
    trials_per_class: int
    two_stage_rate: float
    direct_rate: float
    elapsed_s: float

    @property
    def margin(self) -> float:
        """Aggregate two-stage minus direct success rate."""
        return self.two_stage_rate - self.direct_rate


def run_trial(primitive_spec: str, seed: int, arm: str,
              config: AlignConfig) -> TrialResult:
    obs = synthetic_observation(primitive_spec, seed=seed)
    cfg = replace(config, skip_coarse=(arm == "direct"))
    try:
        res = two_stage_align(obs.unit_mesh, obs.color, obs.depth, obs.mask,
                              obs.intrinsics, cfg)
    except StageFailureError:
        return TrialResult(primitive_spec, seed, arm, False, np.inf)
    ok = (symmetry_aware_success(res.final_pose, obs.true_pose_cam,
                                 obs.diameter, symmetry_group(primitive_spec))
          and res.registration.rmse < 0.01)
    return TrialResult(primitive_spec, seed, arm, bool(ok),
                       float(res.registration.rmse))


def alignment_benchmark(trials: int = 40, seed0: int = 0,
                        config: AlignConfig | None = None,
                        primitives=BENCHMARK_PRIMITIVES) -> BenchmarkReport:
    """Run both arms over every primitive class; seeds are shared across
    arms so each comparison sees the identical observation."""
    config = config or AlignConfig()
    t0 = time.perf_counter()
    rows = []
    agg = {"two-stage": [], "direct": []}
    for prim in primitives:
        per = {"two-stage": [], "direct": []}
        for k in range(trials):
            for arm in ("two-stage", "direct"):
                tr = run_trial(prim, seed0 + k, arm, config)
                per[arm].append(tr)
                agg[arm].append(tr.success)
        def rate(arm):
            return float(np.mean([t.success for t in per[arm]]))
        def mean_rmse(arm):
            vals = [t.rmse for t in per[arm] if t.success]
            return float(np.mean(vals)) if vals else float("nan")
        rows.append(BenchmarkRow(prim, trials, rate("two-stage"),
                                 mean_rmse("two-stage"), rate("direct"),
                                 mean_rmse("direct")))
    return BenchmarkReport(tuple(rows), trials,
                           float(np.mean(agg["two-stage"])),
                           float(np.mean(agg["direct"])),
                           time.perf_counter() - t0)


def write_benchmark_csv(path: str, report: BenchmarkReport) -> None:
    """One row per object x arm (Table-I layout): object, valid samples,
    success rate, mean successful RMSE."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["object", "arm", "valid_samples", "success_rate",
                    "mean_success_rmse"])
        for r in report.rows:
            w.writerow([r.primitive, "two-stage", r.trials,
                        f"{r.two_stage_rate:.3f}", f"{r.two_stage_rmse:.5f}"])
            w.writerow([r.primitive, "direct", r.trials,
                        f"{r.direct_rate:.3f}", f"{r.direct_rmse:.5f}"])
