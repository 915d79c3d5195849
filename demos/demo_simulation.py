"""Quasi-static settle simulation with geometric outcome predicates.

Drops a cube onto a base cube from three release poses (centered, offset,
and overhanging), settles each one, evaluates the "on_top" predicate, and
renders the final configuration from the checker viewpoint.

Usage:
    python demos/demo_simulation.py --out /tmp/demo_sim
"""

import argparse
import os

from twinforge import quaternions as quat
from twinforge.fileio import save_color_ppm
from twinforge.geometry import RigidPose
from twinforge.simulate import (GeometricEvaluator, SceneObject, SceneTwin,
                                SimConfig, render_outcome, settle_simulate)
from twinforge.strategy import StrategySample
from twinforge.synth import primitive_from_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    cube = primitive_from_spec("box:0.05,0.05,0.05")
    base = primitive_from_spec("box:0.08,0.08,0.04")
    twin = SceneTwin((
        SceneObject("cube", cube, RigidPose(quat.IDENTITY, [-0.2, 0.0, 0.025]),
                    role="manipulated"),
        SceneObject("base", base, RigidPose(quat.IDENTITY, [0.0, 0.0, 0.02]),
                    role="static"),
    ))
    evaluator = GeometricEvaluator(("on_top", ("cube", "base")))
    cfg = SimConfig(surface_samples=900)

    releases = {
        "centered": [0.0, 0.0, 0.12],
        "offset": [0.025, 0.0, 0.12],
        "overhang": [0.065, 0.0, 0.12],
    }
    for name, t in releases.items():
        sample = StrategySample(RigidPose(quat.IDENTITY, t), 0)
        out = settle_simulate(twin, sample, cfg)
        settled = out.settled_poses["cube"]
        ok = evaluator(out)
        print(f"{name:9s} release ({t[0]:+.3f}, {t[1]:+.3f}, {t[2]:.3f}): "
              f"settled z={settled.translation[2]:.3f} "
              f"stable={out.stable} topple_steps={out.topple_steps} "
              f"on_top={ok}")
        path = os.path.join(args.out, f"outcome_{name}.ppm")
        save_color_ppm(path, render_outcome(out).rgb)
    print(f"renders written to {args.out}")


if __name__ == "__main__":
    main()
