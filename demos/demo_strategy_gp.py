"""Strategy sampling, simulation labeling, and GP-based ranking.

Builds a digital twin of a cube next to an open box, samples placement
strategies over the box interior, labels each one with the quasi-static
settle simulator against an "inside" goal, fits the SE(3) Gaussian-process
classifier on those labels, and prints the ranked shortlist.

Usage:
    python demos/demo_strategy_gp.py [--seed 0]
"""

import argparse

import numpy as np

from twinforge import quaternions as quat
from twinforge.geometry import PointCloud, RigidPose
from twinforge.gpclassify import fit, rank_and_select
from twinforge.simulate import SceneObject, SceneTwin, SimConfig, label_samples
from twinforge.strategy import InteractionRegion, sample_strategies
from twinforge.synth import primitive_from_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cube = primitive_from_spec("box:0.05,0.05,0.05")
    container = primitive_from_spec("open_box:0.14,0.12,0.06,0.01")
    twin = SceneTwin((
        SceneObject("cube", cube,
                    RigidPose(quat.IDENTITY, [-0.2, 0.0, 0.025]),
                    role="manipulated"),
        SceneObject("container", container,
                    RigidPose(quat.IDENTITY, [0.0, 0.0, 0.03]),
                    role="static"),
    ))

    # interaction region: points over the container cavity
    rng = np.random.default_rng(args.seed)
    pts = np.column_stack([rng.uniform(-0.05, 0.05, 200),
                           rng.uniform(-0.04, 0.04, 200),
                           np.full(200, 0.06)])
    region = InteractionRegion(PointCloud(pts), pts.mean(axis=0))

    samples = sample_strategies(region, n_rotations=3, n_offsets=5,
                                offset_radius=0.03, reach=lambda p: True,
                                vertical_offset=lambda q: 0.05)
    print(f"sampled {len(samples)} candidate strategies")

    labeled = label_samples(twin, samples, ("inside", ("cube", "container")),
                            SimConfig(surface_samples=900, seed=args.seed))
    positives = sum(1 for s in labeled if s.weak_label)
    print(f"simulation labels: {positives} positive / "
          f"{len(labeled) - positives} negative")

    model = fit(labeled)
    ranking = rank_and_select(model, labeled)
    print("top five strategies:")
    for s in ranking.ranked[:5]:
        t = s.object_pose.translation
        print(f"  sample {s.sample_id:3d}  p={s.success_prob:.3f}  "
              f"label={'+' if s.weak_label else '-'}  "
              f"target=({t[0]:+.3f}, {t[1]:+.3f}, {t[2]:+.3f})")
    best = ranking.ranked[0]
    print(f"selected sample {best.sample_id} with p={best.success_prob:.3f}")


if __name__ == "__main__":
    main()
