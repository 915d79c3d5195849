"""Two-stage pose alignment on a synthetic RGB-D observation.

Generates a rendered observation of a box with a random resting pose and
scale, runs the coarse render-and-compare stage (rest poses under the
camera's gravity) followed by FPFH RANSAC + ICP,
and reports the pose error. Writes the observation and an overlay of the
aligned model into --out.

Usage:
    python demos/demo_alignment.py --out /tmp/demo_align [--seed 1]
"""

import argparse
import os

import numpy as np

from twinforge import quaternions as quat
from twinforge.fileio import save_color_ppm, save_depth_raw, save_mask_pgm
from twinforge.register import AlignConfig, two_stage_align
from twinforge.render import render
from twinforge.synth import synthetic_observation


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rotations", type=int, default=384,
                    help="coarse hypothesis count, a multiple of 6 "
                    "(384 = production setting)")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    obs = synthetic_observation("box:0.07,0.05,0.04", seed=args.seed)
    save_color_ppm(os.path.join(args.out, "observation_rgb.ppm"), obs.color)
    save_depth_raw(os.path.join(args.out, "observation_depth.f32"), obs.depth)
    save_mask_pgm(os.path.join(args.out, "observation_mask.pgm"), obs.mask)
    print(f"observation: {int(obs.mask.values.sum())} mask pixels, "
          f"diameter {obs.diameter:.3f} m")

    res = two_stage_align(obs.unit_mesh, obs.color, obs.depth, obs.mask,
                          obs.intrinsics, AlignConfig(rotation_count=args.rotations),
                          obs.camera_pose)

    # a box looks identical under 180-degree flips, so measure the rotation
    # error modulo its D2 symmetry group
    flips = [quat.IDENTITY.copy()] + [quat.quat_from_axis_angle(ax, np.pi)
                                      for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    rot_err = np.rad2deg(min(
        quat.geodesic_angle(res.final_pose.rotation,
                            quat.quat_normalize(quat.quat_multiply(
                                obs.true_pose_cam.rotation, s)))
        for s in flips))
    trans_err = np.linalg.norm(res.final_pose.translation
                               - obs.true_pose_cam.translation)
    print(f"coarse similarity : {res.coarse.similarity:.3f}")
    print(f"icp rmse          : {res.registration.rmse:.4f} m "
          f"({res.registration.iterations} iterations)")
    print(f"rotation error    : {rot_err:.1f} deg "
          "(up to a box symmetry flip)")
    print(f"translation error : {trans_err * 1000:.1f} mm")
    print(f"recovered scale   : {res.scale:.3f} "
          f"(true {obs.true_scale:.3f})")

    overlay = render(res.scaled_mesh, res.final_pose, obs.intrinsics)
    save_color_ppm(os.path.join(args.out, "aligned_overlay.ppm"), overlay.rgb)
    print(f"artifacts written to {args.out}")


if __name__ == "__main__":
    main()
