"""Command-line interface.

Verbs: align (two-stage alignment only), bench-align (alignment benchmark),
bench-plan (plans over scene seeds), plan (full pipeline), simulate (settle
one strategy), gen-scene (synthetic scene generator). Exit codes: 0
success, 2 stage failure (the report is still written), 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, is_dataclass, replace

import numpy as np

from .benchmark import (BENCHMARK_PRIMITIVES, GOOD_TWIN_MM, PLAN_SEEDS,
                        alignment_benchmark, plan_benchmark,
                        write_benchmark_csv, write_plan_csv)
from .errors import NoFeasibleGrasp, RejectedInput, StageFailureError
from .geometry import RigidPose
from .pipeline import PipelineConfig, align_scene, run_and_write
from .register import AlignConfig
from .scene import load_scene_spec, pose_to_json
from .simulate import render_outcome, settle_simulate
from .strategy import StrategySample
from .synth import TASKS, generate_synthetic_scene

EXIT_OK = 0
EXIT_STAGE_FAILURE = 2
EXIT_INVALID_INPUT = 3


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise RejectedInput("config file must hold a JSON object")
    return doc


def _apply_section(default, section):
    """Overlay a JSON object onto a config dataclass, recursing into every
    field whose default is itself a dataclass."""
    if not isinstance(section, dict):
        raise RejectedInput(
            f"config section for {type(default).__name__} must be an object")
    known = {f.name for f in fields(default)}
    unknown = set(section) - known
    if unknown:
        raise RejectedInput(f"unknown config keys: {sorted(unknown)}")
    changes = {}
    for name, value in section.items():
        current = getattr(default, name)
        changes[name] = (_apply_section(current, value)
                         if is_dataclass(current) else value)
    return replace(default, **changes)


def build_pipeline_config(doc: dict) -> PipelineConfig:
    """Overlay a JSON config document onto the pipeline defaults: an "align"
    section of AlignConfig fields and a "sim" section of SimConfig fields."""
    return _apply_section(PipelineConfig(), doc)


def _require(args, name):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise RejectedInput(f"--{name} is required for this command")
    return value


def cmd_gen_scene(args) -> int:
    out = _require(args, "out")
    path = generate_synthetic_scene(args.task, out, seed=args.seed or 0)
    print(f"scene written: {path}")
    return EXIT_OK


def cmd_align(args) -> int:
    spec = load_scene_spec(_require(args, "scene"))
    config = build_pipeline_config(_load_config(args.config))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    try:
        _, info = align_scene(spec, config.align)
    except StageFailureError as exc:
        print(f"alignment failed at {exc.stage}: {exc.reason}")
        return EXIT_STAGE_FAILURE
    path = os.path.join(out, "alignment.json")
    with open(path, "w") as f:
        json.dump(info, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, rec in info.items():
        print(f"{name}: rmse={rec['rmse']:.5f} converged={rec['converged']}")
    print(f"alignment written: {path}")
    return EXIT_OK


def cmd_bench_align(args) -> int:
    doc = _load_config(args.config)
    trials = int(doc.pop("trials", 40))
    primitives = tuple(doc.pop("primitives", BENCHMARK_PRIMITIVES))
    align_cfg = _apply_section(AlignConfig(), doc.pop("align", {}))
    if doc:
        raise RejectedInput(f"unknown config keys: {sorted(doc)}")
    report = alignment_benchmark(trials=trials, seed0=args.seed or 0,
                                 config=align_cfg, primitives=primitives)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "benchmark.csv")
    write_benchmark_csv(path, report)
    for row in report.rows:
        print(f"{row.primitive}: two-stage {row.two_stage_rate:.1%} "
              f"direct {row.direct_rate:.1%}")
    print(f"aggregate: two-stage {report.two_stage_rate:.1%} "
          f"direct {report.direct_rate:.1%} "
          f"(margin {report.margin * 100:+.1f} pp, {report.elapsed_s:.0f} s)")
    print(f"benchmark written: {path}")
    return EXIT_OK


def cmd_bench_plan(args) -> int:
    config = build_pipeline_config(_load_config(args.config))
    seed0 = args.seed or 0
    t0 = time.perf_counter()
    rows = plan_benchmark(seed0, config)
    elapsed = time.perf_counter() - t0
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "bench_plan.csv")
    write_plan_csv(path, rows)
    for task in dict.fromkeys(r.task for r in rows):
        mine = [r for r in rows if r.task == task]
        worst = [max(r.twin_err_mm.values()) for r in mine if r.twin_err_mm]
        print(f"{task}: goal {sum(r.goal_met for r in mine)}/{len(mine)}, "
              f"every object < {GOOD_TWIN_MM:g} mm "
              f"{sum(r.twin_good for r in mine)}/{len(mine)}, median worst "
              f"{np.median(worst) if worst else float('nan'):.1f} mm")
    print(f"seeds {seed0}-{seed0 + PLAN_SEEDS - 1}: goal "
          f"{sum(r.goal_met for r in rows)}/{len(rows)}, every object < "
          f"{GOOD_TWIN_MM:g} mm {sum(r.twin_good for r in rows)}/{len(rows)}, "
          f"{elapsed:.0f} s")
    print(f"benchmark written: {path}")
    return EXIT_OK


def cmd_plan(args) -> int:
    spec = load_scene_spec(_require(args, "scene"))
    config = build_pipeline_config(_load_config(args.config))
    out = args.out or "."
    result = run_and_write(spec, out, config, seed=args.seed)
    rep = result.report
    if rep.status != "success":
        print(f"plan failed at {rep.failed_stage}: {rep.failure_reason}")
        return EXIT_STAGE_FAILURE
    sel = rep.data["selected"]
    print(f"selected sample {sel['sample_id']} "
          f"p(success)={sel['success_prob']:.3f}")
    print(f"report written: {os.path.join(out, 'report.json')}")
    return EXIT_OK


def _parse_pose(text) -> RigidPose:
    vals = [float(x) for x in text.split(",")]
    if len(vals) != 7:
        raise RejectedInput("--pose needs 7 values: qw,qx,qy,qz,x,y,z")
    return RigidPose(np.asarray(vals[:4]), np.asarray(vals[4:]))


def cmd_simulate(args) -> int:
    spec = load_scene_spec(_require(args, "scene"))
    config = build_pipeline_config(_load_config(args.config))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    try:
        twin, info = align_scene(spec, config.align)
    except StageFailureError as exc:
        print(f"alignment failed at {exc.stage}: {exc.reason}")
        return EXIT_STAGE_FAILURE
    pose = (_parse_pose(args.pose) if args.pose
            else twin.manipulated.pose)
    outcome = settle_simulate(twin, StrategySample(pose, 0), config.sim)
    doc = {
        "stable": bool(outcome.stable),
        "penetration": bool(outcome.penetration),
        "topple_steps": int(outcome.topple_steps),
        "settled_poses": {k: pose_to_json(v)
                          for k, v in outcome.settled_poses.items()},
    }
    path = os.path.join(out, "simulate.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    render_outcome(outcome).dump(os.path.join(out, "outcome"))
    print(f"stable={outcome.stable} penetration={outcome.penetration}")
    print(f"outcome written: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinforge",
        description="digital-twin alignment and manipulation planning")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scene", help="path to scene.json")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="path to a JSON config overlay")
        if extra:
            extra(p)
        p.set_defaults(fn=fn)

    add("align", cmd_align, "two-stage alignment of every scene object")
    add("bench-align", cmd_bench_align,
        "two-stage vs direct alignment benchmark")
    add("bench-plan", cmd_bench_plan,
        f"plan {PLAN_SEEDS} scene seeds of every task, scored against the truth")
    add("plan", cmd_plan, "full observation-to-strategy pipeline")
    add("simulate", cmd_simulate, "settle one strategy in the aligned twin",
        extra=lambda p: p.add_argument(
            "--pose", help="object world pose qw,qx,qy,qz,x,y,z "
            "(default: aligned pose)"))
    add("gen-scene", cmd_gen_scene, "generate a synthetic task scene",
        extra=lambda p: p.add_argument(
            "--task", choices=TASKS, default=TASKS[0],
            help="task template to generate"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (RejectedInput, NoFeasibleGrasp, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
