"""twinforge planner benchmark.

    python3 perfbench/run.py --workload plan-cup-on-box --seed 0 \
        --seconds 30 --trace 0

Run from the repository root. It builds nothing: it imports the planner
from ``src/``. With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones, as the last line of
standard output; the line before it holds the environment, the quality
figures and the check results. The exit code is 0 when every check passed,
1 when a determinism or ground-truth check failed, and 2 when the planner
cannot be imported.
"""

import os

# pinned before numpy loads: OpenBLAS would otherwise start a thread per core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TWINFORGE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_CYCLES = 2
COUNT_KEYS = ("calls", "pairs", "points", "poses", "samples", "iterations",
              "newton_iterations", "topple_steps", "penetration_rejects",
              "labelled", "positive")


def import_planner():
    """Import twinforge from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import twinforge
        import workloads
        import tracer
    except ImportError as exc:
        print(f"cannot import the planner from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(twinforge.__file__).resolve().parents:
        print(f"twinforge was imported from outside {src}", file=sys.stderr)
        sys.exit(2)
    return workloads, tracer


def environment():
    import numpy
    import scipy

    def blas(mod):
        b = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs),
            "n": len(xs)}


def count_mismatches(cycles_stats):
    """Work counts that differ between cycles of identical operations."""
    first = cycles_stats[0]
    return sorted({f"{layer}.{k} differs between cycles"
                   for stats in cycles_stats[1:]
                   for layer, s in stats.items()
                   for k in COUNT_KEYS if k in s and s[k] != first[layer][k]})


def layer_metrics(cycles_stats, cycle_s, wrapper_cost, summary):
    """Per-layer metrics as means per cycle."""
    first = cycles_stats[0]
    out = {}
    for layer, s in first.items():
        for k in s:
            out[f"{layer}.{k}"] = statistics.fmean(
                st[layer][k] for st in cycles_stats)
    ransac = "register.ransac_register"
    out[f"{ransac}.inlier_fraction"] /= max(out[f"{ransac}.calls"], 1)
    out["simulate.positive_rate"] = (out["simulate.label_samples.positive"]
                                     / max(out["simulate.label_samples.labelled"], 1))
    covered = statistics.fmean(sum(s["self_s"] for s in st.values())
                               for st in cycles_stats)
    calls = sum(s["calls"] for s in first.values())
    out["trace.covered_share"] = covered / cycle_s
    out["trace.unattributed_s"] = cycle_s - covered
    out["trace.overhead_s"] = calls * wrapper_cost
    for stage, value in summary["timings"].items():
        out[f"pipeline.{stage}_s"] = value
    for name, value in summary["quality"].items():
        out[f"bench.{name}"] = value
    out.update(summary["per_class"])
    t = tail(summary["two_stage_times"])
    out["bench.align_tail_s"] = t["value"] if t else 0.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl_mod, tr_mod = import_planner()
    import_s = time.perf_counter() - T_START
    if args.workload not in wl_mod.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl_mod.WORKLOADS)}")
    workload = wl_mod.WORKLOADS[args.workload]()

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    checks, summary, cycles = [], None, []
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed, os.path.join(tmp, f"setup{rep}"))
            setup_times.append(time.perf_counter() - t0)

        tracer = tr_mod.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            t0 = t_cycle = time.perf_counter()
            # whole cycles, at least MIN_CYCLES; no cycle is started that
            # would end past --seconds at the last cycle's pace
            while True:
                ops = workload.cycle()
                cycles.append((ops, tracer.take() if tracer else None))
                now = time.perf_counter()
                if (len(cycles) >= MIN_CYCLES
                        and now - t0 + (now - t_cycle) > args.seconds):
                    break
                t_cycle = now
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        summary = workload.summarize([ops for ops, _ in cycles])
        op_times = [dt for ops, _ in cycles for dt, _ in ops]
        if args.trace:
            stats = [st for _, st in cycles]
            mismatches = count_mismatches(stats)
            if mismatches:
                raise wl_mod.CheckFailed("; ".join(mismatches))
            cycle_s = statistics.fmean(sum(dt for dt, _ in ops)
                                       for ops, _ in cycles)
            computed = layer_metrics(stats, cycle_s,
                                     tr_mod.wrapper_cost_s(), summary)
            names = spec["per_layer"]
        else:
            computed = {
                "op_s": statistics.median(op_times),
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
            names = spec["end_to_end"]
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                   for m in names}
    except wl_mod.CheckFailed as exc:
        checks.append(str(exc))
        metrics = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed,
            "env": environment(), "cycles": len(cycles),
            "ops": sum(len(ops) for ops, _ in cycles),
            "failed_checks": checks}
    if summary:
        info["quality"] = summary["quality"]
        if "key" in summary:
            info["plan_key_sha256"] = hashlib.sha256(
                summary["key"].encode()).hexdigest()
            info["labels"] = summary["labels"]
        t = tail(summary["two_stage_times"])
        if t:
            info["align_two_stage_tail"] = t
    print(json.dumps(info, sort_keys=True))
    attempted = max(info["ops"], 1)
    print(json.dumps({"correct": not checks, "attempted": attempted,
                      "failed": summary["failed"] if summary else attempted,
                      "metrics": metrics}))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
