"""Outside-in layer tracer for the twinforge benchmark.

Each traced layer is a public twinforge function. The tracer replaces every
module attribute that refers to that function (``twinforge.simulate.
points_inside``, ``twinforge.pipeline.two_stage_align``, ...) with a timing
wrapper, so a call is traced under whatever name its caller looks it up by.
No private name is wrapped, so the program's internals can change without
editing the benchmark.

A span's self time is its duration minus the durations of the wrapped spans
nested inside it. Work counts come from each call's arguments and return
value. The benchmark pins ``TWINFORGE_THREADS=1``, so spans nest on one
stack.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _pairs(args, result):
    # points x triangles for the brute-force solid queries
    return {"pairs": len(args[0]) * len(args[1].triangles)}


def _settle(args, result):
    return {"topple_steps": result.topple_steps,
            "penetration_rejects": int(result.penetration)}


def _labels(args, result):
    return {"labelled": len(result),
            "positive": sum(1 for s in result if s.weak_label)}


# module -> {public function: (work counter(args, result), its keys)}
LAYERS = {
    "solids": {"points_inside": (_pairs, ("pairs",)),
               "point_mesh_distance": (_pairs, ("pairs",))},
    "simulate": {"settle_simulate": (_settle, ("topple_steps",
                                               "penetration_rejects")),
                 "label_samples": (_labels, ("labelled", "positive")),
                 "geometric_evaluator": (None, ())},
    "geometry": {"sample_mesh_surface": (None, ())},
    "render": {"render_batch": (lambda a, r: {"poses": len(r)}, ("poses",)),
               "render": (None, ()), "render_scene": (None, ())},
    "coarse": {"select_coarse_pose": (None, ()), "grid_descriptor": (None, ())},
    "register": {
        "two_stage_align": (None, ()),
        "estimate_normals": (None, ()),
        "compute_fpfh": (lambda a, r: {"points": len(a[0])}, ("points",)),
        "ransac_register": (lambda a, r: {"inlier_fraction": r.inlier_fraction},
                            ("inlier_fraction",)),
        "icp_refine": (lambda a, r: {"iterations": r.iterations},
                       ("iterations",)),
    },
    "camera": {"backproject": (None, ())},
    "gpclassify": {"fit": (lambda a, r: {"newton_iterations": r.newton_iterations},
                           ("newton_iterations",)),
                   "rank_and_select": (None, ())},
    "strategy": {"sample_strategies": (lambda a, r: {"samples": len(r)},
                                       ("samples",))},
    "grasp": {"filter_by_object_proximity": (None, ())},
}
TIME_KEYS = ("s", "self_s")


class Tracer:
    """Span timers and work counters keyed by ``<module>.<function>``."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._patches = []

    def _wrap(self, layer, fn, count):
        stack, stats = self._stack, self.stats

        def traced(*args, **kwargs):
            frame = [0.0]  # time spent in nested wrapped spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                s = stats[layer]
                s["calls"] += 1
                s["s"] += dur
                s["self_s"] += dur - frame[0]
            if count is not None:
                for key, value in count(args, result).items():
                    s[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function under each twinforge name bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "twinforge" or name.startswith("twinforge.")]
        for mod_name, funcs in LAYERS.items():
            home = importlib.import_module(f"twinforge.{mod_name}")
            for fn_name, (count, _) in funcs.items():
                fn = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", fn, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)
                            self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def take(self):
        """Stats since the last take, with every layer and key present."""
        out = {}
        for mod_name, funcs in LAYERS.items():
            for fn_name, (_, keys) in funcs.items():
                layer = f"{mod_name}.{fn_name}"
                got = self.stats.get(layer, {})
                out[layer] = {k: got.get(k, 0.0)
                              for k in ("calls",) + TIME_KEYS + keys}
        self.stats.clear()
        return out


def wrapper_cost_s(reps: int = 20000) -> float:
    """Per-call cost of one tracing wrapper, from a wrapped no-op."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibration", noop, None)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(reps):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / reps)
    return max(best, 0.0)
