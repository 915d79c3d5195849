"""Scene specification and run report serialization.

A scene spec is a JSON file describing one captured tabletop observation:
camera model and pose, image/mesh/mask asset paths, per-object roles and
materials, the manipulation instruction with its placement goal, and the
sampler/workspace configuration. Run reports are versioned JSON documents;
all fields except the "timings" block are deterministic for a fixed spec
and seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics
from .errors import RejectedInput, check_int
from .geometry import RigidPose
from .simulate import ROLES, check_predicate

SCENE_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1


def pose_to_json(pose: RigidPose):
    return {"rotation": [float(x) for x in pose.rotation],
            "translation": [float(x) for x in pose.translation]}


def pose_from_json(obj) -> RigidPose:
    return RigidPose(np.asarray(obj["rotation"], dtype=float),
                     np.asarray(obj["translation"], dtype=float))


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    role: str                 # manipulated / interactive / static
    mesh: str                 # canonical-frame mesh asset path
    mask: str                 # instance mask image path
    material: str = "default"


@dataclass(frozen=True)
class SceneSpec:
    intrinsics: CameraIntrinsics
    camera_pose: RigidPose    # world_from_camera
    rgb: str
    depth: str
    region_mask: str
    objects: tuple
    instruction: str
    goal: tuple               # (predicate_name, [object names...])
    workspace: tuple          # ((lo x,y,z), (hi x,y,z))
    grasps: str | None = None
    seed: int = 0
    sampler: dict = field(default_factory=dict)
    base_dir: str = "."

    def path(self, rel):
        return os.path.join(self.base_dir, rel)

    @property
    def manipulated(self) -> ObjectSpec:
        return next(o for o in self.objects if o.role == "manipulated")


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _number(what, value):
    """``value`` as a float if the JSON holds a number there; a string, a
    bool or anything else raises TypeError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _corner(what, value):
    corner = tuple(_number(what, x) for x in value)
    if len(corner) != 3:
        raise ValueError(f"{what} needs 3 values, got {value!r}")
    return corner


def _sampler(section):
    """The sampler section as given: at most the two counts, as ints >= 1,
    and the offset radius, finite and >= 0."""
    if not isinstance(section, dict):
        raise TypeError(f"sampler must be an object, got {section!r}")
    for key, value in section.items():
        if key in ("n_rotations", "n_offsets"):
            check_int(f"sampler {key}", value, 1)
        elif key != "offset_radius":
            raise ValueError(f"unknown sampler key {key!r}")
        elif not (type(value) in (int, float) and 0 <= value < np.inf):
            raise ValueError(f"sampler {key} out of range: {value!r}")
    return dict(section)


def load_scene_spec(path) -> SceneSpec:
    """Read a scene spec. A missing or mistyped field (a camera size that is
    not an int >= 1, a camera or workspace number given as a string or a
    bool), a non-finite camera value, an unknown role or goal predicate, a
    repeated object name, a goal that names an undeclared object or takes
    the wrong number of them, a workspace whose min exceeds its max on some
    axis, a seed that is not an int >= 0, or a sampler key or value out of
    range raises RejectedInput."""
    with open(path, "r") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise RejectedInput("scene spec must hold a JSON object")
    if doc.get("schema_version") != SCENE_SCHEMA_VERSION:
        raise RejectedInput(
            f"unsupported scene schema version {doc.get('schema_version')!r}")
    try:
        spec = _parse_scene_spec(doc, os.path.dirname(os.path.abspath(path)))
    except KeyError as exc:
        raise RejectedInput(f"scene spec is missing key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise RejectedInput(f"malformed scene spec: {exc}") from None
    names = [o.name for o in spec.objects]
    if len(set(names)) != len(names):
        raise RejectedInput(f"object names must be unique, got {names}")
    for o in spec.objects:
        if o.role not in ROLES:
            raise RejectedInput(f"object {o.name!r} has unknown role {o.role!r}")
    if sum(1 for o in spec.objects if o.role == "manipulated") != 1:
        raise RejectedInput("scene must declare exactly one manipulated object")
    for arg in check_predicate(spec.goal)[1]:
        if arg not in names:
            raise RejectedInput(f"goal names undeclared object {arg!r}")
    lo, hi = spec.workspace
    if not all(a <= b for a, b in zip(lo, hi)):
        raise RejectedInput(f"workspace min {lo} must be <= its max {hi}")
    return spec


def _parse_scene_spec(doc, base_dir) -> SceneSpec:
    cam = doc["camera"]
    intr = CameraIntrinsics(
        *(_number(f"camera {k}", cam[k]) for k in ("fx", "fy", "cx", "cy")),
        *(check_int(f"camera {k}", cam[k], 1) for k in ("width", "height")))
    objects = tuple(ObjectSpec(_text(o["name"]), _text(o["role"]),
                               _text(o["mesh"]), _text(o["mask"]),
                               _text(o.get("material", "default")))
                    for o in doc["objects"])
    goal = doc["goal"]
    ws = doc["workspace"]
    grasps = doc.get("grasps")
    return SceneSpec(
        intrinsics=intr,
        camera_pose=pose_from_json(doc["camera_pose"]),
        rgb=_text(doc["rgb"]), depth=_text(doc["depth"]),
        region_mask=_text(doc["region_mask"]),
        objects=objects,
        instruction=_text(doc.get("instruction", "")),
        goal=(_text(goal["predicate"]), list(goal["args"])),
        workspace=(_corner("workspace min", ws[0]),
                   _corner("workspace max", ws[1])),
        grasps=None if grasps is None else _text(grasps),
        seed=check_int("seed", doc.get("seed", 0), 0),
        sampler=_sampler(doc.get("sampler", {})),
        base_dir=base_dir,
    )


def save_scene_spec(path, spec: SceneSpec):
    intr = spec.intrinsics
    doc = {
        "schema_version": SCENE_SCHEMA_VERSION,
        "camera": {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                   "width": intr.width, "height": intr.height},
        "camera_pose": pose_to_json(spec.camera_pose),
        "rgb": spec.rgb, "depth": spec.depth, "region_mask": spec.region_mask,
        "objects": [{"name": o.name, "role": o.role, "mesh": o.mesh,
                     "mask": o.mask, "material": o.material}
                    for o in spec.objects],
        "instruction": spec.instruction,
        "goal": {"predicate": spec.goal[0], "args": list(spec.goal[1])},
        "workspace": [list(spec.workspace[0]), list(spec.workspace[1])],
        "seed": spec.seed,
        "sampler": spec.sampler,
    }
    if spec.grasps:
        doc["grasps"] = spec.grasps
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Run reports

@dataclass
class RunReport:
    status: str = "success"            # success / failure
    failed_stage: str | None = None
    failure_reason: str | None = None
    stages: list = field(default_factory=list)   # names in execution order
    seed: int = 0
    data: dict = field(default_factory=dict)     # per-stage result payloads
    timings: dict = field(default_factory=dict)  # stage -> seconds (excluded
                                                 # from determinism checks)

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "status": self.status,
            "failed_stage": self.failed_stage,
            "failure_reason": self.failure_reason,
            "stages": list(self.stages),
            "seed": self.seed,
            "data": self.data,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")


def report_determinism_key(report_json: dict) -> str:
    """Canonical serialization of a report with timing data removed."""
    doc = dict(report_json)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)
