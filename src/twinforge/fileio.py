"""File formats: PGM/PPM images, raw float depth, OBJ/PLY meshes.

PGM depth images are 16-bit grayscale scaled by a configurable factor
(default 0.001 m per unit). The raw depth format is a one-line ASCII header
``DEPTHF32 <width> <height>`` followed by little-endian float32 values in
row-major order.
"""

from __future__ import annotations

import numpy as np

from .camera import BinaryMask, ColorImage, DepthImage
from .geometry import RejectedInput, TriangleMesh
from .solids import is_watertight, signed_volume

DEFAULT_DEPTH_SCALE = 0.001


# ---------------------------------------------------------------------------
# PNM helpers

def _positive_ints(tokens, what):
    """Header fields as positive ints; anything else is RejectedInput."""
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise RejectedInput(f"non-integer {what} header field in {tokens}") from None
    if min(values) < 1:
        raise RejectedInput(f"non-positive {what} header field in {tokens}")
    return values


def _read_pnm_header(f):
    """Parse a P5/P6 header, skipping '#' comments. Returns (magic, w, h, maxval)."""
    magic = f.read(2).decode("ascii", errors="replace")
    if magic not in ("P5", "P6"):
        raise RejectedInput(f"unsupported PNM magic {magic!r}")
    tokens = []
    while len(tokens) < 3:
        line = f.readline()
        if not line:
            raise RejectedInput("truncated PNM header")
        text = line.decode("ascii", errors="replace")
        text = text.split("#", 1)[0]
        tokens.extend(text.split())
    w, h, maxval = _positive_ints(tokens[:3], "PNM")
    return magic, w, h, maxval


def _read_pnm(path):
    with open(path, "rb") as f:
        magic, w, h, maxval = _read_pnm_header(f)
        channels = 3 if magic == "P6" else 1
        dtype = np.dtype(">u2") if maxval > 255 else np.uint8
        payload = f.read()
    count = w * h * channels
    if len(payload) < count * np.dtype(dtype).itemsize:
        raise RejectedInput(f"truncated PNM payload in {path}")
    raw = np.frombuffer(payload, dtype=dtype, count=count)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return raw.reshape(shape).astype(np.float64), maxval


def _write_pnm(path, magic, array, maxval):
    h, w = array.shape[:2]
    dtype = np.dtype(">u2") if maxval > 255 else np.uint8
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(np.clip(np.round(array), 0, maxval).astype(dtype).tobytes())


def load_depth_pgm(path, depth_scale=DEFAULT_DEPTH_SCALE) -> DepthImage:
    values, _ = _read_pnm(path)
    if values.ndim != 2:
        raise RejectedInput("depth PGM must be grayscale")
    return DepthImage(values * depth_scale)


def save_depth_pgm(path, depth: DepthImage, depth_scale=DEFAULT_DEPTH_SCALE):
    values = np.nan_to_num(depth.values, nan=0.0) / depth_scale
    _write_pnm(path, "P5", values, 65535)


def load_depth_raw(path) -> DepthImage:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").split()
        if len(header) != 3 or header[0] != "DEPTHF32":
            raise RejectedInput(f"bad raw depth header in {path}")
        w, h = _positive_ints(header[1:], "raw depth")
        payload = f.read()
    if len(payload) < w * h * 4:
        raise RejectedInput(f"truncated raw depth payload in {path}")
    raw = np.frombuffer(payload, dtype="<f4", count=w * h)
    return DepthImage(raw.reshape(h, w).astype(np.float64))


def save_depth_raw(path, depth: DepthImage):
    with open(path, "wb") as f:
        f.write(f"DEPTHF32 {depth.width} {depth.height}\n".encode("ascii"))
        f.write(np.nan_to_num(depth.values, nan=0.0).astype("<f4").tobytes())


def load_color_ppm(path) -> ColorImage:
    values, maxval = _read_pnm(path)
    if values.ndim != 3:
        raise RejectedInput("color image must be a P6 PPM")
    return ColorImage(values / maxval)


def save_color_ppm(path, image: ColorImage):
    _write_pnm(path, "P6", image.values * 255.0, 255)


def load_mask_pgm(path) -> BinaryMask:
    values, _ = _read_pnm(path)
    if values.ndim != 2:
        raise RejectedInput("mask must be a P5 PGM")
    return BinaryMask(values != 0)


def save_mask_pgm(path, mask: BinaryMask):
    _write_pnm(path, "P5", mask.values.astype(np.float64) * 255.0, 255)


# ---------------------------------------------------------------------------
# Meshes

def load_obj(path) -> TriangleMesh:
    """ASCII OBJ: v and f records; texture coordinates ignored; 1-based faces."""
    vertices = []
    colors = []
    triangles = []
    with open(path, "r") as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
                if len(parts) >= 7:  # optional per-vertex color extension
                    colors.append([float(x) for x in parts[4:7]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                for k in range(1, len(idx) - 1):  # fan-triangulate polygons
                    triangles.append([idx[0], idx[k], idx[k + 1]])
    if not vertices:
        raise RejectedInput(f"no vertices in {path}")
    vc = np.array(colors) if len(colors) == len(vertices) and colors else None
    return TriangleMesh(np.array(vertices), np.array(triangles, dtype=np.int64), vc)


def load_ply(path) -> TriangleMesh:
    """ASCII PLY with optional uchar red/green/blue vertex properties."""
    with open(path, "r") as f:
        if f.readline().strip() != "ply":
            raise RejectedInput(f"{path} is not a PLY file")
        n_vert = n_face = 0
        vertex_props = []
        element = None
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "format":
                if parts[1] != "ascii":
                    raise RejectedInput("only ASCII PLY is supported")
            elif parts[0] == "element":
                element = parts[1]
                if element == "vertex":
                    n_vert = int(parts[2])
                elif element == "face":
                    n_face = int(parts[2])
            elif parts[0] == "property" and element == "vertex":
                vertex_props.append(parts[-1])
            elif parts[0] == "end_header":
                break
        has_color = {"red", "green", "blue"} <= set(vertex_props)
        vertices = np.empty((n_vert, 3))
        colors = np.empty((n_vert, 3)) if has_color else None
        ix = {name: i for i, name in enumerate(vertex_props)}
        for i in range(n_vert):
            vals = f.readline().split()
            vertices[i] = [float(vals[ix["x"]]), float(vals[ix["y"]]), float(vals[ix["z"]])]
            if has_color:
                colors[i] = [float(vals[ix["red"]]) / 255.0,
                             float(vals[ix["green"]]) / 255.0,
                             float(vals[ix["blue"]]) / 255.0]
        triangles = []
        for _ in range(n_face):
            vals = [int(x) for x in f.readline().split()]
            idx = vals[1:1 + vals[0]]
            for k in range(1, len(idx) - 1):
                triangles.append([idx[0], idx[k], idx[k + 1]])
    return TriangleMesh(vertices, np.array(triangles, dtype=np.int64), colors)


def save_ply(path, mesh: TriangleMesh):
    colors = mesh.vertex_colors
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(mesh.vertices)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        if colors is not None:
            f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write(f"element face {len(mesh.triangles)}\n")
        f.write("property list uchar int vertex_indices\nend_header\n")
        for i, v in enumerate(mesh.vertices):
            f.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
            if colors is not None:
                c = np.clip(np.round(colors[i] * 255), 0, 255).astype(int)
                f.write(f" {c[0]} {c[1]} {c[2]}")
            f.write("\n")
        for t in mesh.triangles:
            f.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def load_mesh(path) -> TriangleMesh:
    """An OBJ or PLY mesh. A closed mesh wound inward (negative signed
    volume) comes back with each triangle reversed, so its faces point out
    as the renderer's back-face culling assumes; any other mesh comes back
    as stored."""
    path = str(path)
    if path.endswith(".obj"):
        mesh = load_obj(path)
    elif path.endswith(".ply"):
        mesh = load_ply(path)
    else:
        raise RejectedInput(f"unsupported mesh format: {path}")
    if is_watertight(mesh) and signed_volume(mesh) < 0:
        return TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1],
                            mesh.vertex_colors, mesh.face_labels)
    return mesh
