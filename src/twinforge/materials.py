"""Material names a scene spec may give its objects.

The settle simulator is quasi-static and uniform-density, so it reads no
material property; the planner only reports whether a spec's material name
is one it knows. Unknown names fall back to "default" with known=False so
the caller can log it.
"""

from __future__ import annotations

MATERIALS = ("wood", "plastic", "ceramic", "metal", "glass", "cardboard",
             "rubber", "foam", "default")


def material_lookup(name):
    """Exact-name lookup after stripping and lower-casing. Returns
    (canonical name, known); unknown names yield "default" with known=False."""
    key = str(name).strip().lower()
    if key in MATERIALS:
        return key, True
    return "default", False
