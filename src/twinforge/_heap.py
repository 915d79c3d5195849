"""Process-wide malloc policy: keep numpy's temporaries on the heap.

glibc serves a request above its mmap threshold with a fresh mapping and
gives it back on free; the threshold grows with the largest such block
freed, and the heap top is trimmed back to the kernel once more than the
trim threshold sits free there. The planner frees bursts of 0.1-4 MiB
temporaries (FPFH pair features, the rasterizer's fragment lists, the
coarse descriptor stacks) on every call, so under the dynamic thresholds
their pages are unmapped or trimmed and then zero-filled again by the
kernel on the next call: 10-25k minor page faults per plan. Fixing both
thresholds keeps those pages in the heap for reuse. No arithmetic changes.

The setting holds for the whole process. Where the C library has no
working ``mallopt`` (musl, macOS, Windows) nothing is set.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 4 << 20    # blocks below this come from the heap
TRIM_THRESHOLD = 32 << 20   # free heap top kept before it goes back


def apply_heap_policy() -> bool:
    """Fix glibc's mmap and trim thresholds; True when both were set.

    Returns False where the C library has no ``mallopt`` or refuses a
    setting.
    """
    try:
        # the symbols already loaded into the process, the C library's among
        # them; find_library would start a subprocess at import
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
