import platform
import resource

import pytest

import twinforge
from twinforge import _heap
from twinforge.camera import backproject
from twinforge.register import _subsample, compute_fpfh, estimate_normals
from twinforge.synth import synthetic_observation


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not twinforge.HEAP_POLICY,
                    reason="the C library took no malloc policy")
def test_repeated_fpfh_reuses_heap_pages():
    # under glibc's dynamic thresholds every call maps (or grows the trimmed
    # heap) and zero-fills its pair temporaries again: about 3k minor faults
    # per repeated call on a 1200-point view; with the policy the pages of
    # the earlier calls are reused
    obs = synthetic_observation("cup:0.035,0.09,0.005", seed=3)
    cloud = _subsample(backproject(obs.depth, obs.intrinsics, obs.mask),
                       1200, 2)
    assert len(cloud) == 1200
    normals, valid = estimate_normals(cloud)
    for _ in range(2):
        compute_fpfh(cloud, normals, valid=valid)
    before = _minor_faults()
    compute_fpfh(cloud, normals, valid=valid)
    assert _minor_faults() - before < 100


def test_policy_without_mallopt_changes_nothing(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(_heap.ctypes, "CDLL", NoMallopt)
    assert _heap.apply_heap_policy() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="not glibc")
def test_glibc_takes_the_policy_every_time():
    assert twinforge.HEAP_POLICY is True
    assert _heap.apply_heap_policy() is True
    assert _heap.apply_heap_policy() is True
