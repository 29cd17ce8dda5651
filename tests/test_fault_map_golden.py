"""Golden fault maps: the profiled flips of three Table I devices, pinned.

The DRAM fault model is a pure function of the device seed, so profiling a
fixed attacker buffer must find exactly the same flips on every run and
across every rewrite of the model.  Each entry pins the sha256 of the
profile's ``(frame, byte_offset, bit, direction)`` records, in record
order, plus the ``hammer.flips`` / ``hammer.attempts`` counters of that
profiling pass.  A mismatch means the fault map itself changed.
"""

import hashlib

import pytest

from repro import telemetry
from repro.core import BackdoorPipeline, MemoryConfig, PipelineConfig

SEED = 5
PAGES = 256

# device -> (records, sha256 of records, hammer.flips, hammer.attempts)
GOLDEN = {
    "K1": (13847, "5aafed81c0b5eb15a37f138702c65218732d95d2fe4184c12b588a1259961930", 27583, 510),
    "L2": (1930, "4602292e3a4c3af98e8e0b45798bb9bf4ee379e1bf19ccff96469f3a622ef3b3", 3732, 510),
    "M1": (293, "f172edc841144a0499c586691fe180fa0a5284eb321b925c71c5d51f90b4a528", 579, 510),
}


@pytest.mark.parametrize("device", sorted(GOLDEN))
def test_profiled_fault_map_matches_golden_digest(device):
    pipeline = BackdoorPipeline(
        PipelineConfig(
            memory=MemoryConfig(device=device, attacker_buffer_pages=PAGES, seed=SEED)
        )
    )
    with telemetry.isolated(enable=True) as (registry, _):
        profile = pipeline.profile_memory()
        counters = registry.snapshot()["counters"]
    digest = hashlib.sha256()
    for record in profile.records:
        digest.update(
            f"{record.frame},{record.byte_offset},{record.bit},{record.direction}\n".encode()
        )
    observed = (
        len(profile.records),
        digest.hexdigest(),
        int(counters["hammer.flips"]),
        int(counters["hammer.attempts"]),
    )
    assert observed == GOLDEN[device]
