"""GC-bound replays on the benchmark's device, pinned against committed
digests.

The replay matrix (``tests/ssd/test_replay_matrix.py``) runs
``SSDConfig.small()``, whose 8-layer blocks rarely fill up within its
traces.  These two cases run the device of perfbench's ``gc-*``
workloads -- 2 channels x 4 chips, 16 blocks per chip, the default
block -- on seed 7's OLTP trace without warm-up, cut short:

- ``cube``: ``gc-cube``'s spec, 2,000 requests at 0.9 fill; data GC
  erases blocks throughout;
- ``dftl``: ``gc-dftl``'s spec, 1,000 requests at 0.85 fill; data GC
  and translation GC both erase blocks, and translation writebacks and
  migrations wait for a free block along the way.

Each case hashes the schema-v2 result, dftl's translation counters, the
latency samples, the engine's event count and final clock, and every
(time, seq) entry the engine popped.  The digests in
``golden/gc_bound.json`` were taken while dftl still ran translation GC
on a second state machine beside the base FTL's, so a match shows the
shared GC engine moves the same pages in the same order.

Regenerate them only after an intentional model change::

    PYTHONPATH=src python tests/ftl/golden/regen_gc_bound.py
"""

import hashlib
import heapq
import json
import os
from contextlib import contextmanager

import pytest

from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.specs import HostSpec, SimulationSpec, WorkloadSpec
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gc_bound.json")

#: perfbench's device
GEOMETRY = SSDGeometry(
    n_channels=2, chips_per_channel=4, blocks_per_chip=16, block=BlockGeometry()
)
SEED = 7
QUEUE_DEPTH = 16
#: case -> (ftl, requests, prefill)
CASES = {
    "cube": ("cube", 2000, 0.9),
    "dftl": ("dftl", 1000, 0.85),
}


def _spec(case):
    ftl, n_requests, prefill = CASES[case]
    return SimulationSpec(
        config=SSDConfig(geometry=GEOMETRY),
        workload=WorkloadSpec("OLTP", n_requests=n_requests),
        ftl=ftl,
        host=HostSpec(queue_depth=QUEUE_DEPTH),
        warmup_requests=0,
        prefill=prefill,
        seed=SEED,
    )


@contextmanager
def _recording_pops(popped):
    """Append the (time, seq) of every heap entry popped meanwhile."""
    pop = heapq.heappop

    def recording_pop(heap):
        entry = pop(heap)
        popped.append(entry[:2])
        return entry

    heapq.heappop = recording_pop
    try:
        yield
    finally:
        heapq.heappop = pop


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_case(case):
    """``(fingerprint, sim, deferrals)`` of one case; ``deferrals``
    counts the translation allocations that found no WL, as
    ``{"writeback": n, "migration": n}`` (empty on cube)."""
    spec = _spec(case)
    sim = SSDSimulation(spec.config, ftl=spec.ftl, **spec.ftl_kwargs)
    sim.prefill(spec.prefill)
    trace = spec.build_trace()
    deferrals = {}
    ftl = sim.ftl
    if hasattr(ftl, "_trans_allocate"):
        deferrals = {"writeback": 0, "migration": 0}
        allocate = ftl._trans_allocate

        def counted(chip_id, for_gc=False):
            allocation = allocate(chip_id, for_gc=for_gc)
            if allocation is None:
                deferrals["migration" if for_gc else "writeback"] += 1
            return allocation

        ftl._trans_allocate = counted
    popped = []
    with _recording_pops(popped):
        stats = replay(
            sim,
            trace,
            mode=spec.host.mode,
            queue_depth=spec.host.queue_depth,
            warmup_requests=spec.warmup_requests,
        )
    engine = sim.controller.engine
    dftl = getattr(ftl, "dftl_stats", None)
    fingerprint = {
        "result": _digest(stats.to_dict()),
        "dftl": _digest(dftl.to_dict() if dftl is not None else None),
        "latency": _digest(
            [stats.read_latency.sample_list(), stats.write_latency.sample_list()]
        ),
        "engine": _digest([engine.processed, engine.now]),
        "popped": _digest(popped),
    }
    return fingerprint, sim, deferrals


def fingerprints():
    """Every case's fingerprint, keyed by case."""
    return {case: run_case(case)[0] for case in CASES}


@pytest.fixture(scope="module")
def runs():
    return {case: run_case(case) for case in CASES}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_every_case_is_pinned(runs, golden):
    assert sorted(runs) == sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_golden(runs, golden, case):
    assert runs[case][0] == golden[case]


def test_cube_case_erases(runs):
    _fingerprint, sim, _deferrals = runs["cube"]
    assert sim.ftl.counters.erases > 0


def test_dftl_case_reaches_both_collections_and_deferrals(runs):
    """The dftl case must keep erasing both block kinds and deferring
    both kinds of translation allocation, or its digest pins nothing of
    the paths the two kinds share."""
    _fingerprint, sim, deferrals = runs["dftl"]
    ftl = sim.ftl
    trans_erases = ftl.dftl_stats.trans_gc_erases
    assert trans_erases > 0
    assert ftl.counters.erases > trans_erases
    assert deferrals["writeback"] > 0
    assert deferrals["migration"] > 0
