"""Steady-state garbage collection under PS-aware programming.

Not a paper figure, but a system-level consequence the paper implies:
GC migrations are programs and reads too, so cubeFTL's follower
programming and ORT-assisted reads accelerate GC itself.  This bench
fills a small device completely and drives sustained random overwrites
so every FTL runs continuous GC, then compares throughput, write
amplification, and GC volume.

Expected shape: both FTLs sustain the workload with similar write
amplification (GC policy is shared), but cubeFTL completes the same work
faster.
"""

import dataclasses

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace

N_REQUESTS = 6000


def _config():
    geometry = SSDGeometry(
        n_channels=2,
        chips_per_channel=2,
        blocks_per_chip=24,
        block=BlockGeometry(),
    )
    return SSDConfig(
        geometry=geometry, logical_fraction=0.85, gc_trigger_blocks=6
    )


def _run(ftl):
    config = _config()
    sim = SSDSimulation(config, ftl=ftl)
    sim.prefill(1.0)
    # overwrites concentrate on 40 % of the space so victim blocks
    # accumulate invalid pages quickly (hot/cold separation keeps the
    # cold prefill data out of the GC churn)
    hot_region = (0, int(config.logical_pages * 0.4))
    trace = uniform_random_trace(
        config.logical_pages,
        N_REQUESTS,
        read_fraction=0.1,
        seed=11,
        region=hot_region,
    )
    stats = replay(sim, trace, queue_depth=32, warmup_requests=1500)
    sim.ftl.mapper.check_invariants()
    return stats


@pytest.fixture(scope="module")
def gc_results():
    return {ftl: _run(ftl) for ftl in ("page", "cube")}


def test_gc_steady_state(benchmark, gc_results):
    results = benchmark.pedantic(lambda: gc_results, rounds=1, iterations=1)
    rows = []
    for ftl, stats in results.items():
        c = stats.counters
        host_programs = max(1, c.flash_programs)
        wa = (c.flash_programs + c.gc_programs) / host_programs
        rows.append([
            stats.ftl_name,
            f"{stats.iops:.0f}",
            c.erases,
            c.gc_programs,
            round(wa, 2),
            round(c.mean_t_prog_us),
        ])
    emit(
        "gc_steadystate",
        "Steady-state GC comparison (device 100% filled, random overwrites):\n"
        + format_table(
            ["FTL", "IOPS", "erases", "GC programs", "write amp", "tPROG us"],
            rows,
        ),
        runs={stats.ftl_name: stats for stats in results.values()},
    )
    page, cube = results["page"], results["cube"]
    # GC genuinely ran for both
    assert page.counters.erases > 0
    assert cube.counters.erases > 0
    # shared GC policy -> comparable write amplification (within 30 %)
    def wa(stats):
        c = stats.counters
        return (c.flash_programs + c.gc_programs) / max(1, c.flash_programs)

    assert abs(wa(cube) - wa(page)) / wa(page) < 0.35
    # the PS-aware FTL finishes the same work faster
    assert cube.iops > page.iops
    assert cube.counters.mean_t_prog_us < page.counters.mean_t_prog_us
