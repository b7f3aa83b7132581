"""Ablation: active blocks per chip (the Section 5.2 trade-off).

The paper: *"we use two active blocks per chip where more than two active
blocks per chip could be better.  However, the more active blocks per
chip, the more memory overhead for the OPM"*.  This bench sweeps the
active-block count under the bursty OLTP workload and reports both the
IOPS and the OPM memory footprint, quantifying the trade-off the authors
settled by hand.
"""

import dataclasses

import pytest

from benchmarks.conftest import BENCH_QUEUE_DEPTH, emit
from repro.analysis.tables import format_table
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload

COUNTS = (1, 2, 4)
N_REQUESTS = 6000
WARMUP = 2000


@pytest.fixture(scope="module")
def active_block_sweep(bench_ssd_config):
    results = {}
    for count in COUNTS:
        config = dataclasses.replace(
            bench_ssd_config, active_blocks_per_chip=count
        )
        sim = SSDSimulation(config, ftl="cube")
        sim.prefill(0.9)
        trace = build_workload("OLTP", config.logical_pages, N_REQUESTS, seed=7)
        stats = replay(
            sim,
            trace, queue_depth=BENCH_QUEUE_DEPTH, warmup_requests=WARMUP
        )
        results[count] = (stats, sim.ftl.opm.memory_bytes())
    return results


def test_active_blocks_tradeoff(benchmark, active_block_sweep):
    results = benchmark.pedantic(
        lambda: active_block_sweep, rounds=1, iterations=1
    )
    rows = []
    for count, (stats, memory) in results.items():
        counters = stats.counters
        total = max(1, counters.flash_programs + counters.gc_programs)
        rows.append([
            count,
            f"{stats.iops:.0f}",
            f"{100 * counters.follower_programs / total:.0f} %",
            f"{stats.write_latency.percentile(90):.0f}",
            memory,
        ])
    emit(
        "ablation_active_blocks",
        "Active blocks per chip (OLTP, fresh):\n"
        + format_table(
            ["active blocks", "IOPS", "followers", "write p90 us",
             "OPM memory (B)"],
            rows,
        ),
        runs={
            f"{count} active blocks": stats
            for count, (stats, _memory) in results.items()
        },
    )
    # two active blocks already capture most of the benefit over one ...
    assert results[2][0].iops >= results[1][0].iops * 0.98
    # ... while memory grows with the active-block count
    assert results[4][1] >= results[2][1] >= results[1][1]
    # every configuration sustains the workload
    for count, (stats, _memory) in results.items():
        assert stats.completed_requests == N_REQUESTS - WARMUP
