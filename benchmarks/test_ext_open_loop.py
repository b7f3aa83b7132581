"""Extension bench -- open-loop burst absorption.

The closed-loop Fig. 17/18 runs saturate the device, which understates
the WAM's value: its whole point is to bank slow leaders for calm periods
and spend fast followers on bursts, and calm periods only exist in
open-loop arrival processes.  This bench replays a bursty arrival-timed
write stream (on/off bursts at ~60 % average utilization) and compares
tail write latency across FTLs.

Expected shape: the PS-aware FTLs cut the burst tail sharply; cubeFTL
(WAM) is at least as good as cubeFTL- and clearly better than pageFTL.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.base import with_arrivals
from repro.workloads.synthetic import uniform_random_trace

FTLS = ["page", "vert", "cube", "cube-"]
N_REQUESTS = 6000
RATE_IOPS = 18_000
BURSTINESS = 6.0


@pytest.fixture(scope="module")
def open_loop(bench_ssd_config):
    results = {}
    for ftl in FTLS:
        sim = SSDSimulation(bench_ssd_config, ftl=ftl)
        sim.prefill(0.9)
        trace = uniform_random_trace(
            sim.config.logical_pages, N_REQUESTS, read_fraction=0.2, seed=11
        )
        stamped = with_arrivals(
            trace, rate_iops=RATE_IOPS, burstiness=BURSTINESS, seed=12
        )
        results[ftl] = replay(sim, stamped, mode="unbounded")
    return results


def test_open_loop_burst_absorption(benchmark, open_loop):
    results = benchmark.pedantic(lambda: open_loop, rounds=1, iterations=1)
    rows = []
    for ftl, stats in results.items():
        w = stats.write_latency
        rows.append([
            stats.ftl_name,
            round(w.percentile(50)),
            round(w.percentile(90)),
            round(w.percentile(99)),
            round(stats.read_latency.percentile(90)),
        ])
    emit(
        "ext_open_loop",
        f"Open-loop bursty writes ({RATE_IOPS} IOPS avg, burstiness "
        f"{BURSTINESS}):\n"
        + format_table(
            ["FTL", "write p50 us", "write p90 us", "write p99 us",
             "read p90 us"],
            rows,
        ),
        runs={stats.ftl_name: stats for stats in results.values()},
    )
    page = results["page"].write_latency
    cube = results["cube"].write_latency
    cube_minus = results["cube-"].write_latency
    # the PS-aware FTL cuts the burst tail over the baseline
    assert cube.percentile(90) < page.percentile(90)
    assert cube.percentile(99) < page.percentile(99)
    # and the WAM keeps cubeFTL at least on par with cubeFTL-
    assert cube.percentile(90) <= cube_minus.percentile(90) * 1.05
    for ftl in FTLS:
        assert results[ftl].completed_requests == N_REQUESTS
