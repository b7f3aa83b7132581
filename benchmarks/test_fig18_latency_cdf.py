"""Fig. 18 -- I/O latency distributions under Rocks (fresh state).

Regenerates the write- and read-latency CDFs of pageFTL, vertFTL,
cubeFTL, and cubeFTL- (WAM disabled) under the RocksDB workload on fresh
blocks.

Paper shape: cubeFTL and cubeFTL- both serve writes much faster than
pageFTL (p90 0.72 ms vs 1.10 ms, about 1.5x); cubeFTL additionally beats
cubeFTL- at the upper percentiles because the WAM absorbs compaction
bursts with follower WLs; reads also improve (less blocking behind
writes), even though no read retries occur fresh.
"""

import pytest

from benchmarks.conftest import emit
from benchmarks.runner import run_matrix
from repro.analysis.tables import format_table
from repro.nand.reliability import AgingState

FTLS = ["page", "vert", "cube", "cube-"]
PERCENTILES = (50, 80, 90, 95, 99)


@pytest.fixture(scope="module")
def fig18(bench_ssd_config):
    """ftl-name -> stats of the fresh Rocks runs."""
    return run_matrix(
        bench_ssd_config, AgingState(0, 0.0), ftls=FTLS, workloads=["Rocks"]
    )["Rocks"]


def _render(results):
    lines = ["Fig 18(a) -- write latency percentiles (us), Rocks, fresh:"]
    rows = [
        [stats.ftl_name]
        + [round(stats.write_latency.percentile(p)) for p in PERCENTILES]
        for stats in results.values()
    ]
    lines.append(format_table(["FTL"] + [f"p{p}" for p in PERCENTILES], rows))
    lines.append("")
    lines.append("Fig 18(b) -- read latency percentiles (us), Rocks, fresh:")
    rows = [
        [stats.ftl_name]
        + [round(stats.read_latency.percentile(p)) for p in PERCENTILES]
        for stats in results.values()
    ]
    lines.append(format_table(["FTL"] + [f"p{p}" for p in PERCENTILES], rows))
    return "\n".join(lines)


def test_fig18_latency_cdfs(benchmark, fig18):
    results = benchmark.pedantic(lambda: fig18, rounds=1, iterations=1)
    emit(
        "fig18_latency_cdf",
        _render(results),
        runs={f"Rocks/{ftl}": stats for ftl, stats in results.items()},
    )
    page_w = results["pageFTL"].write_latency
    cube_w = results["cubeFTL"].write_latency
    cube_minus_w = results["cubeFTL-"].write_latency

    # cubeFTL's p90 write latency is far below pageFTL's (paper: ~1.53x)
    assert page_w.percentile(90) / cube_w.percentile(90) > 1.15
    # the WAM helps at the upper percentiles: cubeFTL <= cubeFTL- at p80+
    assert cube_w.percentile(80) <= cube_minus_w.percentile(80) * 1.02
    assert cube_w.percentile(95) <= cube_minus_w.percentile(95) * 1.02
    # both PS-aware variants beat the PS-unaware baselines everywhere
    for p in (50, 80, 90):
        assert cube_w.percentile(p) < page_w.percentile(p)
        assert cube_w.percentile(p) < results["vertFTL"].write_latency.percentile(p)
    # reads improve too (less blocking behind slow writes)
    assert results["cubeFTL"].read_latency.percentile(90) <= (
        results["pageFTL"].read_latency.percentile(90)
    )
