"""Fault-injection campaigns versus the fault-free baseline.

Not a paper figure: the paper's platform measures healthy silicon.  This
bench drives the same device and workload under increasingly hostile
seeded fault campaigns (``none`` -> ``default`` -> ``heavy``) and
reports what the recovery machinery did -- program/erase failures
survived, blocks retired, low-margin pages scrubbed, stale ORT entries
invalidated -- alongside the performance cost.

Expected shape: every campaign completes the full workload (no request
is lost to an injected fault), recovery work grows with campaign
severity, and the fault-free run reports no recovery activity at all.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.faults import CAMPAIGNS
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads.synthetic import uniform_random_trace

N_REQUESTS = 5000

#: campaign severity order for the table and the monotonicity checks
CAMPAIGN_ORDER = ("none", "default", "heavy")


def _config(campaign_name):
    geometry = SSDGeometry(
        n_channels=2,
        chips_per_channel=2,
        blocks_per_chip=32,
        block=BlockGeometry(),
    )
    return SSDConfig(
        geometry=geometry,
        logical_fraction=0.6,
        gc_trigger_blocks=6,
    ).with_faults(CAMPAIGNS[campaign_name])


def _run(campaign_name):
    config = _config(campaign_name)
    sim = SSDSimulation(config, ftl="cube")
    sim.prefill(1.0)
    hot_region = (0, int(config.logical_pages * 0.4))
    trace = uniform_random_trace(
        config.logical_pages,
        N_REQUESTS,
        read_fraction=0.3,
        seed=11,
        region=hot_region,
    )
    stats = replay(sim, trace, queue_depth=32, warmup_requests=1000)
    sim.ftl.mapper.check_invariants()
    return stats


@pytest.fixture(scope="module")
def fault_results():
    return {name: _run(name) for name in CAMPAIGN_ORDER}


def test_fault_recovery(benchmark, fault_results):
    results = benchmark.pedantic(lambda: fault_results, rounds=1, iterations=1)
    rows = []
    for name, stats in results.items():
        recovery = stats.recovery
        rows.append([
            name,
            f"{stats.iops:.0f}",
            recovery.program_fails,
            recovery.erase_fails,
            recovery.blocks_retired,
            recovery.scrubs,
            recovery.ort_invalidations,
            recovery.recovered_reads,
            recovery.uncorrectable_after_recovery,
        ])
    emit(
        "fault_recovery",
        "Recovery work and throughput by fault campaign (cubeFTL):\n"
        + format_table(
            [
                "campaign", "IOPS", "pfail", "efail", "retired",
                "scrubs", "ort-inv", "rec-reads", "uncorr",
            ],
            rows,
        ),
        runs=results,
    )
    none, default, heavy = (results[name] for name in CAMPAIGN_ORDER)
    # every campaign completed the whole workload
    for stats in results.values():
        assert stats.completed_requests == N_REQUESTS - 1000
    # the fault-free run reports no recovery activity at all
    assert not none.recovery.any()
    assert "recovery" not in none.to_dict()
    # the default campaign survived real structural faults
    assert default.recovery.program_fails > 0
    assert default.recovery.blocks_retired > 0
    # recovery work grows with campaign severity
    def structural(stats):
        return (
            stats.recovery.program_fails
            + stats.recovery.erase_fails
            + stats.recovery.blocks_retired
        )

    assert structural(heavy) > structural(default)
    # injected faults cost performance, they never add it
    assert heavy.iops < none.iops
