"""Ablation: which OPM mechanism buys what.

DESIGN.md calls out three independent latency mechanisms inside cubeFTL:
verify skipping (Sec. 4.1.1), window adjustment (Sec. 4.1.2), and the ORT
(Sec. 4.2).  This bench disables them one at a time and measures the IOPS
contribution of each on a write-heavy workload (fresh -- program-side
mechanisms matter) and a read-heavy workload at end of life (the ORT
matters).

Expected shape: fresh OLTP gains come from the two program mechanisms and
stack roughly additively; aged Proxy gains come almost entirely from the
ORT.
"""

import pytest

from benchmarks.conftest import BENCH_QUEUE_DEPTH, BENCH_REQUESTS, BENCH_WARMUP, emit
from repro.analysis.tables import format_table
from repro.nand.reliability import AgingState
from repro.ssd.controller import SSDSimulation
from repro.ssd.host import replay
from repro.workloads import build_workload

VARIANTS = {
    "pageFTL (none)": dict(ftl="page"),
    "vfy-skip only": dict(
        ftl="cube", enable_window_adjust=False, enable_ort=False
    ),
    "window only": dict(ftl="cube", enable_vfy_skip=False, enable_ort=False),
    "program both": dict(ftl="cube", enable_ort=False),
    "full cubeFTL": dict(ftl="cube"),
    "oracleFTL (bound)": dict(ftl="oracle"),
}


def _run(config, workload, aging, variant_kwargs):
    kwargs = dict(variant_kwargs)
    ftl = kwargs.pop("ftl")
    sim = SSDSimulation(config.with_aging(aging), ftl=ftl, **kwargs)
    sim.prefill(0.9)
    trace = build_workload(workload, sim.config.logical_pages, BENCH_REQUESTS, seed=7)
    return replay(
        sim,
        trace, queue_depth=BENCH_QUEUE_DEPTH, warmup_requests=BENCH_WARMUP
    )


@pytest.fixture(scope="module")
def ablation(bench_ssd_config):
    fresh = {
        name: _run(bench_ssd_config, "OLTP", AgingState(0, 0), kwargs)
        for name, kwargs in VARIANTS.items()
    }
    aged = {
        name: _run(bench_ssd_config, "Proxy", AgingState(2000, 12.0), kwargs)
        for name, kwargs in VARIANTS.items()
    }
    return fresh, aged


def _render(fresh, aged):
    base_fresh = fresh["pageFTL (none)"].iops
    base_aged = aged["pageFTL (none)"].iops
    rows = [
        [
            name,
            round(fresh[name].iops / base_fresh, 2),
            round(fresh[name].counters.mean_t_prog_us),
            round(aged[name].iops / base_aged, 2),
            round(aged[name].counters.mean_num_retry, 2),
        ]
        for name in VARIANTS
    ]
    return "OPM mechanism ablation:\n" + format_table(
        [
            "variant",
            "OLTP fresh (norm IOPS)",
            "tPROG us",
            "Proxy 2K+1yr (norm IOPS)",
            "retries/read",
        ],
        rows,
    )


def test_ablation_opm_mechanisms(benchmark, ablation):
    fresh, aged = benchmark.pedantic(lambda: ablation, rounds=1, iterations=1)
    runs = {f"OLTP fresh/{name}": stats for name, stats in fresh.items()}
    runs.update({f"Proxy 2K+1yr/{name}": stats for name, stats in aged.items()})
    emit("ablation_opm", _render(fresh, aged), runs=runs)

    base = fresh["pageFTL (none)"].iops
    skip_gain = fresh["vfy-skip only"].iops / base
    window_gain = fresh["window only"].iops / base
    both_gain = fresh["program both"].iops / base
    # each program-side mechanism contributes on the write-heavy workload
    assert skip_gain > 1.02
    assert window_gain > 1.02
    # combined beats either alone
    assert both_gain > max(skip_gain, window_gain)

    base_aged = aged["pageFTL (none)"].iops
    # without the ORT, aged read-heavy gains are modest ...
    no_ort = aged["program both"].iops / base_aged
    full = aged["full cubeFTL"].iops / base_aged
    # ... the ORT provides the bulk of the end-of-life improvement
    assert full > no_ort * 1.15
    assert aged["full cubeFTL"].counters.mean_num_retry < (
        aged["program both"].counters.mean_num_retry * 0.75
    )
    # the oracle bounds the program-side mechanisms from above: it beats
    # "program both" (no leader overhead) but not by much -- monitoring
    # leaders costs only 1-in-4 default-latency programs
    oracle_gain = fresh["oracleFTL (bound)"].iops / base
    assert oracle_gain >= both_gain - 0.02
    assert oracle_gain <= both_gain * 1.35
