"""Fig. 17 -- normalized IOPS under six workloads and three FTLs.

Regenerates all three panels: (a) fresh, (b) 2 K P/E + 1-month retention,
(c) 2 K P/E + 1-year retention.

Paper shape: cubeFTL wins everywhere; vertFTL's gain over pageFTL is
small (its offline V_final-only adjustment reduces tPROG ~8 %); cubeFTL's
gains GROW with aging (its ORT removes most read retries) -- the largest
fresh gain is on the most write-intensive workload (OLTP), while at end
of life the read-mostly workloads gain most.
"""

import pytest

from benchmarks.conftest import emit
from benchmarks.runner import AGING_STATES, run_matrix
from repro.analysis.tables import format_table


def _render(results, label):
    rows = []
    for workload, per_ftl in results.items():
        base = per_ftl["pageFTL"].iops
        rows.append(
            [
                workload,
                f"{per_ftl['pageFTL'].iops:.0f}",
                round(per_ftl["vertFTL"].iops / base, 2),
                round(per_ftl["cubeFTL"].iops / base, 2),
            ]
        )
    table = format_table(
        ["workload", "pageFTL IOPS", "vertFTL (norm)", "cubeFTL (norm)"], rows
    )
    return f"Fig 17 {label} -- IOPS normalized over pageFTL:\n{table}"


def _runs(results):
    """workload/ftl label -> stats, for the run digests."""
    return {
        f"{workload}/{ftl}": stats
        for workload, per_ftl in results.items()
        for ftl, stats in per_ftl.items()
    }


def _norm(results, workload, ftl):
    per_ftl = results[workload]
    return per_ftl[ftl].iops / per_ftl["pageFTL"].iops


@pytest.fixture(scope="module")
def fig17(bench_ssd_config):
    return {
        label: run_matrix(bench_ssd_config, aging)
        for label, aging in AGING_STATES.items()
    }


def test_fig17a_fresh(benchmark, fig17):
    results = benchmark.pedantic(
        lambda: fig17["fresh (0K P/E)"], rounds=1, iterations=1
    )
    emit(
        "fig17a_iops_fresh",
        _render(results, "(a) fresh"),
        runs=_runs(results),
    )
    for workload in results:
        # cubeFTL always wins; vertFTL gain modest
        assert _norm(results, workload, "cubeFTL") > 1.0
        assert 0.97 <= _norm(results, workload, "vertFTL") <= 1.15
        assert _norm(results, workload, "cubeFTL") >= _norm(
            results, workload, "vertFTL"
        ) - 0.02
    # the largest fresh gain is on a write-intensive workload
    gains = {w: _norm(results, w, "cubeFTL") for w in results}
    assert max(gains, key=gains.get) in ("OLTP", "Rocks", "Mongo", "Mail")
    assert max(gains.values()) >= 1.2  # paper: up to 1.48


def test_fig17b_one_month(benchmark, fig17):
    results = benchmark.pedantic(
        lambda: fig17["2K P/E + 1-month"], rounds=1, iterations=1
    )
    emit(
        "fig17b_iops_1month",
        _render(results, "(b) 2K P/E + 1-month"),
        runs=_runs(results),
    )
    for workload in results:
        assert _norm(results, workload, "cubeFTL") > 1.0


def test_fig17c_one_year(benchmark, fig17):
    fresh = fig17["fresh (0K P/E)"]
    results = benchmark.pedantic(
        lambda: fig17["2K P/E + 1-year"], rounds=1, iterations=1
    )
    emit(
        "fig17c_iops_1year",
        _render(results, "(c) 2K P/E + 1-year"),
        runs=_runs(results),
    )
    gains = {w: _norm(results, w, "cubeFTL") for w in results}
    for workload, gain in gains.items():
        assert gain > 1.0
    # at end of life the read-retry reduction dominates: read-mostly
    # workloads now gain the most (the paper highlights Proxy)
    read_mostly_best = max(gains, key=gains.get)
    assert read_mostly_best in ("Proxy", "Web")
    # aged gains exceed fresh gains for the read-mostly workloads
    for workload in ("Proxy", "Web"):
        assert gains[workload] > _norm(fresh, workload, "cubeFTL")
    # raw IOPS collapse under aging for the baseline
    for workload in results:
        assert (
            results[workload]["pageFTL"].iops
            < fresh[workload]["pageFTL"].iops
        )
