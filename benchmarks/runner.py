"""Shared SSD-simulation runner for the evaluation benchmarks."""

from __future__ import annotations

import os
from typing import Dict

from benchmarks.conftest import BENCH_QUEUE_DEPTH, BENCH_REQUESTS, BENCH_WARMUP
from repro.api import run_many, spec_from_kwargs
from repro.nand.reliability import AgingState
from repro.parallel import RunSpec
from repro.ssd.config import SSDConfig
from repro.ssd.stats import SimulationStats

#: the paper's three aging conditions (Section 6.2)
AGING_STATES = {
    "fresh (0K P/E)": AgingState(0, 0.0),
    "2K P/E + 1-month": AgingState(2000, 1.0),
    "2K P/E + 1-year": AgingState(2000, 12.0),
}

WORKLOADS = ["Mail", "Web", "Proxy", "OLTP", "Rocks", "Mongo"]

FTLS = ["page", "vert", "cube"]


def run_matrix(
    config: SSDConfig,
    aging: AgingState,
    ftls=None,
    workloads=None,
    seed: int = 7,
) -> Dict[str, Dict[str, SimulationStats]]:
    """workload -> ftl-name -> stats, for one aging condition.

    Each (workload, ftl) cell prefills the aged SSD to 0.9 and replays
    the workload closed-loop.  The cells run in one worker process per
    CPU; :func:`~repro.api.run_many` makes the results independent of
    the worker count.
    """
    ftls = ftls if ftls is not None else FTLS
    workloads = workloads if workloads is not None else WORKLOADS
    aged = config.with_aging(aging)
    cells = [
        RunSpec(
            name=f"{workload}/{ftl}",
            spec=spec_from_kwargs(
                aged,
                workload,
                ftl,
                queue_depth=BENCH_QUEUE_DEPTH,
                warmup_requests=BENCH_WARMUP,
                prefill=0.9,
                n_requests=BENCH_REQUESTS,
            ),
            seed=seed,
        )
        for workload in workloads
        for ftl in ftls
    ]
    batch = run_many(cells, jobs=os.cpu_count() or 1)
    if batch.errors:
        raise RuntimeError(
            "\n".join(
                f"bench cell {name} failed:\n{error}"
                for name, error in batch.errors.items()
            )
        )
    results: Dict[str, Dict[str, SimulationStats]] = {}
    for cell, result in zip(cells, batch.results):
        stats = result.stats
        results.setdefault(cell.spec.workload_name, {})[stats.ftl_name] = stats
    return results
