"""Shared infrastructure for the figure-regeneration benchmarks.

Every benchmark regenerates the data behind one table/figure of the
paper, prints the same rows/series the paper plots, saves them under
``benchmarks/results/``, and asserts the qualitative shape.  A bench
that runs SSD simulations also saves a SHA-256 of each run's
``stats.to_dict()`` next to its table, so the committed results pin
every simulated metric exactly, not only the rounded table cells.

Scale knobs (environment variables):

- ``REPRO_BENCH_REQUESTS``: host requests per SSD simulation (default 8000)
- ``REPRO_BENCH_WARMUP``: warm-up requests excluded from stats (default 2500)
- ``REPRO_BENCH_BLOCKS``: blocks per chip of the simulated SSD (default 48;
  the paper's full device uses 428 -- set it for paper-scale runs)
- ``REPRO_BENCH_QD``: closed-loop queue depth of the Fig. 17/18 and
  ablation runs (default 32)

Changing any knob changes the results: the committed files hold the
defaults.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping, Optional

import pytest

from repro.characterization.harness import CharacterizationStudy, StudyConfig
from repro.ssd.stats import SimulationStats

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "8000"))
BENCH_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "2500"))
BENCH_BLOCKS = int(os.environ.get("REPRO_BENCH_BLOCKS", "48"))
BENCH_QUEUE_DEPTH = int(os.environ.get("REPRO_BENCH_QD", "32"))


def stats_digest(stats: SimulationStats) -> str:
    """SHA-256 of one run's full schema-v2 result dict."""
    document = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


def emit(
    name: str,
    text: str,
    runs: Optional[Mapping[str, SimulationStats]] = None,
) -> None:
    """Print a figure's regenerated rows and persist them to disk.

    ``runs`` maps a label to the stats of each simulation behind the
    table; when given, ``<name>.sha256`` gets one ``<digest>  <label>``
    line per run, in the given order.
    """
    banner = f"===== {name} ====="
    print(f"\n{banner}\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if runs is not None:
        (RESULTS_DIR / f"{name}.sha256").write_text(
            "".join(
                f"{stats_digest(stats)}  {label}\n"
                for label, stats in runs.items()
            )
        )


@pytest.fixture(scope="session")
def study():
    """A characterization study shared by the Fig. 5/6 benchmarks."""
    return CharacterizationStudy(StudyConfig(n_chips=4, blocks_per_chip=8))


@pytest.fixture(scope="session")
def bench_ssd_config():
    from repro.nand.geometry import BlockGeometry, SSDGeometry
    from repro.ssd.config import SSDConfig

    geometry = SSDGeometry(
        n_channels=2,
        chips_per_channel=4,
        blocks_per_chip=BENCH_BLOCKS,
        block=BlockGeometry(),
    )
    return SSDConfig(geometry=geometry)
