"""Byte-identity of the hot-path optimizations on full simulations.

Two switches changed the hot path without being allowed to change any
simulated byte: the precomputed reliability tables (``REPRO_FAST_PATH``)
and the engine's batched same-timestamp dispatch.  Each test replays the
same trace three ways -- default (batched + tables), scalar tables off,
and the reference one-event-at-a-time engine loop -- and asserts the
span traces are byte-identical, across every FTL and the paper's aging
sweep.
"""

import heapq

import pytest

from repro.api import run_simulation
from repro.nand.reliability import AgingState
from repro.sim.engine import Engine
from repro.ssd.config import SSDConfig
from tests.helpers.determinism import assert_files_identical

ALL_FTLS = ["page", "vert", "cube", "oracle", "dftl"]

AGING = {
    "fresh": AgingState(),
    "2k-pe": AgingState(2000, 0.0),
    "2k-pe-1yr": AgingState(2000, 12.0),
}


def _stepped_run(self, until=None, max_events=None):
    """The pre-batching reference loop: one event per iteration.

    Heap entries are ``(time, seq, event)`` tuples.
    """
    executed = 0
    while self._queue:
        if max_events is not None and executed >= max_events:
            return
        time, _, head = self._queue[0]
        if head.cancelled:
            heapq.heappop(self._queue)
            head.engine = None
            self._cancelled -= 1
            continue
        if until is not None and time > until:
            self._now = until
            return
        self.step()
        executed += 1
    if until is not None and until > self._now:
        self._now = until


def _run_traced(path, ftl, aging):
    config = SSDConfig.small(logical_fraction=0.4, aging=aging)
    run_simulation(
        config, "OLTP", ftl=ftl, queue_depth=8, prefill=0.4,
        n_requests=80, seed=7, trace=str(path),
    )


class TestFastPathByteIdentity:
    @pytest.mark.parametrize("aging_name", sorted(AGING))
    @pytest.mark.parametrize("ftl", ALL_FTLS)
    def test_tables_and_batching_change_no_bytes(
        self, tmp_path, monkeypatch, ftl, aging_name
    ):
        aging = AGING[aging_name]

        default = tmp_path / "default.jsonl"
        monkeypatch.setenv("REPRO_FAST_PATH", "1")
        _run_traced(default, ftl, aging)

        scalar = tmp_path / "scalar.jsonl"
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        _run_traced(scalar, ftl, aging)
        assert_files_identical(
            str(default), str(scalar),
            f"tables on vs off ({ftl}, {aging_name})",
        )

        stepped = tmp_path / "stepped.jsonl"
        monkeypatch.setenv("REPRO_FAST_PATH", "1")
        monkeypatch.setattr(Engine, "run", _stepped_run)
        _run_traced(stepped, ftl, aging)
        assert_files_identical(
            str(default), str(stepped),
            f"batched vs stepped engine ({ftl}, {aging_name})",
        )
