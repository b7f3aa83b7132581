"""Byte-identity of the engine's batched dispatch on full simulations.

The engine's batched same-timestamp dispatch changed the hot path
without being allowed to change any simulated byte.  Each test replays
the same trace twice -- with the default batched loop and with the
reference one-event-at-a-time loop -- and asserts the span traces are
byte-identical, across every FTL and the paper's aging sweep.  (The
chip's reliability tables are compared with the scalar model in
``tests/nand/test_tables.py``.)
"""

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

    Heap entries are ``(time, seq, callback)`` tuples.
    """
    executed = 0
    while self._queue:
        if max_events is not None and executed >= max_events:
            return
        time = self._queue[0][0]
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
        """The default run (table-served chip, batched dispatch) writes
        the bytes of the stepped reference loop."""
        aging = AGING[aging_name]

        default = tmp_path / "default.jsonl"
        _run_traced(default, ftl, aging)

        stepped = tmp_path / "stepped.jsonl"
        monkeypatch.setattr(Engine, "run", _stepped_run)
        _run_traced(stepped, ftl, aging)
        assert_files_identical(
            str(default), str(stepped),
            f"batched vs stepped engine ({ftl}, {aging_name})",
        )
