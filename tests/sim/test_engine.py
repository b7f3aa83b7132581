"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


class TestEngine:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        for name in "abc":
            engine.schedule(3.0, lambda n=name: order.append(n))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self):
        engine = Engine()
        times = []

        def first():
            times.append(engine.now)
            engine.schedule(2.0, second)

        def second():
            times.append(engine.now)

        engine.schedule(1.0, first)
        engine.run()
        assert times == [1.0, 3.0]

    def test_run_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 2]

    def test_run_until_past_all_events_advances_clock(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_max_events(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert fired == [0, 1]

    def test_max_events_return_moves_clock_to_until(self):
        # the budget runs out with the next event beyond `until`: the
        # clock still moves to `until`, as a run without a budget does
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(20.0, lambda: fired.append(20))
        engine.run(until=10.0, max_events=1)
        assert fired == [1]
        assert (engine.now, engine.pending) == (10.0, 1)
        # and with nothing left queued
        drained = Engine()
        drained.schedule(1.0, lambda: None)
        drained.run(until=10.0, max_events=1)
        assert (drained.now, drained.processed) == (10.0, 1)

    def test_max_events_keeps_clock_at_live_head(self):
        # with live work still queued before `until`, a max-events return
        # must not advance the clock past the last executed event
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=10.0, max_events=1)
        assert engine.now == 1.0

    def test_same_timestamp_batch_preserves_order_and_nested_events(self):
        # zero-delay events scheduled from inside a batch fire within it,
        # after the already-queued same-time events (seq order)
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.schedule(0.0, lambda: order.append("nested"))

        engine.schedule(3.0, first)
        engine.schedule(3.0, lambda: order.append("second"))
        engine.schedule(4.0, lambda: order.append("later"))
        engine.run()
        assert order == ["first", "second", "nested", "later"]
        assert engine.now == 4.0

    def test_peak_pending_tracks_live_high_water_mark(self):
        engine = Engine()
        for _ in range(4):
            engine.schedule(1.0, lambda: None)
        engine.step()
        engine.schedule(2.0, lambda: None)
        # 3 left from the burst + 1 new = 4 queued: no new high
        assert (engine.pending, engine.peak_pending) == (4, 4)
        for _ in range(2):
            engine.schedule(3.0, lambda: None)
        assert engine.peak_pending == 6
        engine.run()
        assert (engine.pending, engine.peak_pending) == (0, 6)

    def test_schedule_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
    def test_schedule_non_finite_delay_rejected(self, bad):
        with pytest.raises(ValueError):
            Engine().schedule(bad, lambda: None)

    def test_schedule_at_nan_rejected(self):
        # a NaN head would never match its own batch time in run()
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule_at(float("nan"), lambda: None)
        assert engine.pending == 0

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_processed_counter(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.processed == 3


class TestReservedSequence:
    def test_reserved_events_order_as_if_scheduled_at_reserve(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda: order.append("before"))
        base = engine.reserve(2)
        engine.schedule(5.0, lambda: order.append("after"))
        engine.schedule_at(5.0, lambda: order.append("second"), seq=base + 1)
        engine.run(until=1.0)
        engine.schedule_at(5.0, lambda: order.append("first"), seq=base)
        engine.run()
        assert order == ["before", "first", "second", "after"]

    def test_schedule_at_refuses_seq_outside_reserved_range(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)  # takes seq 0
        base = engine.reserve(3)
        later = engine.reserve(2)
        assert (base, later) == (1, 4)
        for seq in (0, base - 1, later + 2, 100, -1):
            with pytest.raises(ValueError, match="reserved"):
                engine.schedule_at(2.0, lambda: None, seq=seq)
        for seq in (base, base + 2, later + 1):
            engine.schedule_at(2.0, lambda: None, seq=seq)
        assert engine.pending == 4

    def test_schedule_at_accepts_older_range_after_newer_reserve(self):
        engine = Engine()
        older = engine.reserve(4)
        engine.schedule(1.0, lambda: None)  # a seq between the ranges
        newer = engine.reserve(2)
        assert (older, newer) == (0, 5)
        order = []
        engine.schedule_at(2.0, lambda: order.append("newer"), seq=newer + 1)
        engine.schedule_at(2.0, lambda: order.append("older"), seq=older + 3)
        for seq in (older + 4, newer + 2):
            with pytest.raises(ValueError, match=f"seq {seq} is not in a reserved range"):
                engine.schedule_at(2.0, lambda: None, seq=seq)
        engine.run()
        assert order == ["older", "newer"]

    def test_schedule_at_refuses_seq_without_reservation(self):
        with pytest.raises(ValueError, match="reserved"):
            Engine().schedule_at(1.0, lambda: None, seq=0)

    def test_reserve_advances_the_counter(self):
        engine = Engine()
        assert engine.reserve(0) == 0
        assert engine.reserve(5) == 0
        assert engine.reserve(1) == 5
        with pytest.raises(ValueError):
            engine.reserve(-1)


class _Windows:
    """A recorder stub: each window notes the clock and ``probe()``."""

    def __init__(self, engine, interval_us, probe=lambda: None):
        self.engine = engine
        self.interval_us = interval_us
        self.probe = probe
        self.taken = []
        engine.recorder = self
        engine.next_window = engine.now + interval_us

    def take(self):
        self.taken.append((self.engine.now, self.probe()))

    @property
    def times(self):
        return [time for time, _ in self.taken]


def _tied_events(engine, log):
    """Events with ties and zero-delay rescheduling."""
    engine.schedule(1.5, lambda: log.append("a"))
    engine.schedule(2.0, lambda: log.append("b"))
    engine.schedule(
        2.0, lambda: engine.schedule(0.0, lambda: log.append("c"))
    )
    engine.schedule(6.0, lambda: log.append("d"))


class TestRecurringEvents:
    """The recorder's recurring windows.  They are not heap events: the
    batch loop takes each one before the events at or after its due
    time, so they keep the guarantees the heap ticks had."""

    def test_rearms_while_live_events_remain(self):
        engine = Engine()
        windows = _Windows(engine, 1.0)
        for t in (1.5, 3.5):
            engine.schedule(t, lambda: None)
        engine.run()
        assert windows.times == [1.0, 2.0, 3.0]

    def test_sampler_cannot_keep_engine_alive_alone(self):
        engine = Engine()
        windows = _Windows(engine, 2.0)
        engine.schedule(5.0, lambda: None)
        engine.run()
        assert windows.times == [2.0, 4.0]
        # the drained queue stays drained: no window at 6.0, no event
        # and no sequence number spent on the windows
        assert engine.now == 5.0
        assert engine.pending == 0 and engine.processed == 1
        assert engine.reserve(1) == 1
        engine.run()
        assert windows.times == [2.0, 4.0]

    def test_window_due_at_event_time_sees_state_before_it(self):
        engine = Engine()
        log = []
        windows = _Windows(engine, 2.0, probe=lambda: list(log))
        engine.schedule(1.0, lambda: log.append("early"))
        engine.schedule(2.0, lambda: log.append("on time"))
        engine.run()
        assert windows.taken == [(2.0, ["early"])]
        assert log == ["early", "on time"]

    def test_stop_cancels_pending_occurrence(self):
        engine = Engine()
        windows = _Windows(engine, 1.0)

        def stop():
            engine.next_window = float("inf")

        engine.schedule(2.5, stop)
        engine.schedule(10.0, lambda: None)
        engine.run()
        assert windows.times == [1.0, 2.0]

    def test_until_takes_windows_before_moving_clock(self):
        engine = Engine()
        windows = _Windows(engine, 1.0)
        engine.schedule(7.5, lambda: None)
        engine.run(until=4.5)
        assert windows.times == [1.0, 2.0, 3.0, 4.0]
        assert engine.now == 4.5
        engine.run()
        assert windows.times == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_run_and_step_take_same_windows(self):
        taken = []
        for drive in ("run", "step"):
            engine = Engine()
            log = []
            windows = _Windows(engine, 0.5, probe=lambda log=log: list(log))
            _tied_events(engine, log)
            if drive == "run":
                engine.run()
            else:
                while engine.step():
                    pass
            taken.append((windows.taken, log, engine.now, engine.processed))
        assert taken[0] == taken[1]
        assert [time for time, _ in taken[0][0]] == [
            0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0,
        ]

