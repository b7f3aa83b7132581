"""A minimal, fast discrete-event engine.

Time is a float in microseconds (matching :mod:`repro.nand.timing`).
Events are callbacks scheduled at absolute times; ties break by insertion
order so the simulation is fully deterministic.

The heap holds ``(time, seq, callback)`` tuples.  ``seq`` is unique per
event, so ``heapq`` orders entries by comparing two numbers in C and
never reaches the callback.  A scheduled event always fires, so every
queued entry is live.

A periodic observer (the time-series recorder) is not an event: the
loops take its windows between batches (:meth:`Engine._take_windows`).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple


class Engine:
    """Event queue with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        #: sequence-number ranges handed out by :meth:`reserve`, and the
        #: latest of them, which :meth:`schedule_at` tests first
        self._reserved: List[range] = []
        self._last_reserved = range(0)
        self._processed = 0
        self._peak_pending = 0
        #: optional per-event observer (the runtime invariant checker's
        #: clock-monotonicity probe).  Called with the dispatch time of
        #: every executed event; ``None`` (the default) costs one
        #: pointer test per event.
        self.monitor: Optional[Callable[[float], None]] = None
        #: optional window recorder: an object with ``interval_us`` and
        #: ``take()``, set by :class:`~repro.obs.timeseries.TimeSeriesRecorder`
        self.recorder = None
        #: due time of the recorder's next window; ``inf`` without one,
        #: so a run without a recorder pays one float compare per batch
        self.next_window = math.inf

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def peak_pending(self) -> int:
        """Largest number of queued events observed (telemetry)."""
        return self._peak_pending

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        # ``not >=`` also refuses NaN
        if not delay >= 0:
            raise ValueError("delay must be >= 0")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heapq.heappush(queue, (self._now + delay, seq, callback))
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        seq: Optional[int] = None,
    ) -> None:
        """Schedule ``callback`` at an absolute time (>= now).

        ``seq`` places the event at a sequence number taken from a
        :meth:`reserve` range instead of the next free one, so it orders
        among same-time events as if it had been scheduled when the
        range was reserved.
        """
        # ``not >=`` also refuses NaN, which would stall run()'s batch loop
        if not time >= self._now:
            raise ValueError("cannot schedule in the past")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        elif seq not in self._last_reserved and not any(
            seq in span for span in self._reserved
        ):
            raise ValueError(f"seq {seq} is not in a reserved range")
        queue = self._queue
        heapq.heappush(queue, (time, seq, callback))
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

    def reserve(self, n: int) -> int:
        """Reserve ``n`` consecutive sequence numbers and return the
        first; :meth:`schedule_at` accepts them through its ``seq``.

        A caller that schedules a known set of events one at a time
        (the host's arrival cursor) reserves them all at once, so each
        event keeps the (time, seq) it would have had if every one had
        been scheduled here.  Each reserved number is for one event.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        base = self._seq
        self._seq = base + n
        self._last_reserved = range(base, base + n)
        self._reserved.append(self._last_reserved)
        return base

    def _take_windows(self, time: float) -> None:
        """Take every recorder window due at or before ``time``.

        The clock is set to each due time in turn, so a window sees the
        state from before any event at that time.  A window is not an
        event: it never advances the clock past real work, never keeps
        a drained queue alive and never takes a sequence number.
        """
        recorder = self.recorder
        while self.next_window <= time:
            self._now = self.next_window
            recorder.take()
            self.next_window += recorder.interval_us

    def _advance(self, time: float) -> None:
        """Move the clock to ``time`` with no event there (``until``)."""
        if time >= self.next_window:
            self._take_windows(time)
        self._now = time

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        if time >= self.next_window:
            self._take_windows(time)
        self._now = time
        self._processed += 1
        if self.monitor is not None:
            self.monitor(time)
        callback()
        return True

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable engine state, capturable only at quiescence.

        Event callbacks are closures over live simulation objects and do
        not serialize; the checkpoint protocol therefore only snapshots
        the engine once the queue has fully drained (a *quiescent
        barrier* -- see :mod:`repro.persist`), at which point the clock
        and the bookkeeping scalars are the entire state.
        """
        if self._queue:
            raise RuntimeError(
                f"engine not quiescent: {len(self._queue)} live events "
                "still queued (checkpoints only happen at drained instants)"
            )
        return {
            "now": self._now,
            "seq": self._seq,
            "processed": self._processed,
            "peak_pending": self._peak_pending,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto an empty engine."""
        if self._queue:
            raise RuntimeError("cannot restore state onto a non-empty engine")
        self._now = state["now"]
        self._seq = state["seq"]
        self._processed = state["processed"]
        self._peak_pending = state["peak_pending"]
        self._reserved = []
        self._last_reserved = range(0)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have executed, and return the clock before any
        move to ``until``: the instant of the last batch run (or the
        clock it started from, if it ran none).

        The loop drains *runs of same-timestamp events* in one
        iteration: within a batch the clock, the ``until`` bound and
        the heap head need no re-checking per event.  (time, seq) is a
        strict total order and the batch always pops the minimum, so the
        dispatch sequence -- including zero-delay events a callback
        schedules back at the batch timestamp -- is byte-identical to
        the one-event-at-a-time loop.  Before a batch at time t, and
        before the clock moves to ``until``, the recorder's windows due
        at or before that time are taken; :meth:`step` takes the same.

        The ``until`` bound is tested before the ``max_events`` budget,
        so a ``max_events`` return whose next event lies beyond
        ``until`` (or with nothing queued) still moves the clock to
        ``until``: a caller running in segments never sees a clock
        stalled behind it.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue:
            batch_time = queue[0][0]
            if until is not None and batch_time > until:
                last = self._now
                self._advance(until)
                return last
            if max_events is not None and executed >= max_events:
                return self._now
            if batch_time >= self.next_window:
                self._take_windows(batch_time)
            self._now = batch_time
            while queue and queue[0][0] == batch_time:
                callback = pop(queue)[2]
                self._processed += 1
                if self.monitor is not None:
                    self.monitor(batch_time)
                callback()
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        last = self._now
        if until is not None and until > last:
            self._advance(until)
        return last
