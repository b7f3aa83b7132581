"""A minimal, fast discrete-event engine.

Time is a float in microseconds (matching :mod:`repro.nand.timing`).
Events are callbacks scheduled at absolute times; ties break by insertion
order so the simulation is fully deterministic.

The heap holds ``(time, seq, event)`` tuples.  ``seq`` is unique per
event, so ``heapq`` orders entries by comparing two numbers in C and
never reaches the :class:`Event` itself.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: lazy-deletion compaction threshold: the heap is rebuilt (cancelled
#: events dropped) once at least this many cancelled events are queued
#: *and* they make up at least half the heap.  Compaction never changes
#: the pop order -- (time, seq) is a strict total order, so any valid
#: heap over the same live events drains identically.
COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.  Cancel via :meth:`cancel`.

    Its time and sequence number live in the heap entry that holds it.
    """

    __slots__ = ("callback", "cancelled", "engine")

    def __init__(
        self,
        callback: Callable[[], None],
        engine: Optional["Engine"] = None,
    ) -> None:
        self.callback = callback
        self.cancelled = False
        #: owning engine while the event sits in its queue; cleared on
        #: pop so a late cancel of an already-fired event is a no-op
        self.engine = engine

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self.engine is not None:
            self.engine._note_cancel()


class RecurringEvent:
    """A self-rescheduling periodic callback (metrics sampling).

    The callback re-arms only while *other* events remain queued, so a
    recurring event can never keep the engine alive on its own or
    advance the clock past the last real event; :meth:`stop` cancels
    the pending occurrence without disturbing the queue order.
    """

    __slots__ = ("engine", "interval", "callback", "event", "stopped")

    def __init__(self, engine: "Engine", interval: float, callback: Callable[[], None]) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.engine = engine
        self.interval = interval
        self.callback = callback
        self.stopped = False
        self.event = engine.schedule(interval, self._fire)

    def _fire(self) -> None:
        if self.stopped:
            return
        self.callback()
        # re-arm only while a *live* event remains: ``pending`` counts
        # cancelled events still in the heap, so gating on it would keep
        # the sampler alive on a queue of corpses and advance the clock
        # past the last real event
        if self.engine.live_pending > 0:
            self.event = self.engine.schedule(self.interval, self._fire)
        else:
            self.event = None

    def stop(self) -> None:
        self.stopped = True
        if self.event is not None:
            self.event.cancel()
            self.event = None


class Engine:
    """Event queue with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[Tuple[float, int, Event]] = []
        #: sequence-number ranges handed out by :meth:`reserve`
        self._reserved: List[range] = []
        self._processed = 0
        self._peak_pending = 0
        self._cancelled = 0
        self._compactions = 0
        #: optional per-event observer (the runtime invariant checker's
        #: clock-monotonicity probe).  Called with the dispatch time of
        #: every executed event; ``None`` (the default) costs one
        #: pointer test per event.
        self.monitor: Optional[Callable[[float], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def live_pending(self) -> int:
        """Number of queued events that will actually fire."""
        return len(self._queue) - self._cancelled

    @property
    def compactions(self) -> int:
        """Lazy-deletion heap rebuilds performed (telemetry)."""
        return self._compactions

    def _note_cancel(self) -> None:
        """One queued event was cancelled; compact the heap when corpses
        dominate it (lazy deletion keeps cancellation itself O(1)).

        Compaction mutates the queue list in place: the batched run loop
        holds a local alias to it across callbacks, and a cancel inside
        a callback must not strand that alias on a stale list.
        """
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._queue)
        ):
            self._queue[:] = [e for e in self._queue if not e[2].cancelled]
            heapq.heapify(self._queue)
            self._cancelled = 0
            self._compactions += 1

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def peak_pending(self) -> int:
        """Largest number of *live* queued events observed (telemetry).

        Cancelled corpses still sitting in the heap are excluded: the
        peak measures simulated load, and must not depend on when lazy
        deletion happened to compact the queue.
        """
        return self._peak_pending

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        # ``not >=`` also refuses NaN
        if not delay >= 0:
            raise ValueError("delay must be >= 0")
        event = Event(callback, self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, event))
        live = len(self._queue) - self._cancelled
        if live > self._peak_pending:
            self._peak_pending = live
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        seq: Optional[int] = None,
    ) -> Event:
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
        elif not any(seq in span for span in self._reserved):
            raise ValueError(f"seq {seq} is not in a reserved range")
        event = Event(callback, self)
        heapq.heappush(self._queue, (time, seq, event))
        live = len(self._queue) - self._cancelled
        if live > self._peak_pending:
            self._peak_pending = live
        return event

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
        self._reserved.append(range(base, base + n))
        return base

    def every(self, interval: float, callback: Callable[[], None]) -> RecurringEvent:
        """Run ``callback`` every ``interval`` microseconds while other
        *live* events remain queued (observability hooks ride on this);
        cancelled events never keep a recurring callback alive."""
        return RecurringEvent(self, interval, callback)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            event.engine = None
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            self._processed += 1
            if self.monitor is not None:
                self.monitor(time)
            event.callback()
            return True
        return False

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable engine state, capturable only at quiescence.

        Event callbacks are closures over live simulation objects and do
        not serialize; the checkpoint protocol therefore only snapshots
        the engine once the queue has fully drained (a *quiescent
        barrier* -- see :mod:`repro.persist`), at which point the clock
        and the bookkeeping scalars are the entire state.
        """
        if self.live_pending != 0:
            raise RuntimeError(
                f"engine not quiescent: {self.live_pending} live events "
                "still queued (checkpoints only happen at drained instants)"
            )
        return {
            "now": self._now,
            "seq": self._seq,
            "processed": self._processed,
            "peak_pending": self._peak_pending,
            "compactions": self._compactions,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto an empty engine."""
        if self._queue:
            raise RuntimeError("cannot restore state onto a non-empty engine")
        self._now = state["now"]
        self._seq = state["seq"]
        self._processed = state["processed"]
        self._peak_pending = state["peak_pending"]
        self._compactions = state["compactions"]
        self._cancelled = 0
        self._reserved = []

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        The loop drains *runs of same-timestamp events* in one
        iteration: within a batch the clock, the ``until`` bound and
        the heap head need no re-checking per event.  (time, seq) is a
        strict total order and the batch always pops the minimum, so the
        dispatch sequence -- including zero-delay events a callback
        schedules back at the batch timestamp -- is byte-identical to
        the one-event-at-a-time loop.

        On the ``max_events`` return path any *leading cancelled
        corpses* are drained first, so a caller running in segments
        (checkpointing) never observes a clock stalled behind ``until``
        by events that will never fire.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if max_events is not None and executed >= max_events:
                self._drain_corpses(until)
                return
            batch_time, _, head = queue[0]
            if head.cancelled:
                pop(queue)
                head.engine = None
                self._cancelled -= 1
                continue
            if until is not None and batch_time > until:
                self._now = until
                return
            self._now = batch_time
            while queue and queue[0][0] == batch_time:
                event = pop(queue)[2]
                event.engine = None
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._processed += 1
                if self.monitor is not None:
                    self.monitor(batch_time)
                event.callback()
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        if until is not None and until > self._now:
            self._now = until

    def _drain_corpses(self, until: Optional[float]) -> None:
        """Pop leading cancelled events off the heap; advance the clock
        to ``until`` when nothing live remains before it.

        Called on the ``max_events`` return path: without it, a queue
        whose remaining events are all cancelled corpses would leave
        ``now`` stuck at the last executed event even though the run has
        effectively drained.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)[2].engine = None
            self._cancelled -= 1
        if (
            until is not None
            and until > self._now
            and (not queue or queue[0][0] > until)
        ):
            self._now = until
