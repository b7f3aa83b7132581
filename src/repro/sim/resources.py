"""FIFO resources: buses and chip dies.

A :class:`FifoResource` is a single-server queue attached to the engine.
Jobs are submitted as *thunks* that execute when service begins and return
their service duration; this late binding matters for fidelity -- e.g. a
read's ORT offset hint must be fetched when the die actually starts the
read, after earlier reads have updated the table, not when the request
was queued.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import Engine

#: a job executes at service start and returns (duration_us, payload)
Job = Callable[[], Tuple[float, Any]]
#: completion callback, receives the job's payload
Done = Callable[[Any], None]


class FifoResource:
    """A single-server FIFO queue (one NAND die or one channel)."""

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._queue: Deque[Tuple[Job, Optional[Done]]] = deque()
        self._busy = False
        # the one job in service (single server): its completion
        # callback and payload, delivered by _complete
        self._on_done: Optional[Done] = None
        self._payload: Any = None
        self._busy_time = 0.0
        self._service_count = 0
        #: optional :class:`~repro.obs.device.ResourceTelemetry` hook
        #: (arrival queue depth, service durations); recording only,
        #: never scheduling, so the event sequence is unaffected
        self.telemetry = None

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        """Jobs waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy_time_us(self) -> float:
        return self._busy_time

    @property
    def service_count(self) -> int:
        return self._service_count

    def utilization(self, elapsed_us: float) -> float:
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed_us)

    def state_dict(self) -> dict:
        """Serializable state; only meaningful at quiescence (no job in
        service, nothing queued), which the checkpoint barrier asserts."""
        if self._busy or self._queue:
            raise RuntimeError(
                f"resource {self.name!r} not quiescent: "
                f"busy={self._busy}, queued={len(self._queue)}"
            )
        return {
            "busy_time_us": self._busy_time,
            "service_count": self._service_count,
        }

    def load_state_dict(self, state: dict) -> None:
        if self._busy or self._queue:
            raise RuntimeError(
                f"cannot restore state onto active resource {self.name!r}"
            )
        self._busy_time = state["busy_time_us"]
        self._service_count = state["service_count"]

    def submit(self, job: Job, on_done: Optional[Done] = None) -> None:
        """Queue a job; it runs when the server reaches it."""
        if self.telemetry is not None:
            # depth this arrival sees: waiting jobs plus the one in service
            self.telemetry.record_arrival(
                len(self._queue) + (1 if self._busy else 0)
            )
        self._queue.append((job, on_done))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        job, on_done = self._queue.popleft()
        duration, payload = job()
        if duration < 0:
            raise ValueError("job duration must be >= 0")
        self._busy_time += duration
        self._service_count += 1
        if self.telemetry is not None:
            self.telemetry.record_service(duration)
        self._on_done = on_done
        self._payload = payload
        self.engine.schedule(duration, self._complete)

    def _complete(self) -> None:
        """The job in service finished: free the server first so the
        completion callback observes a consistent state, then deliver
        the payload, then continue with the queue."""
        on_done, payload = self._on_done, self._payload
        self._on_done = self._payload = None
        self._busy = False
        if on_done is not None:
            on_done(payload)
        if not self._busy and self._queue:
            self._start_next()
