"""The discrete-event simulation loop.

:class:`SimEngine` owns the virtual clock. Components schedule callbacks at
relative delays or absolute times; :meth:`SimEngine.run` drains the event
heap in deterministic ``(time, seq)`` order, advancing the clock to each
event's timestamp. There is no real-time sleeping anywhere — a multi-minute
"cluster run" completes in milliseconds of wall time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.common.errors import SchedulingError
from repro.simul.events import Event


class SimEngine:
    """Deterministic event loop with a virtual clock."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        # (time, seq, event) entries: they order in C, seq unique.
        self._heap: list[tuple[float, int, Event]] = []
        self._running: bool = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = self._seq
        event = Event(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def run(self, until: Optional[float] = None) -> float:
        """Drain events (optionally only up to time ``until``).

        Returns the clock value when the loop stops: the last event's time,
        or ``until`` if a horizon was given and reached.
        """
        if self._running:
            raise SchedulingError("SimEngine.run re-entered")
        self._running = True
        try:
            heap = self._heap
            while heap:
                time, _, event = heap[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heapq.heappop(heap)
                if event.cancelled:
                    continue
                self._now = time
                event.fire()
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def clear(self) -> None:
        """Drop all pending events; the clock stays where it is."""
        if self._running:
            raise SchedulingError("cannot clear a running SimEngine")
        self._heap.clear()
