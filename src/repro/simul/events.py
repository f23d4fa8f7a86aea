"""Event objects for the discrete-event simulator.

The engine fires events in ``(time, seq)`` order; ``seq`` is a
monotonically increasing tie-breaker it assigns, which makes simulation
runs fully deterministic even when many events share a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(eq=False)
class Event:
    """A scheduled callback in simulated time.

    Attributes:
        time: absolute simulated time at which the event fires.
        seq: engine-assigned tie-breaker; earlier-scheduled events with the
            same timestamp fire first.
        fn: the callback to invoke.
        args: positional arguments passed to ``fn``.
        cancelled: set via :meth:`cancel`; cancelled events are skipped by
            the engine without invoking ``fn``.
    """

    time: float
    seq: int
    fn: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the engine drops it instead of firing it."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (engine-internal)."""
        self.fn(*self.args)
