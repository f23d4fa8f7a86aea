"""Span tracer and Chrome-trace (Perfetto) exporter, keyed on simulated time.

A context's hub renders what the engine reports as :class:`TraceEvent`
spans — one per job, stage, task attempt, and task phase (shuffle fetch,
compute, …), instants for chaos / AQE / spill events — and the CHOPPER
runner adds driver-side ones (profile/train/optimize phases). A
:class:`Tracer` collects them and :func:`to_chrome` renders the
set in the Chrome trace-event JSON format, so a run opens directly in
``chrome://tracing`` or https://ui.perfetto.dev:

* every worker node is a *process* (``pid``), the driver is process 1;
* every core of a node is a *thread lane* (``tid``); task spans are
  packed into core lanes by a greedy interval assignment, so concurrency
  on a node is visible at a glance and never exceeds its core count;
* sub-spans (task phases such as the shuffle fetch) carry the same
  correlation ``key`` as their task span and inherit its lane, nesting
  underneath it in the UI;
* timestamps are simulated seconds rendered as microseconds (``ts`` /
  ``dur``), the units the trace-event format expects.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

DRIVER_PID = 1

# Driver-side lanes by span category (tid 0 is reserved for metadata).
_DRIVER_TIDS = {
    "run": 1,
    "job": 2,
    "stage": 3,
    "chopper": 4,
    "chopper.optimizer": 4,
    "chaos": 5,
    "spill": 6,
}
_DRIVER_TID_NAMES = {
    1: "runs", 2: "jobs", 3: "stages", 4: "chopper", 5: "chaos", 6: "spill",
}
_DRIVER_TID_FALLBACK = 7


@dataclass
class TraceEvent:
    """One complete span, in simulated seconds.

    ``node`` is None for driver-side spans (jobs, stages, CHOPPER
    phases). ``key`` correlates a task span with its phase sub-spans so
    the exporter can place them on the same core lane.
    """

    name: str
    cat: str
    start: float
    end: float
    node: Optional[str] = None
    key: Optional[Tuple] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from a context's hub and driver-side phases.

    A tracer can outlive one context: :meth:`scope` shifts the simulated
    times of everything observed inside it past the current horizon, so a
    multi-run pipeline (profile sweep, vanilla-vs-CHOPPER compare) renders
    as consecutive segments of one timeline.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._offset = 0.0
        self._horizon = 0.0
        self._nodes: Dict[str, int] = {}

    def declare_nodes(self, nodes: Dict[str, int]) -> None:
        """Declare node -> core-count so every core gets a named lane."""
        self._nodes.update(nodes)

    def on_span(self, event: TraceEvent) -> None:
        if self._offset:
            # Copy before shifting: the hub hands the same event object to
            # every sink (e.g. a ledger collector records the run-local
            # times), so the shift must stay private.
            event = replace(
                event,
                start=event.start + self._offset,
                end=event.end + self._offset,
            )
        self._append(event)

    # ------------------------------------------------------------------
    # Driver-side spans (absolute times)
    # ------------------------------------------------------------------

    def instant(self, name: str, cat: str, **args: Any) -> None:
        """A zero-duration marker at the current horizon."""
        self._append(TraceEvent(name, cat, self._horizon, self._horizon, args=args))

    @contextmanager
    def scope(self, label: str, **args: Any) -> Iterator["Tracer"]:
        """Shift spans observed inside past the horizon; emit a run span."""
        previous = self._offset
        start = self._horizon
        self._offset = start
        try:
            yield self
        finally:
            self._offset = previous
            self._append(
                TraceEvent(
                    name=label, cat="run",
                    start=start, end=max(self._horizon, start), args=args,
                )
            )

    @contextmanager
    def phase(self, label: str, cat: str = "chopper", **args: Any) -> Iterator["Tracer"]:
        """A driver-side phase span covering the simulated time it added.

        Phases that advance no simulated time (model training, the
        optimizer itself) render as zero-duration markers; the measured
        wall-clock cost is recorded in ``args["wall_ms"]``.
        """
        start = self._horizon
        wall0 = time.perf_counter()
        try:
            yield self
        finally:
            args = dict(args)
            args["wall_ms"] = round((time.perf_counter() - wall0) * 1e3, 3)
            self._append(
                TraceEvent(
                    name=label, cat=cat,
                    start=start, end=max(self._horizon, start), args=args,
                )
            )

    # ------------------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        self.events.append(event)
        if event.end > self._horizon:
            self._horizon = event.end

    def to_chrome(self) -> dict:
        return to_chrome(self.events, nodes=self._nodes)

    def save(self, path: str) -> None:
        save_chrome_trace(path, self.events, nodes=self._nodes)


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------

_LANE_EPS = 1e-9


def _assign_lanes(
    events: List[TraceEvent], node_names: List[str]
) -> Tuple[Dict[int, int], Dict[Tuple[str, Tuple], int], Dict[str, int]]:
    """Pack task spans into per-node core lanes (greedy interval coloring).

    Returns (event index -> lane), (``(node, key)`` -> lane) for sub-span
    inheritance, and (node -> lanes used).
    """
    lane_ends: Dict[str, List[float]] = {name: [] for name in node_names}
    lanes_of: Dict[int, int] = {}
    key_lane: Dict[Tuple[str, Tuple], int] = {}
    order = sorted(
        (i for i, e in enumerate(events) if e.node is not None and e.cat == "task"),
        key=lambda i: (events[i].start, events[i].end),
    )
    for i in order:
        event = events[i]
        ends = lane_ends[event.node]
        for lane, last_end in enumerate(ends):
            if last_end <= event.start + _LANE_EPS:
                ends[lane] = event.end
                break
        else:
            lane = len(ends)
            ends.append(event.end)
        lanes_of[i] = lane
        if event.key is not None:
            key_lane[(event.node, event.key)] = lane
    return lanes_of, key_lane, {name: len(ends) for name, ends in lane_ends.items()}


def to_chrome(
    events: List[TraceEvent], nodes: Optional[Dict[str, int]] = None
) -> dict:
    """Render spans as a Chrome trace-event JSON document.

    ``nodes`` (node -> cores) pre-declares one lane per core even when a
    run never filled them all; undeclared nodes get as many lanes as their
    peak concurrency required.
    """
    nodes = dict(nodes or {})
    node_names = sorted({e.node for e in events if e.node is not None} | set(nodes))
    pids = {name: i + DRIVER_PID + 1 for i, name in enumerate(node_names)}
    lanes_of, key_lane, lanes_used = _assign_lanes(events, node_names)

    trace_events: List[dict] = []
    for i, event in enumerate(events):
        if event.node is None:
            pid = DRIVER_PID
            tid = _DRIVER_TIDS.get(event.cat, _DRIVER_TID_FALLBACK)
        else:
            pid = pids[event.node]
            if event.cat == "task":
                lane = lanes_of.get(i, 0)
            else:
                lane = key_lane.get((event.node, event.key), 0)
            tid = lane + 1
        trace_events.append(
            {
                "name": event.name,
                "cat": event.cat,
                "ph": "X",
                "ts": round(event.start * 1e6, 3),
                "dur": round(max(event.duration, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": event.args,
            }
        )

    meta: List[dict] = [
        _metadata("process_name", DRIVER_PID, 0, name="driver"),
        _metadata("process_sort_index", DRIVER_PID, 0, sort_index=0),
    ]
    for tid, name in _DRIVER_TID_NAMES.items():
        meta.append(_metadata("thread_name", DRIVER_PID, tid, name=name))
    for rank, node in enumerate(node_names):
        pid = pids[node]
        meta.append(_metadata("process_name", pid, 0, name=node))
        meta.append(_metadata("process_sort_index", pid, 0, sort_index=rank + 1))
        n_lanes = max(nodes.get(node, 0), lanes_used.get(node, 0))
        for core in range(n_lanes):
            meta.append(_metadata("thread_name", pid, core + 1, name=f"core {core}"))
    return {"traceEvents": meta + trace_events, "displayTimeUnit": "ms"}


def _metadata(kind: str, pid: int, tid: int, **args: Any) -> dict:
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": args}


def save_chrome_trace(
    path: str, events: List[TraceEvent], nodes: Optional[Dict[str, int]] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome(events, nodes=nodes), fh)
        fh.write("\n")
