"""Run ledger: an append-only, versioned record of every measured run.

Every engine or CHOPPER run appends one structured JSONL entry — config,
per-stage timeline, shuffle local/remote byte split, partition-size
histograms, task-attempt outcomes, chaos events, and (for CHOPPER runs)
the chosen schemes plus the cost model's predicted-vs-actual numbers.
The ledger is what the diagnostics passes (:mod:`repro.obs.diagnostics`)
and the ``repro report`` / ``repro diff-runs`` commands read, so a run is
explainable and comparable after the fact without re-running it.

Layout: ``<path>`` is the JSONL file, one entry per line, and nothing
else: no sidecar (a ``<path>.index.json`` left by an older version is
ignored). An append holds an exclusive ``flock`` on the file, so
concurrent writers (two ``repro`` processes sharing one ledger) each get
a whole line and a distinct sequence number.

Run ids are deterministic — ``{seq:04d}-{workload}-{label}`` — so CI can
append two runs and diff ``0000-…`` against ``0001-…`` without parsing
output.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from typing import Any, BinaryIO, Dict, Iterator, List, Optional

from repro.common.errors import LedgerError

LEDGER_VERSION = 1

_BLOCK = 1 << 16  # bytes read per step when walking back from the end


def _line_start(fh: BinaryIO, end: int) -> int:
    """Offset just past the last newline before byte ``end`` (0: none)."""
    pos = end
    while pos > 0:
        step = min(_BLOCK, pos)
        pos -= step
        fh.seek(pos)
        newline = fh.read(step).rfind(b"\n")
        if newline >= 0:
            return pos + newline + 1
    return 0


def _warn(msg: str, *args: Any) -> None:
    # Logging: only a ledger with a torn final line warns.
    import logging

    logging.getLogger("repro.obs.ledger").warning(msg, *args)


class RunLedger:
    """Append-only JSONL ledger of run entries."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, workload: str, label: str, body: Dict[str, Any]) -> str:
        """Append one entry; returns its assigned deterministic run id.

        A torn final line left by a crash mid-append is repaired first
        (completed by a newline when it parses, truncated away when it
        does not), so the new entry's offset and sequence number are the
        same as if the crash had never happened. The exclusive lock is
        held from the repair to the write and released when the file
        closes.
        """
        with open(self.path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            seq = self._next_seq(fh)
            run_id = f"{seq:04d}-{workload}-{label}"
            entry = {
                "version": LEDGER_VERSION,
                "run_id": run_id,
                "seq": seq,
                "workload": workload,
                "label": label,
                **body,
            }
            fh.write((json.dumps(entry, sort_keys=True) + "\n").encode("utf-8"))
        return run_id

    def _next_seq(self, fh: BinaryIO) -> int:
        """Repair a torn final line, then number the next entry.

        The appender writes each ``json + "\\n"`` in one call, so a tail
        without a trailing newline can only be a partially flushed write:
        complete it when it parses as a full entry, drop it otherwise.
        The number is one past the last complete entry's ``seq``, found
        walking back from the end, so it costs the same at any length.
        """
        end = fh.seek(0, os.SEEK_END)
        while end > 0:
            start = _line_start(fh, end - 1)
            fh.seek(start)
            line = fh.read(end - start)
            if not line.endswith(b"\n"):  # only ever the final line
                if self._tail_entry(line) is None:
                    fh.truncate(start)
                    end = start
                    _warn(
                        "ledger %s: dropping torn final line (%d bytes) left "
                        "by an interrupted append",
                        self.path,
                        len(line),
                    )
                    continue
                fh.write(b"\n")
                _warn(
                    "ledger %s: final line was missing its newline; repaired",
                    self.path,
                )
            if line.strip():
                seq = self._parse(line, start).get("seq")
                if not isinstance(seq, int):
                    raise LedgerError(
                        f"corrupt ledger entry in {self.path} at byte "
                        f"{start}: no sequence number"
                    )
                return seq + 1
            end = start
        return 0

    def _tail_entry(self, raw: bytes) -> Optional[Dict[str, Any]]:
        """Parse a newline-less tail; None when it is a partial record."""
        try:
            return self._parse(raw, 0)
        except LedgerError:
            return None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """All entries, in append order."""
        return list(self._scan())

    def read(self, run_id: str) -> Dict[str, Any]:
        """One entry by run id."""
        known = []
        for entry in self._scan():
            if entry["run_id"] == run_id:
                return entry
            known.append(entry["run_id"])
        raise LedgerError(
            f"run {run_id!r} not found in {self.path} "
            f"(known runs: {', '.join(known) or 'none'})"
        )

    # ------------------------------------------------------------------

    def _parse(self, line: bytes, offset: int) -> Dict[str, Any]:
        try:
            entry = json.loads(line)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise LedgerError(
                f"corrupt ledger entry in {self.path} at byte {offset}: {exc}"
            ) from None
        if not isinstance(entry, dict) or "run_id" not in entry:
            raise LedgerError(
                f"corrupt ledger entry in {self.path} at byte {offset}: "
                f"not a run entry"
            )
        return entry

    def _scan(self) -> Iterator[Dict[str, Any]]:
        """Yield entries in order, tolerating a torn final line.

        A final line with no trailing newline is a crash mid-append: it
        still yields when it parses as a complete entry, and is skipped
        with a warning when it is partial — so one interrupted run
        cannot poison every subsequent ledger read. Corruption anywhere
        *before* the final line still raises (that is not a torn write).
        """
        if not os.path.exists(self.path):
            raise LedgerError(f"ledger file not found: {self.path}")
        with open(self.path, "rb") as fh:
            offset = 0
            for line in fh:
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                if line.endswith(b"\n"):
                    yield self._parse(line, start)
                    continue
                entry = self._tail_entry(line)
                if entry is not None:
                    yield entry
                else:
                    _warn(
                        "ledger %s: skipping torn final line at byte %d "
                        "(interrupted append)",
                        self.path,
                        start,
                    )


def plan_summary(events) -> Optional[Dict[str, Any]]:
    """Aggregate a context's relational plan-optimizer events.

    One event per optimized query plan (see ``AnalyticsContext.plan_events``);
    the summary carries total rule hit-counts so ``diff-runs`` and CI
    gates can assert on plan shape without replaying the run.
    """
    if not events:
        return None
    hits: Dict[str, int] = {}
    for event in events:
        for rule, n in (event.get("rule_hits") or {}).items():
            hits[rule] = hits.get(rule, 0) + n
    return {
        "optimized_plans": len(events),
        "rule_hits": dict(sorted(hits.items())),
        "events": [dict(e) for e in events],
    }


class LedgerCollector:
    """Listener that assembles one run's ledger entry body.

    Attach around a workload run: it joins the listener bus for the task
    / stage / job endings and subscribes to the context's hub for attempt
    outcomes and the chaos / spill / AQE instants (no tracer needed, no
    task span built). :meth:`body` afterwards returns the per-run portion
    of the entry — the caller adds identity (workload/label), the config
    snapshot, and any CHOPPER extras before handing it to
    :meth:`RunLedger.append`.
    """

    MAX_SPILL_EVENTS = 200  # per-event detail kept in the entry (head)
    MAX_AQE_EVENTS = 200  # adaptive-execution decisions kept (head)

    def __init__(self) -> None:
        self.stages: List[Dict[str, Any]] = []
        self.jobs: List[Dict[str, Any]] = []
        self.chaos_events: List[Dict[str, Any]] = []
        self.spill_events: List[Dict[str, Any]] = []
        self.aqe_events: List[Dict[str, Any]] = []
        self._spill_count = 0
        self._aqe_count = 0
        self.task_attempts: Dict[str, int] = {}
        self._shuffle = {"local_bytes": 0.0, "remote_bytes": 0.0,
                         "write_bytes": 0.0, "spilled_bytes": 0.0}
        self._ctx = None
        self._started_at = 0.0

    # -- Listener callbacks (duck-typed) --------------------------------

    def on_task_end(self, task_metrics) -> None:
        self._shuffle["local_bytes"] += task_metrics.shuffle_read_local
        self._shuffle["remote_bytes"] += task_metrics.shuffle_read_remote
        self._shuffle["write_bytes"] += task_metrics.shuffle_write

    def on_stage_completed(self, stats) -> None:
        tasks = stats.tasks
        self.stages.append(
            {
                "stage_run_id": stats.stage_run_id,
                "name": stats.name,
                "signature": stats.signature,
                "kind": stats.kind,
                "attempt": stats.attempt,
                "num_partitions": stats.num_partitions,
                "partitioner": stats.partitioner_kind,
                "start": stats.submitted_at,
                "end": stats.completed_at,
                "duration": stats.duration,
                "input_bytes": stats.input_bytes,
                "shuffle_read_bytes": stats.shuffle_read_bytes,
                "shuffle_write_bytes": stats.shuffle_write_bytes,
                "remote_read_bytes": stats.remote_shuffle_read,
                "skew": stats.skew(),
                # Parallel arrays, one slot per finished task: the
                # material for straggler and compute-skew analysis.
                "tasks": {
                    "count": len(tasks),
                    "index": [t.task_index for t in tasks],
                    "node": [t.node for t in tasks],
                    "duration": [round(t.duration, 6) for t in tasks],
                    "attempt": [t.attempt for t in tasks],
                    "speculative": [t.speculative for t in tasks],
                    "input_bytes": [round(t.input_bytes, 1) for t in tasks],
                    "records_out": [t.records_out for t in tasks],
                },
                # Bytes per reduce partition of this stage's shuffle
                # output (data-side skew); empty for result stages.
                "output_partition_bytes": [
                    round(b, 1) for b in stats.output_partition_bytes
                ],
                # AQE: physical task count after runtime re-planning;
                # None when the stage ran its static layout.
                "adapted_partitions": stats.adapted_num_partitions,
                # Source partitions skipped by pruned scans in this
                # stage's pipeline (never scheduled as tasks).
                "pruned_partitions": stats.pruned_partitions,
                # DAG metadata: with these the entry alone rebuilds the
                # run's RunRecord (RunRecord.from_ledger_entry).
                "parent_signatures": list(stats.parent_signatures),
                "cogroup_sides": stats.cogroup_sides,
                "user_fixed": stats.user_fixed,
                "source_signatures": list(stats.source_signatures),
            }
        )

    def on_job_end(self, stats) -> None:
        self.jobs.append(
            {
                "job_id": stats.job_id,
                "start": stats.submitted_at,
                "end": stats.completed_at,
                "duration": stats.duration,
                "stages": len(stats.stages),
            }
        )

    def on_span(self, event) -> None:
        """An instant, as the hub renders it for a tracer too."""
        row = {"t": event.start, "event": event.name, **event.args}
        if event.cat == "chaos":
            self.chaos_events.append(row)
        elif event.cat == "spill":
            self._shuffle["spilled_bytes"] += event.args.get("bytes", 0.0)
            self._spill_count += 1
            # Keep the entry bounded: a tight budget can spill tens of
            # thousands of blocks; the full stream lives in the trace
            # lane, the ledger keeps the head plus exact totals.
            if len(self.spill_events) < self.MAX_SPILL_EVENTS:
                self.spill_events.append(row)
        elif event.cat == "aqe":
            self._aqe_count += 1
            if len(self.aqe_events) < self.MAX_AQE_EVENTS:
                self.aqe_events.append(row)

    def on_attempt_ended(self, outcome: str) -> None:
        self.task_attempts[outcome] = self.task_attempts.get(outcome, 0) + 1

    # -- lifecycle -------------------------------------------------------

    def attach(self, ctx) -> "LedgerCollector":
        ctx.listener_bus.add(self)
        ctx.obs.subscribe(self)
        self._ctx = ctx
        self._started_at = ctx.now
        return self

    def detach(self) -> None:
        if self._ctx is not None:
            self._ctx.listener_bus.remove(self)
            self._ctx.obs.unsubscribe(self)

    @contextmanager
    def attached(self, ctx) -> Iterator["LedgerCollector"]:
        try:
            yield self.attach(ctx)
        finally:
            self.detach()

    def body(self) -> Dict[str, Any]:
        """The run-record portion of a ledger entry."""
        wall = (self._ctx.now - self._started_at) if self._ctx else 0.0
        return {
            "wall_clock": wall,
            "jobs": self.jobs,
            "stages": self.stages,
            "shuffle": dict(self._shuffle),
            "task_attempts": dict(sorted(self.task_attempts.items())),
            "chaos_events": self.chaos_events,
            "spill_events": self.spill_events,
            "spill_event_count": self._spill_count,
            "aqe_events": self.aqe_events,
            "aqe_event_count": self._aqe_count,
            "plan": plan_summary(
                getattr(self._ctx, "plan_events", None) if self._ctx else None
            ),
            "partition_cache": self._partition_cache(),
        }

    def _partition_cache(self) -> Optional[Dict[str, Any]]:
        """Result-cache stats and zone-map coverage, when either exists."""
        if self._ctx is None:
            return None
        cache = getattr(self._ctx, "query_cache", None)
        zone_maps = getattr(self._ctx, "zone_maps", None)
        zone_summary = zone_maps.summary() if zone_maps is not None else []
        if cache is None and not zone_summary:
            return None
        return {
            "cache": cache.stats() if cache is not None else None,
            "zone_maps": zone_summary,
        }
