"""Structured event log: JSONL records correlated with the run hierarchy.

The tracer answers "when did what overlap"; the metrics registry answers
"how much, total". This log answers the operator's question — *what
happened, in order, and to which task* — as newline-delimited JSON with a
monotone per-log sequence number and the correlation ids (run / job /
stage / task partition / attempt / node) threaded through the schedulers,
executor, shuffle manager, spill manager, AQE, and the CHOPPER runner.

Determinism contract: timestamps are **simulated** time (``ctx.sim.now``
via a bound clock) and every emit site sits on the driver's serial event
path (worker-thread task bodies defer their records through the task
effects sink, which replays them at the attempt's serial position), so a
run's log is byte-identical across serial, threaded, and process-pool
execution. Pool workers ship their records to the driver, which restamps
sequence numbers in deterministic merge order and labels each record with
the worker slot.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.common.errors import ConfigurationError

DEBUG = "DEBUG"
INFO = "INFO"
WARNING = "WARNING"
ERROR = "ERROR"

#: Severity order for filtering (``repro logs --level``).
LEVELS: Dict[str, int] = {DEBUG: 10, INFO: 20, WARNING: 30, ERROR: 40}


class EventLog:
    """An in-memory structured log with JSONL persistence.

    Records are plain dicts: ``seq`` (monotone int), ``t`` (simulated
    seconds), ``level``, ``logger`` (the emitting component), ``event``
    (a stable snake_case name), plus any bound correlation fields and the
    emit site's keyword fields. ``bind()`` installs fields (e.g. the
    ledger run id) carried by every subsequent record.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._seq = 0
        self._clock: Callable[[], float] = lambda: 0.0  # until a hub binds its own
        self._bound: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point timestamps at a context's simulated clock."""
        self._clock = clock

    def bind(self, **fields: Any) -> None:
        """Install correlation fields stamped on every later record."""
        for key, value in fields.items():
            if value is None:
                self._bound.pop(key, None)
            else:
                self._bound[key] = value

    def emit(self, level: str, logger: str, event: str, **fields: Any) -> None:
        if level not in LEVELS:
            raise ConfigurationError(
                f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
            )
        record = {
            "seq": self._seq,
            "t": float(self._clock()),
            "level": level,
            "logger": logger,
            "event": event,
        }
        for key, value in self._bound.items():
            record[key] = value
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        self._seq += 1
        self.records.append(record)

    def extend(self, records: Iterable[dict], worker: Optional[str] = None) -> None:
        """Fold shipped records (a pool worker's log) into this log.

        Sequence numbers are restamped into this log's monotone order —
        the shipped ones were private to the worker — and each record is
        labeled with the worker slot so merged logs stay attributable.
        """
        for shipped in records:
            record = dict(shipped)
            record["seq"] = self._seq
            if worker is not None:
                record["worker"] = worker
            self._seq += 1
            self.records.append(record)

    # ------------------------------------------------------------------
    # Persistence / filtering
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write JSONL, one sorted-key record per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


def load_records(path: str) -> List[dict]:
    """Parse a JSONL log file; eager, so malformed lines fail up front."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
    return records


def filter_records(
    records: Iterable[dict],
    level: Optional[str] = None,
    stage: Optional[str] = None,
    node: Optional[str] = None,
    event: Optional[str] = None,
    tail: Optional[int] = None,
) -> List[dict]:
    """Apply the ``repro logs`` filters: min level, stage/node/event, tail."""
    if level is not None and level not in LEVELS:
        raise ConfigurationError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        )
    floor = LEVELS[level] if level is not None else 0
    out = []
    for record in records:
        if LEVELS.get(record.get("level", INFO), 0) < floor:
            continue
        if stage is not None and record.get("stage") != stage:
            continue
        if node is not None and record.get("node") != node:
            continue
        if event is not None and record.get("event") != event:
            continue
        out.append(record)
    if tail is not None and tail >= 0:
        out = out[len(out) - tail:] if tail else []
    return out


def format_record(record: dict) -> str:
    """One human-scannable line per record (the ``repro logs`` output)."""
    known = ("seq", "t", "level", "logger", "event")
    head = (
        f"[{record.get('seq', '?'):>5}] "
        f"t={record.get('t', 0.0):>10.3f} "
        f"{record.get('level', '?'):<7} "
        f"{record.get('logger', '?')}: {record.get('event', '?')}"
    )
    rest = " ".join(
        f"{key}={record[key]}" for key in sorted(record) if key not in known
    )
    return f"{head} {rest}".rstrip()
