"""CI smoke check: telemetry must be well-formed, exportable, and inert.

Validates the artifacts CI just produced — the ``--log`` JSONL must
parse with monotone sequence numbers and carry the correlation schema,
and the ``--metrics`` snapshot must export as Prometheus text that
passes ``validate_prometheus`` and as a structurally sound OTLP
document. Then re-runs the skewed wordcount in-process with full
telemetry attached vs. none and asserts the collected counts, stage
stats, and simulated clock are bit-identical. (Worker attribution
through the process pool is tier-1: tests/chopper/test_worker_telemetry.py.)
"""

from __future__ import annotations

import json
import sys

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import EventLog, MetricsRegistry, ResourceProfiler
from repro.obs.export import to_otlp, to_prometheus, validate_prometheus
from repro.obs.log import LEVELS
from repro.workloads import WordCountWorkload

LOG = sys.argv[1] if len(sys.argv) > 1 else "run.log"
METRICS = sys.argv[2] if len(sys.argv) > 2 else "metrics.json"


def check_log() -> int:
    records = [json.loads(line) for line in open(LOG, encoding="utf-8")]
    assert records, f"{LOG} is empty"
    assert [r["seq"] for r in records] == list(range(len(records))), (
        "log sequence numbers are not monotone from 0"
    )
    for r in records:
        assert r["level"] in LEVELS, f"bad level in record {r['seq']}"
        assert r["t"] >= 0.0
        assert r["logger"] and r["event"]
    loggers = {r["logger"] for r in records}
    assert {"dag_scheduler", "task_scheduler", "executor"} <= loggers, (
        f"missing core emitters; saw {sorted(loggers)}"
    )
    task_records = [r for r in records if r["event"] == "task_finished"]
    assert task_records, "no per-task records"
    for r in task_records:
        assert {"stage", "partition", "node"} <= set(r), (
            f"task record {r['seq']} lacks correlation ids"
        )
    return len(records)


def check_exports() -> int:
    snap = json.load(open(METRICS, encoding="utf-8"))
    samples = validate_prometheus(to_prometheus(snap))
    assert samples > 5, f"only {samples} Prometheus samples"
    doc = to_otlp(snap)
    (resource,) = doc["resourceMetrics"]
    metrics = resource["scopeMetrics"][0]["metrics"]
    assert any(m["name"] == "scheduler.tasks_completed" for m in metrics)
    return samples


def run_wordcount(telemetry: bool):
    conf = EngineConf(default_parallelism=32)
    event_log = EventLog() if telemetry else None
    registry = MetricsRegistry() if telemetry else None
    profiler = ResourceProfiler() if telemetry else None
    if profiler is not None:
        profiler.start()
    ctx = AnalyticsContext(
        uniform_cluster(n_workers=3, cores=4),
        conf,
        event_log=event_log,
        metrics_registry=registry,
        profiler=profiler,
    )
    try:
        value = WordCountWorkload(
            physical_records=3000, skew=1.9
        ).run(ctx).value
        stats = [
            (s.name, s.duration, s.shuffle_bytes, s.num_partitions)
            for s in ctx.stage_stats
        ]
        return value, ctx.now, stats
    finally:
        if profiler is not None:
            profiler.stop()
        ctx.close()


def check_identity() -> None:
    assert run_wordcount(telemetry=False) == run_wordcount(telemetry=True), (
        "telemetry changed the simulated wordcount run"
    )


def main() -> None:
    n_records = check_log()
    samples = check_exports()
    check_identity()
    print(
        f"ok: {n_records} log records monotone and correlated; {samples} "
        f"Prometheus samples validate; wordcount bit-identical with "
        f"telemetry on/off"
    )


if __name__ == "__main__":
    main()
