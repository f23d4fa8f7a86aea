"""Telemetry must never change results, and must itself be deterministic.

The two contracts this file pins down:

* **Identity of results** — simulated outcomes, workload DBs, and ledger
  run ids are byte-identical with logging/profiling on or off, including
  chaos and AQE runs (profile fields are excluded from entry identity by
  dropping the ``profile`` key, which is the only key telemetry adds).
* **Identity of telemetry** — metric snapshots, event logs, traces and
  ledger entries are byte-identical across serial, threaded
  (physical_parallelism=4), and process-pool sweeps, modulo the
  ``worker`` attribution that only pool dispatch adds.
"""

import dataclasses
import json

from repro.chopper import ChopperRunner
from repro.chopper import parallel as par
from repro.cluster import paper_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ResourceProfiler,
    RunLedger,
    Tracer,
    diff_runs,
)
from repro.workloads import ShuffleWordCountWorkload, WordCountWorkload


def _strip_worker_series(snapshot):
    return {
        family: {
            name: [s for s in series if "worker" not in s["labels"]]
            for name, series in instruments.items()
        }
        for family, instruments in snapshot.items()
    }


def _strip_worker_field(records):
    return [
        {k: v for k, v in record.items() if k != "worker"}
        for record in records
    ]


def _sweep(jobs, ledger_path=None, p_grid=(4, 8), profiler=None, **conf):
    runner = ChopperRunner(
        WordCountWorkload(physical_records=2000),
        base_conf=EngineConf(default_parallelism=8, **conf),
        metrics_registry=MetricsRegistry(),
        event_log=EventLog(),
        tracer=Tracer(),
        ledger=RunLedger(str(ledger_path)) if ledger_path else None,
        profiler=profiler,
    )
    runner.profile(p_grid=p_grid, scales=(0.02,), jobs=jobs)
    return runner


def _chrome(runner):
    doc = runner.tracer.to_chrome()
    for event in doc["traceEvents"]:
        event["args"].pop("wall_ms", None)  # phase spans: real host time
    return json.dumps(doc)


def _db_dump(runner):
    return json.dumps(
        [
            dataclasses.asdict(o)
            for o in runner.db.observations(runner.workload.name)
        ],
        sort_keys=True,
        default=str,
    )


class TestCrossModeTelemetryIdentity:
    def test_serial_vs_threads_vs_procs(self, force_pool, tmp_path):
        serial = _sweep(1, tmp_path / "serial.jsonl")
        threads = _sweep(jobs=1, physical_parallelism=4)
        procs = _sweep(4, tmp_path / "procs.jsonl")
        assert par.last_dispatch == "pool"
        # The sinks that used to force the serial loop: same run ids,
        # same order, same bytes (no profiler, so nothing to strip).
        assert len(serial.ledger.entries()) == 5
        assert (tmp_path / "serial.jsonl").read_bytes() == (
            tmp_path / "procs.jsonl"
        ).read_bytes()

        base_snap = json.dumps(
            serial.metrics_registry.snapshot(), sort_keys=True
        )
        base_log = json.dumps(serial.event_log.records)
        for other in (threads, procs):
            assert (
                json.dumps(
                    _strip_worker_series(other.metrics_registry.snapshot()),
                    sort_keys=True,
                )
                == base_snap
            )
            assert (
                json.dumps(_strip_worker_field(other.event_log.records))
                == base_log
            )
            assert _db_dump(other) == _db_dump(serial)
            assert _chrome(other) == _chrome(serial)
        # The serial sweep has no worker attribution to strip.
        assert json.dumps(
            _strip_worker_series(serial.metrics_registry.snapshot()),
            sort_keys=True,
        ) == base_snap

    def test_procs_sweep_repeats_byte_identically(self, force_pool):
        first = _sweep(jobs=4)
        second = _sweep(jobs=4)
        assert json.dumps(
            first.metrics_registry.snapshot(), sort_keys=True
        ) == json.dumps(second.metrics_registry.snapshot(), sort_keys=True)
        assert json.dumps(first.event_log.records) == json.dumps(
            second.event_log.records
        )


class TestTelemetryNeverChangesResults:
    def _run(self, conf_kwargs, telemetry, scale=0.02, skew=None):
        kwargs = {"physical_records": 2000}
        if skew is not None:
            kwargs["skew"] = skew
        workload = ShuffleWordCountWorkload(**kwargs)
        ctx = AnalyticsContext(
            paper_cluster(),
            EngineConf(default_parallelism=8, **conf_kwargs),
            event_log=EventLog() if telemetry else None,
            profiler=None,
            metrics_registry=MetricsRegistry() if telemetry else None,
        )
        profiler = None
        if telemetry:
            profiler = ResourceProfiler()
            profiler.start()
            ctx.obs.set_profiler(profiler)
        result = workload.run(ctx, scale=scale)
        stats = [
            (s.name, s.duration, s.shuffle_bytes, s.num_partitions)
            for s in ctx.stage_stats
        ]
        now = ctx.now
        if profiler is not None:
            profiler.stop()
        ctx.close()
        return result.value, now, stats

    def test_plain_run(self):
        assert self._run({}, False) == self._run({}, True)

    def test_aqe_run(self):
        conf = {"adaptive_execution": True, "aqe_target_partition_bytes": 4096.0}
        assert self._run(conf, False, skew=1.9) == self._run(
            conf, True, skew=1.9
        )

    def test_chaos_run(self):
        conf = {"node_failure_times": {"A": 5.0}, "node_recovery_delay": 30.0}
        assert self._run(conf, False) == self._run(conf, True)


class TestLedgerIdentity:
    def _ledger_entries(self, tmp_path, name, telemetry):
        runner = ChopperRunner(
            WordCountWorkload(physical_records=2000),
            base_conf=EngineConf(default_parallelism=8),
        )
        ledger = RunLedger(str(tmp_path / name))
        runner.ledger = ledger
        if telemetry:
            runner.event_log = EventLog()
            runner.metrics_registry = MetricsRegistry()
            runner.profiler = ResourceProfiler()
        runner.run_vanilla(scale=0.02)
        return ledger.entries()

    def test_run_ids_and_entries_identical_modulo_profile(self, tmp_path):
        plain = self._ledger_entries(tmp_path, "plain.jsonl", False)
        telem = self._ledger_entries(tmp_path, "telem.jsonl", True)
        assert [e["run_id"] for e in plain] == [e["run_id"] for e in telem]
        for a, b in zip(plain, telem):
            b = dict(b)
            profile = b.pop("profile")
            # The profile payload is the one telemetry-only key, and it
            # is real-host data, not simulated state.
            assert profile["host"]["wall_s"] > 0
            assert json.dumps(a, sort_keys=True) == json.dumps(
                b, sort_keys=True
            )
            # What CI's `diff-runs --threshold 0.001` gated on.
            assert diff_runs(a, b, time_threshold=0.001).ok


class TestProfileTelemetryExclusion:
    def test_profiled_sweep_metrics_and_logs_match_unprofiled(self):
        with_profile = _sweep(1, p_grid=(4,), profiler=ResourceProfiler())
        without = _sweep(1, p_grid=(4,))
        assert json.dumps(
            with_profile.metrics_registry.snapshot(), sort_keys=True
        ) == json.dumps(without.metrics_registry.snapshot(), sort_keys=True)
        assert json.dumps(with_profile.event_log.records) == json.dumps(
            without.event_log.records
        )
