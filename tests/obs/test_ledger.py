"""Tests for the run ledger: storage, collection, and chaos coverage."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cluster import uniform_cluster
from repro.common.errors import LedgerError
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.obs import LEDGER_VERSION, LedgerCollector, RunLedger, TraceEvent, Tracer


def quiet_conf(**kwargs) -> EngineConf:
    kwargs.setdefault("default_parallelism", 8)
    kwargs.setdefault(
        "cost", CostModelConfig(jitter_sigma=0.0, driver_dispatch_interval=0.0)
    )
    return EngineConf(**kwargs)


def make_ctx(**conf_kwargs) -> AnalyticsContext:
    return AnalyticsContext(
        uniform_cluster(n_workers=3, cores=2), quiet_conf(**conf_kwargs)
    )


def shuffle_job(ctx):
    pairs = ctx.parallelize([(i % 13, 1) for i in range(8000)], 8)
    return pairs.reduce_by_key(lambda a, b: a + b, 6).collect_as_map()


def collected_run(**conf_kwargs) -> dict:
    """Run the shuffle job with a collector attached; return the body."""
    ctx = make_ctx(**conf_kwargs)
    collector = LedgerCollector()
    with collector.attached(ctx):
        shuffle_job(ctx)
    return collector.body()


# The final line of a three-entry ledger, as the appender writes it.
TORN_LINE = json.dumps(
    {"version": LEDGER_VERSION, "run_id": "0002-w-c", "seq": 2,
     "workload": "w", "label": "c", "wall_clock": 3.0},
    sort_keys=True,
)


class TestRunLedger:
    def test_append_assigns_deterministic_sequential_ids(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        assert ledger.append("wordcount", "run", {}) == "0000-wordcount-run"
        assert ledger.append("wordcount", "run", {}) == "0001-wordcount-run"
        assert ledger.append("kmeans", "vanilla", {}) == "0002-kmeans-vanilla"

    def test_entries_round_trip_in_append_order(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append("w", "a", {"wall_clock": 1.0})
        ledger.append("w", "b", {"wall_clock": 2.0})
        entries = ledger.entries()
        assert [e["label"] for e in entries] == ["a", "b"]
        assert [e["seq"] for e in entries] == [0, 1]
        assert all(e["version"] == LEDGER_VERSION for e in entries)

    def test_read_seeks_by_run_id(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append("w", "a", {"wall_clock": 1.0})
        run_id = ledger.append("w", "b", {"wall_clock": 2.0})
        assert ledger.read(run_id)["wall_clock"] == 2.0

    def test_read_unknown_run_raises_with_known_ids(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append("w", "a", {})
        with pytest.raises(LedgerError, match="0000-w-a"):
            ledger.read("nope")

    def test_missing_file_raises_ledger_error(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "absent.jsonl"))
        with pytest.raises(LedgerError, match="not found"):
            ledger.entries()
        with pytest.raises(LedgerError, match="not found"):
            ledger.read("0000-w-a")

    def test_corrupt_line_raises_ledger_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"run_id": "0000-w-a", "version": 1}\nnot json\n')
        with pytest.raises(LedgerError, match="corrupt"):
            RunLedger(str(path)).entries()

    def test_non_entry_line_raises_ledger_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(LedgerError, match="not a run entry"):
            RunLedger(str(path)).entries()

    def test_leftover_index_sidecar_is_ignored(self, tmp_path):
        # Older versions kept a <ledger>.index.json of byte offsets. One
        # left behind, however stale, neither steers reads nor numbering.
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append("w", "a", {"wall_clock": 1.0})
        run_id = ledger.append("w", "b", {"wall_clock": 2.0})
        sidecar = tmp_path / "runs.jsonl.index.json"
        sidecar.write_text(json.dumps({"version": 1, "size": 7, "runs": [
            {"run_id": run_id, "workload": "w", "label": "b", "offset": 0},
        ]}))
        assert ledger.read(run_id)["wall_clock"] == 2.0
        assert ledger.append("w", "c", {}) == "0002-w-c"
        assert json.loads(sidecar.read_text())["size"] == 7


class TestTornTail:
    """Crash mid-append leaves a partial final line; reads must survive.

    The appender writes ``json + "\\n"`` in a single call, so a tail
    missing its newline is the only corruption an interrupted append can
    produce — anything torn *earlier* in the file is real damage and
    still raises.
    """

    def torn_ledger(self, tmp_path, keep_bytes=25):
        """Two good entries plus a truncated third line."""
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append("w", "a", {"wall_clock": 1.0})
        ledger.append("w", "b", {"wall_clock": 2.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(TORN_LINE[:keep_bytes])  # no newline, mid-record
        return ledger, path

    @pytest.mark.parametrize("cut", range(1, len(TORN_LINE) + 1))
    def test_every_cut_point_of_the_final_line(self, tmp_path, cut):
        # A kill -9 mid-append can leave any prefix of the line. Only the
        # whole line (newline missing) is a complete entry; every shorter
        # prefix is lost, and the next append takes the id it never earned.
        ledger, _ = self.torn_ledger(tmp_path, keep_bytes=cut)
        complete = ["0000-w-a", "0001-w-b"]
        if cut == len(TORN_LINE):
            complete.append("0002-w-c")
        assert [e["run_id"] for e in ledger.entries()] == complete
        for run_id in complete:
            assert ledger.read(run_id)["run_id"] == run_id
        next_id = f"{len(complete):04d}-w-d"
        assert ledger.append("w", "d", {}) == next_id
        assert [e["run_id"] for e in ledger.entries()] == complete + [next_id]
        assert ledger.read(next_id)["label"] == "d"

    def test_entries_skip_partial_tail_with_warning(self, tmp_path, caplog):
        ledger, _ = self.torn_ledger(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.ledger"):
            entries = ledger.entries()
        assert [e["run_id"] for e in entries] == ["0000-w-a", "0001-w-b"]
        assert any("torn final line" in r.message for r in caplog.records)

    def test_append_after_tear_keeps_ids_deterministic(self, tmp_path):
        ledger, path = self.torn_ledger(tmp_path)
        # The torn tail is truncated away; the new entry takes the seq
        # the crashed one never earned, at its byte offset.
        assert ledger.append("w", "c2", {}) == "0002-w-c2"
        entries = ledger.entries()
        assert [e["run_id"] for e in entries] == [
            "0000-w-a", "0001-w-b", "0002-w-c2",
        ]
        assert ledger.read("0002-w-c2")["label"] == "c2"

    def test_complete_tail_missing_newline_is_repaired(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append("w", "a", {})
        with open(path, "rb+") as fh:  # strip just the final newline
            fh.seek(-1, 2)
            fh.truncate()
        assert [e["run_id"] for e in ledger.entries()] == ["0000-w-a"]
        assert ledger.append("w", "b", {}) == "0001-w-b"
        assert path.read_bytes().count(b"\n") == 2  # newline restored
        assert ledger.read("0000-w-a")["workload"] == "w"

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"run_id": "0000-w-a", "version": 1}\ntorn{\n')
        with pytest.raises(LedgerError, match="corrupt"):
            RunLedger(str(path)).entries()

    def test_only_the_ledger_file_is_written(self, tmp_path):
        ledger, _ = self.torn_ledger(tmp_path)
        ledger.append("w", "d", {})
        assert os.listdir(tmp_path) == ["runs.jsonl"]


SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

APPENDER = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.obs import RunLedger

ledger = RunLedger({path!r})
print("ready", flush=True)
while not os.path.exists({path!r} + ".go"):  # start together
    time.sleep(0.001)
for i in range({per_writer}):
    ledger.append("w", "run", {{"writer": int(sys.argv[1]), "pad": "x" * 13000}})
"""


class TestConcurrentAppends:
    def test_four_processes_one_line_per_append(self, tmp_path):
        """Writers that share one ledger each get a whole line and a
        distinct sequence number: none truncates another's append as a
        torn tail, and none reuses a number."""
        path = str(tmp_path / "runs.jsonl")
        per_writer = 30
        script = APPENDER.format(src=SRC, path=path, per_writer=per_writer)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(w)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for w in range(4)
        ]
        for proc in procs:
            assert proc.stdout.readline() == b"ready\n"
        open(path + ".go", "w").close()
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            assert b"torn" not in err
        n = 4 * per_writer
        with open(path, "rb") as fh:
            assert len(fh.read().splitlines()) == n
        entries = RunLedger(path).entries()
        assert len({e["run_id"] for e in entries}) == n
        assert [e["seq"] for e in entries] == list(range(n))
        assert sorted(e["writer"] for e in entries) == sorted(
            w for w in range(4) for _ in range(per_writer)
        )


class TestLedgerCollector:
    def test_body_covers_stages_tasks_and_shuffle(self):
        body = collected_run()
        assert body["wall_clock"] > 0
        assert len(body["jobs"]) == 1
        kinds = [s["kind"] for s in body["stages"]]
        assert kinds == ["shuffle_map", "result"]
        map_stage = body["stages"][0]
        assert map_stage["tasks"]["count"] == 8
        assert len(map_stage["tasks"]["duration"]) == 8
        # Per-reduce-partition histogram from the shuffle manager.
        assert len(map_stage["output_partition_bytes"]) == 6
        assert sum(map_stage["output_partition_bytes"]) > 0
        assert body["shuffle"]["write_bytes"] > 0
        assert (
            body["shuffle"]["local_bytes"] + body["shuffle"]["remote_bytes"]
            > 0
        )

    def test_task_attempt_outcomes_counted_without_tracer(self):
        # The collector is told each attempt's outcome directly; it needs
        # no tracer, and no task span, to count them.
        body = collected_run()
        assert body["task_attempts"]["ok"] == 8 + 6
        assert body["chaos_events"] == []

    def test_detach_restores_unobserved_state(self):
        ctx = make_ctx()
        collector = LedgerCollector()
        with collector.attached(ctx):
            shuffle_job(ctx)
        body = json.dumps(collector.body()["task_attempts"])
        shuffle_job(ctx)  # unobserved: the detached collector hears nothing
        assert json.dumps(collector.body()["task_attempts"]) == body
        assert len(collector.body()["jobs"]) == 1

    def test_ledger_only_run_builds_no_lifecycle_span(self, monkeypatch):
        # A ledger entry is a fold over facts, not over a trace: with only
        # a collector attached no task / phase / stage / job span is even
        # constructed (18,551 of them in a default KMeans run, when the
        # collector still learned outcomes from task spans), and the body
        # is the one a traced run collects.
        from repro.obs import catalogue
        from repro.workloads import KMeansWorkload

        built = []

        class CountingEvent(TraceEvent):
            def __init__(self, name, cat, *args, **kwargs):
                built.append(cat)
                super().__init__(name, cat, *args, **kwargs)

        monkeypatch.setattr(catalogue, "TraceEvent", CountingEvent)

        def run(traced: bool) -> dict:
            ctx = AnalyticsContext(
                uniform_cluster(n_workers=3, cores=2), quiet_conf(memory_budget=6e7)
            )
            if traced:
                ctx.obs.set_tracer(Tracer())
            collector = LedgerCollector()
            with collector.attached(ctx):
                KMeansWorkload(
                    virtual_gb=1.0, physical_records=600,
                    lloyd_iterations=1, init_rounds=1,
                ).run(ctx)
            ctx.close()
            return collector.body()

        ledger_only = run(traced=False)
        assert set(built) == {"spill"}  # the one kind of span its rows are
        assert ledger_only["task_attempts"] == {"ok": 64}
        assert ledger_only["spill_event_count"] == built.count("spill") > 0
        assert json.dumps(run(traced=True)) == json.dumps(ledger_only)
        assert {"task", "task.phase", "stage", "job"} <= set(built)

    def test_coexists_with_tracer_without_double_shifting(self):
        # The tracer shifts span times by its horizon offset; the ledger
        # collector registered alongside must still see run-local times.
        tracer = Tracer()
        tracer.on_span(TraceEvent("earlier-run", "run", 0.0, 100.0))
        ctx = make_ctx()
        ctx.obs.set_tracer(tracer)
        collector = LedgerCollector()
        with tracer.scope("second-run"):
            with collector.attached(ctx):
                shuffle_job(ctx)
        body = collector.body()
        ends = [s["end"] for s in body["stages"]]
        assert max(ends) < 100.0  # run-local, not horizon-shifted


def mid_reduce_kill_time() -> float:
    """A kill time strictly inside the reduce stage of the baseline run.

    Losing a node then guarantees registered map outputs disappear, so
    the run exercises fetch failure -> stage resubmission.
    """
    baseline = make_ctx()
    shuffle_job(baseline)
    reduce_stats = next(s for s in baseline.stage_stats if s.kind == "result")
    start = min(t.start for t in reduce_stats.tasks)
    first_end = min(t.end for t in reduce_stats.tasks)
    return (start + first_end) / 2.0


class TestChaosRunsInLedger:
    def chaos_run(self, kill_at: float):
        ctx = make_ctx(
            node_failure_times={"w0": kill_at}, node_recovery_delay=1e9
        )
        collector = LedgerCollector()
        with collector.attached(ctx):
            result = shuffle_job(ctx)
        return ctx, collector.body(), result

    def test_node_loss_and_resubmission_recorded(self):
        # Kill one worker mid-reduce: the ledger must carry the chaos
        # events and the resubmitted stage records, with attempt
        # numbering consistent between the two.
        kill_at = mid_reduce_kill_time()
        ctx, body, result = self.chaos_run(kill_at)
        assert result == {k: len(range(k, 8000, 13)) for k in range(13)}
        events = [e["event"] for e in body["chaos_events"]]
        assert "node-lost" in events
        assert "fetch-failure" in events
        assert "stage-resubmit" in events
        lost = [e for e in body["chaos_events"] if e["event"] == "node-lost"]
        assert lost[0]["t"] == pytest.approx(kill_at)
        # Attempt numbering: every stage-resubmit event has a matching
        # attempt > 0 stage record, and vice versa.
        resubmits = [
            e for e in body["chaos_events"] if e["event"] == "stage-resubmit"
        ]
        retried = [s for s in body["stages"] if s["attempt"] > 0]
        assert retried, "mid-reduce kill must force a stage resubmission"
        assert {s["attempt"] for s in retried} == {
            e["attempt"] for e in resubmits
        }
        # The resubmitted map stage re-ran only the lost partitions.
        first_map = next(s for s in body["stages"] if s["kind"] == "shuffle_map")
        for s in retried:
            assert s["tasks"]["count"] < first_map["tasks"]["count"]
        # Task-level attempt outcomes include the failures.
        assert body["task_attempts"].get("ok", 0) > 0
        assert (
            body["task_attempts"].get("node-lost", 0)
            + body["task_attempts"].get("fetch-failed", 0)
            > 0
        )

    def test_chaos_body_serializes_through_the_ledger(self, tmp_path):
        _, body, _ = self.chaos_run(mid_reduce_kill_time())
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        run_id = ledger.append("shuffle", "chaos", body)
        entry = ledger.read(run_id)
        assert entry["chaos_events"]
        assert json.dumps(entry)  # fully JSON-serializable

    def test_chaos_run_identical_with_and_without_collector(self):
        # Attaching the collector turns span emission on; that must not
        # change simulated behaviour.
        kill_at = mid_reduce_kill_time()

        def run(with_collector: bool) -> float:
            ctx = make_ctx(
                node_failure_times={"w0": kill_at}, node_recovery_delay=1e9
            )
            if with_collector:
                collector = LedgerCollector()
                with collector.attached(ctx):
                    shuffle_job(ctx)
            else:
                shuffle_job(ctx)
            return ctx.now

        assert run(True) == run(False)
