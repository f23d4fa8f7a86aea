"""Tests for the span tracer and Chrome-trace exporter."""

import json

from repro.obs import TraceEvent, Tracer, to_chrome


def spans_of(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "X"]


def meta_of(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "M"]


class TestTracer:
    def test_emit_and_horizon(self):
        tr = Tracer()
        tr.on_span(TraceEvent("a", "stage", 0.0, 2.0))
        tr.on_span(TraceEvent("b", "stage", 1.0, 5.0))
        assert [e.name for e in tr.events] == ["a", "b"]
        tr.instant("marker", "chopper.optimizer")
        assert tr.events[-1].start == 5.0

    def test_instant_lands_at_horizon(self):
        tr = Tracer()
        tr.on_span(TraceEvent("a", "stage", 0.0, 3.0))
        tr.instant("marker", "chopper.optimizer", P=64)
        last = tr.events[-1]
        assert last.start == last.end == 3.0
        assert last.args == {"P": 64}

    def test_scope_shifts_spans_past_horizon(self):
        tr = Tracer()
        with tr.scope("first"):
            tr.on_span(TraceEvent("t", "task", 0.0, 2.0, node="n1"))
        with tr.scope("second"):
            tr.on_span(TraceEvent("t", "task", 0.0, 2.0, node="n1"))
        tasks = [e for e in tr.events if e.cat == "task"]
        assert tasks[0].start == 0.0 and tasks[0].end == 2.0
        assert tasks[1].start == 2.0 and tasks[1].end == 4.0
        runs = [e for e in tr.events if e.cat == "run"]
        assert [(r.name, r.start, r.end) for r in runs] == [
            ("first", 0.0, 2.0), ("second", 2.0, 4.0)
        ]

    def test_phase_records_wall_clock(self):
        tr = Tracer()
        with tr.phase("train"):
            pass
        event = tr.events[-1]
        assert event.cat == "chopper"
        assert event.args["wall_ms"] >= 0.0


class TestChromeExport:
    def test_span_fields_valid(self):
        tr = Tracer()
        tr.on_span(TraceEvent("job-0", "job", 0.0, 1.5))
        tr.on_span(TraceEvent("map[0]", "task", 0.25, 1.0, node="n1"))
        doc = tr.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        for e in spans_of(doc):
            assert e["ph"] == "X"
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        task = next(e for e in spans_of(doc) if e["cat"] == "task")
        assert task["ts"] == 0.25e6 and task["dur"] == 0.75e6

    def test_driver_and_nodes_get_distinct_pids(self):
        tr = Tracer()
        tr.on_span(TraceEvent("job-0", "job", 0.0, 1.0))
        tr.on_span(TraceEvent("t", "task", 0.0, 1.0, node="n1"))
        tr.on_span(TraceEvent("t", "task", 0.0, 1.0, node="n2"))
        doc = tr.to_chrome()
        pids = {e["cat"]: e["pid"] for e in spans_of(doc)}
        names = {
            e["pid"]: e["args"]["name"]
            for e in meta_of(doc) if e["name"] == "process_name"
        }
        assert names[pids["job"]] == "driver"
        node_pids = {e["pid"] for e in spans_of(doc) if e["cat"] == "task"}
        assert len(node_pids) == 2
        assert {names[p] for p in node_pids} == {"n1", "n2"}

    def test_lane_packing_respects_overlap(self):
        tr = Tracer()
        # Two overlapping tasks need two lanes; a third that starts after
        # the first ends reuses lane 1.
        tr.on_span(TraceEvent("a", "task", 0.0, 2.0, node="n1"))
        tr.on_span(TraceEvent("b", "task", 1.0, 3.0, node="n1"))
        tr.on_span(TraceEvent("c", "task", 2.5, 4.0, node="n1"))
        doc = tr.to_chrome()
        tid = {e["name"]: e["tid"] for e in spans_of(doc)}
        assert tid["a"] != tid["b"]
        assert tid["c"] == tid["a"]

    def test_subspans_inherit_lane_via_key(self):
        tr = Tracer()
        tr.on_span(TraceEvent("a", "task", 0.0, 2.0, node="n1", key=("s", 0)))
        tr.on_span(TraceEvent("b", "task", 1.0, 3.0, node="n1", key=("s", 1)))
        tr.on_span(
            TraceEvent("b:fetch", "task.phase", 1.0, 1.5, node="n1", key=("s", 1))
        )
        doc = tr.to_chrome()
        tid = {e["name"]: e["tid"] for e in spans_of(doc)}
        assert tid["b:fetch"] == tid["b"] != tid["a"]

    def test_declared_cores_name_every_lane(self):
        tr = Tracer()
        tr.declare_nodes({"n1": 4})
        tr.on_span(TraceEvent("a", "task", 0.0, 1.0, node="n1"))
        doc = tr.to_chrome()
        lanes = [
            e for e in meta_of(doc)
            if e["name"] == "thread_name" and e["args"]["name"].startswith("core")
        ]
        assert len(lanes) == 4  # all declared cores, not just the one used

    def test_save_writes_valid_json(self, tmp_path):
        tr = Tracer()
        tr.on_span(TraceEvent("job-0", "job", 0.0, 1.0))
        path = tmp_path / "trace.json"
        tr.save(str(path))
        doc = json.loads(path.read_text())
        assert doc == tr.to_chrome()

    def test_export_without_nodes(self):
        doc = to_chrome([TraceEvent("j", "job", 0.0, 1.0)])
        assert spans_of(doc)[0]["pid"] == 1
