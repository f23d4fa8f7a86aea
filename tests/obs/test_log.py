"""Tests for the structured event log (repro.obs.log)."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import DEBUG, ERROR, INFO, WARNING, EventLog
from repro.obs.log import filter_records, format_record, load_records


class TestEmit:
    def test_records_carry_seq_time_and_fields(self):
        log = EventLog()
        log.emit(INFO, "executor", "task_executed", stage="s0", partition=3)
        (record,) = log.records
        assert record["seq"] == 0
        assert record["t"] == 0.0
        assert record["level"] == "INFO"
        assert record["logger"] == "executor"
        assert record["event"] == "task_executed"
        assert record["stage"] == "s0"
        assert record["partition"] == 3

    def test_seq_is_monotone(self):
        log = EventLog()
        for i in range(5):
            log.emit(DEBUG, "t", "e", i=i)
        assert [r["seq"] for r in log.records] == list(range(5))

    def test_clock_stamps_timestamps(self):
        now = [0.0]
        log = EventLog()
        log.bind_clock(lambda: now[0])
        log.emit(INFO, "t", "a")
        now[0] = 2.5
        log.emit(INFO, "t", "b")
        assert [r["t"] for r in log.records] == [0.0, 2.5]

    def test_bind_clock_rebinds(self):
        log = EventLog()
        log.emit(INFO, "t", "a")
        log.bind_clock(lambda: 7.0)
        log.emit(INFO, "t", "b")
        assert [r["t"] for r in log.records] == [0.0, 7.0]

    def test_unknown_level_rejected(self):
        log = EventLog()
        with pytest.raises(ConfigurationError):
            log.emit("LOUD", "t", "e")

    def test_none_fields_dropped(self):
        log = EventLog()
        log.emit(INFO, "t", "e", kept=0, dropped=None)
        assert "dropped" not in log.records[0]
        assert log.records[0]["kept"] == 0


class TestBind:
    def test_bound_fields_appear_on_every_record(self):
        log = EventLog()
        log.bind(run="vanilla")
        log.emit(INFO, "t", "a")
        log.emit(INFO, "t", "b")
        assert all(r["run"] == "vanilla" for r in log.records)

    def test_rebinding_overwrites(self):
        log = EventLog()
        log.bind(run="one")
        log.emit(INFO, "t", "a")
        log.bind(run="two")
        log.emit(INFO, "t", "b")
        assert [r["run"] for r in log.records] == ["one", "two"]

    def test_binding_none_unbinds(self):
        log = EventLog()
        log.bind(run="one")
        log.bind(run=None)
        log.emit(INFO, "t", "a")
        assert "run" not in log.records[0]

    def test_record_field_wins_over_bound(self):
        log = EventLog()
        log.bind(stage="bound")
        log.emit(INFO, "t", "e", stage="explicit")
        assert log.records[0]["stage"] == "explicit"


class TestExtend:
    def test_restamps_seq_and_tags_worker(self):
        log = EventLog()
        log.emit(INFO, "t", "local")
        shipped = [
            {"seq": 0, "t": 1.0, "level": "INFO", "logger": "w", "event": "a"},
            {"seq": 1, "t": 2.0, "level": "INFO", "logger": "w", "event": "b"},
        ]
        log.extend(shipped, worker="w0")
        assert [r["seq"] for r in log.records] == [0, 1, 2]
        assert log.records[1]["worker"] == "w0"
        assert log.records[2]["worker"] == "w0"
        assert "worker" not in log.records[0]

    def test_extend_without_worker_adds_no_field(self):
        log = EventLog()
        log.extend([{"seq": 9, "t": 0.0, "level": "INFO",
                     "logger": "w", "event": "a"}])
        assert log.records[0]["seq"] == 0
        assert "worker" not in log.records[0]


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        log = EventLog()
        log.emit(INFO, "t", "a", n=1)
        log.emit(WARNING, "t", "b", n=2)
        path = str(tmp_path / "run.log")
        log.save(path)
        assert load_records(path) == log.records

    def test_save_is_sorted_jsonl(self, tmp_path):
        log = EventLog()
        log.emit(INFO, "t", "a", zz=1, aa=2)
        path = str(tmp_path / "run.log")
        log.save(path)
        line = open(path, encoding="utf-8").read().strip()
        assert json.loads(line)["zz"] == 1
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_load_rejects_bad_json_with_location(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text('{"seq": 0}\nnot json\n')
        with pytest.raises(ConfigurationError, match="2"):
            load_records(str(path))


class TestFilterAndFormat:
    def _records(self):
        log = EventLog()
        log.emit(DEBUG, "executor", "task_executed", stage="s0", node="A")
        log.emit(INFO, "dag", "stage_completed", stage="s0")
        log.emit(WARNING, "scheduler", "task_retry", stage="s1", node="B")
        log.emit(ERROR, "scheduler", "node_lost", node="B")
        return log.records

    def test_level_is_a_minimum(self):
        records = filter_records(self._records(), level=WARNING)
        assert [r["event"] for r in records] == ["task_retry", "node_lost"]

    def test_stage_and_node_filters(self):
        records = self._records()
        assert len(filter_records(records, stage="s0")) == 2
        assert len(filter_records(records, node="B")) == 2
        assert len(filter_records(records, stage="s1", node="B")) == 1

    def test_event_and_tail(self):
        records = self._records()
        assert len(filter_records(records, event="task_retry")) == 1
        assert [r["event"] for r in filter_records(records, tail=2)] == [
            "task_retry", "node_lost",
        ]

    def test_format_is_one_line_and_keyed(self):
        (record,) = filter_records(self._records(), event="task_retry")
        line = format_record(record)
        assert "\n" not in line
        assert "WARNING" in line
        assert "task_retry" in line
        assert "stage=s1" in line
