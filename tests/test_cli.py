"""Tests for the command-line interface."""

import io
import json
import re
from pathlib import Path

import pytest

from repro import workloads
from repro.chopper import (
    ChopperRunner,
    ConfigEntry,
    PartitionScheme,
    WorkloadConfig,
)
from repro.cli import WORKLOADS, build_parser, main
from repro.engine import EngineConf
from repro.obs import RunLedger
from repro.obs.log import LEVELS
from repro.reporting import html_report
from repro.workloads import WordCountWorkload


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


RUN_LINE = '{"run_id": "0000-sql-run", "workload": "sql", "label": "run"}\n'


class TestErrorHandling:
    def test_unknown_workload_one_line_error(self):
        code, text, err = run_cli("run", "tensor-train")
        assert code == 2
        assert text == ""
        assert err.startswith("error: ")
        assert "tensor-train" in err
        assert "kmeans" in err  # suggests the valid names
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("argv, subject", [
        (("run", "wordcount", "--skew", "1.0"), "skew"),
        (("run", "wordcount", "--skew", "nan"), "skew"),
        (("run", "sql", "--skew", "0.5"), "skew"),
        (("run", "wordcount", "--scale", "nan"), "scale"),
        (("run", "wordcount", "--virtual-gb", "nan"), "virtual"),
        (("run", "wordcount", "--virtual-gb", "inf"), "virtual"),
        (("profile", "wordcount", "--scales", "nan"), "scale"),
    ])
    def test_degenerate_workload_number_one_line_error(self, tmp_path, argv, subject):
        ledger = ("--ledger", str(tmp_path / "runs.jsonl"))
        code, _, err = run_cli(
            *argv, "--physical-records", "400", "--parallelism", "8",
            *(ledger if argv[0] == "profile" else ()),
        )
        assert code == 2
        assert err.startswith("error: ") and subject in err
        assert err.count("\n") == 1

    def test_infinite_skew_stays_legal(self):
        code, text, _ = run_cli(
            "run", "wordcount", "--skew", "inf",
            "--physical-records", "400", "--parallelism", "8",
        )
        assert code == 0 and "total:" in text

    def test_unreadable_db_one_line_error(self, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        code, text, err = run_cli("optimize", "wordcount", "--ledger", missing)
        assert code == 2
        assert err.startswith("error: ")
        assert missing in err and "'wordcount'" in err
        assert err.count("\n") == 1

    def test_malformed_db_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        for lines in (
            "{not json\n" + RUN_LINE,  # garbage before a good entry
            '{"run_id": "0000-wordc',  # torn final line: skipped, no runs
            RUN_LINE,  # another workload's run only
        ):
            bad.write_text(lines)
            code, _, err = run_cli("optimize", "wordcount", "--ledger", str(bad))
            assert code == 2
            assert err.startswith("error: ")
            assert str(bad) in err and "'wordcount'" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("payload", ['{"workload": "wordcount"}', "[]"])
    def test_config_of_wrong_shape_one_line_error(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(payload)
        code, text, err = run_cli("run", *WC_FAST, "--config", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert "not a workload config" in err
        assert err.count("\n") == 1

    def test_config_for_another_workload_one_line_error(self, tmp_path):
        # A wordcount config matches no sql stage: running it would be
        # a silent vanilla run, so it is refused before anything runs.
        config = WorkloadConfig(workload="wordcount")
        config.add(ConfigEntry("0" * 16, PartitionScheme("hash", 8)))
        path = tmp_path / "wc.json"
        path.write_text(config.to_json())
        code, text, err = run_cli(
            "run", "sql", "--physical-records", "400", "--parallelism", "8",
            "--config", str(path),
        )
        assert code == 2
        assert text == ""
        assert err.startswith("error: ")
        assert "'wordcount'" in err and "'sql'" in err
        assert err.count("\n") == 1

    def test_unreadable_config_one_line_error(self, tmp_path):
        code, text, err = run_cli(
            "run", "wordcount", "--physical-records", "300",
            "--parallelism", "16", "--config", str(tmp_path / "missing.json"),
        )
        assert code == 2
        assert err.startswith("error: ")


class TestWorkloadsCommand:
    def test_lists_all(self):
        code, text, _ = run_cli("workloads")
        assert code == 0
        for name in WORKLOADS:
            assert name in text

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "docs/tutorial.md"])
    def test_docs_name_exactly_these(self, doc):
        """The sentence after `repro workloads` names the CLI's workloads,
        and every ``*Workload`` class the doc names still exists."""
        text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
        sentences = re.findall(r"`repro workloads`[^.|]*", text)
        assert len(sentences) == 1, sentences
        assert re.findall(r"`([\w-]+)`", sentences[0]) == list(WORKLOADS)
        classes = set(re.findall(r"\b[A-Z]\w*Workload\b", text))
        assert sorted(c for c in classes if not hasattr(workloads, c)) == []


class TestRunCommand:
    def test_runs_and_prints_stage_table(self):
        code, text, _ = run_cli(
            "run", "wordcount",
            "--virtual-gb", "1.0",
            "--physical-records", "400",
            "--parallelism", "16",
        )
        assert code == 0
        assert "stage" in text
        assert "total:" in text
        assert "shuffle_map" in text

    def test_scale_flag(self):
        code, text, _ = run_cli(
            "run", "wordcount",
            "--virtual-gb", "1.0", "--physical-records", "400",
            "--parallelism", "16", "--scale", "0.5",
        )
        assert code == 0


class TestRecordFormatFlag:
    WORKLOAD = (
        "run", "wordcount-shuffle",
        "--virtual-gb", "1.0", "--physical-records", "400",
        "--parallelism", "16",
    )

    def test_invalid_record_format_one_line_error(self):
        code, text, err = run_cli(*self.WORKLOAD, "--record-format", "parquet")
        assert code == 2
        assert text == ""
        assert err.startswith("error: ")
        assert "parquet" in err and "columnar" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_columnar_output_matches_list(self):
        code_a, text_a, _ = run_cli(*self.WORKLOAD)
        code_b, text_b, _ = run_cli(
            *self.WORKLOAD, "--record-format", "columnar", "--fuse"
        )
        assert code_a == 0 and code_b == 0
        assert text_a == text_b

    def test_list_vs_columnar_ledger_gate(self, tmp_path):
        # The CI identity gate: two ledgered runs, then diff-runs with a
        # near-zero threshold must pass (simulated time and shuffle
        # volume are bit-identical across record formats).
        ledger = str(tmp_path / "runs.jsonl")
        code, _, _ = run_cli(*self.WORKLOAD, "--ledger", ledger)
        assert code == 0
        code, _, _ = run_cli(
            *self.WORKLOAD, "--record-format", "columnar", "--fuse",
            "--ledger", ledger,
        )
        assert code == 0
        code, text, _ = run_cli(
            "diff-runs", ledger,
            "0000-wordcount-shuffle-run", "0001-wordcount-shuffle-run",
            "--threshold", "0.001",
        )
        assert code == 0
        assert "ok: no regression" in text


class TestChaosFlags:
    WORKLOAD = (
        "run", "wordcount",
        "--virtual-gb", "1.0", "--physical-records", "400",
        "--parallelism", "16",
    )

    def test_chaos_kill_run_succeeds(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code, text, _ = run_cli(
            *self.WORKLOAD,
            "--chaos-kill", "C=0.2",
            "--metrics", str(metrics_path),
        )
        assert code == 0
        assert "total:" in text
        snapshot = json.loads(metrics_path.read_text())
        series = snapshot["counters"]["scheduler.nodes_lost"]
        assert [s["value"] for s in series] == [1.0]

    def test_chaos_results_match_failure_free_table(self):
        code_a, plain, _ = run_cli(*self.WORKLOAD)
        code_b, chaotic, _ = run_cli(
            *self.WORKLOAD, "--chaos-kill", "C=0.2", "--chaos-recovery", "5.0"
        )
        assert code_a == code_b == 0
        # Same stages at the same partition counts (partial recovery
        # re-runs are excluded from the table); times may differ.
        rows_of = lambda text: [  # noqa: E731
            line.split()[:3] for line in text.splitlines()[1:]
            if "shuffle_map" in line or "result" in line
        ]
        assert rows_of(plain) == rows_of(chaotic)

    def test_chaos_kill_bad_syntax_one_line_error(self):
        for bad in ("C", "=1.0", "C=abc"):
            code, text, err = run_cli(*self.WORKLOAD, "--chaos-kill", bad)
            assert code == 2
            assert err.startswith("error: ")
            assert err.count("\n") == 1

    def test_chaos_kill_nan_one_line_error(self):
        code, _, err = run_cli(*self.WORKLOAD, "--chaos-kill", "B=nan")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_chaos_kill_unknown_node_one_line_error(self):
        code, _, err = run_cli(*self.WORKLOAD, "--chaos-kill", "Z=1.0")
        assert code == 2
        assert "unknown worker" in err

    def test_chaos_rate_flag(self):
        code, text, _ = run_cli(
            *self.WORKLOAD, "--chaos-rate", "0.4", "--chaos-recovery", "2.0"
        )
        assert code == 0
        assert "total:" in text


class TestPipelineCommands:
    def test_profile_optimize_run_roundtrip(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        config_path = str(tmp_path / "config.json")
        common = [
            "wordcount",
            "--virtual-gb", "2.0",
            "--physical-records", "600",
            "--parallelism", "32",
        ]
        code, text, _ = run_cli(
            "profile", *common, "--ledger", ledger,
            "--grid", "8", "32", "96", "--scales", "1.0",
        )
        assert code == 0
        assert "trained" in text

        code, text, _ = run_cli(
            "optimize", *common, "--ledger", ledger, "--output", config_path
        )
        assert code == 0
        assert "entries" in text

        code, text, _ = run_cli("run", *common, "--config", config_path)
        assert code == 0
        assert "total:" in text

    def test_run_reports_applied_config_entries(self, tmp_path):
        # One entry names a stage of the run, the other none: the run
        # says so on stdout, and its ledger entry records the same count.
        ledger = str(tmp_path / "runs.jsonl")
        assert run_cli("run", *WC_FAST, "--ledger", ledger)[0] == 0
        signature = RunLedger(ledger).entries()[0]["stages"][-1]["signature"]
        config = WorkloadConfig(workload="wordcount")
        config.add(ConfigEntry(signature, PartitionScheme("hash", 8)))
        config.add(ConfigEntry("0" * 16, PartitionScheme("hash", 8)))
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        code, text, _ = run_cli(
            "run", *WC_FAST, "--config", str(path), "--ledger", ledger
        )
        assert code == 0
        assert "config: 1 of 2 entries applied\n" in text
        chopper = RunLedger(ledger).read("0001-wordcount-run")["chopper"]
        assert chopper["applied"] == 1 and len(chopper["schemes"]) == 2

    def test_optimize_prints_json_without_output(self, tmp_path):
        # The ledger is the whole persisted DB: optimize in a fresh
        # runner gives the sweep's own in-process configs, byte for byte.
        runner = ChopperRunner(
            WordCountWorkload(virtual_gb=2.0, physical_records=600),
            base_conf=EngineConf(default_parallelism=32),
        )
        runner.ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        runner.profile(p_grid=(8, 32, 96), scales=(0.5, 1.0))
        runner.train()
        for mode in ("global", "per-stage"):
            code, text, _ = run_cli(
                "optimize", "wordcount", "--virtual-gb", "2.0",
                "--physical-records", "600", "--parallelism", "32",
                "--ledger", runner.ledger.path, "--mode", mode,
            )
            assert code == 0
            assert text == runner.optimize(mode=mode).to_json() + "\n"

    def test_compare_reports_improvement(self):
        code, text, _ = run_cli(
            "compare", "wordcount",
            "--virtual-gb", "2.0", "--physical-records", "600",
            "--parallelism", "32",
            "--grid", "8", "32", "96", "--scales", "1.0",
        )
        assert code == 0
        assert "improvement:" in text


class TestHistoryAndReport:
    def test_history_flag_is_gone(self, tmp_path, capsys):
        # The ledger is the one persisted per-run format.
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", *WC_FAST, "--history", str(tmp_path / "run.jsonl"))
        assert exit_info.value.code == 2
        assert "--history" in capsys.readouterr().err

    def test_run_gantt_flag(self):
        # Drawn from the run's context after measured_run closed it.
        code, text, _ = run_cli("run", *WC_FAST, "--gantt")
        assert code == 0
        assert "|" in text and "t = " in text


class TestMemoryBudgetFlags:
    WORKLOAD = (
        "run", "wordcount",
        "--virtual-gb", "1.0", "--physical-records", "400",
        "--parallelism", "16",
    )

    def test_budget_run_spills_and_ledgers_it(self, tmp_path):
        ledger_path = str(tmp_path / "runs.jsonl")
        code, text, _ = run_cli(
            *self.WORKLOAD, "--memory-budget", "8K",
            "--spill-dir", str(tmp_path / "spill"),
            "--ledger", ledger_path,
        )
        assert code == 0
        with open(ledger_path) as fh:
            entry = json.loads(fh.readline())
        assert entry["config"]["memory_budget"] == 8 * 1024
        assert entry["shuffle"]["spilled_bytes"] > 0
        assert entry["spill_event_count"] > 0
        # The context closed on the way out: spill files are gone, the
        # parent directory the user named survives.
        spill_dir = tmp_path / "spill"
        assert spill_dir.exists() and not list(spill_dir.iterdir())

    def test_budget_run_matches_unbudgeted(self, tmp_path):
        ledger_path = str(tmp_path / "runs.jsonl")
        for extra in ((), ("--memory-budget", "8K")):
            code, _, _ = run_cli(*self.WORKLOAD, *extra,
                                 "--ledger", ledger_path)
            assert code == 0
        code, text, _ = run_cli(
            "diff-runs", ledger_path,
            "0000-wordcount-run", "0001-wordcount-run",
            "--threshold", "0.001",
        )
        assert code == 0
        assert "ok: no regression" in text

    def test_bad_budget_one_line_error(self):
        code, text, err = run_cli(*self.WORKLOAD, "--memory-budget", "12X")
        assert code == 2
        assert err.startswith("error: ")
        assert "12X" in err
        assert err.count("\n") == 1

    def test_spill_dir_without_budget_one_line_error(self, tmp_path):
        code, text, err = run_cli(
            *self.WORKLOAD, "--spill-dir", str(tmp_path)
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "memory_budget" in err
        assert err.count("\n") == 1

    def test_zero_budget_one_line_error(self):
        code, text, err = run_cli(*self.WORKLOAD, "--memory-budget", "0")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ("--memory-budget", "1e400"),
        ("--memory-budget", "NaN MB"),
        ("--aqe", "--aqe-target", "nan mb"),
    ])
    def test_non_finite_size_one_line_error(self, flags):
        code, text, err = run_cli(*self.WORKLOAD, *flags)
        assert code == 2
        assert err.startswith("error: ") and "byte size" in err
        assert err.count("\n") == 1


class TestAqeFlags:
    def test_aqe_target_without_aqe_one_line_error(self):
        code, text, err = run_cli(
            *TestMemoryBudgetFlags.WORKLOAD, "--aqe-target", "4K"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "--aqe" in err
        assert err.count("\n") == 1


class TestObservabilityFlags:
    def test_run_writes_trace_and_metrics(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        code, text, _ = run_cli(
            "run", "wordcount",
            "--virtual-gb", "1.0", "--physical-records", "400",
            "--parallelism", "16",
            "--trace", trace, "--metrics", metrics,
        )
        assert code == 0
        assert f"trace -> {trace}" in text
        assert f"metrics -> {metrics}" in text

        with open(trace) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, "trace has no spans"
        for e in spans:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        cats = {e["cat"] for e in spans}
        assert {"job", "stage", "task"} <= cats

        with open(metrics) as fh:
            snap = json.load(fh)
        assert "shuffle.local_bytes" in snap["counters"]
        assert "shuffle.remote_bytes" in snap["counters"]
        assert "scheduler.speculative_launches" in snap["counters"]

    def test_compare_writes_trace_and_metrics(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        code, text, _ = run_cli(
            "compare", "wordcount",
            "--virtual-gb", "1.0", "--physical-records", "400",
            "--parallelism", "16",
            "--grid", "8", "32", "--scales", "1.0",
            "--trace", trace, "--metrics", metrics,
        )
        assert code == 0
        assert "improvement:" in text
        with open(trace) as fh:
            doc = json.load(fh)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # The pipeline phases and the vanilla/chopper runs all land on
        # one timeline as driver-lane spans.
        run_labels = {e["name"] for e in spans if e["cat"] == "run"}
        assert "vanilla" in run_labels and "chopper" in run_labels
        phase_labels = {e["name"] for e in spans if e["cat"] == "chopper"}
        assert {"profile", "train", "optimize"} <= phase_labels
        with open(metrics) as fh:
            snap = json.load(fh)
        assert "scheduler.tasks_completed" in snap["counters"]


WC_FAST = (
    "wordcount", "--virtual-gb", "1.0", "--physical-records", "400",
    "--parallelism", "16",
)


class TestLedgerCommands:
    def ledger_with_two_runs(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        for _ in range(2):
            code, text, _ = run_cli("run", *WC_FAST, "--ledger", ledger)
            assert code == 0
        return ledger

    def test_run_appends_ledger_entries(self, tmp_path):
        ledger = self.ledger_with_two_runs(tmp_path)
        with open(ledger) as fh:
            entries = [json.loads(line) for line in fh]
        assert [e["run_id"] for e in entries] == [
            "0000-wordcount-run", "0001-wordcount-run",
        ]
        entry = entries[0]
        assert entry["stages"] and entry["jobs"]
        assert entry["config"]["default_parallelism"] == 16
        map_stage = next(
            s for s in entry["stages"] if s["kind"] == "shuffle_map"
        )
        assert len(map_stage["output_partition_bytes"]) == 16

    def test_report_renders_ledger_run_as_html(self, tmp_path):
        ledger = self.ledger_with_two_runs(tmp_path)
        out_path = str(tmp_path / "report.html")
        code, text, _ = run_cli("report", ledger, "--out", out_path)
        assert code == 0
        assert f"-> {out_path}" in text
        with open(out_path) as fh:
            html = fh.read()
        assert html.startswith("<!DOCTYPE html>")
        assert html.count("<html") == html.count("</html>") == 1
        assert "<svg" in html  # the stage waterfall
        assert "0001-wordcount-run" in html  # defaults to the latest run

    def test_report_renders_adaptive_chaos_profile_and_skew(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        code, _, _ = run_cli(
            "run", "wordcount", "--virtual-gb", "1.0", "--physical-records", "400",
            "--parallelism", "64", "--skew", "1.9", "--aqe", "--aqe-target", "4K",
            "--chaos-kill", "C=0.2", "--chaos-recovery", "5.0", "--profile",
            "--ledger", ledger,
        )
        assert code == 0
        code, html, _ = run_cli("report", ledger)
        assert code == 0
        assert "⚠ skewed" in html
        assert "<th>decision</th>" in html  # the adaptive re-plans
        assert "<th>detail</th>" in html  # the chaos timeline
        assert "<th>max task</th>" in html  # the resource profile

    def test_report_calls_out_a_straggler(self, tmp_path):
        ledger = self.ledger_with_two_runs(tmp_path)
        with open(ledger) as fh:
            entry = json.loads(fh.readline())
        tasks = entry["stages"][0]["tasks"]
        tasks["duration"][0] *= 10
        assert "<th>outliers</th>" in html_report(entry)

    def test_report_selects_run_and_writes_stdout(self, tmp_path):
        ledger = self.ledger_with_two_runs(tmp_path)
        code, html, _ = run_cli("report", ledger, "--run", "0000-wordcount-run")
        assert code == 0
        assert html.startswith("<!DOCTYPE html>")
        assert "0000-wordcount-run" in html

    def test_report_rejects_non_ledger_file(self, tmp_path):
        log = str(tmp_path / "run.log")
        code, _, _ = run_cli("run", *WC_FAST, "--log", log)
        assert code == 0
        code, text, err = run_cli("report", log)
        assert code == 2 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_diff_runs_identical_exit_zero(self, tmp_path):
        ledger = self.ledger_with_two_runs(tmp_path)
        code, text, _ = run_cli(
            "diff-runs", ledger, "0000-wordcount-run", "0001-wordcount-run"
        )
        assert code == 0
        assert "ok: no regression" in text

    def test_diff_runs_regression_exit_nonzero(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        code, _, _ = run_cli("run", *WC_FAST, "--ledger", ledger)
        assert code == 0
        # Degrade the candidate: half the parallelism makes the run
        # materially slower than the 16-partition baseline.
        code, _, _ = run_cli(
            "run", "wordcount", "--virtual-gb", "1.0",
            "--physical-records", "400", "--parallelism", "8",
            "--ledger", ledger,
        )
        assert code == 0
        code, text, _ = run_cli(
            "diff-runs", ledger, "0000-wordcount-run", "0001-wordcount-run",
            "--threshold", "0.2",
        )
        assert code == 1
        assert "REGRESSION" in text
        # The same pair passes with a huge tolerance.
        code, _, _ = run_cli(
            "diff-runs", ledger, "0000-wordcount-run", "0001-wordcount-run",
            "--threshold", "1000", "--shuffle-threshold", "1000",
        )
        assert code == 0

    def test_profile_ledger_records_every_sweep_run(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        code, _, _ = run_cli(
            "profile", *WC_FAST, "--grid", "8", "16", "--scales", "1.0",
            "--ledger", ledger,
        )
        assert code == 0
        with open(ledger) as fh:
            entries = [json.loads(line) for line in fh]
        # 1 reference + 2 kinds x 2 grid points.
        assert len(entries) == 5
        labels = {e["label"] for e in entries}
        assert "reference@1.0" in labels
        assert any(label.startswith("profile-hash-") for label in labels)


class TestLedgerErrorHandling:
    def test_report_missing_ledger_one_line_error(self, tmp_path):
        code, text, err = run_cli("report", str(tmp_path / "missing.jsonl"))
        assert code == 2
        assert text == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_report_corrupt_ledger_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code, _, err = run_cli("report", str(bad))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_report_empty_file_one_line_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli("report", str(empty))
        assert code == 2
        assert "empty" in err
        assert err.count("\n") == 1

    def test_report_unknown_run_one_line_error(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        code, _, _ = run_cli("run", *WC_FAST, "--ledger", ledger)
        assert code == 0
        code, _, err = run_cli("report", ledger, "--run", "9999-nope-run")
        assert code == 2
        assert err.startswith("error: ")
        assert "9999-nope-run" in err
        assert err.count("\n") == 1

    def test_diff_runs_missing_ledger_one_line_error(self, tmp_path):
        code, _, err = run_cli(
            "diff-runs", str(tmp_path / "missing.jsonl"), "a", "b"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_diff_runs_unknown_run_one_line_error(self, tmp_path):
        ledger = str(tmp_path / "runs.jsonl")
        code, _, _ = run_cli("run", *WC_FAST, "--ledger", ledger)
        assert code == 0
        code, _, err = run_cli("diff-runs", ledger, "0000-wordcount-run", "nope")
        assert code == 2
        assert err.startswith("error: ")
        assert "nope" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--threshold", "nan"), ("--threshold", "-1"), ("--threshold", "inf"),
        ("--shuffle-threshold", "nan"), ("--shuffle-threshold", "-0.5"),
    ])
    def test_diff_runs_bad_threshold_one_line_error(self, tmp_path, flag, value):
        # Two identical runs: NaN would pass them (and any other pair), a
        # negative threshold would flag them.
        ledger = tmp_path / "runs.jsonl"
        entry = {
            "workload": "wordcount", "label": "run", "wall_clock": 2.0,
            "shuffle": {"write_bytes": 1e6},
        }
        ledger.write_text("".join(
            json.dumps({"run_id": f"000{i}-wordcount-run", **entry}) + "\n"
            for i in range(2)
        ))
        runs = ("diff-runs", str(ledger), "0000-wordcount-run", "0001-wordcount-run")
        assert run_cli(*runs, flag, "0")[0] == 0
        code, text, err = run_cli(*runs, flag, value)
        assert code == 2 and text == ""
        assert err.startswith("error: ") and "threshold" in err
        assert err.count("\n") == 1

    def test_diff_runs_corrupt_ledger_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"run_id": "0000-w-a"}\n{broken\n')
        code, _, err = run_cli("diff-runs", str(bad), "0000-w-a", "0001-w-b")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

class TestTelemetryCli:
    def run_with_telemetry(self, tmp_path):
        log = str(tmp_path / "run.log")
        metrics = str(tmp_path / "metrics.json")
        code, text, _ = run_cli(
            "run", *WC_FAST, "--log", log, "--metrics", metrics, "--profile",
        )
        return code, text, log, metrics

    def test_run_writes_log_and_profile_summary(self, tmp_path):
        code, text, log, _ = self.run_with_telemetry(tmp_path)
        assert code == 0
        assert f"log -> {log} (" in text
        assert "records)" in text
        assert "profile: wall " in text
        assert "health: task_retries=0" in text

    def test_log_file_is_jsonl_with_monotone_seq(self, tmp_path):
        code, _, log, _ = self.run_with_telemetry(tmp_path)
        assert code == 0
        with open(log) as fh:
            records = [json.loads(line) for line in fh]
        assert records
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert all(r["event"] and r["level"] in LEVELS for r in records)
        assert {"dag_scheduler", "task_scheduler", "executor"} <= {
            r["logger"] for r in records
        }
        finished = [r for r in records if r["event"] == "task_finished"]
        assert finished and all(
            {"stage", "partition", "node"} <= set(r) for r in finished
        )

    def test_logs_command_formats_and_tails(self, tmp_path):
        _, _, log, _ = self.run_with_telemetry(tmp_path)
        code, text, _ = run_cli("logs", log, "--tail", "3")
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert all("t=" in line for line in lines)

        code, text, _ = run_cli("logs", log, "--event", "stage_submitted")
        assert code == 0
        assert "stage_submitted" in text
        assert "task_executed" not in text

    def test_logs_rejects_unknown_level(self, tmp_path):
        _, _, log, _ = self.run_with_telemetry(tmp_path)
        code, text, err = run_cli("logs", log, "--level", "LOUD")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_logs_rejects_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text('{"seq": 0}\n{oops\n')
        code, _, err = run_cli("logs", str(bad))
        assert code == 2
        assert "2" in err  # names the offending line number

    def test_health_line_includes_cache_counters(self, tmp_path):
        _, text, _, _ = self.run_with_telemetry(tmp_path)
        assert "hits=" in text
        assert "misses=" in text
        assert "partitions_pruned=" in text

    def test_cache_counters_export_round_trip(self, tmp_path):
        metrics = str(tmp_path / "m.json")
        code, _, _ = run_cli(
            "run", "sql", "--physical-records", "1200", "--parallelism", "8",
            "--max-order", "150", "--cache-path", str(tmp_path / "q.db"),
            "--metrics", metrics,
        )
        assert code == 0
        with open(metrics) as fh:
            snapshot = json.load(fh)
        assert snapshot["counters"]["cache.misses"][0]["value"] >= 1


SQL_FAST = ("sql", "--physical-records", "1200", "--parallelism", "8")


class TestCacheCli:
    def cold_run(self, tmp_path, *extra):
        path = str(tmp_path / "q.db")
        code, text, err = run_cli(
            "run", *SQL_FAST, "--max-order", "150", "--cache-path", path,
            "--metrics", str(tmp_path / "m.json"), *extra,
        )
        assert code == 0, err
        return path, text

    def test_warm_run_hits_and_prunes(self, tmp_path):
        path, cold_text = self.cold_run(tmp_path)
        assert "misses=1" in cold_text
        _, warm_text = self.cold_run(tmp_path)
        assert "hits=1" in warm_text
        assert "partitions_pruned=0" not in warm_text

    def test_cache_stats_and_inspect(self, tmp_path):
        path, _ = self.cold_run(tmp_path)
        code, text, _ = run_cli("cache", "stats", path)
        assert code == 0
        assert "backend: sqlite" in text
        assert "tables: 2" in text  # orders and customers
        code, text, _ = run_cli("cache", "inspect", path)
        assert code == 0
        orders = next(l for l in text.splitlines() if l.startswith("orders "))
        assert " P=8 splits=8/8 " in orders
        assert orders.endswith(" columns=amount,cust_id,order_id,product_id")

    def test_cache_export_and_clear(self, tmp_path):
        path, _ = self.cold_run(tmp_path)
        out_path = str(tmp_path / "dump.json")
        code, text, _ = run_cli("cache", "export", path, "--out", out_path)
        assert code == 0
        with open(out_path) as fh:
            doc = json.load(fh)
        assert doc["backend"] == "sqlite"
        assert [t["table"] for t in doc["tables"]] == ["customers", "orders"]
        code, text, _ = run_cli("cache", "clear", path)
        assert code == 0
        assert text.startswith("cleared 16 zone maps")
        code, text, _ = run_cli("cache", "stats", path)
        assert "tables: 0" in text

    def test_explain_shows_pruning_decisions(self, tmp_path):
        path, _ = self.cold_run(tmp_path)
        code, text, _ = run_cli(
            "explain", *SQL_FAST, "--max-order", "150", "--cache-path", path,
        )
        assert code == 0
        assert "== Partition pruning ==" in text
        assert "pruned via" in text
        # And explain must not poison the cache for later runs.
        _, warm_text = self.cold_run(tmp_path)
        assert "hits=1" in warm_text

    def test_explain_without_cache_matches_run_flags(self, tmp_path):
        code, text, _ = run_cli("explain", *SQL_FAST, "--max-order", "150")
        assert code == 0
        assert "Filter" in text

    def test_no_prune_flag_disables_pruning(self, tmp_path):
        path, _ = self.cold_run(tmp_path)
        _, warm_text = self.cold_run(tmp_path, "--no-prune")
        assert "partitions_pruned=0" in warm_text

    def test_removed_cache_flag_is_not_a_prefix_of_cache_path(self, capsys):
        # `--cache BACKEND` is gone; it must fail, not abbreviate to
        # `--cache-path sqlite` and create a cache file of that name.
        with pytest.raises(SystemExit) as info:
            run_cli("run", *SQL_FAST, "--cache", "sqlite")
        assert info.value.code == 2
        assert "--cache" in capsys.readouterr().err

    def test_cache_cmd_missing_file_one_line_error(self, tmp_path):
        missing = tmp_path / "missing.db"
        code, _, err = run_cli("cache", "stats", str(missing))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not missing.exists()  # inspecting never creates the file

    def test_cache_cmd_unrecognized_file_one_line_error(self, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"what even is this")
        code, _, err = run_cli("cache", "stats", str(junk))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_max_order_rejected_for_non_sql(self):
        code, _, err = run_cli("run", *WC_FAST, "--max-order", "5")
        assert code == 2
        assert err.startswith("error: ")
        assert "--max-order" in err
        assert err.count("\n") == 1
