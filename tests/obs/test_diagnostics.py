"""Tests for the ledger analysis passes: skew, stragglers, diff."""

from __future__ import annotations

import pytest

from repro.obs.diagnostics import (
    detect_stragglers,
    diff_runs,
    gini,
    max_mean,
    partition_skew,
)


def make_stage(
    stage_run_id=0,
    name="stage",
    durations=(1.0, 1.0, 1.0, 1.0),
    input_bytes=None,
    partition_bytes=(),
    attempt=0,
):
    n = len(durations)
    if input_bytes is None:
        input_bytes = [100.0] * n
    return {
        "stage_run_id": stage_run_id,
        "name": name,
        "signature": f"sig-{name}",
        "kind": "shuffle_map" if partition_bytes else "result",
        "attempt": attempt,
        "num_partitions": n,
        "tasks": {
            "count": n,
            "index": list(range(n)),
            "node": [f"w{i % 3}" for i in range(n)],
            "duration": list(durations),
            "attempt": [0] * n,
            "speculative": [False] * n,
            "input_bytes": list(input_bytes),
            "records_out": [10] * n,
        },
        "output_partition_bytes": list(partition_bytes),
    }


def make_entry(stages, run_id="0000-w-run", wall_clock=10.0, **extra):
    entry = {
        "run_id": run_id,
        "workload": "w",
        "label": "run",
        "wall_clock": wall_clock,
        "stages": stages,
        "shuffle": {"local_bytes": 0.0, "remote_bytes": 0.0,
                    "write_bytes": 0.0},
    }
    entry.update(extra)
    return entry


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_total_concentration_approaches_one(self):
        assert gini([0.0] * 99 + [100.0]) == pytest.approx(0.99)

    def test_known_value(self):
        # G of [1, 2, 3, 4] = 2*(1+4+9+16)/(4*10) - 5/4 = 0.25
        assert gini([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25)

    def test_order_invariant(self):
        assert gini([4.0, 1.0, 3.0, 2.0]) == gini([1.0, 2.0, 3.0, 4.0])

    def test_degenerate_inputs_read_uniform(self):
        assert gini([]) == 0.0
        assert gini([7.0]) == 0.0
        assert gini([0.0, 0.0]) == 0.0


class TestMaxMean:
    def test_balanced_is_one(self):
        assert max_mean([2.0, 2.0, 2.0]) == 1.0

    def test_hot_partition(self):
        assert max_mean([1.0, 1.0, 1.0, 5.0]) == pytest.approx(2.5)

    def test_empty_is_one(self):
        assert max_mean([]) == 1.0


class TestPartitionSkew:
    def test_balanced_run_not_flagged(self):
        entry = make_entry([make_stage(partition_bytes=[100.0] * 6)])
        assert not any(f.flagged for f in partition_skew(entry))

    def test_hot_partition_flagged_on_bytes(self):
        entry = make_entry(
            [make_stage(partition_bytes=[10.0, 10.0, 10.0, 10.0, 10.0, 500.0])]
        )
        flagged = [f for f in partition_skew(entry) if f.flagged]
        assert any(f.metric == "partition_bytes" for f in flagged)
        byte_finding = next(
            f for f in flagged if f.metric == "partition_bytes"
        )
        assert byte_finding.max_mean > 2.0
        assert byte_finding.n == 6

    def test_task_duration_skew_flagged(self):
        entry = make_entry(
            [make_stage(durations=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0))]
        )
        flagged = [f for f in partition_skew(entry) if f.flagged]
        assert any(f.metric == "task_duration" for f in flagged)

    def test_single_value_distributions_skipped(self):
        entry = make_entry([make_stage(durations=(1.0,), input_bytes=[1.0])])
        assert partition_skew(entry) == []

    def test_gini_catches_broad_imbalance(self):
        # Half the partitions empty: max/mean = 2 (not > 2.0) but Gini
        # flags the broad imbalance.
        entry = make_entry(
            [make_stage(partition_bytes=[0.0] * 5 + [10.0] * 5)]
        )
        finding = next(
            f for f in partition_skew(entry) if f.metric == "partition_bytes"
        )
        assert finding.max_mean == pytest.approx(2.0)
        assert finding.gini == pytest.approx(0.5)
        assert finding.flagged


class TestStragglers:
    def test_uniform_durations_quiet(self):
        entry = make_entry([make_stage(durations=(1.0,) * 8)])
        assert detect_stragglers(entry) == []

    def test_tail_task_detected_with_quantiles(self):
        durations = (1.0,) * 9 + (5.0,)
        entry = make_entry([make_stage(durations=durations)])
        findings = detect_stragglers(entry)
        assert len(findings) == 1
        f = findings[0]
        assert f.p50 == pytest.approx(1.0)
        assert f.p99 <= 5.0
        assert [o["task_index"] for o in f.outliers] == [9]
        assert f.outliers[0]["duration"] == 5.0

    def test_tight_distribution_not_flagged_by_multiplier_alone(self):
        # max is 1.3x the median: below the 2x threshold.
        entry = make_entry(
            [make_stage(durations=(1.0, 1.1, 1.0, 1.2, 1.1, 1.3))]
        )
        assert detect_stragglers(entry) == []

    def test_small_stages_skipped(self):
        entry = make_entry([make_stage(durations=(1.0, 99.0))])
        assert detect_stragglers(entry, min_tasks=4) == []

    def test_one_and_two_task_stages_never_flagged(self):
        # Regression: with 1-2 samples the quantiles collapse onto the
        # samples, so a permissive min_tasks used to flag any 2-task
        # stage whose halves differ. The detector now enforces an
        # effective minimum of 3 tasks regardless of min_tasks.
        for durations in [(99.0,), (1.0, 99.0), (0.5, 50.0)]:
            entry = make_entry([make_stage(durations=durations)])
            assert detect_stragglers(entry, min_tasks=1) == []
            assert detect_stragglers(
                entry, multiplier=1.0, min_tasks=1
            ) == []

    def test_three_task_stage_still_eligible(self):
        # The guard must not swallow genuine 3+-task stragglers.
        entry = make_entry([make_stage(durations=(1.0, 1.0, 9.0))])
        assert detect_stragglers(entry, min_tasks=1) != []
        entry = make_entry([make_stage(durations=(1.0,) * 19 + (9.0,))])
        assert detect_stragglers(entry) != []

    def test_outliers_sorted_worst_first(self):
        # Enough ordinary tasks that p95 sits below both tail tasks.
        durations = (1.0,) * 30 + (4.0, 8.0)
        entry = make_entry([make_stage(durations=durations)])
        outliers = detect_stragglers(entry)[0].outliers
        assert [o["duration"] for o in outliers] == [8.0, 4.0]


def timed_entry(run_id, wall, shuffle_write=100.0):
    return make_entry(
        [],
        run_id=run_id,
        wall_clock=wall,
        shuffle={"local_bytes": 30.0, "remote_bytes": 20.0,
                 "write_bytes": shuffle_write},
    )


class TestDiffRuns:
    def test_identical_runs_ok(self):
        a = timed_entry("0000-w-a", 10.0)
        b = timed_entry("0001-w-b", 10.0)
        diff = diff_runs(a, b)
        assert diff.ok
        assert diff.time_delta == 0.0
        assert diff.regressions == []

    def test_improvement_never_flags(self):
        diff = diff_runs(
            timed_entry("a", 10.0, 200.0), timed_entry("b", 5.0, 50.0)
        )
        assert diff.ok
        assert diff.time_delta == pytest.approx(-0.5)

    def test_wall_clock_regression_beyond_threshold_flags(self):
        diff = diff_runs(timed_entry("a", 10.0), timed_entry("b", 12.5))
        assert not diff.ok
        assert "wall clock" in diff.regressions[0]

    def test_regression_within_threshold_ok(self):
        diff = diff_runs(timed_entry("a", 10.0), timed_entry("b", 11.9))
        assert diff.ok

    def test_shuffle_regression_flags(self):
        diff = diff_runs(
            timed_entry("a", 10.0, 100.0), timed_entry("b", 10.0, 150.0)
        )
        assert not diff.ok
        assert "shuffle" in diff.regressions[0]

    def test_shuffle_threshold_defaults_to_time_threshold(self):
        a = timed_entry("a", 10.0, 100.0)
        b = timed_entry("b", 10.0, 130.0)
        assert not diff_runs(a, b, time_threshold=0.2).ok
        assert diff_runs(a, b, time_threshold=0.4).ok

    def test_shuffle_uses_max_of_read_and_write(self):
        # read = 50, write = 100 -> total is the max (the paper's metric).
        diff = diff_runs(timed_entry("a", 10.0), timed_entry("b", 10.0))
        assert diff.shuffle_a == 100.0

    def test_zero_baseline_never_divides(self):
        a = make_entry(
            [],
            run_id="a",
            wall_clock=0.0,
            shuffle={"local_bytes": 0.0, "remote_bytes": 0.0,
                     "write_bytes": 0.0},
        )
        diff = diff_runs(a, timed_entry("b", 5.0))
        assert diff.time_delta == 0.0
        assert diff.shuffle_delta == 0.0
        assert diff.ok

    def test_to_dict_round_trips(self):
        diff = diff_runs(timed_entry("a", 10.0), timed_entry("b", 12.5))
        payload = diff.to_dict()
        assert payload["ok"] is False
        assert payload["run_a"] == "a"
