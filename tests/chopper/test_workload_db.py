"""Tests for the workload DB: observations, DAG summaries, models."""

import pytest

from repro.chopper.model import StagePerfModel
from repro.chopper.stats import RunRecord, StageObservation
from repro.chopper.workload_db import WorkloadDB, WorkloadDag
from repro.common.errors import ModelError
from tests.chopper.test_model import synth_obs


def make_obs(sig, order, d=1e9, p=300, kind="hash", **kw):
    return StageObservation(
        signature=sig, kind=kw.pop("stage_kind", "result"),
        partitioner_kind=kind, input_bytes=d, num_partitions=p,
        duration=10.0, shuffle_bytes=100.0, order=order, **kw,
    )


def make_run(workload="wl", obs=None, input_bytes=1e9):
    return RunRecord(
        workload=workload, input_bytes=input_bytes,
        observations=obs or [make_obs("a", 0), make_obs("b", 1)],
    )


class TestObservations:
    def test_add_and_filter_by_signature(self):
        db = WorkloadDB()
        db.add_run(make_run())
        assert len(db.observations("wl")) == 2
        assert len(db.observations("wl", signature="a")) == 1

    def test_filter_by_partitioner(self):
        db = WorkloadDB()
        db.add_run(make_run(obs=[
            make_obs("a", 0, kind="hash"),
            make_obs("a", 1, kind="range"),
            make_obs("a", 2, kind=None),
        ]))
        hash_rows = db.observations("wl", partitioner_kind="hash")
        # None-kind rows are included for both kinds.
        assert len(hash_rows) == 2

    def test_unknown_workload_empty(self):
        assert WorkloadDB().observations("ghost") == []

    def test_workloads_listing(self):
        db = WorkloadDB()
        db.add_run(make_run("b"))
        db.add_run(make_run("a"))
        assert db.workloads() == ["a", "b"]


class TestDag:
    def test_from_run_collapses_repeats(self):
        record = make_run(obs=[
            make_obs("load", 0, d=1e9),
            make_obs("iter", 1, d=5e8),
            make_obs("iter", 2, d=5e8),
            make_obs("iter", 3, d=5e8),
        ])
        dag = WorkloadDag.from_run(record)
        assert dag.signatures() == ["load", "iter"]
        assert dag.stage("iter").repeats == 3
        assert dag.stage("iter").input_fraction == pytest.approx(0.5)

    def test_input_fraction(self):
        record = make_run(obs=[make_obs("a", 0, d=2.5e8)], input_bytes=1e9)
        dag = WorkloadDag.from_run(record)
        assert dag.stage("a").input_fraction == pytest.approx(0.25)

    def test_unknown_stage_raises(self):
        with pytest.raises(ModelError):
            WorkloadDag().stage("missing")

    def test_db_requires_dag(self):
        with pytest.raises(ModelError):
            WorkloadDB().dag("wl")

    def test_observed_scheme_recorded(self):
        record = make_run(obs=[make_obs("a", 0, p=123, kind="range")])
        dag = WorkloadDag.from_run(record)
        assert dag.stage("a").observed_partitioner_kind == "range"
        assert dag.stage("a").observed_num_partitions == 123


class TestModels:
    def _model(self):
        return StagePerfModel.fit(
            synth_obs([1e9, 2e9], [100, 300], lambda d, p: 1.0, lambda d, p: 0.0)
        )

    def test_set_get(self):
        db = WorkloadDB()
        db.set_model("wl", "a", "hash", self._model())
        assert db.has_model("wl", "a", "hash")
        assert not db.has_model("wl", "a", "range")
        assert db.model("wl", "a", "hash").n_samples == 4

    def test_missing_model_raises(self):
        with pytest.raises(ModelError):
            WorkloadDB().model("wl", "a", "hash")

