"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import metrics
import run
import tracing
import workloads

import repro.common.sizing
import repro.engine.executor
import repro.engine.rdd
from repro.engine.partitioner import RangePartitioner
from repro.engine.storage import SpillManager

REPO = Path(__file__).resolve().parent.parent.parent


def test_manifest_lists_exactly_what_the_harness_emits():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == run.WORKLOADS
    assert manifest["run_seconds"] == run.RUN_SECONDS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == metrics.GATED
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        spec[:3] for spec in metrics.PER_LAYER
    ]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))


def test_self_time_is_span_minus_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 7.0, 0],
    ]
    layers = tracing.aggregate(spans)
    assert layers["root"] == tracing.Layer(1, 10.0, 5.0)
    assert layers["a"] == tracing.Layer(2, 5.0, 4.0)
    assert layers["b"] == tracing.Layer(1, 1.0, 1.0)
    assert sum(layer.self_s for layer in layers.values()) == 10.0


def test_tracer_records_parent_links_and_counts():
    tracer = tracing.SpanTracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        lambda counts, args, result: counts.__setitem__("seen", result))
    outer = tracer.wrap("outer", lambda: inner(1))
    assert outer() == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counts["seen"] == 2
    assert all(s[2] >= s[1] for s in tracer.spans)


def _repro_globals():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for attr, value in list(vars(module).items())
    }


def test_wrappers_reach_every_import_site_and_uninstall_restores_identity():
    tracing.import_all()
    before = _repro_globals()
    methods = {
        "range": RangePartitioner.__dict__["from_sample"],
        "admit": SpillManager.__dict__["admit"],
    }
    original = repro.common.sizing.estimate_partition_size

    patches = tracing.install(tracing.SpanTracer())
    try:
        # ``from repro.common.sizing import estimate_partition_size`` in
        # rdd.py made a second binding; both must now be the same wrapper.
        alias = repro.engine.rdd.estimate_partition_size
        assert alias is repro.common.sizing.estimate_partition_size
        assert alias is not original and alias.__wrapped__ is original
        assert repro.engine.executor.sizes_array.__wrapped__ is before[
            ("repro.common.sizing", "sizes_array")
        ]
        assert isinstance(RangePartitioner.__dict__["from_sample"], classmethod)
        assert SpillManager.__dict__["admit"] is not methods["admit"]
    finally:
        tracing.uninstall(patches)

    after = _repro_globals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert RangePartitioner.__dict__["from_sample"] is methods["range"]
    assert SpillManager.__dict__["admit"] is methods["admit"]


# span -> (workload predicted to use it, workload that must bypass it)
FIRES = {
    "engine.storage.spill_write": ("kmeans_spill", "kmeans_iter"),
    "engine.storage.spill_read": ("kmeans_spill", "kmeans_iter"),
    "engine.storage.get": ("kmeans_iter", "wordcount_shuffle"),
    "engine.combine": ("wordcount_shuffle", "sql_repeated"),
    "engine.shuffle.fetch": ("wordcount_shuffle", None),
    "engine.partitioner.partition_many": ("wordcount_shuffle", None),
    "common.sizing": ("wordcount_shuffle", None),
    "workloads.datagen": ("wordcount_shuffle", None),
    "engine.executor": ("kmeans_iter", None),
    "engine.costmodel": ("kmeans_iter", None),
    "simul.engine": ("kmeans_iter", None),
    "engine.dag_scheduler": ("kmeans_iter", None),
    "engine.partitioner.range_sample": ("sql_repeated", "wordcount_shuffle"),
    "relational.rules": ("sql_repeated", "kmeans_iter"),
    "relational.table.lower": ("sql_repeated", "kmeans_iter"),
    "relational.stats": ("sql_repeated", "wordcount_shuffle"),
    "relational.cache.lookup": ("sql_repeated", "chopper_tune"),
    "relational.cache.flush": ("sql_repeated", "chopper_tune"),
    "chopper.runner.profile": ("chopper_tune", "sql_repeated"),
    "chopper.runner.train": ("chopper_tune", "sql_repeated"),
    "chopper.runner.optimize": ("chopper_tune", "sql_repeated"),
    "chopper.runner.compare": ("chopper_tune", "sql_repeated"),
    "chopper.model": ("chopper_tune", "sql_repeated"),
    "chopper.global_opt": ("chopper_tune", "sql_repeated"),
    "chopper.advisor": ("chopper_tune", "sql_repeated"),
    "chopper.stats": ("chopper_tune", "sql_repeated"),
}


@pytest.fixture(scope="module")
def smoke_layers():
    """One traced smoke-size iteration of every workload."""
    layers = {}
    for name, cls in workloads.BENCHES.items():
        bench = cls(seed=7, smoke=True)
        bench.setup()
        tracer = tracing.SpanTracer()
        patches = tracing.install(tracer)
        try:
            outcome = bench.iterate(lambda fn: tracer.wrap(tracing.ROOT, fn))
        finally:
            tracing.uninstall(patches)
        assert outcome.errors == [], (name, outcome.errors)
        layers[name] = (tracing.aggregate(tracer.spans), tracer.counts, outcome)
    return layers


@pytest.mark.parametrize("span", sorted(FIRES))
def test_span_fires_where_predicted_and_not_on_its_bypass_twin(smoke_layers, span):
    fires_on, zero_on = FIRES[span]
    assert smoke_layers[fires_on][0][span].calls > 0
    if zero_on is not None:
        assert span not in smoke_layers[zero_on][0]


def test_every_layer_metric_is_emitted_and_coverage_is_high(smoke_layers):
    for name, (layers, counts, outcome) in smoke_layers.items():
        values = metrics.layer_metrics(layers, counts, outcome.facts, {}, 1)
        assert list(values) == [spec[0] for spec in metrics.PER_LAYER]
        assert values["bench.layer_coverage_pct"] >= 90.0, name
    spill = metrics.layer_metrics(*smoke_layers["kmeans_spill"][:2],
                                  smoke_layers["kmeans_spill"][2].facts, {}, 1)
    resident = metrics.layer_metrics(*smoke_layers["kmeans_iter"][:2],
                                     smoke_layers["kmeans_iter"][2].facts, {}, 1)
    assert spill["engine.storage.spill_events"] > 0
    assert spill["engine.storage.readbacks_per_spill"] > 0
    for key in ("spill_events", "spilled_bytes", "readbacks", "spill_write_s", "spill_read_s"):
        assert resident[f"engine.storage.{key}"] == 0


def test_compare_verdicts():
    assert run.verdict("wall_s", 1.0, 1.05, 0.02) == "ok"
    assert run.verdict("wall_s", 1.0, 1.5, 0.02) == "worse"
    assert run.verdict("wall_s", 1.0, 1.05, 0.9) == "unresolved"
    assert run.verdict("records_per_s", 100.0, 50.0, 0.0) == "worse"
    assert run.verdict("records_per_s", 100.0, 150.0, 0.0) == "ok"
    assert run.verdict("sim_s", 1.0, 1.0, 0.0) == "ok"
    assert run.verdict("sim_shuffle_gb", 1.0, 1.0 + 1e-12, 0.0) == "changed"
    assert run.verdict("error_rate", 0.0, 0.25, 0.0) == "worse"
