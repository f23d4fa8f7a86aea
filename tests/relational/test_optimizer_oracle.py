"""Optimized vs unoptimized lowering must collect identical rows.

The rewrite batches are only allowed to change *how* a query runs
(fewer stages, narrower shuffles), never *what* it returns — CI gates
on the same property over the full workloads. These tests drive the
property on randomized inputs, under threaded physical execution, and
through a node-loss recovery.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.relational import Table, avg, col, count_, sum_


def fresh_ctx(**conf):
    return AnalyticsContext(
        uniform_cluster(n_workers=4, cores=2),
        EngineConf(default_parallelism=4, **conf),
    )


rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),          # key
        st.integers(-50, 50),       # value
        st.sampled_from("abc"),     # category
    ),
    min_size=0,
    max_size=40,
)

RIGHT = [(k, k % 3) for k in range(6)]


def build_query(ctx, rows, threshold, optimize):
    """Project + filter + hand-tuned repartition + join + agg + sort:
    every rewrite rule gets something to chew on."""
    t = Table.from_rows(ctx, rows, ["k", "v", "cat"], 3, optimize=optimize)
    r = Table.from_rows(ctx, RIGHT, ["k", "grp"], 2, optimize=optimize)
    return (
        t.select("k", "v", "cat")
        .where(col("v") > threshold)
        .join(r.repartition(4), on="k")
        .group_by("grp")
        .agg(sum_(col("v")).alias("total"), count_(col("v")), avg(col("v")))
        .order_by("grp")
    )


def run_both(rows, threshold, **conf):
    out = []
    for optimize in (True, False):
        ctx = fresh_ctx(**conf)
        out.append(build_query(ctx, rows, threshold, optimize).collect())
    return out


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, threshold=st.integers(-50, 50))
def test_optimized_matches_unoptimized(rows, threshold):
    opt, raw = run_both(rows, threshold)
    assert opt == raw  # bit-identical, order included


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, threshold=st.integers(-50, 50))
def test_identical_under_threaded_execution(rows, threshold):
    opt, raw = run_both(rows, threshold, physical_parallelism=4)
    serial_opt, _ = run_both(rows, threshold)
    assert opt == raw
    assert opt == serial_opt


def test_identical_through_node_loss():
    rows = [(i % 5, i, "abc"[i % 3]) for i in range(60)]
    chaos = dict(
        node_failure_times={"w0": 0.2},
        node_recovery_delay=5.0,
    )
    opt, raw = run_both(rows, 3, **chaos)
    clean_opt, _ = run_both(rows, 3)
    assert opt == raw
    assert opt == clean_opt


def test_optimizer_removes_stages_and_records_hits():
    rows = [(i % 5, i, "abc"[i % 3]) for i in range(60)]

    def run(optimize):
        ctx = fresh_ctx()
        build_query(ctx, rows, 3, optimize).collect()
        stages = sum(len(j.stages) for j in ctx.job_stats)
        return stages, list(ctx.plan_events)

    opt_stages, opt_events = run(True)
    raw_stages, raw_events = run(False)
    assert opt_stages < raw_stages
    assert raw_events == []
    hits = {}
    for event in opt_events:
        for name, n in event["rule_hits"].items():
            hits[name] = hits.get(name, 0) + n
    assert sum(hits.values()) > 0
    assert hits.get("DropRepartition", 0) >= 1


def test_conf_flag_controls_default():
    ctx = fresh_ctx(logical_optimizer=False)
    t = Table.from_rows(ctx, [(1, 2)], ["a", "b"], 1)
    t.select("a").collect()
    assert ctx.plan_events == []

    ctx = fresh_ctx()
    assert ctx.conf.logical_optimizer is True
    t = Table.from_rows(ctx, [(1, 2)], ["a", "b"], 1)
    t.select("a", "b").select("a").collect()
    assert len(ctx.plan_events) == 1
