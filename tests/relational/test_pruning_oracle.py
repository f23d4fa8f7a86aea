"""Partition pruning / zone-map cache bit-identity oracle.

Pruning and the zone-map cache are only allowed to change *which tasks
schedule*, never *what a query returns*: rows must be bit-identical with
pruning on or off, cold or warm, under threaded and process-parallel
execution, AQE, node-loss chaos, and with the logical optimizer
disabled outright.
"""

import json
import os
import subprocess
import sys

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import LedgerCollector, MetricsRegistry
from repro.relational import RangeLayout, Table, col, lit
from repro.workloads import SQLWorkload

PER_SPLIT = 25
N_SPLITS = 8


def make_ctx(**conf):
    conf.setdefault("default_parallelism", N_SPLITS)
    return AnalyticsContext(
        uniform_cluster(n_workers=4, cores=2),
        EngineConf(**conf),
        metrics_registry=MetricsRegistry(),
    )


def id_source(ctx, version="v1"):
    """Splits hold contiguous id ranges: split i = [i*25, (i+1)*25)."""

    def gen(split, splits):
        lo = (split * PER_SPLIT * N_SPLITS) // splits
        hi = ((split + 1) * PER_SPLIT * N_SPLITS) // splits
        return [(i, i * 2) for i in range(lo, hi)]

    return ctx.source(gen, N_SPLITS, op_name="ids", version=version)


def run_query(ctx, limit=40, layout=None, optimize=True):
    # optimize=True pins the prune rewrite under test; the opt-disabled
    # oracle passes None to defer to EngineConf.logical_optimizer.
    table = Table.from_rdd(
        id_source(ctx), ["id", "val"], layout=layout, optimize=optimize
    )
    return table.where(col("id") < lit(limit)).collect()


def pruned_total(ctx):
    return ctx.obs.metrics.counter_total("scan.partitions_pruned")


class TestInContextPruning:
    def test_second_query_prunes_and_matches_first(self):
        ctx = make_ctx()
        cold = run_query(ctx)
        assert pruned_total(ctx) == 0  # no zone maps yet
        warm = run_query(ctx)
        assert pruned_total(ctx) > 0  # zone maps collected by the cold run
        assert warm == cold
        ctx.close()

    def test_matches_pruning_disabled(self):
        ctx_on = make_ctx()
        run_query(ctx_on)
        warm = run_query(ctx_on)
        ctx_off = make_ctx(partition_pruning=False)
        run_query(ctx_off)
        unpruned = run_query(ctx_off)
        assert pruned_total(ctx_off) == 0
        assert warm == unpruned
        ctx_on.close()
        ctx_off.close()

    def test_range_layout_prunes_cold(self):
        bounds = tuple(PER_SPLIT * (i + 1) - 1 for i in range(N_SPLITS - 1))
        layout = RangeLayout(column="id", bounds=bounds)
        ctx = make_ctx()
        rows = run_query(ctx, layout=layout)
        assert pruned_total(ctx) > 0  # pruned with no prior run
        plain = make_ctx()
        assert rows == run_query(plain)
        ctx.close()
        plain.close()

    def test_empty_result_still_schedules_one_task(self):
        ctx = make_ctx()
        run_query(ctx)
        assert run_query(ctx, limit=-1) == []
        ctx.close()

    def test_nan_rows_never_pruned_away(self):
        """Float columns with NaN: warm pruning must keep the partition
        holding the finite match (NaN used to poison the zone-map
        bounds, pruning the partition and dropping its 5.0 row)."""

        def gen(split, splits):
            if split == 0:
                return [(float("nan"), 0), (5.0, 1)]
            return [(float(1000 + split), split)]

        def query(ctx):
            rdd = ctx.source(gen, 4, op_name="nans", version="v1")
            table = Table.from_rdd(rdd, ["x", "tag"], optimize=True)
            # NaN rows fail the filter, so results are NaN-free and
            # plainly comparable.
            return table.where(col("x") < lit(100.0)).collect()

        ctx = make_ctx()
        cold = query(ctx)
        warm = query(ctx)  # zone maps collected: splits 1-3 prunable
        assert pruned_total(ctx) > 0
        off = make_ctx(partition_pruning=False)
        query(off)
        base = query(off)
        assert cold == warm == base == [(5.0, 1)]
        ctx.close()
        off.close()


class TestExplainDryRun:
    def test_explain_moves_no_counters_or_cache_state(self, tmp_path):
        path = tmp_path / "q.db"
        cold = make_ctx(result_cache="sqlite", result_cache_path=str(path))
        run_query(cold)
        cold.close()  # writes the scan's zone maps
        stored = path.read_bytes()

        ctx = make_ctx(result_cache="sqlite", result_cache_path=str(path))
        table = Table.from_rdd(id_source(ctx), ["id", "val"], optimize=True)
        text = table.where(col("id") < lit(40)).explain()
        # Explain reports the full decision, from the file's zone maps...
        assert "scan 2/8 partitions (pruned via zone-map)" in text
        # ...but as a pure observer: no hit/miss counted, no pruned
        # counter moved, and closing writes nothing back.
        assert (ctx.query_cache.hits, ctx.query_cache.misses) == (0, 0)
        assert pruned_total(ctx) == 0
        assert ctx.obs.metrics.counter_total("cache.hits") == 0
        assert ctx.obs.metrics.counter_total("cache.misses") == 0
        ctx.close()
        assert path.read_bytes() == stored


class TestCacheFile:
    """The file keeps zone maps, so a later context prunes any predicate."""

    def test_later_context_prunes_an_unseen_predicate(self, tmp_path):
        path = str(tmp_path / "q.db")
        first = make_ctx(result_cache="sqlite", result_cache_path=path)
        run_query(first, limit=40)
        first.close()
        later = make_ctx(result_cache="sqlite", result_cache_path=path)
        rows = run_query(later, limit=41)
        later.close()
        assert pruned_total(later) == 6  # splits 2-7 hold ids >= 50
        assert later.query_cache.hits == 1
        assert sorted(rows) == [(i, 2 * i) for i in range(41)]

    def test_pruning_off_leaves_the_file_unchanged(self, tmp_path):
        path = tmp_path / "q.db"
        cold = make_ctx(result_cache="sqlite", result_cache_path=str(path))
        run_query(cold)
        cold.close()
        stored = path.read_bytes()
        off = make_ctx(partition_pruning=False, result_cache="sqlite",
                       result_cache_path=str(path))
        run_query(off, limit=41, optimize=None)
        off.close()
        assert off.zone_maps.tables() == []  # nothing collected...
        assert (off.query_cache.hits, off.query_cache.misses) == (0, 0)
        assert path.read_bytes() == stored  # ...read or written

    def test_later_process_prunes_an_unseen_predicate(self, tmp_path):
        script = ID_QUERY.format(root=ROOT, path=str(tmp_path / "q.db"))
        results = []
        for limit in (40, 41):
            out = subprocess.run(
                [sys.executable, "-c", script, str(limit)],
                capture_output=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr.decode()
            results.append(json.loads(out.stdout))
        assert results == [
            {"pruned": 0, "rows": 40}, {"pruned": 6, "rows": 41}
        ]


class TestExecutionModes:
    def warm_fingerprint(self, optimize=True, **conf):
        ctx = make_ctx(**conf)
        cold = run_query(ctx, optimize=optimize)
        warm = run_query(ctx, optimize=optimize)
        now = ctx.now
        ctx.close()
        return cold, warm, now

    def test_threads4_identical_to_serial(self):
        serial = self.warm_fingerprint()
        threaded = self.warm_fingerprint(physical_parallelism=4)
        assert threaded == serial

    def test_aqe_rows_identical(self):
        cold, warm, _ = self.warm_fingerprint(adaptive_execution=True)
        base_cold, base_warm, _ = self.warm_fingerprint()
        assert cold == base_cold
        assert warm == base_warm

    def test_node_loss_chaos_rows_identical(self):
        cold, warm, _ = self.warm_fingerprint(
            node_failure_times={"w0": 0.01}, node_recovery_delay=5.0
        )
        base_cold, base_warm, _ = self.warm_fingerprint()
        assert cold == base_cold
        assert warm == base_warm

    def test_logical_opt_disabled(self):
        # optimize=None honors the conf: raw lowering, no pruning —
        # rows must still match the optimized-and-pruned baseline.
        cold, warm, _ = self.warm_fingerprint(
            optimize=None, logical_optimizer=False
        )
        base_cold, base_warm, _ = self.warm_fingerprint()
        assert cold == base_cold
        assert warm == base_warm


ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

ID_QUERY = """
import json, sys
sys.path[:0] = [{root!r} + "/src", {root!r}]
from tests.relational.test_pruning_oracle import make_ctx, pruned_total, run_query

ctx = make_ctx(result_cache="sqlite", result_cache_path={path!r})
rows = run_query(ctx, limit=int(sys.argv[1]))
ctx.close()
print(json.dumps({{"pruned": pruned_total(ctx), "rows": len(rows)}}))
"""

WORKER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.workloads import SQLWorkload

ctx = AnalyticsContext(
    uniform_cluster(n_workers=4, cores=2),
    EngineConf(default_parallelism=8, result_cache="sqlite",
               result_cache_path={path!r}),
)
wl = SQLWorkload(physical_records=1200, max_order=150, optimize=True)
result = wl.run(ctx, scale=0.2)
hits = ctx.query_cache.hits
ctx.close()
print(json.dumps({{"rows": repr(result.value), "hits": hits}}))
"""


class TestProcessParallelism:
    def test_procs4_share_a_sqlite_cache(self, tmp_path):
        """Four concurrent processes over one warm sqlite cache all
        return the serial answer (and actually hit the cache)."""
        path = str(tmp_path / "shared.sqlite")
        script = WORKER.format(src=os.path.join(ROOT, "src"), path=path)

        # Seed the cache with one in-process cold run.
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=4, cores=2),
            EngineConf(default_parallelism=8, result_cache="sqlite",
                       result_cache_path=path),
        )
        workload = SQLWorkload(physical_records=1200, max_order=150,
                               optimize=True)
        serial = workload.run(ctx, scale=0.2)
        ctx.close()

        env = dict(os.environ, PYTHONHASHSEED="0")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            for _ in range(4)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            outputs.append(json.loads(out.decode()))
        for payload in outputs:
            assert payload["rows"] == repr(serial.value)
            assert payload["hits"] >= 1  # warm: the seeded entry was used


class TestSQLWorkloadWarmRuns:
    def run_sql(self, tmp_path, tag, **wl_kwargs):
        ctx = AnalyticsContext(
            uniform_cluster(n_workers=4, cores=2),
            EngineConf(
                default_parallelism=16,
                result_cache="sqlite",
                result_cache_path=str(tmp_path / "q.db"),
            ),
            metrics_registry=MetricsRegistry(),
        )
        collector = LedgerCollector().attach(ctx)
        workload = SQLWorkload(physical_records=1600, max_order=200,
                               optimize=True, **wl_kwargs)
        result = workload.run(ctx, scale=0.2)
        collector.detach()
        stats = {
            "rows": result.value,
            "now": ctx.now,
            "scan_tasks": sum(
                s["num_partitions"] for s in collector.stages
            ),
            "pruned": sum(s["pruned_partitions"] for s in collector.stages),
            "hits": ctx.query_cache.hits,
            "ledger_cache": collector.body()["partition_cache"],
        }
        ctx.close()
        return stats

    def test_warm_prunes_and_speeds_up(self, tmp_path):
        cold = self.run_sql(tmp_path, "cold")
        warm = self.run_sql(tmp_path, "warm")
        assert warm["rows"] == cold["rows"]
        assert cold["hits"] == 0 and warm["hits"] == 1
        assert cold["pruned"] == 0 and warm["pruned"] > 0
        # Strictly fewer partitions scheduled, strictly faster.
        assert warm["scan_tasks"] < cold["scan_tasks"]
        assert warm["now"] < cold["now"]
        # The ledger surfaces both the cache stats and zone-map coverage.
        assert warm["ledger_cache"]["cache"]["hits"] == 1
        assert any(
            t["table"] == "orders"
            for t in warm["ledger_cache"]["zone_maps"]
        )

    def test_hash_layout_cannot_prune(self, tmp_path):
        cold = self.run_sql(tmp_path, "cold", orders_layout="hash")
        warm = self.run_sql(tmp_path, "warm", orders_layout="hash")
        assert warm["rows"] == cold["rows"]
        assert warm["hits"] == 1  # the cache still hits...
        assert warm["pruned"] == 0  # ...but scrambled ids prove nothing
