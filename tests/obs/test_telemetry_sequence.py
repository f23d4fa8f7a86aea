"""Sequence guard: what the engine reports, in what order, pinned as literals.

Seven runs that between them reach every fact the engine emits (node loss
with recovery, without and with locality preferences, an AQE re-plan
plus a range switch, spill under a memory budget, speculation under task
failures, threaded task bodies, a pruned and cached SQL query), each
with a tracer, an event log, a registry and a ledger collector attached.
Pinned per run: the ``(logger, event)`` sequence of the log and the
``(cat, name)`` sequence of the trace (as per-kind counts plus a digest
of the order), digests of the full records and spans, every instrument
series with its value, and the ledger body's outcome / chaos / AQE /
spill rows. The literals were recorded from the commit before the
engine's reporting moved behind ``ctx.obs.event`` (``chaos_local``: from
the commit before dispatch read a per-node index of queued tasks), so a
change to how a fact is routed or a task placed shows here as a changed
artifact.

``scheduler.queue_wait_seconds`` is pinned by sample count only: its
values are what ``tests/engine/test_scheduling.py`` pins.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.partitioner import HashPartitioner
from repro.obs import EventLog, LedgerCollector, MetricsRegistry, Tracer
from repro.workloads import KMeansWorkload, SQLWorkload
from tests.conftest import quiet_cost
from tests.engine.test_speculation import straggler_cluster

QUIET = quiet_cost()
# Half the records carry key 0 (AQE splits and coalesces the identity
# shuffle); four fifths do in the sorted set (its sampled range bounds
# leave one partition hot enough for the switch).
SKEWED = [((i % 40) if i % 2 else 0, i) for i in range(12000)]
SORT_SKEWED = [((i % 40) if i % 5 == 0 else 0, i) for i in range(12000)]


def shuffle_job(ctx, records=8000, maps=8):
    pairs = ctx.parallelize([(i % 13, 1) for i in range(records)], maps)
    return pairs.reduce_by_key(lambda a, b: a + b, 6).collect_as_map()


class NoAdvice:
    def rewrite(self, final_rdd, ctx):
        pass


def advised_shuffle_job(ctx):
    ctx.set_advisor(NoAdvice())  # the rewrite is reported, whatever it does
    return shuffle_job(ctx)


def aqe_jobs(ctx):
    ctx.parallelize(SKEWED, 8).partition_by(HashPartitioner(16)).values().collect()
    ctx.parallelize(SORT_SKEWED, 8).sort_by_key().collect()


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sequence(kinds):
    """Per-kind counts (readable when they move) + a digest of the order."""
    return {"counts": sorted(Counter(kinds).items()), "order": digest(kinds)}


def series(registry):
    flat = {}
    for family, instruments in registry.snapshot().items():
        for name, rows in instruments.items():
            for row in rows:
                labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
                key = f"{name}{{{labels}}}" if labels else name
                if family != "histograms":
                    flat[key] = row["value"]
                elif name == "scheduler.queue_wait_seconds":
                    flat[key] = row["count"]
                else:
                    flat[key] = (row["count"], row["total"])
    return sorted(flat.items())


def small_cluster():
    return uniform_cluster(n_workers=3, cores=4)


def observe(*runs, cluster=small_cluster, **conf):
    """Drive ``runs`` (one context each, shared sinks) and summarize."""
    registry, log, tracer = MetricsRegistry(), EventLog(), Tracer()
    bodies = []
    for run in runs:
        ctx = AnalyticsContext(
            cluster(), EngineConf(**conf),
            metrics_registry=registry, event_log=log,
        )
        ctx.obs.set_tracer(tracer)
        collector = LedgerCollector()
        try:
            with collector.attached(ctx):
                run(ctx)
            bodies.append(collector.body())
        finally:
            ctx.close()
    spans = [
        (e.name, e.cat, e.start, e.end, e.node, e.key,
         {k: v for k, v in e.args.items() if k != "wall_ms"})
        for e in tracer.events
    ]
    return {
        "log": sequence([f"{r['logger']}.{r['event']}" for r in log.records]),
        "records": digest(log.records),
        "trace": sequence([f"{e.cat}:{e.name.split('[')[0]}" for e in tracer.events]),
        "spans": digest(spans),
        "series": series(registry),
        "bodies": [
            {
                "task_attempts": body["task_attempts"],
                "chaos_events": body["chaos_events"],
                "aqe_events": digest(body["aqe_events"]),
                "aqe_event_count": body["aqe_event_count"],
                "spill_event_count": body["spill_event_count"],
                "spill_events": digest(body["spill_events"]),
            }
            for body in bodies
        ],
    }


def sql_job(ctx):
    SQLWorkload(physical_records=2000, max_order=60).run(ctx)


SCENARIOS = {
    "chaos": lambda tmp: observe(
        # The reduce stage of this job runs from 0.51 to 0.77: the kill takes
        # registered map outputs with it (fetch failures, one stage
        # resubmission) and the node is back before the job ends.
        shuffle_job, cluster=lambda: uniform_cluster(n_workers=3, cores=2),
        default_parallelism=8, cost=QUIET,
        node_failure_times={"w0": 0.6}, node_recovery_delay=0.05,
    ),
    "chaos_local": lambda tmp: observe(
        # The same job with co-partition-aware placement, so reduce tasks
        # prefer the nodes holding their map outputs and dispatch honours
        # preferences first. The kill lands in the map stage and the
        # recovery frees both of w0's cores at once; at 0.555 six reduce
        # tasks preferring w1 launch there in one scan, each failing its
        # fetch (w0's outputs are gone) and freeing the core for the next.
        shuffle_job, cluster=lambda: uniform_cluster(n_workers=3, cores=2),
        default_parallelism=8, cost=QUIET, copartition_scheduling=True,
        node_failure_times={"w0": 0.3}, node_recovery_delay=0.05,
    ),
    "aqe": lambda tmp: observe(
        aqe_jobs, default_parallelism=16, cost=QUIET,
        adaptive_execution=True, aqe_target_partition_bytes=16.0 * 1024,
    ),
    "spill": lambda tmp: observe(
        # 128 MB cached blocks against a 64 MB budget: every one spills.
        lambda ctx: KMeansWorkload(
            virtual_gb=1.0, physical_records=600, lloyd_iterations=1, init_rounds=1
        ).run(ctx),
        # Fewer cores than blocks, so some cached reads are remote ones.
        cluster=lambda: uniform_cluster(n_workers=3, cores=2),
        default_parallelism=8, memory_budget=64.0 * 1024 * 1024,
    ),
    "speculation": lambda tmp: observe(
        # One slow node among fast ones: duplicates launch, win and cancel
        # the stragglers; at this size a rate of 0.1 fails no attempt.
        lambda ctx: shuffle_job(ctx, 14_000, 12), cluster=straggler_cluster,
        default_parallelism=12,
        cost=CostModelConfig(
            task_overhead=0.01, per_byte_compute=1e-4, driver_dispatch_interval=0.0
        ),
        speculation=True, task_failure_rate=0.2, max_task_attempts=8,
    ),
    "threads": lambda tmp: observe(
        advised_shuffle_job, default_parallelism=8, cost=QUIET, physical_parallelism=4,
    ),
    "sql_cached": lambda tmp: observe(
        # Cold then warm over one cache file: the second run hits and prunes.
        sql_job, sql_job, default_parallelism=24,
        result_cache="sqlite", result_cache_path=str(tmp / "q.db"),
    ),
}
# fmt: off
EXPECTED = {'aqe': {'log': {'counts': [('aqe.shuffle_switched', 1), ('aqe.stage_replanned', 2),
                            ('dag_scheduler.job_finished', 3), ('dag_scheduler.job_started', 3),
                            ('dag_scheduler.stage_completed', 5),
                            ('dag_scheduler.stage_submitted', 5), ('executor.task_executed', 54),
                            ('shuffle.shuffle_registered', 2),
                            ('task_scheduler.task_finished', 54)],
                 'order': '9cbb22ee33dac406'},
         'records': '494663e0f06cf553',
         'trace': {'counts': [('aqe:aqe-replan', 2), ('aqe:aqe-switch', 1), ('job:job-1', 1),
                              ('job:job-2', 1), ('job:job-3', 1), ('stage:result:keySample#3', 1),
                              ('stage:result:sortByKey#4', 1), ('stage:result:values#1', 1),
                              ('stage:shuffle_map:parallelize#2', 1),
                              ('stage:shuffle_map:parallelize#5', 1), ('task.phase:compute', 54),
                              ('task.phase:input-io', 24), ('task.phase:overhead', 54),
                              ('task.phase:shuffle-fetch', 30), ('task.phase:shuffle-write', 16),
                              ('task:result:keySample#3', 8), ('task:result:sortByKey#4', 8),
                              ('task:result:values#1', 22), ('task:shuffle_map:parallelize#2', 8),
                              ('task:shuffle_map:parallelize#5', 8)],
                   'order': '02efcd12443e64c0'},
         'spans': '595d7e0f653d5a50',
         'series': [('aqe.partitions_coalesced', 9.0), ('aqe.partitions_split', 1.0),
                    ('aqe.shuffles_switched', 1.0), ('aqe.stages_replanned', 2.0),
                    ('aqe.tasks_saved', 8.0), ('cluster.total_cores', 12.0),
                    ('executor.map_tasks{node=w0}', 6.0), ('executor.map_tasks{node=w1}', 6.0),
                    ('executor.map_tasks{node=w2}', 4.0), ('executor.result_tasks{node=w0}', 13.0),
                    ('executor.result_tasks{node=w1}', 13.0),
                    ('executor.result_tasks{node=w2}', 12.0), ('scheduler.fetch_failures', 0.0),
                    ('scheduler.node_lost_tasks', 0.0), ('scheduler.nodes_lost', 0.0),
                    ('scheduler.nodes_recovered', 0.0), ('scheduler.queue_depth', 0.0),
                    ('scheduler.queue_wait_seconds', 54), ('scheduler.speculative_launches', 0.0),
                    ('scheduler.speculative_wins', 0.0), ('scheduler.stage_resubmissions', 0.0),
                    ('scheduler.task_retries', 0.0), ('scheduler.tasks_completed', 54.0),
                    ('scheduler.tasks_failed', 0.0), ('scheduler.tasks_launched', 54.0),
                    ('shuffle.local_bytes', 353760.0), ('shuffle.local_bytes{node=w0}', 199768.0),
                    ('shuffle.local_bytes{node=w1}', 100552.0),
                    ('shuffle.local_bytes{node=w2}', 53440.0), ('shuffle.remote_bytes', 618528.0),
                    ('shuffle.remote_bytes{src=w0}', 164840.0),
                    ('shuffle.remote_bytes{src=w1}', 264056.0),
                    ('shuffle.remote_bytes{src=w2}', 189632.0), ('shuffle.write_bytes', 1456384.0),
                    ('shuffle.write_bytes{node=w0}', 546144.0),
                    ('shuffle.write_bytes{node=w1}', 546144.0),
                    ('shuffle.write_bytes{node=w2}', 364096.0)],
         'bodies': [{'task_attempts': {'ok': 54},
                     'chaos_events': [],
                     'aqe_events': 'c784c031c6d664e9',
                     'aqe_event_count': 3,
                     'spill_event_count': 0,
                     'spill_events': '4f53cda18c2baa0c'}]},
 'chaos': {'log': {'counts': [('dag_scheduler.fetch_failure', 2), ('dag_scheduler.job_finished', 1),
                              ('dag_scheduler.job_started', 1),
                              ('dag_scheduler.stage_completed', 3),
                              ('dag_scheduler.stage_resubmitted', 1),
                              ('dag_scheduler.stage_submitted', 3), ('executor.fetch_failure', 2),
                              ('executor.task_executed', 19), ('shuffle.map_outputs_lost', 1),
                              ('shuffle.shuffle_registered', 1), ('task_scheduler.node_lost', 1),
                              ('task_scheduler.node_recovered', 1),
                              ('task_scheduler.task_finished', 17)],
                   'order': 'ef313634ee019477'},
           'records': '9cd7fc8c80b24034',
           'trace': {'counts': [('chaos:fetch-failure', 2), ('chaos:node-lost', 1),
                                ('chaos:node-recovered', 1), ('chaos:stage-resubmit', 1),
                                ('job:job-1', 1), ('stage:result:reduceByKey#1', 1),
                                ('stage:shuffle_map:parallelize#2', 2), ('task.phase:compute', 17),
                                ('task.phase:input-io', 11), ('task.phase:overhead', 17),
                                ('task.phase:shuffle-fetch', 6), ('task.phase:shuffle-write', 11),
                                ('task:result:reduceByKey#1', 10),
                                ('task:shuffle_map:parallelize#2', 11)],
                     'order': '1123de19c290e8ce'},
           'spans': '3dbd473ef5287712',
           'series': [('cluster.total_cores', 6.0), ('executor.fetch_failures{node=w0}', 2.0),
                      ('executor.map_tasks{node=w0}', 5.0), ('executor.map_tasks{node=w1}', 3.0),
                      ('executor.map_tasks{node=w2}', 3.0), ('executor.result_tasks{node=w0}', 3.0),
                      ('executor.result_tasks{node=w1}', 3.0),
                      ('executor.result_tasks{node=w2}', 2.0), ('scheduler.fetch_failures', 2.0),
                      ('scheduler.node_lost_tasks', 2.0), ('scheduler.nodes_lost', 1.0),
                      ('scheduler.nodes_recovered', 1.0), ('scheduler.queue_depth', 0.0),
                      ('scheduler.queue_wait_seconds', 21), ('scheduler.speculative_launches', 0.0),
                      ('scheduler.speculative_wins', 0.0), ('scheduler.stage_resubmissions', 1.0),
                      ('scheduler.task_retries', 0.0), ('scheduler.tasks_completed', 17.0),
                      ('scheduler.tasks_failed', 0.0), ('scheduler.tasks_launched', 21.0),
                      ('shuffle.local_bytes', 3184.0), ('shuffle.local_bytes{node=w0}', 1072.0),
                      ('shuffle.local_bytes{node=w1}', 1536.0),
                      ('shuffle.local_bytes{node=w2}', 576.0), ('shuffle.remote_bytes', 6352.0),
                      ('shuffle.remote_bytes{src=w0}', 2216.0),
                      ('shuffle.remote_bytes{src=w1}', 2040.0),
                      ('shuffle.remote_bytes{src=w2}', 2096.0), ('shuffle.write_bytes', 9944.0),
                      ('shuffle.write_bytes{node=w0}', 4520.0),
                      ('shuffle.write_bytes{node=w1}', 2712.0),
                      ('shuffle.write_bytes{node=w2}', 2712.0)],
           'bodies': [{'task_attempts': {'fetch-failed': 2, 'node-lost': 2, 'ok': 17},
                       'chaos_events': [{'t': 0.6,
                                         'event': 'node-lost',
                                         'victim': 'w0',
                                         'shuffles_hit': 1,
                                         'cached_blocks_lost': 0},
                                        {'t': 0.65, 'event': 'node-recovered', 'victim': 'w0'},
                                        {'t': 0.65,
                                         'event': 'fetch-failure',
                                         'shuffle_id': 0,
                                         'stage': 'result:reduceByKey#1',
                                         'partition': 0,
                                         'lost_node': 'w0',
                                         'lost_maps': 3},
                                        {'t': 0.65,
                                         'event': 'fetch-failure',
                                         'shuffle_id': 0,
                                         'stage': 'result:reduceByKey#1',
                                         'partition': 3,
                                         'lost_node': 'w0',
                                         'lost_maps': 3},
                                        {'t': 0.7000000000000001,
                                         'event': 'stage-resubmit',
                                         'shuffle_id': 0,
                                         'stage': 'shuffle_map:parallelize#2',
                                         'missing_maps': 3,
                                         'attempt': 1}],
                       'aqe_events': '4f53cda18c2baa0c',
                       'aqe_event_count': 0,
                       'spill_event_count': 0,
                       'spill_events': '4f53cda18c2baa0c'}]},
 'chaos_local': {'log': {'counts': [('dag_scheduler.fetch_failure', 6),
                                    ('dag_scheduler.job_finished', 1),
                                    ('dag_scheduler.job_started', 1),
                                    ('dag_scheduler.stage_completed', 3),
                                    ('dag_scheduler.stage_resubmitted', 1),
                                    ('dag_scheduler.stage_submitted', 3),
                                    ('executor.fetch_failure', 6), ('executor.task_executed', 17),
                                    ('shuffle.map_outputs_lost', 1),
                                    ('shuffle.shuffle_registered', 1),
                                    ('task_scheduler.node_lost', 1),
                                    ('task_scheduler.node_recovered', 1),
                                    ('task_scheduler.task_finished', 16)],
                         'order': '47e725d1ce07fa11'},
                 'records': '4c0942149015acbd',
                 'trace': {'counts': [('chaos:fetch-failure', 6), ('chaos:node-lost', 1),
                                      ('chaos:node-recovered', 1), ('chaos:stage-resubmit', 1),
                                      ('job:job-1', 1), ('stage:result:reduceByKey#1', 1),
                                      ('stage:shuffle_map:parallelize#2', 2),
                                      ('task.phase:compute', 16), ('task.phase:input-io', 10),
                                      ('task.phase:overhead', 16), ('task.phase:shuffle-fetch', 6),
                                      ('task.phase:shuffle-write', 10),
                                      ('task:result:reduceByKey#1', 12),
                                      ('task:shuffle_map:parallelize#2', 11)],
                           'order': '338891ffd4f77daf'},
                 'spans': '0bc6e5ca785e93e9',
                 'series': [('cluster.total_cores', 6.0), ('executor.fetch_failures{node=w1}', 6.0),
                            ('executor.map_tasks{node=w0}', 4.0),
                            ('executor.map_tasks{node=w1}', 4.0),
                            ('executor.map_tasks{node=w2}', 3.0),
                            ('executor.result_tasks{node=w0}', 2.0),
                            ('executor.result_tasks{node=w1}', 2.0),
                            ('executor.result_tasks{node=w2}', 2.0),
                            ('scheduler.fetch_failures', 6.0), ('scheduler.node_lost_tasks', 1.0),
                            ('scheduler.nodes_lost', 1.0), ('scheduler.nodes_recovered', 1.0),
                            ('scheduler.queue_depth', 0.0), ('scheduler.queue_wait_seconds', 23),
                            ('scheduler.speculative_launches', 0.0),
                            ('scheduler.speculative_wins', 0.0),
                            ('scheduler.stage_resubmissions', 1.0), ('scheduler.task_retries', 0.0),
                            ('scheduler.tasks_completed', 16.0), ('scheduler.tasks_failed', 0.0),
                            ('scheduler.tasks_launched', 23.0), ('shuffle.local_bytes', 2424.0),
                            ('shuffle.local_bytes{node=w0}', 288.0),
                            ('shuffle.local_bytes{node=w1}', 1152.0),
                            ('shuffle.local_bytes{node=w2}', 984.0),
                            ('shuffle.remote_bytes', 4808.0),
                            ('shuffle.remote_bytes{src=w0}', 616.0),
                            ('shuffle.remote_bytes{src=w1}', 2464.0),
                            ('shuffle.remote_bytes{src=w2}', 1728.0),
                            ('shuffle.write_bytes', 9944.0),
                            ('shuffle.write_bytes{node=w0}', 3616.0),
                            ('shuffle.write_bytes{node=w1}', 3616.0),
                            ('shuffle.write_bytes{node=w2}', 2712.0)],
                 'bodies': [{'task_attempts': {'fetch-failed': 6, 'node-lost': 1, 'ok': 16},
                             'chaos_events': [{'t': 0.3,
                                               'event': 'node-lost',
                                               'victim': 'w0',
                                               'shuffles_hit': 1,
                                               'cached_blocks_lost': 0},
                                              {'t': 0.35,
                                               'event': 'node-recovered',
                                               'victim': 'w0'},
                                              {'t': 0.5551950454711914,
                                               'event': 'fetch-failure',
                                               'shuffle_id': 0,
                                               'stage': 'result:reduceByKey#1',
                                               'partition': 0,
                                               'lost_node': 'w0',
                                               'lost_maps': 2},
                                              {'t': 0.5551950454711914,
                                               'event': 'fetch-failure',
                                               'shuffle_id': 0,
                                               'stage': 'result:reduceByKey#1',
                                               'partition': 1,
                                               'lost_node': 'w0',
                                               'lost_maps': 2},
                                              {'t': 0.5551950454711914,
                                               'event': 'fetch-failure',
                                               'shuffle_id': 0,
                                               'stage': 'result:reduceByKey#1',
                                               'partition': 2,
                                               'lost_node': 'w0',
                                               'lost_maps': 2},
                                              {'t': 0.5551950454711914,
                                               'event': 'fetch-failure',
                                               'shuffle_id': 0,
                                               'stage': 'result:reduceByKey#1',
                                               'partition': 3,
                                               'lost_node': 'w0',
                                               'lost_maps': 2},
                                              {'t': 0.5551950454711914,
                                               'event': 'fetch-failure',
                                               'shuffle_id': 0,
                                               'stage': 'result:reduceByKey#1',
                                               'partition': 4,
                                               'lost_node': 'w0',
                                               'lost_maps': 2},
                                              {'t': 0.5551950454711914,
                                               'event': 'fetch-failure',
                                               'shuffle_id': 0,
                                               'stage': 'result:reduceByKey#1',
                                               'partition': 5,
                                               'lost_node': 'w0',
                                               'lost_maps': 2},
                                              {'t': 0.6051950454711914,
                                               'event': 'stage-resubmit',
                                               'shuffle_id': 0,
                                               'stage': 'shuffle_map:parallelize#2',
                                               'missing_maps': 2,
                                               'attempt': 1}],
                             'aqe_events': '4f53cda18c2baa0c',
                             'aqe_event_count': 0,
                             'spill_event_count': 0,
                             'spill_events': '4f53cda18c2baa0c'}]},
 'speculation': {'log': {'counts': [('dag_scheduler.job_finished', 1),
                                    ('dag_scheduler.job_started', 1),
                                    ('dag_scheduler.stage_completed', 2),
                                    ('dag_scheduler.stage_submitted', 2),
                                    ('executor.task_executed', 20),
                                    ('shuffle.shuffle_registered', 1),
                                    ('task_scheduler.speculative_launch', 2),
                                    ('task_scheduler.task_finished', 18),
                                    ('task_scheduler.task_retry', 2)],
                         'order': '59ae0424dfd4c6a7'},
                 'records': 'af8014efa20751af',
                 'trace': {'counts': [('job:job-1', 1), ('stage:result:reduceByKey#1', 1),
                                      ('stage:shuffle_map:parallelize#2', 1),
                                      ('task.phase:compute', 18), ('task.phase:input-io', 12),
                                      ('task.phase:overhead', 18), ('task.phase:shuffle-fetch', 6),
                                      ('task.phase:shuffle-write', 12),
                                      ('task:result:reduceByKey#1', 6),
                                      ('task:shuffle_map:parallelize#2', 16)],
                           'order': '94cbcbb846b95704'},
                 'spans': 'ae2e25051c339ef0',
                 'series': [('cluster.total_cores', 10.0), ('executor.map_tasks{node=fast-0}', 6.0),
                            ('executor.map_tasks{node=fast-1}', 6.0),
                            ('executor.map_tasks{node=slow}', 2.0),
                            ('executor.result_tasks{node=fast-0}', 3.0),
                            ('executor.result_tasks{node=fast-1}', 3.0),
                            ('scheduler.fetch_failures', 0.0), ('scheduler.node_lost_tasks', 0.0),
                            ('scheduler.nodes_lost', 0.0), ('scheduler.nodes_recovered', 0.0),
                            ('scheduler.queue_depth', 0.0), ('scheduler.queue_wait_seconds', 20),
                            ('scheduler.speculative_launches', 2.0),
                            ('scheduler.speculative_wins', 2.0),
                            ('scheduler.stage_resubmissions', 0.0), ('scheduler.task_retries', 2.0),
                            ('scheduler.tasks_completed', 18.0), ('scheduler.tasks_failed', 2.0),
                            ('scheduler.tasks_launched', 22.0), ('shuffle.local_bytes', 5424.0),
                            ('shuffle.local_bytes{node=fast-0}', 2352.0),
                            ('shuffle.local_bytes{node=fast-1}', 3072.0),
                            ('shuffle.remote_bytes', 5424.0),
                            ('shuffle.remote_bytes{src=fast-0}', 3072.0),
                            ('shuffle.remote_bytes{src=fast-1}', 2352.0),
                            ('shuffle.write_bytes', 12656.0),
                            ('shuffle.write_bytes{node=fast-0}', 5424.0),
                            ('shuffle.write_bytes{node=fast-1}', 5424.0),
                            ('shuffle.write_bytes{node=slow}', 1808.0)],
                 'bodies': [{'task_attempts': {'cancelled': 2, 'failed': 2, 'ok': 18},
                             'chaos_events': [],
                             'aqe_events': '4f53cda18c2baa0c',
                             'aqe_event_count': 0,
                             'spill_event_count': 0,
                             'spill_events': '4f53cda18c2baa0c'}]},
 'spill': {'log': {'counts': [('dag_scheduler.job_finished', 6), ('dag_scheduler.job_started', 6),
                              ('dag_scheduler.stage_completed', 8),
                              ('dag_scheduler.stage_submitted', 8), ('executor.task_executed', 64),
                              ('shuffle.shuffle_registered', 2), ('spill.block_spilled', 8),
                              ('task_scheduler.task_finished', 64)],
                   'order': '8549321d9cab6c7f'},
           'records': 'bfc9afb88d372e78',
           'trace': {'counts': [('job:job-1', 1), ('job:job-2', 1), ('job:job-3', 1),
                                ('job:job-4', 1), ('job:job-5', 1), ('job:job-6', 1),
                                ('spill:spill', 8), ('stage:result:initCost#3', 1),
                                ('stage:result:initSample#4', 1), ('stage:result:initSeed#2', 1),
                                ('stage:result:kmeans-points#1', 1),
                                ('stage:result:reduceByKey#5', 1),
                                ('stage:result:reduceByKey#7', 1),
                                ('stage:shuffle_map:assign#6', 1),
                                ('stage:shuffle_map:clusterSizes#8', 1), ('task.phase:compute', 64),
                                ('task.phase:input-io', 8), ('task.phase:overhead', 64),
                                ('task.phase:shuffle-fetch', 21), ('task.phase:shuffle-write', 16),
                                ('task:result:initCost#3', 8), ('task:result:initSample#4', 8),
                                ('task:result:initSeed#2', 8), ('task:result:kmeans-points#1', 8),
                                ('task:result:reduceByKey#5', 8), ('task:result:reduceByKey#7', 8),
                                ('task:shuffle_map:assign#6', 8),
                                ('task:shuffle_map:clusterSizes#8', 8)],
                     'order': 'e26683c7c49458ee'},
           'spans': '9eb145cc15d07ef5',
           'series': [('blockcache.hits{node=w0}', 15.0), ('blockcache.hits{node=w1}', 13.0),
                      ('blockcache.hits{node=w2}', 12.0),
                      ('blockcache.read_bytes{node=w0}', 2013265920.0),
                      ('blockcache.read_bytes{node=w1}', 1744830464.0),
                      ('blockcache.read_bytes{node=w2}', 1610612736.0),
                      ('blockcache.remote_read_bytes{src=w0}', 671088640.0),
                      ('cluster.total_cores', 6.0), ('executor.map_tasks{node=w0}', 6.0),
                      ('executor.map_tasks{node=w1}', 6.0), ('executor.map_tasks{node=w2}', 4.0),
                      ('executor.result_tasks{node=w0}', 19.0),
                      ('executor.result_tasks{node=w1}', 15.0),
                      ('executor.result_tasks{node=w2}', 14.0), ('scheduler.fetch_failures', 0.0),
                      ('scheduler.node_lost_tasks', 0.0), ('scheduler.nodes_lost', 0.0),
                      ('scheduler.nodes_recovered', 0.0), ('scheduler.queue_depth', 0.0),
                      ('scheduler.queue_wait_seconds', 64), ('scheduler.speculative_launches', 0.0),
                      ('scheduler.speculative_wins', 0.0), ('scheduler.stage_resubmissions', 0.0),
                      ('scheduler.task_retries', 0.0), ('scheduler.tasks_completed', 64.0),
                      ('scheduler.tasks_failed', 0.0), ('scheduler.tasks_launched', 64.0),
                      ('shuffle.local_bytes', 13296.0), ('shuffle.local_bytes{node=w0}', 6912.0),
                      ('shuffle.local_bytes{node=w1}', 4312.0),
                      ('shuffle.local_bytes{node=w2}', 2072.0), ('shuffle.remote_bytes', 23752.0),
                      ('shuffle.remote_bytes{src=w0}', 9360.0),
                      ('shuffle.remote_bytes{src=w1}', 7016.0),
                      ('shuffle.remote_bytes{src=w2}', 7376.0),
                      ('shuffle.spilled_bytes', 1073741824.0), ('shuffle.write_bytes', 37048.0),
                      ('shuffle.write_bytes{node=w0}', 16272.0),
                      ('shuffle.write_bytes{node=w1}', 11328.0),
                      ('shuffle.write_bytes{node=w2}', 9448.0), ('spill.events', 8.0)],
           'bodies': [{'task_attempts': {'ok': 64},
                       'chaos_events': [],
                       'aqe_events': '4f53cda18c2baa0c',
                       'aqe_event_count': 0,
                       'spill_event_count': 8,
                       'spill_events': 'f446c45298199073'}]},
 'sql_cached': {'log': {'counts': [('dag_scheduler.job_finished', 4),
                                   ('dag_scheduler.job_started', 4),
                                   ('dag_scheduler.stage_completed', 12),
                                   ('dag_scheduler.stage_submitted', 12),
                                   ('executor.task_executed', 265),
                                   ('optimizer.partitions_pruned', 1),
                                   ('shuffle.shuffle_registered', 8),
                                   ('task_scheduler.task_finished', 265)],
                        'order': 'f15259b9c9fab718'},
                'records': '726410beadea6e5d',
                'trace': {'counts': [('job:job-1', 2), ('job:job-2', 2),
                                     ('stage:result:keySample#1', 2), ('stage:result:values#5', 2),
                                     ('stage:shuffle_map:groupKey#2', 2),
                                     ('stage:shuffle_map:groupKey#3', 2),
                                     ('stage:shuffle_map:joinKey', 2),
                                     ('stage:shuffle_map:orderKey#6', 2),
                                     ('task.phase:compute', 157), ('task.phase:input-io', 73),
                                     ('task.phase:overhead', 265), ('task.phase:shuffle-fetch', 84),
                                     ('task.phase:shuffle-write', 94),
                                     ('task:result:keySample#1', 48), ('task:result:values#5', 48),
                                     ('task:shuffle_map:groupKey#2', 48),
                                     ('task:shuffle_map:groupKey#3', 25),
                                     ('task:shuffle_map:joinKey', 48),
                                     ('task:shuffle_map:orderKey#6', 48)],
                          'order': '8a9a5f048cb772ed'},
                'spans': '16de653681e6c7d5',
                'series': [('cache.hits', 1.0), ('cache.misses', 1.0),
                           ('cluster.total_cores', 12.0), ('executor.map_tasks{node=w0}', 55.0),
                           ('executor.map_tasks{node=w1}', 50.0),
                           ('executor.map_tasks{node=w2}', 64.0),
                           ('executor.result_tasks{node=w0}', 32.0),
                           ('executor.result_tasks{node=w1}', 32.0),
                           ('executor.result_tasks{node=w2}', 32.0),
                           ('scan.partitions_pruned', 23.0), ('scheduler.fetch_failures', 0.0),
                           ('scheduler.node_lost_tasks', 0.0), ('scheduler.nodes_lost', 0.0),
                           ('scheduler.nodes_recovered', 0.0), ('scheduler.queue_depth', 0.0),
                           ('scheduler.queue_wait_seconds', 265),
                           ('scheduler.speculative_launches', 0.0),
                           ('scheduler.speculative_wins', 0.0),
                           ('scheduler.stage_resubmissions', 0.0), ('scheduler.task_retries', 0.0),
                           ('scheduler.tasks_completed', 265.0), ('scheduler.tasks_failed', 0.0),
                           ('scheduler.tasks_launched', 265.0),
                           ('shuffle.local_bytes', 3519212084.16),
                           ('shuffle.local_bytes{node=w0}', 945161898.9915428),
                           ('shuffle.local_bytes{node=w1}', 844610486.7584),
                           ('shuffle.local_bytes{node=w2}', 1729439698.410057),
                           ('shuffle.remote_bytes', 6535678267.154285),
                           ('shuffle.remote_bytes{src=w0}', 1990869906.2162285),
                           ('shuffle.remote_bytes{src=w1}', 2071305484.0027428),
                           ('shuffle.remote_bytes{src=w2}', 2473502876.935314),
                           ('shuffle.write_bytes', 10054885031.314285),
                           ('shuffle.write_bytes{node=w0}', 2936030125.2077713),
                           ('shuffle.write_bytes{node=w1}', 2915914570.7611427),
                           ('shuffle.write_bytes{node=w2}', 4202940335.3453712)],
                'bodies': [{'task_attempts': {'ok': 144},
                            'chaos_events': [],
                            'aqe_events': '4f53cda18c2baa0c',
                            'aqe_event_count': 0,
                            'spill_event_count': 0,
                            'spill_events': '4f53cda18c2baa0c'},
                           {'task_attempts': {'ok': 121},
                            'chaos_events': [],
                            'aqe_events': '4f53cda18c2baa0c',
                            'aqe_event_count': 0,
                            'spill_event_count': 0,
                            'spill_events': '4f53cda18c2baa0c'}]},
 'threads': {'log': {'counts': [('dag_scheduler.job_finished', 1), ('dag_scheduler.job_started', 1),
                                ('dag_scheduler.stage_completed', 2),
                                ('dag_scheduler.stage_submitted', 2),
                                ('executor.task_executed', 14), ('shuffle.shuffle_registered', 1),
                                ('task_scheduler.task_finished', 14)],
                     'order': '8dbbebc0c07c8940'},
             'records': '8b18d2d91be91868',
             'trace': {'counts': [('chopper:rewrite:NoAdvice', 1), ('job:job-1', 1),
                                  ('stage:result:reduceByKey#1', 1),
                                  ('stage:shuffle_map:parallelize#2', 1),
                                  ('task.phase:compute', 14), ('task.phase:input-io', 8),
                                  ('task.phase:overhead', 14), ('task.phase:shuffle-fetch', 6),
                                  ('task.phase:shuffle-write', 8), ('task:result:reduceByKey#1', 6),
                                  ('task:shuffle_map:parallelize#2', 8)],
                       'order': '4857f1fc7908f58e'},
             'spans': '181693a59b100336',
             'series': [('cluster.total_cores', 12.0), ('executor.map_tasks{node=w0}', 3.0),
                        ('executor.map_tasks{node=w1}', 3.0), ('executor.map_tasks{node=w2}', 2.0),
                        ('executor.result_tasks{node=w0}', 2.0),
                        ('executor.result_tasks{node=w1}', 2.0),
                        ('executor.result_tasks{node=w2}', 2.0), ('scheduler.fetch_failures', 0.0),
                        ('scheduler.node_lost_tasks', 0.0), ('scheduler.nodes_lost', 0.0),
                        ('scheduler.nodes_recovered', 0.0), ('scheduler.queue_depth', 0.0),
                        ('scheduler.queue_wait_seconds', 14),
                        ('scheduler.speculative_launches', 0.0),
                        ('scheduler.speculative_wins', 0.0), ('scheduler.stage_resubmissions', 0.0),
                        ('scheduler.task_retries', 0.0), ('scheduler.tasks_completed', 14.0),
                        ('scheduler.tasks_failed', 0.0), ('scheduler.tasks_launched', 14.0),
                        ('shuffle.local_bytes', 2424.0), ('shuffle.local_bytes{node=w0}', 864.0),
                        ('shuffle.local_bytes{node=w1}', 984.0),
                        ('shuffle.local_bytes{node=w2}', 576.0), ('shuffle.remote_bytes', 4808.0),
                        ('shuffle.remote_bytes{src=w0}', 1848.0),
                        ('shuffle.remote_bytes{src=w1}', 1728.0),
                        ('shuffle.remote_bytes{src=w2}', 1232.0), ('shuffle.write_bytes', 7232.0),
                        ('shuffle.write_bytes{node=w0}', 2712.0),
                        ('shuffle.write_bytes{node=w1}', 2712.0),
                        ('shuffle.write_bytes{node=w2}', 1808.0)],
             'bodies': [{'task_attempts': {'ok': 14},
                         'chaos_events': [],
                         'aqe_events': '4f53cda18c2baa0c',
                         'aqe_event_count': 0,
                         'spill_event_count': 0,
                         'spill_events': '4f53cda18c2baa0c'}]}}
# fmt: on


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reported_sequence_matches_the_recording(name, tmp_path):
    assert SCENARIOS[name](tmp_path) == EXPECTED[name]
