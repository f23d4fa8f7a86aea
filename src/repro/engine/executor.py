"""Task execution: run the real computation, price it with the cost model.

The :class:`TaskRunner` is called by the task scheduler the moment a task
is granted a core. It executes the task's RDD pipeline *physically*
(producing correct records / results), collects the measurable side
effects in a :class:`TaskContext`, and converts them into a simulated
duration via the :class:`CostModel`. Map tasks additionally partition
their output by the shuffle dependency's partitioner and register the
output with the shuffle manager — including optional map-side combining,
which is where aggregation shuffles get their small, `P_map`-proportional
volume (paper Fig. 4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import FetchFailure, SchedulingError
from repro.common.sizing import estimate_size, sizes_array
from repro.engine import effects
from repro.engine.batch import RecordBatch, as_record_list
from repro.engine.combine import combine_numeric_add, fold_batch
from repro.engine.dependencies import default_key_fn
from repro.engine.costmodel import CostModel, TaskCostBreakdown
from repro.engine.effects import TaskEffects
from repro.engine.shuffle import MapOutput
from repro.engine.stage import SHUFFLE_MAP, Stage
from repro.engine.task import Task, TaskContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import NodeSpec
    from repro.engine.context import AnalyticsContext


class TaskRunner:
    """Executes tasks and prices their duration."""

    def __init__(self, ctx: "AnalyticsContext") -> None:
        self.ctx = ctx
        self.cost_model = CostModel(ctx.conf.cost)

    def close(self) -> None:
        """Drop the context; the cost model stays usable."""
        self.ctx = None

    def execute(
        self, stage: Stage, task: Task, node: "NodeSpec", result_fn=None
    ) -> Tuple[TaskCostBreakdown, TaskContext, Any]:
        """Run one task on ``node``; returns (cost breakdown, ctx, results).

        ``results`` has one entry per split of ``task.splits``.
        """
        tctx, result = self._execute_body(stage, task, node, result_fn)
        return self.price(tctx, node), tctx, result

    def execute_deferred(
        self, stage: Stage, task: Task, node: "NodeSpec", result_fn=None
    ) -> TaskEffects:
        """Run a task body on a worker thread, buffering its effects.

        Safe to call concurrently for independently-granted attempts:
        shared-state reads are recorded, writes buffered, and nothing is
        mutated until :meth:`finish_deferred` replays the effects on the
        driver thread at the attempt's serial position.
        """
        eff = TaskEffects()
        effects.activate(eff)
        try:
            eff.tctx, eff.result = self._execute_body(stage, task, node, result_fn)
        except BaseException as exc:  # re-raised inline at apply time
            eff.exception = exc
        finally:
            effects.deactivate()
        return eff

    def finish_deferred(
        self, eff: TaskEffects, stage: Stage, task: Task, node: "NodeSpec",
        result_fn=None,
    ) -> Tuple[TaskCostBreakdown, TaskContext, Any]:
        """Apply a deferred attempt's effects at its serial position.

        Everything the worker thread read is validated first; on any
        mismatch — or a recorded exception — the attempt simply
        re-executes inline, which is the bit-exact serial path.
        """
        if eff.exception is not None or not self._effects_valid(eff):
            return self.execute(stage, task, node, result_fn)
        self._replay(eff)
        return self.price(eff.tctx, node), eff.tctx, eff.result

    def _execute_body(
        self, stage: Stage, task: Task, node: "NodeSpec", result_fn=None
    ) -> Tuple[TaskContext, Any]:
        profiler = self.ctx.obs.profiler
        if profiler is not None:
            # Bracket the real computation with a host-resource probe
            # (wall vs thread CPU, tracemalloc delta). Probes only read
            # clocks/allocator stats, so simulated results are untouched.
            with profiler.task_probe(stage.name):
                return self._execute_body_inner(stage, task, node, result_fn)
        return self._execute_body_inner(stage, task, node, result_fn)

    def _execute_body_inner(
        self, stage: Stage, task: Task, node: "NodeSpec", result_fn=None
    ) -> Tuple[TaskContext, List[Any]]:
        """Run the pipeline for every split the task covers.

        Returns one value per split, in split order: what the one-split
        tasks of the static layout would each have produced. Cumulative
        totals (compute, IO, max partition) keep accumulating, since one
        physical task pays for all its splits, but the per-RDD byte maps
        reset between splits: ``note_input_hint`` adds per RDD id, so a
        stale entry from split A would inflate split B's priced input.
        """
        tctx = TaskContext(node=node.name, task_index=task.partition)
        is_map = stage.kind == SHUFFLE_MAP
        obs = self.ctx.obs  # on a worker thread it buffers, like the stores
        results: List[Any] = []
        try:
            for split in task.splits:
                if results:
                    tctx.rdd_bytes = {}
                    tctx.input_hints = {}
                if is_map:
                    results.append(self._run_map_task(stage, split, tctx))
                else:
                    records = stage.rdd.materialize(split, tctx)
                    results.append(
                        result_fn(split, records) if result_fn else records
                    )
        except FetchFailure as failure:
            # Shuffle inputs lost to a dead node; the task scheduler
            # hands the task to the DAG scheduler for lineage recovery.
            obs.event(
                "task_fetch_failed",
                stage=stage.name, partition=task.partition, node=node.name,
                shuffle=failure.shuffle_id,
            )
            raise
        if tctx.cache_read_bytes:
            obs.event("cache_read", node=node.name, bytes=tctx.cache_read_bytes)
        for src, nbytes in tctx.cache_remote_by_src.items():
            obs.event("cache_remote_read", src=src, bytes=nbytes)
        obs.event(
            "map_task_executed" if is_map else "result_task_executed",
            stage=stage.name, partition=task.partition, node=node.name,
            records_out=tctx.records_out,
        )
        return tctx, results

    def _effects_valid(self, eff: TaskEffects) -> bool:
        block_store = self.ctx.block_store
        shuffle = self.ctx.shuffle_manager
        for op in eff.ops:
            tag = op[0]
            if tag == "cache_get":
                _, key, block = op
                if block_store.peek(*key) is not block:
                    return False
            elif tag == "shuffle_read":
                _, shuffle_id, version = op
                if shuffle.version(shuffle_id) != version:
                    return False
        return True

    def _replay(self, eff: TaskEffects) -> None:
        ctx = self.ctx
        for op in eff.ops:
            tag = op[0]
            if tag == "event":
                ctx.obs.event(op[1], **op[2])
            elif tag == "cache_get":
                if op[2] is not None:
                    ctx.block_store.touch(*op[1])
            elif tag == "cache_get_own":
                ctx.block_store.touch(*op[1])
            elif tag == "cache_put":
                _, key, records, nbytes, node_name = op
                ctx.block_store.put(key[0], key[1], records, nbytes, node_name)
            elif tag == "shuffle_put":
                _, shuffle_id, map_id, node_name, output = op
                written = ctx.shuffle_manager.put_map_output(
                    shuffle_id, map_id, node_name, output
                )
                eff.tctx.note_shuffle_write(written)
            elif tag == "shuffle_read":
                pass  # validation-only
            elif tag == "zone_map":
                _, key, split, stats = op
                ctx.zone_maps.put(key, split, stats)
            else:  # pragma: no cover - defensive
                raise SchedulingError(f"unknown deferred op {tag!r}")

    def _run_map_task(self, stage: Stage, split: int, tctx: TaskContext) -> None:
        dep = stage.shuffle_dep
        assert dep is not None, "map task on a stage without a shuffle dep"
        key_fn = dep.key_fn
        fast_key = None if key_fn is default_key_fn else key_fn
        # record_format picks the map-side pipeline only: vec kernels over
        # columns need the default record[0] key, since the key IS the
        # batch's key column. Custom key functions see whole records.
        if self.ctx.conf.record_format == "columnar" and fast_key is None:
            records = stage.rdd.materialize_batch(split, tctx)
        else:
            records = stage.rdd.materialize(split, tctx)

        batch: Optional[RecordBatch] = None
        out_records: List = []
        write_scale = 1.0 if dep.map_side_combine else stage.rdd.size_scale
        if dep.map_side_combine:
            assert dep.aggregator is not None
            agg = dep.aggregator
            # Fold on columns only when the input already *is* a batch (a
            # fused vec chain produced it). Columnarizing a list input just
            # to fold it costs more than the dict-grouped fold below.
            if isinstance(records, RecordBatch) and agg.numeric_add:
                batch = fold_batch(records)
            if batch is None:
                plain = as_record_list(records)
                combined: Optional[Dict[Any, Any]] = None
                if plain and agg.numeric_add:
                    combined = combine_numeric_add(fast_key, plain)
                if combined is None:
                    combined = {}
                    for record in plain:
                        k = key_fn(record)
                        v = record[1]
                        if k in combined:
                            combined[k] = agg.merge_value(combined[k], v)
                        else:
                            combined[k] = agg.create_combiner(v)
                out_records = list(combined.items())
        elif isinstance(records, RecordBatch):
            batch = records if len(records) else None
        else:
            out_records = records

        # The container is a batch whenever the records allow it, in both
        # formats. A list is sized before it is columnarized, so sizing and
        # every byte total stay those of the list.
        if batch is None and out_records:
            sizes = sizes_array(out_records)
            if sizes is None:  # heterogeneous batch: exact scalar sizing
                sizes = np.array(
                    [estimate_size(r) for r in out_records], dtype=np.float64
                )
            if fast_key is None:
                batch = RecordBatch.from_records(out_records)
        elif batch is not None:
            sizes = batch.sizes_array()
        if batch is not None:
            rids = dep.partitioner.partition_many(batch.keys)
            output = MapOutput(batch, rids, sizes * write_scale)
        elif out_records:
            keys = [fast_key(r) if fast_key else r[0] for r in out_records]
            rids = dep.partitioner.partition_many(keys)
            output = MapOutput(out_records, rids, sizes * write_scale)
        else:
            output = MapOutput([], (), ())

        written = self.ctx.shuffle_manager.put_map_output(
            dep.shuffle_id, split, tctx.node, output
        )
        if written is not None:
            tctx.note_shuffle_write(written)
        # None = deferred attempt; the byte count lands when the write
        # replays at the task's serial position (see TaskRunner._replay).

    def price(self, tctx: TaskContext, node: "NodeSpec") -> TaskCostBreakdown:
        """Convert a task's measured side effects into time components."""
        cm = self.cost_model
        topo = self.ctx.cluster.topology
        fetch = cm.shuffle_fetch_time(
            node,
            tctx.shuffle_read_local,
            tctx.shuffle_read_remote_by_src,
            tctx.shuffle_blocks_fetched,
            topo.bandwidth,
        )
        # Remote cache reads travel over the same links as shuffle blocks.
        for src, nbytes in tctx.cache_remote_by_src.items():
            fetch += nbytes / topo.bandwidth(src, node.name)
        return TaskCostBreakdown(
            overhead=cm.config.task_overhead,
            compute=cm.compute_time(
                node, tctx.compute_bytes, tctx.records_out, tctx.max_partition_bytes
            ),
            input_io=cm.input_io_time(node, tctx.input_bytes),
            shuffle_fetch=fetch,
            shuffle_write=cm.shuffle_write_time(node, tctx.shuffle_write),
        )
