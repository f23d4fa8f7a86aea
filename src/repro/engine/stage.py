"""Stages: pipelined chunks of the lineage DAG between shuffle boundaries.

Mirrors the paper's Fig. 1: a job is cut into ShuffleMapStages (each
writes map output for one shuffle dependency) and one ResultStage. A
stage's tasks each run the full narrow pipeline rooted at the stage's
terminal RDD for one partition.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import List, Optional, Set, Tuple

from repro.engine.dependencies import NarrowDependency, ShuffleDependency
from repro.engine.rdd import RDD, PartitionSubsetRDD, SourceRDD
from repro.engine.shuffled import CogroupRDD, ShuffledRDD

SHUFFLE_MAP = "shuffle_map"
RESULT = "result"


def _walk_pipeline(
    rdd: "RDD",
    seen: Set[int],
    pipeline: List["RDD"],
    incoming: List[ShuffleDependency],
) -> None:
    """Pre-order walk of one stage's narrow pipeline (``Stage._pipeline``).

    A module function with its state passed in, not a closure over it: a
    recursive closure is a function <-> cell cycle that only the cyclic
    collector frees.
    """
    if rdd.id in seen:
        return
    seen.add(rdd.id)
    pipeline.append(rdd)
    for dep in rdd.deps:
        if isinstance(dep, ShuffleDependency):
            incoming.append(dep)
        elif isinstance(dep, NarrowDependency):
            _walk_pipeline(dep.parent, seen, pipeline, incoming)


class Stage:
    """One schedulable stage of a job."""

    def __init__(
        self,
        stage_id: int,
        rdd: "RDD",
        kind: str,
        shuffle_dep: Optional[ShuffleDependency] = None,
    ) -> None:
        self.stage_id = stage_id
        self.rdd = rdd
        # The stages writing the shuffles this one reads, in the order
        # the pipeline meets them (filled in by the DAG scheduler).
        self.parents: List["Stage"] = []
        self.kind = kind
        self.shuffle_dep = shuffle_dep  # the dep this stage WRITES (map stages)
        self.completed = False
        # Fetch-failure resubmissions of this stage (lineage recovery);
        # bounded by dag_scheduler.MAX_STAGE_ATTEMPTS.
        self.attempts = 0

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions

    @property
    def signature(self) -> str:
        """Stable identity of the stage for config/model lookup.

        Combines the terminal RDD's structural signature with the stage
        kind, so a map stage and a result stage over the same RDD chain
        get distinct entries.
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(self.rdd.signature.encode())
        h.update(self.kind.encode())
        return h.hexdigest()

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.rdd.op_name}#{self.stage_id}"

    @cached_property
    def _pipeline(self) -> Tuple[List["RDD"], List[ShuffleDependency]]:
        """The stage's narrow pipeline, traversed once per ``Stage`` object.

        Pre-order over narrow dependencies from the terminal RDD, each
        RDD once; a shuffle dependency (the edge into a parent stage) is
        recorded where it is met, so a narrow parent is descended into
        before a *later* shuffle dep of the same RDD is appended (aligned
        cogroups mix the two). Both orders are behaviour: they pick the
        "first match" among the bases and fix the order of float folds
        over the incoming shuffles. Only the traversal is kept: cache
        flags and partitioners are read when asked for, because the
        schedulers change them between launches.
        """
        pipeline: List["RDD"] = []
        incoming: List[ShuffleDependency] = []
        _walk_pipeline(self.rdd, set(), pipeline, incoming)
        return pipeline, incoming

    def input_rdds(self) -> List["RDD"]:
        """The stage's base RDDs: shuffle readers and sources in its pipeline.

        Not only the leaves of the walk: an aligned cogroup reads a
        shuffle *and* has a narrow parent.
        """
        return [
            rdd for rdd in self._pipeline[0] if not rdd.deps or rdd.shuffle_deps()
        ]

    def incoming_shuffle_deps(self) -> List[ShuffleDependency]:
        """Shuffle dependencies whose output this stage's tasks read."""
        return self._pipeline[1]

    def cached_rdds(self) -> List["RDD"]:
        """Cached RDDs inside this stage's pipeline (for locality prefs)."""
        return [rdd for rdd in self._pipeline[0] if rdd.is_cached]

    def pipeline_facts(self) -> dict:
        """What a launch records about the pipeline in its ``StageStats``.

        Read off the walk at launch time, not kept: partitioners change
        until then (the advisor, pending-scheme resolution).
        """
        pipeline, incoming = self._pipeline
        bases = self.input_rdds()
        keyed = [
            rdd.partitioner
            for rdd in bases
            if isinstance(rdd, (ShuffledRDD, CogroupRDD))
        ]
        partitioners = [p for p in keyed if p is not None]
        cogroups = [rdd for rdd in bases if isinstance(rdd, CogroupRDD)]
        return {
            # The partitioner governing the stage's input distribution.
            "partitioner_kind": partitioners[0].kind if partitioners else None,
            # Number of sides if the stage's base is a cogroup, else 0.
            "cogroup_sides": len(cogroups[0].deps) if cogroups else 0,
            "user_fixed": any(dep.user_fixed for dep in incoming),
            "source_signatures": [
                rdd.signature for rdd in bases if isinstance(rdd, SourceRDD)
            ],
            # Source partitions the pipeline skips via pruned scans.
            "pruned_partitions": sum(
                rdd.pruned_count
                for rdd in pipeline
                if isinstance(rdd, PartitionSubsetRDD)
            ),
        }

    def __repr__(self) -> str:
        return f"Stage({self.name}, tasks={self.num_tasks})"
