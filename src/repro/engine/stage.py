"""Stages: pipelined chunks of the lineage DAG between shuffle boundaries.

Mirrors the paper's Fig. 1: a job is cut into ShuffleMapStages (each
writes map output for one shuffle dependency) and one ResultStage. A
stage's tasks each run the full narrow pipeline rooted at the stage's
terminal RDD for one partition.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List, Optional, Set

from repro.engine.dependencies import NarrowDependency, ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD

SHUFFLE_MAP = "shuffle_map"
RESULT = "result"


class Stage:
    """One schedulable stage of a job."""

    def __init__(
        self,
        stage_id: int,
        rdd: "RDD",
        parents: List["Stage"],
        kind: str,
        shuffle_dep: Optional[ShuffleDependency] = None,
    ) -> None:
        self.stage_id = stage_id
        self.rdd = rdd
        self.parents = parents
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

    def input_rdds(self) -> List["RDD"]:
        """The stage's base RDDs: shuffle readers and sources in its pipeline."""
        bases: List["RDD"] = []
        seen: Set[int] = set()

        def visit(rdd: "RDD") -> None:
            if rdd.id in seen:
                return
            seen.add(rdd.id)
            if not rdd.deps or rdd.shuffle_deps():
                bases.append(rdd)
            # Keep walking narrow deps only — shuffle deps cross into
            # parent stages. An RDD can mix the two (aligned cogroup).
            for dep in rdd.narrow_deps():
                visit(dep.parent)

        visit(self.rdd)
        return bases

    def incoming_shuffle_deps(self) -> List[ShuffleDependency]:
        """Shuffle dependencies whose output this stage's tasks read."""
        deps: List[ShuffleDependency] = []
        seen: Set[int] = set()

        def visit(rdd: "RDD") -> None:
            if rdd.id in seen:
                return
            seen.add(rdd.id)
            for dep in rdd.deps:
                if isinstance(dep, ShuffleDependency):
                    deps.append(dep)
                elif isinstance(dep, NarrowDependency):
                    visit(dep.parent)

        visit(self.rdd)
        return deps

    def cached_rdds(self) -> List["RDD"]:
        """Cached RDDs inside this stage's pipeline (for locality prefs)."""
        cached: List["RDD"] = []
        seen: Set[int] = set()

        def visit(rdd: "RDD") -> None:
            if rdd.id in seen:
                return
            seen.add(rdd.id)
            if rdd.is_cached:
                cached.append(rdd)
            for dep in rdd.narrow_deps():
                visit(dep.parent)

        visit(self.rdd)
        return cached

    def __repr__(self) -> str:
        return f"Stage({self.name}, tasks={self.num_tasks})"
