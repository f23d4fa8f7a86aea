"""Partition advisors — the "extended dynamic-partitioning DAGScheduler".

An advisor installed via ``ctx.set_advisor`` gets a ``rewrite(final_rdd,
ctx)`` call at every job submission, before stages are built (the
engine-side hook for the paper's "scheduler checks the Spark
configuration file before a stage is executed").

:class:`ChopperAdvisor` applies a :class:`WorkloadConfig`:

1. looks up each provisional stage's signature in the config;
2. re-splits source RDDs (stage-0 granularity) once per workload run;
3. retargets each stage's incoming shuffle dependencies to the config's
   scheme — hash schemes resolve immediately, range schemes become
   pending :class:`SchemeRef` s resolved (with a sampling delay) right
   before the writing map stage launches;
4. entries sharing a ``group`` label share one SchemeRef, so join/cogroup
   parents end up with *identical* partitioners;
5. re-aligns cogroups and shuffled RDDs whose parents became
   co-partitioned, converting their shuffle dependencies to narrow ones —
   eliminating the join shuffle entirely (§III-C);
6. for user-fixed dependencies, leaves the scheme intact unless the
   config says an inserted repartition phase pays off (gamma test), in
   which case an identity-shuffle stage is spliced into the lineage.

:class:`ProfilingAdvisor` forces one uniform (kind, P) everywhere — the
lightweight test runs CHOPPER uses to gather training data (§III-B), and
also exactly the setup of the paper's motivation figures 2-4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from repro.chopper.config_gen import ConfigEntry, WorkloadConfig
from repro.chopper.schemes import RANGE, PartitionScheme, SchemeRef
from repro.engine.dependencies import ShuffleDependency
from repro.engine.rdd import RDD, SourceRDD
from repro.engine.shuffled import CogroupRDD, ShuffledRDD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext


# The lineage walks are module functions with their state passed in, not
# nested closures: a recursive closure is a function <-> cell cycle that
# only the cyclic collector frees, once per job.


def _walk_rdds(final_rdd: RDD) -> List[RDD]:
    """Every RDD in the lineage graph, parents before children."""
    ordered: List[RDD] = []
    _post_order(final_rdd, set(), ordered)
    return ordered


def _post_order(rdd: RDD, seen: Set[int], ordered: List[RDD]) -> None:
    if rdd.id in seen:
        return
    seen.add(rdd.id)
    for dep in rdd.deps:
        _post_order(dep.parent, seen, ordered)
    ordered.append(rdd)


def _fixed_parent_partitioner(dep: ShuffleDependency):
    """The user-fixed partitioner pinning ``dep``'s parent, if any.

    Walks partitioning-preserving narrow steps down to the parent's
    shuffle; returns that shuffle's partitioner when it is user-fixed.
    """
    from repro.engine.rdd import MapPartitionsRDD

    parent = dep.parent
    while isinstance(parent, MapPartitionsRDD) and parent.partitioner is not None:
        parent = parent.deps[0].parent
    if isinstance(parent, (ShuffledRDD,)) and parent._shadow.user_fixed:
        return parent._shadow.partitioner
    return None


def _stage_inputs(stage_rdd: RDD):
    """The sources and (shadow) shuffle deps governing a stage's input.

    Walks the stage's narrow pipeline from its terminal RDD and stops at
    the first shuffle-capable RDD on each path, collecting that RDD's
    shadow shuffle dependencies — i.e. the dependencies whose partitioner
    determines the stage's input partitioning, regardless of whether they
    are currently aligned to narrow deps. Sources reached before any
    shuffle boundary are collected for re-splitting.
    """
    sources: List[SourceRDD] = []
    deps: List[ShuffleDependency] = []
    _visit_inputs(stage_rdd, set(), sources, deps)
    return sources, deps


def _visit_inputs(
    rdd: RDD,
    seen: Set[int],
    sources: List[SourceRDD],
    deps: List[ShuffleDependency],
) -> None:
    if rdd.id in seen:
        return
    seen.add(rdd.id)
    if isinstance(rdd, ShuffledRDD):
        deps.append(rdd._shadow)
        # A currently-narrow (fused) aggregation is part of this stage:
        # its own input dependency must follow the same scheme or the
        # fusion would break after retuning.
        if not isinstance(rdd.deps[0], ShuffleDependency):
            _visit_inputs(rdd.deps[0].parent, seen, sources, deps)
        return
    if isinstance(rdd, CogroupRDD):
        for dep, shadow in zip(rdd.deps, rdd._shadows):
            deps.append(shadow)
            if not isinstance(dep, ShuffleDependency):
                _visit_inputs(dep.parent, seen, sources, deps)
        return
    if isinstance(rdd, SourceRDD):
        sources.append(rdd)
        return
    for dep in rdd.deps:
        _visit_inputs(dep.parent, seen, sources, deps)


class ChopperAdvisor:
    """Applies a generated workload config to submitted jobs."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._group_refs: Dict[str, SchemeRef] = {}
        self._entry_refs: Dict[str, SchemeRef] = {}
        self._resplit_sources: Set[int] = set()
        # Diagnostics the tests and benches assert on; the distinct
        # applied signatures are also the run's `config: N of M` count.
        self.applied_stages: List[str] = []
        self.aligned_shuffles: int = 0
        self.inserted_repartitions: int = 0

    # ------------------------------------------------------------------

    def rewrite(self, final_rdd: RDD, ctx: "AnalyticsContext") -> None:
        # 1. Look the config up against the graph AS CONSTRUCTED, so the
        # signatures match what the reference/profiling runs recorded.
        stages = ctx.dag_scheduler.provisional_stages(final_rdd)
        completed = ctx.dag_scheduler._completed_shuffles
        assignments: List[tuple] = []  # (entry, ref, sources, deps)
        for stage in stages:
            entry = self.config.entry(stage.signature)
            if entry is None:
                continue
            self.applied_stages.append(stage.signature)
            ref = self._ref_for(entry)
            ref.resolve_eager()
            sources, deps = _stage_inputs(stage.rdd)
            assignments.append((entry, ref, sources, deps))
        # 2. Undo construction-time narrow alignment everywhere, so
        # retuning an upstream partitioner cannot leave a narrow dep whose
        # co-partitioning assumption no longer holds.
        for rdd in _walk_rdds(final_rdd):
            if isinstance(rdd, (CogroupRDD, ShuffledRDD)):
                rdd.reset_alignment()
        # 3. Apply the collected assignments.
        for entry, ref, sources, deps in assignments:
            self._apply_to_sources(sources, entry)
            self._apply_to_deps(deps, entry, ref, completed)
        # 4. Re-align whatever is (still or newly) co-partitioned.
        self._align(final_rdd)

    # ------------------------------------------------------------------

    def _ref_for(self, entry: ConfigEntry) -> SchemeRef:
        """One SchemeRef per group (shared), else one per entry."""
        if entry.group is not None:
            ref = self._group_refs.get(entry.group)
            if ref is None or ref.scheme != entry.scheme:
                # Group members share a scheme by construction; the first
                # member's ref becomes the group's.
                ref = self._group_refs.setdefault(
                    entry.group, SchemeRef(entry.scheme, group=entry.group)
                )
            return ref
        ref = self._entry_refs.get(entry.signature)
        if ref is None:
            ref = SchemeRef(entry.scheme)
            self._entry_refs[entry.signature] = ref
        return ref

    def _apply_to_sources(
        self, sources: List[SourceRDD], entry: ConfigEntry
    ) -> None:
        for rdd in sources:
            if rdd.id in self._resplit_sources:
                continue
            # Only re-split once per workload run: an already-cached
            # source must keep its granularity and its blocks.
            rdd.set_num_partitions(entry.scheme.num_partitions)
            self._resplit_sources.add(rdd.id)

    def _apply_to_deps(
        self,
        deps: List[ShuffleDependency],
        entry: ConfigEntry,
        ref: SchemeRef,
        completed: Set[int],
    ) -> None:
        # A non-fixed dep whose parent's partitioning is pinned by a
        # user-fixed shuffle is the natural insertion point for the
        # gamma-gated repartition phase: retuning it adds a shuffle stage
        # (the "inserted repartition"); pinning it to the parent's scheme
        # re-fuses and respects the user's choice. A stage's input must
        # stay co-partitioned as a whole, so when one dep pins to a fixed
        # parent, every non-fixed dep of the entry pins with it — a
        # half-pinned cogroup would read mismatched partition spaces.
        live = [d for d in deps if d.shuffle_id not in completed]
        fixed_parents = [
            p for p in (
                _fixed_parent_partitioner(d) for d in live if not d.user_fixed
            )
            if p is not None
        ]
        pin_to = None
        consumer_insertion = False
        if fixed_parents:
            if entry.insert_repartition:
                consumer_insertion = True
                self.inserted_repartitions += 1
            else:
                pin_to = fixed_parents[0]

        for dep in live:
            if dep.user_fixed:
                if entry.insert_repartition and not consumer_insertion:
                    # No downstream dep to turn into the repartition
                    # phase: splice one in front of the fixed stage (the
                    # paper's task-coalescing example).
                    self._insert_repartition(dep, ref)
                continue
            if pin_to is not None:
                dep.partitioner = pin_to
                dep.pending_scheme = None
            else:
                self._assign(dep, entry, ref)

    def _assign(
        self, dep: ShuffleDependency, entry: ConfigEntry, ref: SchemeRef
    ) -> None:
        dep_ref = ref
        if dep.ordered and ref.scheme.kind != RANGE:
            # A sort's global order needs a range partitioner; honor
            # the configured count but keep the kind.
            dep_ref = self._ordered_ref(entry)
        if dep_ref.partitioner is not None:
            dep.partitioner = dep_ref.partitioner
            dep.pending_scheme = None
        else:
            dep.pending_scheme = dep_ref

    def _ordered_ref(self, entry: ConfigEntry) -> SchemeRef:
        key = f"ordered:{entry.signature}"
        ref = self._entry_refs.get(key)
        if ref is None:
            ref = SchemeRef(
                PartitionScheme(RANGE, entry.scheme.num_partitions)
            )
            self._entry_refs[key] = ref
        return ref

    def _insert_repartition(self, dep: ShuffleDependency, ref: SchemeRef) -> None:
        """Splice an identity-shuffle repartition below a fixed dependency.

        The user's partitioner on ``dep`` is preserved; its input is
        re-partitioned first, which is exactly the paper's "insert a new
        repartitioning phase" remedy — the fixed stage now consumes
        well-granulated input without its own scheme changing.
        """
        partitioner = ref.resolve_eager()
        if partitioner is None:
            # Range repartitions for fixed deps would need sampling here;
            # fall back to a hash repartition of the same width.
            from repro.engine.partitioner import HashPartitioner

            partitioner = HashPartitioner(ref.scheme.num_partitions)
        repartitioned = ShuffledRDD(
            dep.parent, partitioner, mode="identity", op_name="chopperRepartition"
        )
        dep.parent = repartitioned
        self.inserted_repartitions += 1

    def _align(self, final_rdd: RDD) -> None:
        """Convert shuffles over co-partitioned parents to narrow deps."""
        for rdd in _walk_rdds(final_rdd):
            if isinstance(rdd, CogroupRDD):
                self.aligned_shuffles += rdd.align_deps()
            elif isinstance(rdd, ShuffledRDD):
                dep = rdd.deps[0]
                if (
                    isinstance(dep, ShuffleDependency)
                    and dep.pending_scheme is None
                    and rdd.align_to_parent()
                ):
                    self.aligned_shuffles += 1


class ProfilingAdvisor:
    """Forces one uniform (partitioner kind, P) on every tunable stage.

    CHOPPER's test runs sweep this advisor over a (kind, P) grid to
    gather the training samples for Eq. 1-2 — and the paper's motivation
    study (uniform 100..500 partitions) is the same sweep.
    """

    def __init__(
        self, kind: str, num_partitions: int, override_fixed: bool = False
    ) -> None:
        self.scheme = PartitionScheme(kind, num_partitions)
        self._resplit_sources: Set[int] = set()
        # Test runs are CHOPPER's own offline experiments; with
        # override_fixed they may vary even user-fixed schemes, so the
        # trained models know what a fixed stage WOULD cost at other P —
        # the data Algorithm 3's gamma test needs.
        self.override_fixed = override_fixed
        # ONE ref for the whole run: a production config shares range
        # bounds across grouped dependencies, so profiling must exhibit
        # the same cross-RDD behaviour (including the §III-B skew when
        # one RDD's bounds mis-partition another) or the trained models
        # would be blind to it.
        self._ref = SchemeRef(self.scheme)
        self._ref.resolve_eager()
        # Sorts keep their global order: ordered deps always get a range
        # scheme at the profiled width.
        self._ordered_ref = SchemeRef(PartitionScheme(RANGE, num_partitions))

    def rewrite(self, final_rdd: RDD, ctx: "AnalyticsContext") -> None:
        completed = ctx.dag_scheduler._completed_shuffles
        # Reset construction-time alignment so retuning is always
        # consistent, then re-align below (uniform schemes re-fuse what
        # was fused before).
        for rdd in _walk_rdds(final_rdd):
            if isinstance(rdd, (CogroupRDD, ShuffledRDD)):
                rdd.reset_alignment()
        for rdd in _walk_rdds(final_rdd):
            if isinstance(rdd, SourceRDD) and rdd.id not in self._resplit_sources:
                rdd.set_num_partitions(self.scheme.num_partitions)
                self._resplit_sources.add(rdd.id)
            for dep in rdd.shuffle_deps():
                if dep.shuffle_id in completed:
                    continue
                if dep.user_fixed and not self.override_fixed:
                    continue
                ref = self._ordered_ref if dep.ordered else self._ref
                if ref.partitioner is not None:
                    dep.partitioner = ref.partitioner
                else:
                    dep.pending_scheme = ref
        for rdd in _walk_rdds(final_rdd):
            if isinstance(rdd, CogroupRDD):
                rdd.align_deps()
            elif isinstance(rdd, ShuffledRDD):
                dep = rdd.deps[0]
                if isinstance(dep, ShuffleDependency) and dep.pending_scheme is None:
                    rdd.align_to_parent()


class FixedSchemeAdvisor:
    """Pin explicit schemes per stage signature (tests and ablations)."""

    def __init__(self, schemes: Dict[str, PartitionScheme]) -> None:
        self.config = WorkloadConfig(workload="fixed")
        for signature, scheme in schemes.items():
            self.config.add(ConfigEntry(signature=signature, scheme=scheme))
        self._delegate = ChopperAdvisor(self.config)

    def rewrite(self, final_rdd: RDD, ctx: "AnalyticsContext") -> None:
        self._delegate.rewrite(final_rdd, ctx)
