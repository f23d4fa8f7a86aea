"""The CHOPPER orchestration loop: profile → train → optimize → run.

Mirrors the paper's system flow (§III, Fig. 5):

1. **Profile** — lightweight test runs sweep partition counts and both
   partitioner kinds (ProfilingAdvisor) at one or more sampled input
   scales; the statistics collector feeds every stage execution into the
   workload DB. A vanilla reference run records the DAG summary.
2. **Train** — per (stage signature, partitioner kind), fit the Eq. 1-2
   models. Offline, "not in the critical path of workload execution".
3. **Optimize** — Algorithm 3 (or Algorithm 2 for the ablation) computes
   the per-stage schemes and the config generator writes the workload
   config file.
4. **Run** — the production run installs a :class:`ChopperAdvisor` built
   from the config plus co-partition-aware scheduling, and is compared
   against the vanilla default (300 partitions, hash, no advisor).
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.chopper.advisor import ChopperAdvisor, ProfilingAdvisor
from repro.chopper.config_gen import WorkloadConfig
from repro.chopper.cost import CostWeights
from repro.chopper.global_opt import GAMMA_DEFAULT, get_global_par
from repro.chopper.optimizer import get_workload_par
from repro.chopper.stats import RunRecord, StatisticsCollector
from repro.chopper.workload_db import WorkloadDB, WorkloadDag
from repro.cluster.cluster import Cluster, paper_cluster
from repro.common.errors import ConfigurationError, ModelError
from repro.engine.context import AnalyticsContext, EngineConf
from repro.obs import (
    EventLog,
    LedgerCollector,
    MetricsRegistry,
    ResourceProfiler,
    RunLedger,
    Tracer,
)
from repro.workloads.base import Workload, WorkloadResult


@dataclass
class RunOutcome:
    """One measured workload run (vanilla or CHOPPER).

    ``ctx`` is the run's context, already closed: stats, metrics and
    results stay readable, spilled payloads and the cache backend are
    released. It is None when the run was measured in a worker process
    (``jobs > 1``) — contexts hold live closures and never cross the
    process boundary; everything reported comes from ``record``.
    ``advice`` is what the advisor did, the ledger entry's ``chopper``
    block (None for vanilla). ``run_id`` names the run's ledger entry,
    set when the driver appends it.
    """

    label: str
    scale: float
    record: RunRecord
    result: WorkloadResult
    ctx: Optional[AnalyticsContext]
    advice: Optional[dict] = None
    run_id: Optional[str] = None

    @property
    def total_time(self) -> float:
        return self.record.total_time

    @property
    def total_shuffle_bytes(self) -> float:
        return sum(o.shuffle_bytes for o in self.record.observations)


class RunSpec(NamedTuple):
    """The picklable inputs of one measured run.

    ``advisor`` is None (vanilla), ``("profiling", kind, P)`` or
    ``("config", WorkloadConfig)``: advisors are rebuilt from their
    constructor arguments where the run executes. ``sinks`` names the
    telemetry the run collects, by the key it ships under in the blob:
    ``metrics``, ``logs``, ``profile``, ``spans``, ``body``.
    """

    workload: Workload
    cluster_factory: Callable[[], Cluster]
    conf: EngineConf
    advisor: Optional[tuple]
    scale: float
    label: str
    sinks: FrozenSet[str]


def measured_run(spec: RunSpec) -> Tuple[RunOutcome, dict]:
    """CHOPPER's one primitive: run the workload once under a scheme.

    Every measured run — a sweep test run, the vanilla/CHOPPER pair,
    ``repro run`` — is this function, in the driver or in a pool worker
    (module-level, so it pickles by reference). It builds the context,
    attaches *fresh per-run* sinks, runs, and closes the context before
    returning or raising, so a run always flushes its zone-map cache and
    removes its spill files. Alongside the outcome it returns the
    telemetry blob the driver folds into its shared sinks (see
    :meth:`ChopperRunner._fold`): one key per requested sink, plus
    ``nodes`` / ``plan_events`` with ``spans``.
    """
    workload, cluster_factory, base_conf, advisor_spec, scale, label, sinks = spec
    if advisor_spec is None:
        advisor = None
    elif advisor_spec[0] == "profiling":
        advisor = ProfilingAdvisor(
            advisor_spec[1], advisor_spec[2], override_fixed=True
        )
    else:
        advisor = ChopperAdvisor(advisor_spec[1])
    # A config-driven run gets co-partition-aware scheduling (step 4).
    conf = replace(
        base_conf, copartition_scheduling=isinstance(advisor, ChopperAdvisor)
    )
    registry = MetricsRegistry() if "metrics" in sinks else None
    log = EventLog() if "logs" in sinks else None
    tracer = Tracer() if "spans" in sinks else None
    ledger_collector = LedgerCollector() if "body" in sinks else None
    collector = StatisticsCollector(workload.name, workload.virtual_bytes(scale))
    profiler = ResourceProfiler() if "profile" in sinks else None
    blob: dict = {}
    with ExitStack() as stack:
        if profiler is not None:
            profiler.start()
            stack.callback(profiler.stop)
        ctx = AnalyticsContext(
            cluster_factory(), conf,
            metrics_registry=registry, event_log=log, profiler=profiler,
        )
        # Also when the workload raises: an error must not leave spill
        # files and an open cache backend to the garbage collector.
        stack.callback(ctx.close)
        if log is not None:
            log.bind(run=label)
        ctx.obs.event("measured_run", label=label, scale=scale)
        if advisor is not None:
            ctx.set_advisor(advisor)
        if tracer is not None:
            ctx.obs.set_tracer(tracer)
        if ledger_collector is not None:
            stack.enter_context(ledger_collector.attached(ctx))
        stack.enter_context(collector.attached(ctx))
        result = workload.run(ctx, scale=scale)
        advice = _advisor_summary(advisor)
        if ledger_collector is not None:
            # Read while the cache backend is open: the body counts its
            # entries and this run's still-pending misses.
            blob["body"] = {
                **ledger_collector.body(),
                "scale": scale,
                "input_bytes": workload.virtual_bytes(scale),
                "config": dataclasses.asdict(conf),
                "cluster": dict(ctx.obs.nodes),
                "chopper": advice,
            }
    if registry is not None:
        blob["metrics"] = registry.dump_state()
    if log is not None:
        blob["logs"] = log.records
    if tracer is not None:
        blob["spans"] = tracer.events
        blob["nodes"] = dict(ctx.obs.nodes)
        blob["plan_events"] = list(ctx.plan_events)
    if profiler is not None:
        blob["profile"] = profiler.rollup()
        if ledger_collector is not None:
            # Host-resource measurements are real (wall clock, RSS),
            # hence non-deterministic; identity checks must drop this
            # key before hashing entries.
            blob["body"]["profile"] = blob["profile"]
    outcome = RunOutcome(
        label=label, scale=scale, record=collector.record, result=result,
        ctx=ctx, advice=advice,
    )
    return outcome, blob


def _advisor_summary(advisor) -> Optional[dict]:
    """What partitioning advice drove the run, for the ledger entry.

    A config-driven run also records how many of its entries (one per
    ``schemes`` item) matched a stage signature of the run and applied.
    """
    if advisor is None:
        return None
    if isinstance(advisor, ChopperAdvisor):
        return {
            "advisor": "chopper",
            "schemes": [e.to_dict() for e in advisor.config.entries.values()],
            "applied": len(set(advisor.applied_stages)),
        }
    return {
        "advisor": "profiling",
        "kind": advisor.scheme.kind,
        "P": advisor.scheme.num_partitions,
    }


@dataclass
class ChopperRunner:
    """Drives the full CHOPPER pipeline for one workload."""

    workload: Workload
    cluster_factory: Callable[[], Cluster] = paper_cluster
    base_conf: EngineConf = field(default_factory=lambda: EngineConf())
    db: WorkloadDB = field(default_factory=WorkloadDB)
    weights: Optional[CostWeights] = None
    gamma: float = GAMMA_DEFAULT
    # Observability: when set, every measured run of this pipeline lands
    # on one shared trace timeline / metrics registry (CLI --trace /
    # --metrics), appends a structured entry to the run ledger (CLI
    # --ledger), and feeds a shared structured event log (CLI --log) and
    # sweep resource profiler (CLI --profile). Runs collect into fresh
    # per-run sinks wherever they execute and the driver folds them in
    # here in spec order, so every sink survives ``jobs > 1``.
    tracer: Optional[Tracer] = None
    metrics_registry: Optional[MetricsRegistry] = None
    ledger: Optional[RunLedger] = None
    event_log: Optional[EventLog] = None
    profiler: Optional[ResourceProfiler] = None

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = CostWeights(
                default_parallelism=self.base_conf.default_parallelism
            )

    # ------------------------------------------------------------------
    # Step 1: profiling test runs
    # ------------------------------------------------------------------

    def profile(
        self,
        p_grid: Sequence[int] = (100, 200, 300, 500, 800),
        kinds: Sequence[str] = ("hash", "range"),
        scales: Sequence[float] = (0.25, 1.0),
        jobs: Optional[int] = None,
    ) -> int:
        """Run the (kind, P, scale) sweep; returns the number of test runs.

        Also performs one vanilla reference run per scale to record the
        DAG summary with the default scheme (needed by Algorithm 3's
        fixed-stage test and by ``get_stage_input``).

        ``jobs`` > 1 fans the independent test runs over a process pool
        (default: ``base_conf.physical_parallelism``); records and
        telemetry fold in spec order, so the DB and every sink are
        identical to a ``jobs=1`` sweep. Unpicklable workloads or
        cluster factories run in-process.
        """
        jobs = self._resolve_jobs(jobs)
        specs: List[RunSpec] = []
        for scale in scales:
            specs.append(self._spec(None, scale, f"reference@{scale}"))
            for kind in kinds:
                for p in p_grid:
                    specs.append(self._spec(
                        ("profiling", kind, p), scale,
                        f"profile-{kind}-{p}@{scale}",
                    ))
        with self._phase("profile", grid=list(p_grid), scales=list(scales)):
            for spec, outcome in zip(specs, self._run(specs, jobs)):
                self.db.add_run(outcome.record)
                if spec.advisor is None and spec.scale == max(scales):
                    self.db.set_dag(
                        self.workload.name, WorkloadDag.from_run(outcome.record)
                    )
        return len(specs)

    def _resolve_jobs(self, jobs: Optional[int]) -> int:
        if jobs is None:
            return self.base_conf.physical_parallelism
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        return jobs

    # ------------------------------------------------------------------
    # Step 2: model training
    # ------------------------------------------------------------------

    def train(self) -> int:
        """Fit Eq. 1-2 models for every stage; returns models trained."""
        with self._phase("train"):
            trained = self.db.train(self.workload.name)
        if trained == 0:
            raise ModelError("training produced no models; profile more")
        return trained

    # ------------------------------------------------------------------
    # Step 3: optimization / config generation
    # ------------------------------------------------------------------

    def optimize(self, mode: str = "global", scale: float = 1.0) -> WorkloadConfig:
        """Generate the workload config file (Algorithm 3 or 2)."""
        d_total = self.workload.virtual_bytes(scale)
        assert self.weights is not None
        with self._phase("optimize", mode=mode):
            if mode == "global":
                schemes = get_global_par(
                    self.db, self.workload.name, d_total, self.weights,
                    gamma=self.gamma,
                    cluster_parallelism=self.cluster_factory().total_cores,
                )
                if self.tracer is not None:
                    for s in schemes:
                        self.tracer.instant(
                            f"scheme:{s.signature[:12]}", "chopper.optimizer",
                            signature=s.signature, kind=s.scheme.kind,
                            P=s.scheme.num_partitions, cost=round(s.cost, 4),
                            group=s.group,
                        )
            elif mode == "per-stage":
                schemes = get_workload_par(
                    self.db, self.workload.name, d_total, self.weights,
                    tracer=self.tracer,
                )
            else:
                raise ModelError(f"unknown optimization mode {mode!r}")
        return WorkloadConfig.from_schemes(self.workload.name, schemes)

    # ------------------------------------------------------------------
    # Step 4: measured runs
    # ------------------------------------------------------------------

    def measure(
        self,
        advisor: Optional[tuple] = None,
        scale: float = 1.0,
        label: str = "run",
    ) -> RunOutcome:
        """One measured run under ``advisor`` (see :class:`RunSpec`)."""
        (outcome,) = self._run([self._spec(advisor, scale, label)])
        return outcome

    def run_vanilla(self, scale: float = 1.0) -> RunOutcome:
        """The paper's baseline: fixed default parallelism, hash, no advisor."""
        return self.measure(None, scale, "vanilla")

    def run_chopper(
        self,
        config: Optional[WorkloadConfig] = None,
        mode: str = "global",
        scale: float = 1.0,
    ) -> RunOutcome:
        """The CHOPPER run: config-driven advisor + co-partition scheduling."""
        if config is None:
            config = self.optimize(mode=mode, scale=scale)
        return self.measure(("config", config), scale, "chopper")

    def compare(
        self, mode: str = "global", scale: float = 1.0,
        jobs: Optional[int] = None,
    ) -> Tuple[RunOutcome, RunOutcome]:
        """(vanilla, chopper) outcomes at the same scale.

        ``jobs`` > 1 runs the two independent measured runs in worker
        processes (an outcome measured there carries ``ctx=None``).
        """
        def pair() -> Iterator[RunSpec]:
            yield self._spec(None, scale, "vanilla")
            # Optimized when the spec is asked for: after the vanilla
            # run at jobs=1 (a trace shows the optimizer between the
            # two runs), up front when a pool wants the whole list.
            config = self.optimize(mode=mode, scale=scale)
            yield self._spec(("config", config), scale, "chopper")

        vanilla, chopper = self._run(pair(), self._resolve_jobs(jobs))
        return vanilla, chopper

    # ------------------------------------------------------------------

    def _phase(self, label: str, **args):
        """A tracer phase span, or a no-op when untraced."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.phase(label, **args)

    def _spec(
        self, advisor: Optional[tuple], scale: float, label: str
    ) -> RunSpec:
        sinks = {
            "spans": self.tracer,
            "metrics": self.metrics_registry,
            "logs": self.event_log,
            "profile": self.profiler,
            "body": self.ledger,
        }
        return RunSpec(
            self.workload, self.cluster_factory, self.base_conf,
            advisor, scale, label,
            frozenset(key for key, sink in sinks.items() if sink is not None),
        )

    def _run(
        self, specs: Iterable[RunSpec], jobs: int = 1
    ) -> Iterator[RunOutcome]:
        """Measure ``specs``, folding each result as it is produced.

        Lazy on purpose: at ``jobs=1`` the next run builds its context
        only once this one is closed and folded, so a sweep never holds
        more than one run's blocks.
        """
        # Imported here: parallel imports measured_run from this module.
        from repro.chopper import parallel

        for outcome, blob in parallel.run_specs(specs, jobs):
            self._fold(outcome, blob)
            yield outcome

    def _fold(self, outcome: RunOutcome, blob: dict) -> None:
        """Merge one measured run's telemetry blob into the shared sinks.

        The only driver-side merge, called in spec order wherever the
        run executed, so sweeps aggregate through one float-operation
        and sequence-number order and repeat byte-identically at any
        ``jobs``. Pool-dispatched runs carry a deterministic ``worker``
        slot label: their metric deltas land twice — in the unlabeled
        totals, and under ``worker=wN`` so per-worker series survive
        aggregation — and their log records gain a ``worker`` field.
        """
        worker = blob.get("worker")
        if self.metrics_registry is not None:
            self.metrics_registry.merge_state(blob["metrics"])
            if worker is not None:
                self.metrics_registry.merge_state(
                    blob["metrics"], extra_labels={"worker": worker}
                )
        if self.event_log is not None:
            self.event_log.extend(blob["logs"], worker=worker)
        if self.profiler is not None:
            self.profiler.merge(blob["profile"])
        if self.tracer is not None:
            # Each run's sim clock started at 0: replay its spans past
            # the trace horizon, so the pipeline renders as consecutive
            # runs on one timeline.
            self.tracer.declare_nodes(blob["nodes"])
            with self.tracer.scope(outcome.label, scale=outcome.scale):
                for event in blob["spans"]:
                    self.tracer.on_span(event)
            for event in blob["plan_events"]:
                self.tracer.instant(
                    "plan-optimized", "relational.plan",
                    rule_hits=event.get("rule_hits", {}),
                    nodes_before=event.get("nodes_before"),
                    nodes_after=event.get("nodes_after"),
                )
        if self.ledger is not None:
            outcome.run_id = self.ledger.append(
                self.workload.name, outcome.label, blob["body"]
            )


def improvement(vanilla: RunOutcome, chopper: RunOutcome) -> float:
    """Fractional execution-time improvement of CHOPPER over vanilla."""
    if vanilla.total_time <= 0:
        return 0.0
    return 1.0 - chopper.total_time / vanilla.total_time
