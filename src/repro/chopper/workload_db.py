"""Workload DB: CHOPPER's store of observations, models, DAGs.

Per the paper (§III): "Workload DB stores the observed information
including the input and intermediate data size, the number of stages, the
number of tasks per stage, and the resource utilization information" and
the partition optimizer "retrieves application statistics, trains models"
from it.

Layout: per workload name,

* ``runs`` — every :class:`RunRecord`'s observations (training samples);
* ``dag`` — a :class:`WorkloadDag` distilled from a reference run: the
  per-stage structure Algorithm 3 walks (order, parents, join grouping,
  fixed flags, input-size fractions);
* trained :class:`StagePerfModel` pairs, keyed by
  ``(stage signature, partitioner kind)`` — fitted by :meth:`train`.

The DB lives in memory; its persisted form is the run ledger
(:mod:`repro.obs.ledger`), which :meth:`WorkloadDB.add_ledger` folds
back in. Models are never stored: they are a deterministic function of
the observations and the DAG, so a rebuilt DB retrains them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import LedgerError, ModelError
from repro.chopper.model import StagePerfModel, fit_models_by_partitioner
from repro.chopper.stats import RunRecord, StageObservation
from repro.obs.ledger import RunLedger


@dataclass
class DagStage:
    """One stage of a workload's (regroup-able) DAG summary."""

    signature: str
    kind: str
    order: int
    parent_signatures: Tuple[str, ...]
    cogroup_sides: int
    user_fixed: bool
    # Average stage input size as a fraction of the workload input size,
    # used to estimate D for a new input size (get_stage_input).
    input_fraction: float
    repeats: int = 1  # how many times this signature executed in the run
    # Scheme observed in the reference run (Algorithm 3's "current" scheme
    # for user-fixed stages).
    observed_partitioner_kind: Optional[str] = None
    observed_num_partitions: int = 0
    # Sources whose granularity this stage inherits (Algorithm 3 groups).
    source_signatures: Tuple[str, ...] = ()


@dataclass
class WorkloadDag:
    """Ordered stage summary of one workload (Algorithm 3's input)."""

    stages: List[DagStage] = field(default_factory=list)

    def stage(self, signature: str) -> DagStage:
        for stage in self.stages:
            if stage.signature == signature:
                return stage
        raise ModelError(f"no DAG stage with signature {signature!r}")

    def signatures(self) -> List[str]:
        return [s.signature for s in self.stages]

    @classmethod
    def from_run(cls, record: RunRecord) -> "WorkloadDag":
        """Distill the DAG summary from a reference run's observations.

        Repeated signatures (iterative stages, the paper's KMeans 12-17)
        collapse into one DagStage with ``repeats`` counting executions
        and ``input_fraction`` averaging over them.
        """
        dag = cls()
        seen: Dict[str, DagStage] = {}
        total = max(record.input_bytes, 1.0)
        for obs in record.observations:
            frac = obs.input_bytes / total
            existing = seen.get(obs.signature)
            if existing is None:
                stage = DagStage(
                    signature=obs.signature,
                    kind=obs.kind,
                    order=obs.order,
                    parent_signatures=obs.parent_signatures,
                    cogroup_sides=obs.cogroup_sides,
                    user_fixed=obs.user_fixed,
                    input_fraction=frac,
                    observed_partitioner_kind=obs.partitioner_kind,
                    observed_num_partitions=obs.num_partitions,
                    source_signatures=obs.source_signatures,
                )
                seen[obs.signature] = stage
                dag.stages.append(stage)
            else:
                existing.input_fraction = (
                    existing.input_fraction * existing.repeats + frac
                ) / (existing.repeats + 1)
                existing.repeats += 1
        return dag


class WorkloadDB:
    """Observations + DAGs + trained models, per workload name."""

    def __init__(self) -> None:
        self._observations: Dict[str, List[StageObservation]] = {}
        self._dags: Dict[str, WorkloadDag] = {}
        self._models: Dict[Tuple[str, str, str], StagePerfModel] = {}

    # -- observations ---------------------------------------------------

    def add_run(self, record: RunRecord) -> None:
        self._observations.setdefault(record.workload, []).extend(
            record.observations
        )

    def add_ledger(self, ledger: RunLedger, workload: str) -> int:
        """Fold a run ledger's runs of ``workload`` in; returns runs folded.

        The ledger is the DB's persisted form (§III-B: CHOPPER
        "remembers the statistics from the user workload execution").
        Every entry of ``workload`` adds its observations in append
        order, and the reference run with the largest input (the latest
        among equals) sets the DAG, as in :meth:`ChopperRunner.profile`:
        a sweep's ledger rebuilds the sweep's DB. Raises LedgerError,
        naming the ledger and the workload, when the ledger is
        unreadable or the DB is left without a DAG for ``workload``.
        """
        try:
            entries = [e for e in ledger.entries() if e["workload"] == workload]
        except LedgerError as exc:
            raise LedgerError(f"cannot replay {workload!r} runs: {exc}") from None
        references = []
        for entry in entries:
            record = RunRecord.from_ledger_entry(entry)
            self.add_run(record)
            if entry["label"].startswith("reference@"):
                references.append(record)
        if references:
            largest = max(reversed(references), key=lambda r: r.input_bytes)
            self.set_dag(workload, WorkloadDag.from_run(largest))
        if not self.has_dag(workload):
            raise LedgerError(
                f"{ledger.path} holds no reference run of {workload!r} "
                f"(`repro profile` writes one)"
            )
        return len(entries)

    def add_observation(self, workload: str, observation: StageObservation) -> None:
        """Append a single production observation (online adaptation)."""
        self._observations.setdefault(workload, []).append(observation)

    def observations(
        self,
        workload: str,
        signature: Optional[str] = None,
        partitioner_kind: Optional[str] = None,
    ) -> List[StageObservation]:
        rows = self._observations.get(workload, [])
        if signature is not None:
            rows = [o for o in rows if o.signature == signature]
        if partitioner_kind is not None:
            rows = [
                o for o in rows
                if o.partitioner_kind in (partitioner_kind, None)
            ]
        return rows

    def workloads(self) -> List[str]:
        return sorted(self._observations)

    # -- DAG summaries ---------------------------------------------------

    def set_dag(self, workload: str, dag: WorkloadDag) -> None:
        self._dags[workload] = dag

    def dag(self, workload: str) -> WorkloadDag:
        try:
            return self._dags[workload]
        except KeyError:
            raise ModelError(
                f"no DAG recorded for workload {workload!r}; run a reference "
                f"profile first"
            ) from None

    def has_dag(self, workload: str) -> bool:
        return workload in self._dags

    # -- models ------------------------------------------------------------

    def set_model(
        self, workload: str, signature: str, partitioner_kind: str,
        model: StagePerfModel,
    ) -> None:
        self._models[(workload, signature, partitioner_kind)] = model

    def model(
        self, workload: str, signature: str, partitioner_kind: str
    ) -> StagePerfModel:
        try:
            return self._models[(workload, signature, partitioner_kind)]
        except KeyError:
            raise ModelError(
                f"no trained {partitioner_kind} model for stage "
                f"{signature!r} of {workload!r}"
            ) from None

    def has_model(
        self, workload: str, signature: str, partitioner_kind: str
    ) -> bool:
        return (workload, signature, partitioner_kind) in self._models

    def train(self, workload: str) -> int:
        """Fit Eq. 1-2 models for every DAG stage; returns models stored.

        The one training fold, offline (:meth:`ChopperRunner.train`)
        and online (:meth:`OnlineChopper.refresh`): per stage signature,
        a model for every partitioner kind with enough observations.
        """
        trained = 0
        for signature in self.dag(workload).signatures():
            try:
                models = fit_models_by_partitioner(
                    self.observations(workload, signature=signature)
                )
            except ModelError:
                continue
            for kind, model in models.items():
                self.set_model(workload, signature, kind, model)
                trained += 1
        return trained
