"""CHOPPER: the paper's contribution, implemented end to end.

* :mod:`repro.chopper.stats` / :mod:`repro.chopper.workload_db` — the
  statistics collector and workload DB;
* :mod:`repro.chopper.model` — Eq. 1-2 stage performance models;
* :mod:`repro.chopper.cost` — Eq. 3-4 normalized cost objective;
* :mod:`repro.chopper.optimizer` — Algorithms 1 (per stage) and 2 (per
  workload);
* :mod:`repro.chopper.global_opt` — Algorithm 3 (regrouped DAG, shared
  subgraph schemes, gamma-gated repartition insertion);
* :mod:`repro.chopper.config_gen` — the workload configuration file;
* :mod:`repro.chopper.advisor` — the dynamic-partitioning scheduler hook
  (config application, co-partition alignment, repartition splicing);
* :mod:`repro.chopper.runner` — profile → train → optimize → run.
"""

from repro.chopper.advisor import ChopperAdvisor, FixedSchemeAdvisor, ProfilingAdvisor
from repro.chopper.config_gen import ConfigEntry, WorkloadConfig
from repro.chopper.cost import CostWeights, get_min_par, repartition_cost, stage_cost
from repro.chopper.global_opt import (
    GAMMA_DEFAULT,
    RegroupedNode,
    get_global_par,
    get_regrouped_dag,
    get_subgraph_par,
)
from repro.chopper.model import StagePerfModel, fit_models_by_partitioner
from repro.chopper.online import OnlineChopper
from repro.chopper.optimizer import (
    StageScheme,
    get_stage_input,
    get_stage_par,
    get_workload_par,
)
from repro.chopper.runner import ChopperRunner, RunOutcome, improvement
from repro.chopper.schemes import HASH, RANGE, PartitionScheme, SchemeRef
from repro.chopper.stats import RunRecord, StageObservation, StatisticsCollector
from repro.chopper.workload_db import DagStage, WorkloadDB, WorkloadDag

__all__ = [
    "ChopperAdvisor",
    "FixedSchemeAdvisor",
    "ProfilingAdvisor",
    "ConfigEntry",
    "WorkloadConfig",
    "CostWeights",
    "get_min_par",
    "repartition_cost",
    "stage_cost",
    "GAMMA_DEFAULT",
    "RegroupedNode",
    "get_global_par",
    "get_regrouped_dag",
    "get_subgraph_par",
    "StagePerfModel",
    "fit_models_by_partitioner",
    "StageScheme",
    "get_stage_input",
    "get_stage_par",
    "get_workload_par",
    "OnlineChopper",
    "ChopperRunner",
    "RunOutcome",
    "improvement",
    "PartitionScheme",
    "SchemeRef",
    "HASH",
    "RANGE",
    "RunRecord",
    "StageObservation",
    "StatisticsCollector",
    "DagStage",
    "WorkloadDB",
    "WorkloadDag",
]
