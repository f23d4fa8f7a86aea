#!/usr/bin/env python
"""Online adaptation, ledger replay, and run reports.

Shows three production-oriented features around the core optimizer:

1. **The run ledger** — production runs append a JSONL entry each (the
   Spark history-server pattern) and are fed back into the workload DB
   offline, from the file alone;
2. **Online adaptation** — during a run, CHOPPER keeps collecting stage
   statistics, refits its models, and rewrites the config in place, so
   later iterations of an iterative workload use fresher schemes;
3. **Reports** — the ASCII task Gantt and per-stage tables that make
   wave quantization and stragglers visible.
"""

import tempfile
from pathlib import Path

from repro.chopper import ChopperRunner, OnlineChopper
from repro.cluster import paper_cluster
from repro.common.units import fmt_duration
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import RunLedger
from repro.reporting import gantt, stage_report, utilization_report
from repro.workloads import LogisticRegressionWorkload


def main() -> None:
    workload = LogisticRegressionWorkload(
        virtual_gb=10.0, physical_records=4000, iterations=4
    )
    runner = ChopperRunner(workload)

    # --- 1. a "production" run, remembered in the run ledger -------------
    ledger_path = Path(tempfile.mkdtemp(prefix="repro-ledger-")) / "runs.jsonl"
    runner.ledger = RunLedger(str(ledger_path))
    production = runner.run_vanilla()
    runner.ledger = None  # the test runs below are not production runs
    print(f"production run recorded -> {ledger_path}")
    print(
        stage_report(
            production.ctx.stage_stats, title="production run (vanilla)"
        )
    )

    # --- 2. profile + fold the ledger back into the DB -------------------
    print("\nprofiling test runs...")
    runner.profile(p_grid=(100, 300, 600, 1000), scales=(1.0,))
    runner.db.add_ledger(RunLedger(str(ledger_path)), workload.name)
    runner.train()

    # --- 3. an online-adapting CHOPPER run -------------------------------
    online_ctx = AnalyticsContext(
        paper_cluster(),
        EngineConf(default_parallelism=300, copartition_scheduling=True),
    )
    online = OnlineChopper(
        runner.db, workload.name, workload.input_bytes, runner.weights,
        refit_every=4,
    )
    with online.attach(online_ctx):
        workload.run(online_ctx)
    print(f"\nonline run: {fmt_duration(online_ctx.now)}"
          f" (vanilla was {fmt_duration(production.total_time)});"
          f" models refit {online.refits}x during the run")
    # Every job of the run looked its stages up in the config: how many
    # of its entries matched a stage and applied.
    applied = len(set(online.advisor.applied_stages))
    print(f"config: {applied} of {len(online.config)} entries applied")

    print("\ntask timeline (online run):")
    print(gantt(online_ctx, width=72))
    print("\nutilization (online run):")
    print(utilization_report(online_ctx))


if __name__ == "__main__":
    main()
