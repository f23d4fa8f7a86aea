#!/usr/bin/env python
"""Ledger replay and run reports.

Shows two production-oriented features around the core optimizer:

1. **The run ledger** — production runs append a JSONL entry each (the
   Spark history-server pattern) and are fed back into the workload DB
   offline, from the file alone, before training;
2. **Reports** — the ASCII task Gantt and per-stage tables that make
   wave quantization and stragglers visible.
"""

import tempfile
from pathlib import Path

from repro.chopper import ChopperRunner
from repro.common.units import fmt_duration
from repro.obs import RunLedger
from repro.reporting import gantt, stage_report, utilization_report
from repro.workloads import KMeansWorkload


def main() -> None:
    workload = KMeansWorkload(
        virtual_gb=10.0, physical_records=4000, lloyd_iterations=3,
        init_rounds=2,
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
    added = runner.db.add_ledger(RunLedger(str(ledger_path)), workload.name)
    models = runner.train()
    print(f"replayed {added} ledger entry, trained {models} models")

    # --- 3. the CHOPPER run, with its reports -----------------------------
    chopper = runner.run_chopper()
    print(f"\nchopper run: {fmt_duration(chopper.total_time)}"
          f" (vanilla was {fmt_duration(production.total_time)})")
    print("\ntask timeline (chopper run):")
    print(gantt(chopper.ctx, width=72))
    print("\nutilization (chopper run):")
    print(utilization_report(chopper.ctx))


if __name__ == "__main__":
    main()
