"""Online adaptation: dynamic config updates during a production run.

§III-A: "Our system allows dynamic updates to the Spark configuration
file whenever more runtime information is obtained ... DAGScheduler
periodically checks the updated configuration file and uses the updated
partitioning scheme if available."

:class:`OnlineChopper` wires that loop together for one context:

* it listens to stage completions and feeds every observation into the
  workload DB (production statistics, §III-B: "CHOPPER also remembers
  the statistics from the user workload execution in a production
  environment");
* every ``refit_every`` completed stages it refits the models and
  regenerates the config via Algorithm 3;
* the config object is updated **in place**, so the installed
  :class:`ChopperAdvisor` picks the new tuples up at the next job
  submission — iterative workloads adapt between iterations.

Use it as a context manager around the workload run::

    with OnlineChopper(runner_db, "kmeans", d_total, weights).attach(ctx):
        workload.run(ctx)
"""

from __future__ import annotations

from typing import Optional

from repro.chopper.advisor import ChopperAdvisor
from repro.chopper.config_gen import WorkloadConfig
from repro.chopper.cost import CostWeights
from repro.chopper.global_opt import GAMMA_DEFAULT, get_global_par
from repro.chopper.stats import RunRecord
from repro.chopper.workload_db import WorkloadDB
from repro.common.errors import ModelError
from repro.engine.context import AnalyticsContext
from repro.engine.listener import Listener, StageStats


class OnlineChopper(Listener):
    """Feeds production observations back into the optimizer, live."""

    def __init__(
        self,
        db: WorkloadDB,
        workload: str,
        d_total: float,
        weights: CostWeights,
        gamma: float = GAMMA_DEFAULT,
        cluster_parallelism: int = 136,
        refit_every: int = 5,
    ) -> None:
        if refit_every < 1:
            raise ModelError("refit_every must be >= 1")
        self.db = db
        self.workload = workload
        self.d_total = d_total
        self.weights = weights
        self.gamma = gamma
        self.cluster_parallelism = cluster_parallelism
        self.refit_every = refit_every

        self.config = self._generate()
        self.advisor = ChopperAdvisor(self.config)
        self.refits = 0
        self._since_refit = 0
        # The production run as observed so far (what a collector on
        # the same context would hold).
        self.record = RunRecord(workload=workload, input_bytes=d_total)
        self._ctx: Optional[AnalyticsContext] = None

    # ------------------------------------------------------------------

    def attach(self, ctx: AnalyticsContext) -> "_OnlineScope":
        ctx.set_advisor(self.advisor)
        ctx.listener_bus.add(self)
        self._ctx = ctx
        return _OnlineScope(self, ctx)

    def detach(self, ctx: AnalyticsContext) -> None:
        ctx.listener_bus.remove(self)
        ctx.set_advisor(None)
        self._ctx = None

    # ------------------------------------------------------------------

    def on_stage_completed(self, stage_stats: StageStats) -> None:
        observation = self.record.observe(stage_stats)
        if observation is None:  # partial lineage-recovery re-run
            return
        self.db.add_observation(self.workload, observation)
        self._since_refit += 1
        if self._since_refit >= self.refit_every:
            self._since_refit = 0
            self.refresh()

    def refresh(self) -> None:
        """Refit models on all data (offline + production) and regenerate
        the config in place — the paper's "dynamic update" step."""
        self.db.train(self.workload)
        new_config = self._generate()
        # In-place swap: the installed advisor reads self.config.entries
        # at every job submission.
        self.config.entries.clear()
        self.config.entries.update(new_config.entries)
        self.refits += 1

    def _generate(self) -> WorkloadConfig:
        schemes = get_global_par(
            self.db, self.workload, self.d_total, self.weights,
            gamma=self.gamma, cluster_parallelism=self.cluster_parallelism,
        )
        return WorkloadConfig.from_schemes(self.workload, schemes)


class _OnlineScope:
    def __init__(self, online: OnlineChopper, ctx: AnalyticsContext) -> None:
        self.online = online
        self.ctx = ctx

    def __enter__(self) -> OnlineChopper:
        return self.online

    def __exit__(self, *exc) -> None:
        self.online.detach(self.ctx)
