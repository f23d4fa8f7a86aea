"""A heavy module is imported only by the run that uses its feature.

A ``jobs=1`` CHOPPER journey opens no result cache, starts no pool and
logs nothing, so it must not keep ``sqlite3``, ``logging``, the process
pool, the shared-memory data plane, the relational layer or
``numpy.ma`` resident. Each case runs in a fresh interpreter and reports
which of the watched modules ended up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

WATCHED = (
    "sqlite3",
    "logging",
    "concurrent.futures",
    "multiprocessing",
    "repro.engine.shm",
    "repro.relational",
    "numpy.ma",
)

PRELUDE = f"""
import json, sys
sys.path.insert(0, {os.path.abspath(SRC)!r})
import repro.chopper, repro.workloads
from repro.chopper import ChopperRunner
from repro.chopper.workload_db import WorkloadDB
from repro.engine import AnalyticsContext, EngineConf
from repro.workloads import KMeansWorkload, SQLWorkload
"""

REPORT = f"""
print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))
"""

CHOPPER_JOURNEY = """
kmeans = KMeansWorkload(physical_records=500, lloyd_iterations=1, init_rounds=1)
ctx = AnalyticsContext(conf=EngineConf(default_parallelism=4))
kmeans.run(ctx)
ctx.close()
runner = ChopperRunner(kmeans, base_conf=EngineConf(default_parallelism=4), db=WorkloadDB())
runner.profile(p_grid=[4], kinds=["hash"], scales=[0.05], jobs=1)
runner.train()
runner.optimize(scale=0.05)
"""

CACHED_THREADED_SQL = """
from repro.engine.costmodel import CostModelConfig
conf = EngineConf(default_parallelism=4, physical_parallelism=2,
                  cost=CostModelConfig(driver_dispatch_interval=0.0),
                  result_cache="sqlite", result_cache_path=sys.argv[1])
ctx = AnalyticsContext(conf=conf)
SQLWorkload(physical_records=600, max_order=100).run(ctx)
ctx.close()
"""


def loaded(body: str, *args: str) -> set:
    """The watched modules a fresh interpreter holds after ``body``."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body + REPORT, *args],
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return set(json.loads(proc.stdout))


class TestImportOnUse:
    def test_chopper_journey_loads_no_unused_feature(self):
        assert loaded(CHOPPER_JOURNEY) == set()

    def test_cached_threaded_sql_loads_its_features(self, tmp_path):
        # Non-vacuity: the same probe sees a module once its feature runs.
        mods = loaded(CACHED_THREADED_SQL, str(tmp_path / "cache.sqlite"))
        assert {"sqlite3", "repro.relational", "concurrent.futures", "logging"} <= mods
