"""Pool-dispatch fallbacks: small sweeps, single cores, broken pools.

The procs4 regression fix: ``run_specs`` must refuse to pay fork +
segment overhead when the pool cannot win, and every fallback path must
produce a workload DB equal to the serial loop's (it *is* the
serial loop).
"""

import os

import pytest

from repro.chopper import ChopperRunner
from repro.chopper import parallel as par
from repro.chopper.workload_db import WorkloadDB
from repro.engine import EngineConf, shm
from repro.workloads import KMeansWorkload
from repro.workloads.datagen import clear_block_cache

SMALL_RECORDS = 2_000  # well below SMALL_RUN_RECORDS = 25_000


class CrashyKMeans(KMeansWorkload):
    """Dies instantly in any process except the one named by env var.

    Module-level so it pickles by reference into forked pool workers;
    the driver re-running the spec inline after the pool breaks is the
    surviving path and must still produce the real answer.
    """

    def run(self, ctx, scale=1.0):
        if os.getpid() != int(os.environ.get("REPRO_TEST_DRIVER_PID", "0")):
            os._exit(1)
        return super().run(ctx, scale=scale)


def _sweep(workload, jobs):
    """One tiny profiling sweep; returns its runner."""
    conf = EngineConf(default_parallelism=16)
    runner = ChopperRunner(workload, base_conf=conf, db=WorkloadDB())
    clear_block_cache()
    runner.profile(p_grid=[8, 16], kinds=["hash"], scales=[0.05], jobs=jobs)
    return runner


def _dbs_match(runner_a, runner_b):
    name = runner_a.workload.name
    return (runner_a.db.observations(name), runner_a.db.dag(name)) == (
        runner_b.db.observations(name), runner_b.db.dag(name)
    )


@pytest.fixture(autouse=True)
def clean_dispatch():
    par.last_dispatch = ""


class TestInlineFallback:
    def test_small_sweep_runs_inline(self, monkeypatch):
        # Pretend we have cores so only the size guard can trigger.
        monkeypatch.setattr(par, "_usable_cores", lambda: 4)
        serial = _sweep(KMeansWorkload(physical_records=SMALL_RECORDS), jobs=1)
        assert par.last_dispatch == "serial"  # one worker: run_specs' loop
        pooled = _sweep(KMeansWorkload(physical_records=SMALL_RECORDS), jobs=2)
        assert par.last_dispatch == "inline-small"
        assert _dbs_match(serial, pooled)

    def test_single_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(par, "_usable_cores", lambda: 1)
        # Size guard off: the core count alone must force the fallback.
        monkeypatch.setattr(par, "SMALL_RUN_RECORDS", 0)
        serial = _sweep(KMeansWorkload(physical_records=SMALL_RECORDS), jobs=1)
        pooled = _sweep(KMeansWorkload(physical_records=SMALL_RECORDS), jobs=2)
        assert par.last_dispatch == "inline-cores"
        assert _dbs_match(serial, pooled)

    def test_size_floor_is_on_the_largest_run(self, monkeypatch):
        monkeypatch.setattr(par, "_usable_cores", lambda: 4)
        small = KMeansWorkload(physical_records=SMALL_RECORDS)
        large = KMeansWorkload(physical_records=par.SMALL_RUN_RECORDS)
        specs = [(w, None, None, None, 0.05, "x", False) for w in (small, large)]
        assert par._inline_reason(specs[:1]) == "inline-small"
        assert par._inline_reason(specs) is None

    def test_unknown_workload_size_gets_the_pool(self, monkeypatch):
        monkeypatch.setattr(par, "_usable_cores", lambda: 4)
        spec = (object(), None, None, None, 0.05, "x", False)
        assert par._inline_reason([spec]) is None


class TestForcedPool:
    def test_forced_pool_matches_serial(self, force_pool):
        serial = _sweep(KMeansWorkload(physical_records=SMALL_RECORDS), jobs=1)
        pooled = _sweep(KMeansWorkload(physical_records=SMALL_RECORDS), jobs=2)
        assert par.last_dispatch == "pool"
        assert _dbs_match(serial, pooled)
        assert shm.cleanup_segments() == 0  # run_specs swept its segments


class TestBrokenPoolRecovery:
    def test_killed_worker_recovers_inline(self, monkeypatch, force_pool):
        monkeypatch.setenv("REPRO_TEST_DRIVER_PID", str(os.getpid()))
        serial = _sweep(CrashyKMeans(physical_records=SMALL_RECORDS), jobs=1)
        pooled = _sweep(CrashyKMeans(physical_records=SMALL_RECORDS), jobs=2)
        assert par.last_dispatch == "pool+recovered"
        assert _dbs_match(serial, pooled)
        assert shm.cleanup_segments() == 0  # crash left nothing behind
