"""CI smoke check: the zone-map cache must skip work, never change it.

Reads the four sql entries CI appended to the run ledger — one cold run
that populates a shared zone-map cache file, two warm runs over it, and
one whose ``--max-order`` bound no earlier run used — and asserts the
later runs actually hit the cache and scheduled strictly fewer scan
tasks (every pruned partition accounted for, none of them ever
scheduled), the two warm ones at least 1.5x faster in simulated time.
Then re-runs the workload in-process cold, warm, and with pruning
disabled outright, and the unseen-bound run with and without the CI's
cache file, and asserts the collected rows are bit-identical, which the
ledger alone cannot show (it records performance, not values).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from repro.cli import build_parser, make_runner
from repro.cluster import uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.workloads.sql import SQLWorkload

LEDGER = sys.argv[1] if len(sys.argv) > 1 else "ledger.jsonl"
CACHE = sys.argv[2] if len(sys.argv) > 2 else "cache.db"
MIN_SPEEDUP = 1.5
# The flags of CI's fourth run: a bound no earlier run filtered on.
UNSEEN = ["run", "sql", "--virtual-gb", "1.0", "--physical-records", "2000",
          "--parallelism", "300", "--max-order", "251"]


def scan_tasks(entry) -> int:
    return sum(s["num_partitions"] for s in entry["stages"])


def pruned(entry) -> int:
    return sum(s.get("pruned_partitions", 0) for s in entry["stages"])


def cache_stats(entry) -> dict:
    block = entry.get("partition_cache")
    assert block, f"ledger entry {entry['run_id']} has no partition_cache"
    assert block["zone_maps"], "no zone-map coverage recorded"
    return block["cache"]


def check_ledger():
    entries = [json.loads(line) for line in open(LEDGER, encoding="utf-8")]
    sql = [e for e in entries if e["workload"] == "sql"]
    assert len(sql) == 4, f"expected 4 sql ledger entries, found {len(sql)}"
    cold, warm1, warm2, unseen = sql

    assert cache_stats(cold)["misses"] >= 1, "cold run did not miss"
    assert cache_stats(cold)["hits"] == 0, "cold run cannot hit"
    assert pruned(cold) == 0, "cold run pruned without prior statistics"

    for warm in (warm1, warm2, unseen):
        stats = cache_stats(warm)
        assert stats["hits"] >= 1, (
            f"warm run {warm['run_id']} never hit the cache: {stats}"
        )
        assert pruned(warm) > 0, f"warm run {warm['run_id']} pruned nothing"
        assert scan_tasks(warm) < scan_tasks(cold), (
            f"warm run {warm['run_id']} scheduled no fewer tasks: "
            f"{scan_tasks(warm)} vs {scan_tasks(cold)} cold"
        )
        # Zero pruned tasks scheduled: scanned + pruned must add back up
        # to the cold run's full scan — a pruned partition that somehow
        # scheduled anyway would double-count here.
        assert scan_tasks(warm) + pruned(warm) == scan_tasks(cold), (
            f"warm run {warm['run_id']} scheduled pruned partitions: "
            f"{scan_tasks(warm)} + {pruned(warm)} != {scan_tasks(cold)}"
        )
        if warm is unseen:
            continue  # a wider bound: its own subset, its own clock
        speedup = cold["wall_clock"] / warm["wall_clock"]
        assert speedup >= MIN_SPEEDUP, (
            f"warm run {warm['run_id']} only {speedup:.2f}x faster "
            f"(need >= {MIN_SPEEDUP}x)"
        )
    return cold, warm1


def run_sql(cache_path=None, pruning=True):
    conf = dict(default_parallelism=16, partition_pruning=pruning)
    if cache_path is not None:
        conf.update(result_cache="sqlite", result_cache_path=cache_path)
    ctx = AnalyticsContext(uniform_cluster(n_workers=4, cores=2),
                           EngineConf(**conf))
    try:
        workload = SQLWorkload(physical_records=1600, max_order=200)
        return workload.run(ctx, scale=0.2).value
    finally:
        ctx.close()


def check_identity() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cache.db"
        cold_rows = run_sql(cache_path=path)
        warm_rows = run_sql(cache_path=path)
        plain_rows = run_sql(pruning=False)
    assert warm_rows == cold_rows, "warm cached run changed the rows"
    assert plain_rows == cold_rows, "pruning changed the rows"
    return len(cold_rows)


def cli_rows(*flags):
    """The rows ``repro run`` collects for the unseen-bound run's flags."""
    runner = make_runner(build_parser().parse_args(UNSEEN + list(flags)))
    return runner.measure(None, label="run").result.value


def check_unseen() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = shutil.copy(CACHE, f"{tmp}/cache.db")  # leave CI's file be
        cached_rows = cli_rows("--cache-path", path)
    assert cached_rows == cli_rows(), "the unseen-bound run changed the rows"
    return len(cached_rows)


def main() -> None:
    cold, warm = check_ledger()
    n_rows = check_identity()
    n_unseen = check_unseen()
    speedup = cold["wall_clock"] / warm["wall_clock"]
    print(
        f"ok: warm runs hit the cache ({cache_stats(warm)['hits']} hits), "
        f"scanned {scan_tasks(warm)}/{scan_tasks(cold)} partitions "
        f"({pruned(warm)} pruned, none scheduled), {speedup:.2f}x faster; "
        f"{n_rows} identical result rows cold/warm/unpruned; "
        f"{n_unseen} identical rows for an unseen bound, cached/uncached"
    )


if __name__ == "__main__":
    main()
