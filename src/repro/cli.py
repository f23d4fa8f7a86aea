"""Command-line interface: ``python -m repro.cli <command>``.

The paper's user journey is ``profile`` -> ``optimize`` -> ``run --config``.
Each sub-command, and the journey step or paper figure it serves:

* ``workloads`` — list the workloads and their defaults (what to profile);
* ``profile`` — journey 1: the test-run sweep into a run ledger (§III-A);
* ``optimize`` — journey 2: ledger -> Eq. 1-2 models -> Algorithms 1-3;
* ``run`` — journey 3 with ``--config``: per-stage table (Figs. 8, 10);
* ``compare`` — vanilla vs CHOPPER end to end (Fig. 7);
* ``explain`` — the SQL plan before and after the optimizer (Figs. 9-10);
* ``report`` — one ledger run as a self-contained HTML report;
* ``diff-runs`` — two ledger runs compared, exit 1 on a regression (CI);
* ``logs`` — tail and filter the event log written by ``--log``;
* ``cache`` — report or clear the zone-map coverage of a cache file.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from typing import Dict, List, Optional, Type

from dataclasses import replace

from repro.chopper import ChopperRunner, WorkloadConfig, improvement
from repro.cluster import paper_cluster
from repro.common.errors import (
    ConfigurationError,
    LedgerError,
    ReproError,
    WorkloadError,
)
from repro.common.units import fmt_bytes, fmt_duration, parse_bytes
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ResourceProfiler,
    RunLedger,
    Tracer,
)
from repro.workloads import (
    KMeansWorkload,
    PCAWorkload,
    ShuffleWordCountWorkload,
    SQLWorkload,
    Workload,
    WordCountWorkload,
)

WORKLOADS: Dict[str, Type[Workload]] = {
    "kmeans": KMeansWorkload,
    "pca": PCAWorkload,
    "sql": SQLWorkload,
    "wordcount": WordCountWorkload,
    "wordcount-shuffle": ShuffleWordCountWorkload,
}


def build_workload(args: argparse.Namespace) -> Workload:
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        raise WorkloadError(
            f"unknown workload {args.workload!r}"
            f" (choose from: {', '.join(sorted(WORKLOADS))})"
        )
    kwargs = {}
    if args.virtual_gb is not None:
        kwargs["virtual_gb"] = args.virtual_gb
    if args.physical_records is not None:
        if args.physical_records < 1:
            raise WorkloadError(
                f"--physical-records must be >= 1, got {args.physical_records}"
            )
        kwargs["physical_records"] = args.physical_records
    if getattr(args, "skew", None) is not None:
        if "skew" not in inspect.signature(cls.__init__).parameters:
            raise WorkloadError(
                f"--skew is not supported by workload {args.workload!r}"
            )
        kwargs["skew"] = args.skew
    if getattr(args, "max_order", None) is not None:
        if "max_order" not in inspect.signature(cls.__init__).parameters:
            raise WorkloadError(
                f"--max-order is not supported by workload {args.workload!r}"
            )
        kwargs["max_order"] = args.max_order
    return cls(**kwargs)


def chaos_conf_kwargs(args: argparse.Namespace) -> dict:
    """Translate ``--chaos-*`` flags into EngineConf keyword arguments."""
    kwargs: dict = {}
    for spec in getattr(args, "chaos_kill", None) or []:
        node, sep, when = spec.partition("=")
        if not sep or not node:
            raise ConfigurationError(
                f"--chaos-kill expects NODE=TIME, got {spec!r}"
            )
        try:
            at = float(when)
        except ValueError:
            raise ConfigurationError(
                f"--chaos-kill time must be a number, got {when!r}"
            ) from None
        kwargs.setdefault("node_failure_times", {})[node] = at
    if getattr(args, "chaos_rate", None):
        kwargs["node_failure_rate"] = args.chaos_rate
    if getattr(args, "chaos_recovery", None):
        kwargs["node_recovery_delay"] = args.chaos_recovery
    return kwargs


def perf_conf_kwargs(args: argparse.Namespace) -> dict:
    """Translate the perf flags into EngineConf keyword arguments.

    Invalid values are EngineConf's to reject (ConfigurationError), so
    every entry point shares the one-line ``error: ...`` diagnostic.
    """
    kwargs: dict = {}
    if getattr(args, "record_format", None) is not None:
        kwargs["record_format"] = args.record_format
    if getattr(args, "fuse", False):
        kwargs["operator_fusion"] = True
    if getattr(args, "memory_budget", None) is not None:
        try:
            kwargs["memory_budget"] = parse_bytes(args.memory_budget)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    if getattr(args, "spill_dir", None) is not None:
        kwargs["spill_dir"] = args.spill_dir
    if getattr(args, "no_optimize", False):
        kwargs["logical_optimizer"] = False
    if getattr(args, "aqe", False):
        kwargs["adaptive_execution"] = True
    if getattr(args, "aqe_target", None) is not None:
        if not getattr(args, "aqe", False):
            # EngineConf cannot tell an explicit default target from an
            # unset one, so the pairing is checked on the flags.
            raise ConfigurationError(
                "--aqe-target requires --aqe (nothing is re-planned without it)"
            )
        try:
            kwargs["aqe_target_partition_bytes"] = float(
                parse_bytes(args.aqe_target)
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    if getattr(args, "no_prune", False):
        kwargs["partition_pruning"] = False
    if getattr(args, "cache_path", None) is not None:
        kwargs["result_cache"] = "sqlite"
        kwargs["result_cache_path"] = args.cache_path
    return kwargs


def make_runner(args: argparse.Namespace) -> ChopperRunner:
    runner = ChopperRunner(
        build_workload(args),
        base_conf=EngineConf(
            default_parallelism=args.parallelism, **perf_conf_kwargs(args)
        ),
    )
    if getattr(args, "trace", None):
        runner.tracer = Tracer()
    if getattr(args, "metrics", None):
        runner.metrics_registry = MetricsRegistry()
    if getattr(args, "ledger", None):
        runner.ledger = RunLedger(args.ledger)
    if getattr(args, "log", None):
        runner.event_log = EventLog()
    if getattr(args, "profile", False):
        runner.profiler = ResourceProfiler()
    return runner


def print_profile_summary(out, rolled: dict) -> None:
    """One-line host-resource summary of a profiled run/sweep."""
    host = rolled["host"]
    gc_info = host["gc"]
    out.write(
        f"profile: wall {host['wall_s']:.3f}s"
        f" cpu {host['cpu_s']:.3f}s"
        f" alloc peak {fmt_bytes(host['tracemalloc_peak_bytes'])}"
        f" gc {gc_info['collections']}x"
        f" ({gc_info['pause_s'] * 1e3:.1f}ms paused)\n"
    )


def print_stage_table(out, observations) -> None:
    out.write(
        f"{'stage':>5s} {'kind':>12s} {'P':>6s} {'time':>10s} {'shuffle':>10s}\n"
    )
    for obs in observations:
        out.write(
            f"{obs.order:5d} {obs.kind:>12s} {obs.num_partitions:6d}"
            f" {fmt_duration(obs.duration):>10s}"
            f" {fmt_bytes(obs.shuffle_bytes):>10s}\n"
        )


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------


def cmd_workloads(args: argparse.Namespace, out) -> int:
    out.write(f"{'name':>10s} {'default input':>14s}\n")
    for name, cls in WORKLOADS.items():
        workload = cls()
        out.write(f"{name:>10s} {fmt_bytes(workload.input_bytes):>14s}\n")
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    runner = make_runner(args)
    runner.base_conf = replace(runner.base_conf, **chaos_conf_kwargs(args))
    advisor = None
    if args.config:
        config = WorkloadConfig.load(args.config)
        if config.workload != runner.workload.name:
            raise ConfigurationError(
                f"config {args.config!r} is for workload "
                f"{config.workload!r}, not {runner.workload.name!r}"
            )
        advisor = ("config", config)
    outcome = runner.measure(advisor, scale=args.scale, label="run")
    if args.config:
        out.write(
            f"config: {outcome.advice['applied']} of {len(config)} "
            f"entries applied\n"
        )
    if outcome.run_id is not None:
        out.write(f"ledger {outcome.run_id} -> {args.ledger}\n")
    _write_artifacts(runner, args, out, health=True)
    print_stage_table(out, outcome.record.observations)
    out.write(f"total: {fmt_duration(outcome.total_time)} (simulated)\n")
    if args.gantt:
        from repro.reporting import gantt

        out.write(gantt(outcome.ctx, width=72) + "\n")
    return 0


def cmd_explain(args: argparse.Namespace, out) -> int:
    """Print a workload's relational plan before and after optimization."""
    workload = build_workload(args)
    builder = getattr(workload, "build_query", None)
    if builder is None:
        raise WorkloadError(
            f"workload {workload.name!r} has no relational query plan "
            f"(try: sql)"
        )
    ctx = AnalyticsContext(
        paper_cluster(),
        EngineConf(
            default_parallelism=args.parallelism, **perf_conf_kwargs(args)
        ),
    )
    try:
        table = builder(ctx, scale=args.scale)
        out.write(table.explain() + "\n")
    finally:
        ctx.close()
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    """Render one ledger run as a self-contained HTML report."""
    from repro.reporting import html_report

    ledger = RunLedger(args.ledger)
    if args.run:
        entry = ledger.read(args.run)
    else:
        entries = ledger.entries()
        if not entries:
            raise LedgerError(f"{args.ledger} holds no runs")
        entry = entries[-1]
    html = html_report(entry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(html)
        out.write(f"report {entry['run_id']} -> {args.out}\n")
    else:
        out.write(html + "\n")
    return 0


def cmd_logs(args: argparse.Namespace, out) -> int:
    """Tail/filter a structured event log written by ``--log``."""
    from repro.obs.log import filter_records, format_record, load_records

    records = filter_records(
        load_records(args.path),
        level=args.level,
        stage=args.stage,
        node=args.node,
        event=args.event,
        tail=args.tail,
    )
    for record in records:
        out.write(format_record(record) + "\n")
    return 0


def cmd_cache(args: argparse.Namespace, out) -> int:
    """Report (or clear) the per-table zone-map coverage of a cache file."""
    from repro.relational.cache import SQLiteCacheBackend

    if not os.path.isfile(args.path):
        # sqlite would silently create the file; inspecting must not.
        raise ConfigurationError(f"no cache file at {args.path!r}")
    backend = SQLiteCacheBackend(args.path)
    try:
        tables = backend.coverage()
        if args.action == "clear":
            backend.clear()
    finally:
        backend.close()
    if args.action == "export":
        doc = {"backend": backend.name, "path": args.path, "tables": tables}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            out.write(f"cache export -> {args.out}\n")
        else:
            out.write(text)
        return 0
    maps = sum(t["splits_covered"] for t in tables)
    if args.action == "stats":
        out.write(
            f"backend: {backend.name}\npath: {args.path}\n"
            f"tables: {len(tables)}\nzone maps: {maps}\n"
        )
    elif args.action == "clear":
        out.write(f"cleared {maps} zone maps from {args.path}\n")
    elif not tables:
        out.write("(empty)\n")
    for t in tables:
        n = t["num_partitions"]
        out.write(
            f"{t['table']}  version={t['version'][:12]} P={n}"
            f" splits={t['splits_covered']}/{n}"
            f" columns={','.join(t['columns'])}\n"
        )
    return 0


def cmd_diff_runs(args: argparse.Namespace, out) -> int:
    """Compare two ledger runs; non-zero exit on a regression (CI gate)."""
    from repro.obs.diagnostics import diff_runs

    ledger = RunLedger(args.ledger)
    diff = diff_runs(
        ledger.read(args.run_a),
        ledger.read(args.run_b),
        time_threshold=args.threshold,
        shuffle_threshold=args.shuffle_threshold,
    )
    out.write(
        f"wall clock: {diff.wall_clock_a:.3f}s -> {diff.wall_clock_b:.3f}s "
        f"({diff.time_delta * 100:+.1f}%)\n"
        f"shuffle:    {fmt_bytes(diff.shuffle_a)} -> "
        f"{fmt_bytes(diff.shuffle_b)} ({diff.shuffle_delta * 100:+.1f}%)\n"
    )
    if diff.ok:
        out.write("ok: no regression\n")
        return 0
    for line in diff.regressions:
        out.write(f"REGRESSION: {line}\n")
    return 1


def _write_artifacts(
    runner: ChopperRunner, args, out, health: bool = False
) -> None:
    """Save a runner's trace, metrics snapshot and event log to the
    paths the flags named, and print its profile summary."""
    if runner.tracer is not None:
        runner.tracer.save(args.trace)
        out.write(f"trace -> {args.trace}\n")
    if runner.metrics_registry is not None:
        runner.metrics_registry.save(args.metrics)
        out.write(f"metrics -> {args.metrics}\n")
        if health:
            from repro.obs.diagnostics import counter_health

            out.write(
                "health: "
                + " ".join(
                    f"{name.split('.', 1)[1]}={total:g}"
                    for name, total in counter_health(
                        runner.metrics_registry
                    ).items()
                )
                + "\n"
            )
    if runner.event_log is not None:
        runner.event_log.save(args.log)
        out.write(
            f"log -> {args.log} ({len(runner.event_log.records)} records)\n"
        )
    if runner.profiler is not None:
        print_profile_summary(out, runner.profiler.rollup())


def cmd_profile(args: argparse.Namespace, out) -> int:
    runner = make_runner(args)
    runs = runner.profile(
        p_grid=tuple(args.grid), scales=tuple(args.scales), jobs=args.jobs
    )
    trained = runner.train()
    out.write(
        f"profiled {runs} runs, trained {trained} models -> {args.ledger}\n"
    )
    _write_artifacts(runner, args, out)
    return 0


def cmd_optimize(args: argparse.Namespace, out) -> int:
    runner = make_runner(args)
    runner.db.add_ledger(runner.ledger, runner.workload.name)
    runner.train()
    config = runner.optimize(mode=args.mode)
    if args.output:
        config.save(args.output)
        out.write(f"wrote {len(config)} entries -> {args.output}\n")
    else:
        out.write(config.to_json() + "\n")
    return 0


def cmd_compare(args: argparse.Namespace, out) -> int:
    runner = make_runner(args)
    out.write("profiling...\n")
    runner.profile(
        p_grid=tuple(args.grid), scales=tuple(args.scales), jobs=args.jobs
    )
    runner.train()
    chaos = chaos_conf_kwargs(args)
    if chaos:
        # Chaos applies to the measured head-to-head runs only; the
        # profiling sweep above stays failure-free so the trained models
        # see clean observations.
        runner.base_conf = replace(runner.base_conf, **chaos)
    vanilla, chopper = runner.compare(mode=args.mode, jobs=args.jobs)
    _write_artifacts(runner, args, out)
    out.write(f"vanilla: {fmt_duration(vanilla.total_time)}\n")
    out.write(f"chopper: {fmt_duration(chopper.total_time)}\n")
    out.write(f"improvement: {improvement(vanilla, chopper) * 100:.1f}%\n")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome-trace JSON of the run(s)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a metrics-registry JSON snapshot")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="append structured run entries to this JSONL "
                             "run ledger")
    parser.add_argument("--log", default=None, metavar="PATH",
                        help="write a structured JSONL event log of the "
                             "run(s); read it back with `repro logs`")
    parser.add_argument("--profile", action="store_true",
                        help="measure real host resources per task/stage "
                             "(CPU, allocations, GC pauses). Simulated "
                             "results stay bit-identical")


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos-kill", action="append", default=None,
                        metavar="NODE=TIME",
                        help="kill worker NODE at simulated TIME seconds "
                             "(repeatable)")
    parser.add_argument("--chaos-rate", type=float, default=None,
                        help="seeded per-worker failure probability")
    parser.add_argument("--chaos-recovery", type=float, default=None,
                        metavar="SECONDS",
                        help="dead nodes rejoin after this many seconds")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    # No argparse `choices=`: unknown names are rejected in
    # build_workload() with a WorkloadError so every entry point (CLI,
    # tests, library use) gets the same clean one-line diagnostic.
    parser.add_argument("workload", help=f"one of: {', '.join(sorted(WORKLOADS))}")
    parser.add_argument("--virtual-gb", type=float, default=None,
                        help="virtual input size in GiB (default: paper's)")
    parser.add_argument("--physical-records", type=int, default=None,
                        help="physical sample size (speed knob)")
    parser.add_argument("--parallelism", type=int, default=300,
                        help="vanilla default parallelism (paper: 300)")
    # No argparse `choices=` here either: EngineConf validates the value
    # and the ConfigurationError surfaces as the standard one-line
    # `error: ...` diagnostic (exit 2).
    parser.add_argument("--record-format", default=None,
                        help="map-side pipeline: 'list' (default) or "
                             "'columnar' (vec kernels over numpy columns; "
                             "bit-identical results)")
    parser.add_argument("--fuse", action="store_true",
                        help="fuse narrow map/filter/mapValues chains into "
                             "one per-partition kernel (bit-identical "
                             "results)")
    parser.add_argument("--memory-budget", default=None, metavar="BYTES",
                        help="physical memory budget over block payloads "
                             "in virtual bytes (e.g. '2G', '512M'); "
                             "payloads past it spill LRU to disk and read "
                             "back transparently (bit-identical results)")
    parser.add_argument("--spill-dir", default=None, metavar="DIR",
                        help="directory for spill block files (default: a "
                             "tempdir); requires --memory-budget")
    parser.add_argument("--no-optimize", action="store_true",
                        help="disable the relational logical-plan optimizer "
                             "(identical results; more stages)")
    parser.add_argument("--aqe", action="store_true",
                        help="adaptive query execution: re-plan each reduce "
                             "side from measured map-output sizes, "
                             "coalescing runs of tiny partitions "
                             "(bit-identical results)")
    parser.add_argument("--aqe-target", default=None, metavar="BYTES",
                        help="AQE coalesce target partition size in "
                             "virtual bytes (e.g. '4M', '16K'; default "
                             "64M); requires --aqe")
    parser.add_argument("--skew", type=float, default=None, metavar="A",
                        help="Zipf exponent for the key distribution of "
                             "skew-aware workloads (wordcount, "
                             "wordcount-shuffle, sql); larger = hotter keys")
    parser.add_argument("--max-order", type=int, default=None, metavar="N",
                        help="sql only: filter orders to order_id < N "
                             "(a selective scan predicate partition "
                             "pruning can exploit)")
    parser.add_argument("--no-prune", action="store_true",
                        help="disable all partition pruning (zone maps "
                             "and range layouts; identical results, more "
                             "scan tasks)")
    parser.add_argument("--cache-path", default=None, metavar="PATH",
                        help="sqlite file of scanned tables' zone maps; "
                             "shared across runs, so later runs skip "
                             "partitions proven irrelevant for any "
                             "predicate (bit-identical results)")


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent measured "
                             "runs (default 1); results are bit-identical "
                             "to --jobs 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CHOPPER reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Exact flag names only: a prefix must never silently select a
    # longer flag (a leftover `--cache sqlite` would otherwise become
    # `--cache-path sqlite` and write a cache file named "sqlite").
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    add_parser("workloads", help="list available workloads")

    p_run = add_parser("run", help="run one workload")
    _add_workload_args(p_run)
    p_run.add_argument("--config", default=None,
                       help="CHOPPER workload config file to apply")
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--gantt", action="store_true",
                       help="print an ASCII task timeline after the run")
    _add_obs_args(p_run)
    _add_chaos_args(p_run)

    p_explain = add_parser(
        "explain",
        help="print a workload's logical plan before/after optimization",
    )
    _add_workload_args(p_explain)
    p_explain.add_argument("--scale", type=float, default=1.0)

    p_report = add_parser(
        "report", help="render a ledger run as a self-contained HTML report"
    )
    p_report.add_argument("ledger", help="run ledger JSONL (written by --ledger)")
    p_report.add_argument("--run", default=None, metavar="RUN_ID",
                          help="ledger run to render (default: the latest)")
    p_report.add_argument("--out", default=None, metavar="PATH",
                          help="write the HTML report here instead of stdout")

    p_profile = add_parser("profile", help="test-run sweep -> run ledger")
    _add_workload_args(p_profile)
    p_profile.add_argument("--grid", type=int, nargs="+",
                           default=[100, 200, 300, 500, 800])
    p_profile.add_argument("--scales", type=float, nargs="+", default=[0.33, 1.0])
    p_profile.add_argument("--ledger", required=True, metavar="PATH",
                           help="append every profiling run to this run "
                                "ledger (what `repro optimize` reads)")
    p_profile.add_argument("--log", default=None, metavar="PATH",
                           help="write a structured JSONL event log of the "
                                "sweep; read it back with `repro logs`")
    p_profile.add_argument("--profile", action="store_true",
                           help="measure real host resources per "
                                "task/stage")
    _add_jobs_arg(p_profile)

    p_opt = add_parser("optimize", help="run ledger -> config file")
    _add_workload_args(p_opt)
    p_opt.add_argument("--ledger", required=True, metavar="PATH",
                       help="run ledger to train from (written by "
                            "`repro profile --ledger`)")
    p_opt.add_argument("--output", default=None, help="config output path")
    p_opt.add_argument("--mode", choices=("global", "per-stage"), default="global")

    p_cmp = add_parser("compare", help="vanilla vs CHOPPER end to end")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--grid", type=int, nargs="+",
                       default=[100, 200, 300, 500, 800])
    p_cmp.add_argument("--scales", type=float, nargs="+", default=[0.33, 1.0])
    p_cmp.add_argument("--mode", choices=("global", "per-stage"), default="global")
    _add_jobs_arg(p_cmp)
    _add_obs_args(p_cmp)
    _add_chaos_args(p_cmp)

    p_logs = add_parser(
        "logs", help="tail/filter a structured event log (run --log)"
    )
    p_logs.add_argument("path", help="JSONL event log written by --log")
    p_logs.add_argument("--level", default=None,
                        help="minimum level: DEBUG, INFO, WARNING, ERROR")
    p_logs.add_argument("--stage", default=None,
                        help="only records whose stage field matches")
    p_logs.add_argument("--node", default=None,
                        help="only records whose node field matches")
    p_logs.add_argument("--event", default=None,
                        help="only records with this event name")
    p_logs.add_argument("--tail", type=int, default=None, metavar="N",
                        help="only the last N matching records")

    p_cache = add_parser(
        "cache",
        help="report/clear the zone maps of a cache file (run --cache-path)",
    )
    p_cache.add_argument("action",
                         choices=("stats", "inspect", "clear", "export"),
                         help="each reports per-table coverage (version, "
                              "P, splits covered, columns); stats adds "
                              "totals, clear empties the file, export "
                              "writes JSON")
    p_cache.add_argument("path", help="sqlite cache file")
    p_cache.add_argument("--out", default=None, metavar="PATH",
                         help="export: write the JSON dump here instead of "
                              "stdout")

    p_diff = add_parser(
        "diff-runs",
        help="compare two ledger runs; exit 1 on regression (CI gate)",
    )
    p_diff.add_argument("ledger", help="run ledger JSONL")
    p_diff.add_argument("run_a", help="baseline run id")
    p_diff.add_argument("run_b", help="candidate run id")
    p_diff.add_argument("--threshold", type=float, default=0.2,
                        help="fractional wall-clock regression tolerated "
                             "(default 0.2 = 20%%)")
    p_diff.add_argument("--shuffle-threshold", type=float, default=None,
                        help="fractional shuffle-volume regression tolerated "
                             "(default: same as --threshold)")
    return parser


COMMANDS = {
    "workloads": cmd_workloads,
    "report": cmd_report,
    "run": cmd_run,
    "explain": cmd_explain,
    "profile": cmd_profile,
    "optimize": cmd_optimize,
    "compare": cmd_compare,
    "cache": cmd_cache,
    "diff-runs": cmd_diff_runs,
    "logs": cmd_logs,
}


def main(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        # Operator mistakes (unknown workload, unreadable ledger/config
        # path, malformed JSON) get a one-line diagnostic, not a traceback.
        err.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
