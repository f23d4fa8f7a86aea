"""One workload in one fresh process: set-up, timed phase, traced phase.

Started by ``run.py`` with a scrubbed environment. Prints human-readable
progress to stderr and one JSON object as the last line of stdout.

Phases, in order:

1. set-up: imports, cold datagen, reference result (``setup_s`` runs from
   the parent's spawn time to here);
2. one untimed warm-up iteration, then (with ``--timed-seconds``) timed
   iterations with nothing installed, closed loop, until the seconds have
   passed;
3. with ``--traced-seconds``: plain and traced iterations in alternation
   (wrappers installed and removed around each traced one), then the
   workload's probes.

Every iteration is checked; a failed check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from workloads import BENCHES  # noqa: E402

OUT_DIR = HERE / "out"
MIN_TIMED = 2  # so that the longest workload's wall_s is not one sample


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def iterate(bench, first, wrap=None):
    """One iteration, held against ``first`` (None: it is the first)."""
    outcome = bench.iterate(wrap)
    first = first or outcome
    # sim_* are counts and the output is a pure function of the seed: any
    # drift between iterations is a behaviour change, not noise.
    if outcome.digest != first.digest:
        outcome.errors.append("digest differs from the first iteration")
    if outcome.sim_s != first.sim_s or outcome.shuffle_gb != first.shuffle_gb:
        outcome.errors.append("simulated time or shuffle volume not repeatable")
    return outcome


def timed_phase(bench, seconds: float) -> List:
    """Iterate until ``seconds`` have passed (at least ``MIN_TIMED`` times)."""
    outcomes: List = []
    start = time.perf_counter()
    while len(outcomes) < MIN_TIMED or time.perf_counter() - start < seconds:
        outcomes.append(iterate(bench, outcomes[0] if outcomes else None))
    return outcomes


def traced_phase(bench, seconds: float, first):
    """Alternate plain and traced iterations; returns (tracer, plain, traced).

    Alternating makes tracing overhead a ratio of neighbours, not of two
    phases minutes apart on a box whose speed drifts.
    """
    import tracing

    tracer = tracing.SpanTracer()
    plain: List = []
    traced: List = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(iterate(bench, first))
        first = first or plain[0]
        patches = tracing.install(tracer)
        try:
            traced.append(
                iterate(bench, first, lambda run: tracer.wrap(tracing.ROOT, run))
            )
        finally:
            tracing.uninstall(patches)
    return tracer, plain, traced


def write_trace(name: str, spans: List[list], iterations: int) -> Path:
    """``trace_<workload>.json``: every span of the traced iterations."""
    names = sorted({span[0] for span in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{name}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": name, "iterations": iterations, "names": names,
                "columns": ["name", "start_us", "end_us", "parent"],
                "spans": [
                    [index[n], round((s - origin) * 1e6, 1),
                     round((e - origin) * 1e6, 1), parent]
                    for n, s, e, parent in spans
                ],
            },
            fh, separators=(",", ":"),
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before the spawn")
    parser.add_argument("--timed-seconds", type=float, default=None)
    parser.add_argument("--traced-seconds", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    bench = BENCHES[args.workload](args.seed, smoke=args.smoke)
    datagen_cold_s = bench.setup()
    setup_s = time.time() - args.spawned_at
    log(f"[{bench.name}] set-up {setup_s:.2f}s (cold datagen {datagen_cold_s:.2f}s)")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warmup = bench.warmup()
    timed: List = []
    if args.timed_seconds is not None:
        timed = timed_phase(bench, args.timed_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer, plain, traced = None, [], []
    if args.traced_seconds is not None:
        tracer, plain, traced = traced_phase(
            bench, args.traced_seconds, timed[0] if timed else None
        )
    samples = timed or plain  # a --trace 1 run has only the paired plain ones
    first = samples[0]
    attempted = [warmup] + timed + plain + traced
    wall_s = statistics.median(o.wall_s for o in samples)
    result: Dict[str, Any] = {
        "workload": bench.name, "seed": args.seed, "smoke": args.smoke,
        "engine_conf": repr(bench.conf()), "records": bench.records,
        "iterations": {
            "warmup": 1, "timed": len(timed), "paired_plain": len(plain),
            "traced": len(traced),
        },
        "wall_samples_s": [o.wall_s for o in samples],
        "cpu_samples_s": [o.cpu_s for o in samples],
        "end_to_end": {
            "wall_s": wall_s,
            "cpu_s": statistics.median(o.cpu_s for o in samples),
            "records_per_s": bench.records / wall_s,
            "sim_s": first.sim_s,
            "sim_shuffle_gb": first.shuffle_gb,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        },
        "facts": first.facts,
    }
    if "improvement_pct" in first.facts:
        result["end_to_end"]["sim_improvement_pct"] = first.facts["improvement_pct"]
    log(f"[{bench.name}] wall_s {wall_s:.3f} over {len(samples)} untraced iterations")

    errors: List[str] = []
    if tracer is not None:
        import metrics
        import tracing
        from probes import PROBES

        layers = tracing.aggregate(tracer.spans)
        extras = {
            **result["end_to_end"],
            "datagen_cold_s": datagen_cold_s,
            "tracing_overhead_pct": 100.0 * (statistics.median(
                t.wall_s / p.wall_s for t, p in zip(traced, plain)) - 1.0),
        }
        probe = PROBES.get(bench.name)
        if probe is not None:
            probe_extras, errors = probe(bench, first.digest, args.smoke)
            extras.update(probe_extras)
        result["per_layer"] = metrics.layer_metrics(
            layers, tracer.counts, traced[0].facts, extras, len(traced)
        )
        result["layer_table"] = metrics.layer_table(layers, len(traced))
        result["trace_file"] = os.path.relpath(
            write_trace(bench.name, tracer.spans, len(traced)), HERE.parent.parent
        )
        log(f"[{bench.name}] traced {len(traced)} iterations,"
            f" {len(tracer.spans)} spans,"
            f" coverage {result['per_layer']['bench.layer_coverage_pct']:.1f}%")

    failed = [o for o in attempted if o.errors]
    for outcome in failed:
        errors.extend(outcome.errors)
    result["attempted"] = len(attempted)
    result["failed"] = len(failed)
    result["end_to_end"]["error_rate"] = len(failed) / len(attempted)
    result["errors"] = sorted(set(errors))
    for message in result["errors"]:
        log(f"[{bench.name}] FAILED: {message}")
    print(json.dumps(result))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
