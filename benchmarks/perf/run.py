"""The repo benchmark: five workloads, end-to-end metrics, a layer trace.

Usage (from the repo root; ``src/`` is found relative to this file)::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed 7] [--out FILE]
    python3 benchmarks/perf/run.py --smoke
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --report FILE.json

Without ``--trace`` every selected workload runs its timed phase and its
traced phase, every metric is printed by name with its unit and the JSON
is written to ``--out``. With ``--trace 0|1`` (how the benchmark driver
calls it, one workload per call) only that half runs and the last line of
standard output is the driver's result object.

Each workload runs in its own fresh child process, single-threaded and
closed loop (one job in flight), with ``PYTHONHASHSEED=0``, every
``REPRO_*`` variable removed and ``TMPDIR`` pointed inside
``benchmarks/perf/out`` so spill and cache files stay in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from metrics import BOUNDS, GATED, PER_LAYER, TIMES  # noqa: E402

REPO = HERE.parent.parent
OUT_DIR = HERE / "out"
WORKLOADS = [
    "wordcount_shuffle", "kmeans_iter", "kmeans_spill", "sql_repeated",
    "chopper_tune",
]
RUN_SECONDS = 10  # BENCHMARK.json's run_seconds
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
TRACE_SHARE = 0.6  # of --seconds, spent on alternating plain/traced pairs
# Counts of simulated work: they repeat exactly, so any difference counts.
EXACT = ("sim_s", "sim_shuffle_gb", "sim_improvement_pct")
UNITS = {name: unit for name, unit, _better, _bound in TIMES + GATED}
UNITS.update(
    sim_s="sim_s", sim_shuffle_gb="GB", sim_improvement_pct="%", error_rate="ratio"
)
# Which kept samples tell how far a metric moves between identical runs.
SAMPLES = {
    "wall_s": "wall_samples_s", "records_per_s": "wall_samples_s",
    "cpu_s": "cpu_samples_s", "setup_s": "setup_samples_s",
}


def child_env(tmp: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def spawn(workload: str, seed: int, tmp: Path, *extra: str) -> Dict[str, Any]:
    """Run ``child.py`` once; returns its result object."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--spawned-at", repr(time.time()), *extra,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, env=child_env(tmp), text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: child exited {done.returncode} without a result")
    return json.loads(lines[-1])


def reference_seconds(tmp: Path) -> float:
    """Spawn-to-exit seconds of the fixed reference process."""
    start = time.time()
    subprocess.run(
        [sys.executable, str(HERE / "reference.py")], env=child_env(tmp), check=True
    )
    return time.time() - start


def run_workload(
    workload: str, seed: int, seconds: float, trace: Optional[int], smoke: bool
) -> Dict[str, Any]:
    """One workload: repeated set-ups, then the measuring child."""
    tmp = OUT_DIR / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        flags = ["--smoke"] if smoke else []
        setups: List[float] = []
        references: List[float] = []
        if trace != 1 and not smoke:
            # R S R S R M: every set-up (the last one is the measuring
            # child's) has a reference run right next to it.
            references.append(reference_seconds(tmp))
            for _ in range(SETUP_REPEATS - 1):
                setups.append(
                    spawn(workload, seed, tmp, "--setup-only", *flags)["setup_s"]
                )
                references.append(reference_seconds(tmp))
        if smoke:
            seconds = 0.0  # the minimum number of iterations of each phase
        phases: List[str] = []
        if trace != 1:
            phases += ["--timed-seconds", str(seconds)]
        if trace != 0:
            # A --trace 1 run spends its seconds on plain/traced pairs only.
            phases += ["--traced-seconds", str(seconds * TRACE_SHARE)]
        result = spawn(workload, seed, tmp, *phases, *flags)
        setups.append(result["end_to_end"]["setup_s"])
        result["setup_raw_samples_s"] = setups
        result["reference_samples_s"] = references
        if references:
            # Set-up seconds relative to the neighbouring reference runs,
            # in units of the reference's nominal duration (reference.py).
            setups = [
                raw * reference.NOMINAL_S / statistics.fmean(references[i:i + 2])
                for i, raw in enumerate(setups)
            ]
        result["setup_samples_s"] = setups
        result["end_to_end"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def host_info() -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def print_metrics(result: Dict[str, Any]) -> None:
    counts = result["iterations"]
    print(f"== {result['workload']}  (seed {result['seed']}, {counts['timed']} timed +"
          f" {counts['traced']} traced iterations)")
    for metric, value in result["end_to_end"].items():
        print(f"  {metric:34s} {value:16.6g} {UNITS[metric]}")
    layer_units = {n: unit for n, unit, _b, _d in PER_LAYER}
    for metric, value in result.get("per_layer", {}).items():
        if metric not in result["end_to_end"]:
            print(f"  {metric:34s} {value:16.6g} {layer_units[metric]}")


def driver_line(result: Dict[str, Any], trace: int) -> str:
    """The benchmark driver's result object (last line of stdout)."""
    if trace == 0:
        specs = [(n, unit) for n, unit, _b, _bound in GATED]
        values = result["end_to_end"]
    else:
        specs = [(n, unit) for n, unit, _b, _d in PER_LAYER]
        values = result["per_layer"]
    return json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in specs},
    })


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def spread(samples: List[float]) -> float:
    """Interquartile range as a share of the median (0 below 4 samples)."""
    if len(samples) < 4:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(metric: str, a: float, b: float, spread_ab: float) -> str:
    if metric in EXACT:
        return "ok" if a == b else "changed"
    if metric == "error_rate":
        return "worse" if b > a else "ok"
    better, bound = BOUNDS[metric]
    loss = (b - a) / a if better == "lower" else (a - b) / a
    if loss > bound:
        return "worse"
    return "unresolved" if spread_ab > bound else "ok"


def fingerprint(payload: Dict[str, Any]) -> Dict[str, Any]:
    """What two files must share for their numbers to be comparable."""
    host = payload["host"]
    return {
        **{key: host[key] for key in ("nproc", "affinity", "python", "numpy")},
        **{key: payload[key] for key in ("seed", "smoke", "run_seconds")},
    }


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    print_b = fingerprint(b)
    for key, value in fingerprint(a).items():
        if print_b[key] != value:
            print(f"NOT COMPARABLE: {key} differs ({value} vs {print_b[key]})")
    status = 0
    for name in WORKLOADS:
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if ra is None or rb is None:
            continue
        print(f"== {name}")
        if ra["engine_conf"] != rb["engine_conf"]:
            print("  NOT COMPARABLE: EngineConf differs")
        for metric, va in ra["end_to_end"].items():
            vb = rb["end_to_end"][metric]
            noise = 0.0
            if metric in SAMPLES:
                noise = max(spread(ra[SAMPLES[metric]]), spread(rb[SAMPLES[metric]]))
            word = verdict(metric, va, vb, noise)
            if metric in BOUNDS:
                limit = f"{BOUNDS[metric][1]:.0%}"
            else:
                limit = "exact" if metric in EXACT else "any increase"
            delta = (vb - va) / va if va else 0.0
            print(f"  {metric:22s} {va:14.6g} {vb:14.6g} {delta:+8.2%}"
                  f"  bound {limit:12s} spread {noise:6.2%}  {word}")
            if word in ("worse", "changed"):
                status = 1
    return status


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics only,"
                             " 1 = per-layer metrics only")
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads and checks at ~1/20 size, no bounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--report", metavar="FILE.json",
                        help="print the README's generated section from a run")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.report:
        import report

        with open(args.report) as fh:
            print(report.render(json.load(fh)))
        return 0
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    names = [args.workload] if args.workload else WORKLOADS
    payload = {
        "host": host_info(), "seed": args.seed, "smoke": args.smoke,
        "run_seconds": args.seconds, "workloads": {},
    }
    # Smoke applies no bounds, so its children may share the machine.
    lanes = min(2, payload["host"]["affinity"]) if args.smoke else 1
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        results = pool.map(
            lambda name: run_workload(
                name, args.seed, args.seconds, args.trace, args.smoke
            ),
            names,
        )
        for result in results:
            payload["workloads"][result["workload"]] = result
            print_metrics(result)
    if args.trace is None:
        out = Path(args.out) if args.out else OUT_DIR / (
            "smoke.json" if args.smoke else "bench.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {out}")
    else:
        print(driver_line(payload["workloads"][names[0]], args.trace))
    return 1 if any(r["errors"] for r in payload["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
