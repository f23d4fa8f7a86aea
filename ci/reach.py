"""Execution reach: which lines of ``src/repro`` the project's roots run.

``tests/test_reachability.py`` decides reach by name, so the dead branches
of a reached function survive it. This script runs the roots themselves,
in this process, under a stdlib ``sys.settrace`` line tracer:

* every ``repro.cli`` command and ``ci/*.py`` script that
  ``.github/workflows/ci.yml`` runs, job by job, each job in a fresh
  temporary directory (the workflow is parsed, not copied);
* the examples the workflow's example loop runs;
* the paper-figure benches (``benchmarks/bench_*.py``), run by pytest from
  a temporary copy so that ``benchmarks/out`` stays untouched;
* ``benchmarks/perf/child.py --smoke`` for each benchmark workload, with
  the phases ``run.py --smoke`` gives it.

It writes ``docs/reach.md``: executable and executed lines per module,
then every unexecuted block of ``MIN_BLOCK`` or more executable lines with
its verdict from ``VERDICTS``. It exits 1 if a block has no verdict, or a
verdict matches no block or names no existing file. Only the main thread
is traced: pool workers and thread-pool task bodies run out of its sight.

Run by hand from the repo root (about a quarter of an hour on 2 vCPUs)::

    PYTHONPATH=src python ci/reach.py

With ``--tests`` it traces a pytest run instead (the arguments after it go
to pytest) and writes the executed lines as JSON to ``--json``::

    PYTHONPATH=src python ci/reach.py --json lines.json --tests -x -q
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import re
import runpy
import shlex
import shutil
import sys
import tempfile
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
REPORT = ROOT / "docs" / "reach.md"
MIN_BLOCK = 5  # executable lines

# Why an unexecuted block of MIN_BLOCK or more lines stays, keyed by
# "module:qualname" of the innermost def or class around its first line
# (the module alone at top level). A verdict covers every block in that
# scope and names the test or root that runs it.
VERDICTS: Dict[str, str] = {
    'repro.chopper.advisor:ChopperAdvisor._ordered_ref':
        'a sort under a hash entry keeps a range partitioner, or its order breaks: tests/chopper/test_advisor.py',
    'repro.chopper.advisor:ChopperAdvisor._insert_repartition':
        "the paper's inserted repartition in front of a fixed stage with no retunable consumer: tests/chopper/test_advisor.py",
    'repro.chopper.parallel:picklable':
        'a probed mode, kept for item 4: the pooled sweep (benchmarks/perf/probes.py; tests/chopper/test_parallel_fallback.py)',
    'repro.chopper.parallel:measure_chunk':
        "a probed mode, kept for item 4: the body of a pooled sweep's worker process (benchmarks/perf/probes.py; tests/chopper/test_parallel_fallback.py)",
    'repro.chopper.parallel:_pool_specs':
        'a probed mode, kept for item 4: the pooled sweep (benchmarks/perf/probes.py; tests/chopper/test_parallel_fallback.py)',
    'repro.chopper.runner:ChopperRunner.optimize':
        '`--trace` on `optimize`/`compare` (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.chopper.runner:ChopperRunner._fold':
        "`--metrics`/`--log`/`--profile` on a sweep, and the pooled sweep's merge: tests/test_cli.py, tests/obs/test_telemetry_determinism.py",
    'repro.chopper.workload_db:WorkloadDB.model':
        'error path, one-line `ModelError`: tests/chopper/test_workload_db.py',
    'repro.cli:print_profile_summary':
        '`--profile` (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.cli:cmd_workloads':
        '`repro workloads` (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.cli:cmd_explain':
        '`repro explain` (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.cli:cmd_logs':
        '`repro logs` (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.cli:cmd_cache':
        '`repro cache` (a CLI surface no CI line uses: tests/test_cli.py, tests/relational/test_cache_backends.py)',
    'repro.cli:_write_artifacts':
        '`--trace`/`--metrics`/`--log` files (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.cli:cmd_compare':
        '`repro compare` (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.common.sizing:estimate_size':
        'input handling: sizes any record type a user closure returns (subclasses, dicts): tests/common/test_sizing.py, tests/engine/test_vectorized_kernels.py',
    'repro.common.sizing:estimate_sizes':
        'input handling: records the vector kernel cannot size: tests/engine/test_vectorized_kernels.py',
    'repro.engine.combine:_fold_values':
        'exactness guards of the batch fold, which fall back to the scalar loop: tests/test_mode_identity.py, tests/workloads/test_workloads.py',
    'repro.engine.effects:TaskEffects.__init__':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.effects:worker_pool':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.executor:TaskRunner.execute_deferred':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.executor:TaskRunner._effects_valid':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.executor:TaskRunner._replay':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.partitioner:stable_hash':
        'input handling: key types the workloads never shuffle (bytes, floats, tuples): tests/engine/test_partitioner.py, tests/engine/test_vectorized_kernels.py',
    'repro.engine.partitioner:stable_hash_many':
        'input handling: key columns the workloads never shuffle: tests/engine/test_vectorized_kernels.py',
    'repro.engine.partitioner:_crc32_int64':
        'input handling: int64 key columns (`partition_by` on ints): tests/engine/test_vectorized_kernels.py, tests/engine/test_scheduling.py',
    'repro.engine.rdd:_run_chain':
        'a probed mode, kept for item 4: columnar + fused pipelines (benchmarks/perf/probes.py; tests/engine/test_fusion.py)',
    'repro.engine.rdd:RDD.group_by_key':
        'tests of other behaviour build their shuffles with it: tests/engine/test_scheduling.py, tests/engine/test_stages.py, tests/engine/test_map_bucketing.py',
    'repro.engine.rdd:RDD.distinct':
        'the engine oracle draws it as a random operator: tests/engine/test_oracle.py',
    'repro.engine.rdd:RDD.partition_by':
        'allow-listed (tests/test_reachability.py): tests/engine/test_aqe_oracle.py, tests/engine/test_shuffle.py',
    'repro.engine.rdd:MapPartitionsRDD.materialize':
        'a probed mode, kept for item 4: columnar + fused pipelines (benchmarks/perf/probes.py; tests/engine/test_fusion.py)',
    'repro.engine.rdd:UnionRDD.__init__':
        'allow-listed `union` (tests/test_reachability.py): tests/engine/test_stage_launch.py, tests/engine/test_oracle.py',
    'repro.engine.rdd:UnionRDD.compute':
        'allow-listed `union` (tests/test_reachability.py): tests/engine/test_stage_launch.py, tests/engine/test_oracle.py',
    'repro.engine.shm:Segment.close':
        'a probed mode, kept for item 4: the pooled sweep (benchmarks/perf/probes.py; tests/chopper/test_parallel_fallback.py), tests/engine/test_shm.py',
    'repro.engine.shm:cleanup_segments':
        'a probed mode, kept for item 4: the pooled sweep (benchmarks/perf/probes.py; tests/chopper/test_parallel_fallback.py), tests/engine/test_shm.py',
    'repro.engine.shm:encode_shared':
        'a probed mode, kept for item 4: the pooled sweep (benchmarks/perf/probes.py; tests/chopper/test_parallel_fallback.py), tests/engine/test_shm.py',
    'repro.engine.storage:BlockStore.get':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.storage:BlockStore.touch':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.task_scheduler:TaskScheduler._run_batch':
        'a probed mode, kept for item 4: the thread pool runs it in worker threads, out of sight (benchmarks/perf/probes.py; tests/engine/test_parallel_determinism.py)',
    'repro.engine.task_scheduler:TaskScheduler.abort_tasks':
        'error path: a job that dies mid-run: tests/engine/test_chaos.py, tests/engine/test_lifetime.py',
    'repro.engine.task_scheduler:TaskScheduler._plan_node_failures':
        'input check on `node_failure_times` and the seeded `--chaos-rate` draw: tests/engine/test_chaos.py, tests/test_cli.py',
    'repro.obs.diagnostics:detect_stragglers':
        "data-dependent: no CI run has a straggler, the report's callout does: tests/obs/test_diagnostics.py, tests/test_cli.py",
    'repro.obs.ledger:RunLedger._next_seq':
        'recovery of a torn final line left by an interrupted append: tests/obs/test_ledger.py',
    'repro.obs.ledger:RunLedger._scan':
        'recovery of a torn final line left by an interrupted append: tests/obs/test_ledger.py',
    'repro.obs.log:EventLog.extend':
        "`--log` on a sweep, and the pooled sweep's merge: tests/obs/test_log.py, tests/chopper/test_worker_telemetry.py",
    'repro.obs.log:load_records':
        '`repro logs` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_log.py)',
    'repro.obs.log:filter_records':
        '`repro logs` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_log.py)',
    'repro.obs.log:format_record':
        '`repro logs` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_log.py)',
    'repro.obs.metrics:Histogram.to_dict':
        '`--metrics` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_metrics.py)',
    'repro.obs.metrics:Histogram.merge_samples':
        "`--metrics` on a sweep, and the pooled sweep's merge: tests/obs/test_metrics.py, tests/chopper/test_worker_telemetry.py",
    'repro.obs.metrics:MetricsRegistry.counter_value':
        'allow-listed (tests/test_reachability.py): tests/engine/test_chaos.py, tests/obs/test_integration.py',
    'repro.obs.metrics:MetricsRegistry.snapshot.render':
        '`--metrics` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_metrics.py)',
    'repro.obs.metrics:MetricsRegistry.dump_state':
        "`--metrics` on a sweep, and the pooled sweep's merge: tests/obs/test_metrics.py, tests/obs/test_telemetry_determinism.py",
    'repro.obs.metrics:MetricsRegistry.merge_state':
        "`--metrics` on a sweep, and the pooled sweep's merge: tests/obs/test_metrics.py, tests/chopper/test_worker_telemetry.py",
    'repro.obs.profiling:ResourceProfiler.merge':
        "`--profile` on a sweep, and the pooled sweep's merge: tests/obs/test_profiling.py, tests/chopper/test_worker_telemetry.py",
    'repro.obs.profiling:ResourceProfiler.rollup':
        '`--profile` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_profiling.py)',
    'repro.obs.trace:Tracer.scope':
        '`--trace` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_trace.py)',
    'repro.obs.trace:Tracer.phase':
        '`--trace` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_trace.py)',
    'repro.obs.trace:_assign_lanes':
        '`--trace` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_trace.py)',
    'repro.obs.trace:to_chrome':
        '`--trace` (a CLI surface no CI line uses: tests/test_cli.py, tests/obs/test_trace.py)',
    'repro.relational.expr:BinaryExpr.same_as':
        'the structural equality `CollapseSorts` relies on: tests/relational/test_expr.py',
    'repro.relational.expr:BinaryExpr.substitute':
        'predicate pushdown through a computed column: tests/relational/test_plan.py, tests/relational/test_optimizer_oracle.py',
    'repro.relational.expr:count_':
        'NULL semantics of COUNT(col): tests/relational/test_table.py, tests/relational/test_optimizer_oracle.py',
    'repro.relational.expr:avg':
        'allow-listed (tests/test_reachability.py): tests/relational/test_oracle.py, tests/relational/test_optimizer_oracle.py',
    'repro.relational.plan:_fmt_expr':
        '`repro explain` of a computed column (a CLI surface no CI line uses: tests/test_cli.py, tests/relational/test_plan.py)',
    'repro.relational.plan:Scan.describe':
        '`repro explain` (a CLI surface no CI line uses: tests/test_cli.py, tests/relational/test_plan.py)',
    'repro.relational.rules:PushDownPredicates.apply':
        'plan shapes the SQL workload does not build, checked result-equal: tests/relational/test_plan.py, tests/relational/test_optimizer_oracle.py',
    'repro.relational.rules:PushDownPredicates._push_into_join':
        'plan shapes the SQL workload does not build, checked result-equal: tests/relational/test_plan.py, tests/relational/test_table.py',
    'repro.relational.rules:FoldProjections.apply':
        'plan shapes the SQL workload does not build, checked result-equal: tests/relational/test_plan.py',
    'repro.relational.stats:_cmp_against_stats':
        'pruning soundness for operators and NULL/NaN bounds no CI filter uses: tests/relational/test_stats.py',
    'repro.relational.stats:RangeLayout.kept_partitions':
        'allow-listed `RangeLayout` (tests/test_reachability.py): tests/relational/test_stats.py, tests/relational/test_pruning_oracle.py',
    'repro.relational.table:Table.from_rows':
        'allow-listed (tests/test_reachability.py): tests/relational/test_table.py, tests/relational/test_oracle.py',
    'repro.relational.table:Table.explain':
        '`repro explain` (a CLI surface no CI line uses: tests/test_cli.py, tests/relational/test_pruning_oracle.py)',
    'repro.reporting:_bars_svg':
        '`repro report` of an `--aqe` run (a CLI surface no CI line uses: tests/test_cli.py)',
    'repro.reporting:html_report':
        '`repro report` sections for skew, stragglers, `--aqe`, chaos and `--profile` runs (a CLI surface no CI line uses: tests/test_cli.py)',
}


# -- the tracer ---------------------------------------------------------------


def _required(code: types.CodeType) -> Set[int]:
    """The lines of ``code`` a line event can report.

    A function's first line holds only its RESUME, which fires no line
    event; the enclosing code runs that line when it defines the function.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


class LineTracer:
    """Records every line of ``src/repro`` the current thread executes.

    A code object stops being traced once every one of its lines has run,
    so hot loops that are fully covered cost one dict lookup per call.
    """

    def __init__(self) -> None:
        self.hits: Dict[str, Set[int]] = defaultdict(set)
        self._prefix = str(PACKAGE) + os.sep
        self._codes: Dict[types.CodeType, object] = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        entry = self._codes.get(code)
        if entry is None:
            entry = False
            if code.co_filename.startswith(self._prefix):
                hit, missing = self.hits[code.co_filename], _required(code)

                def local(frame, event, arg):
                    if event == "line":
                        hit.add(frame.f_lineno)
                        missing.discard(frame.f_lineno)
                    return local

                entry = (missing, local)
            self._codes[code] = entry
        if entry is False or not entry[0]:
            return None
        return entry[1]

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)


# -- executable lines and blocks --------------------------------------------


def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> Set[int]:
    code = compile(path.read_text(), str(path), "exec")
    return {line for c in _code_objects(code) for line in _required(c)}


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scopes(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """(first line incl. decorators, last line, qualname) of every def/class."""
    found: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, child.end_lineno or child.lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def blocks(path: Path, executable: Set[int], executed: Set[int]) -> List[Tuple[int, int, int, str]]:
    """(first, last, executable lines, scope key) of each unexecuted run."""
    module = module_name(path)
    scopes = _scopes(ast.parse(path.read_text()))
    runs: List[List[int]] = []
    previous_missed = False
    for line in sorted(executable):
        missed = line not in executed
        if missed and previous_missed:
            runs[-1].append(line)
        elif missed:
            runs.append([line])
        previous_missed = missed
    found = []
    for run in runs:
        if len(run) < MIN_BLOCK:
            continue
        inside = [s for s in scopes if s[0] <= run[0] <= s[1]]
        scope = max(inside, key=lambda s: s[0])[2] if inside else ""
        found.append((run[0], run[-1], len(run), f"{module}:{scope}" if scope else module))
    return found


# -- the roots ----------------------------------------------------------------


def _run_blocks(text: str) -> Iterator[Tuple[str, str]]:
    """(job, shell text) of every ``run:`` step, in workflow order."""
    job = ""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        head = re.match(r"^  ([\w-]+):\s*$", line)
        if head:
            job = head.group(1)
            continue
        step = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not step:
            continue
        indent, value = len(step.group(1)), step.group(2).strip()
        if value not in ("|", ">"):
            yield job, value
            continue
        body: List[str] = []
        while i < len(lines) and (
            not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            body.append(lines[i].strip())
            i += 1
        yield job, ("\n" if value == "|" else " ").join(body)


def workflow_commands() -> Dict[str, List[Tuple[str, List[str]]]]:
    """Per CI job, its ``("cli" | "script" | "example", argv)`` commands."""
    jobs: Dict[str, List[Tuple[str, List[str]]]] = {}
    for job, script in _run_blocks(WORKFLOW.read_text()):
        script = re.sub(r"<<'(\w+)'\n.*?\n\1(\n|$)", "\n", script, flags=re.S)
        script = script.replace("\\\n", " ")
        loop = re.search(r"for name in ([\w\s]+?);\s*do", script)
        for line in script.splitlines():
            words = shlex.split(line)
            while words and re.match(r"^\w+=", words[0]):
                words = words[1:]
            if words[:3] == ["python", "-m", "repro.cli"]:
                jobs.setdefault(job, []).append(("cli", words[3:]))
            elif words[:1] == ["python"] and words[1:2] and words[1].startswith("ci/"):
                jobs.setdefault(job, []).append(("script", words[1:]))
            elif loop and words[:1] == ["python"] and "$name.py" in line:
                for name in loop.group(1).split():
                    jobs.setdefault(job, []).append(
                        ("example", [f"examples/{name}.py"])
                    )
    return jobs


@contextlib.contextmanager
def _quiet_in(directory: Path, argv: List[str]) -> Iterator[None]:
    """Run in ``directory`` with ``sys.argv`` set and output discarded."""
    old_cwd, old_argv = os.getcwd(), sys.argv
    os.chdir(directory)
    sys.argv = argv
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        sys.argv = old_argv
        os.chdir(old_cwd)


def _run_path(path: Path, argv: List[str]) -> None:
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (0, None):
            raise RuntimeError(f"{' '.join(argv)} exited {exit_.code}") from None


def roots() -> List[Tuple[str, Callable[[], None]]]:
    """(label, thunk) of every root, in the order they run."""
    from repro.cli import main as cli_main

    found: List[Tuple[str, Callable[[], None]]] = []
    for job, commands in workflow_commands().items():
        workdir = Path(tempfile.mkdtemp(prefix=f"reach-{job}-"))
        for kind, argv in commands:
            def run(kind=kind, argv=argv, workdir=workdir) -> None:
                with _quiet_in(workdir, argv):
                    if kind == "cli":
                        code = cli_main(argv)
                        if code:
                            raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
                    else:
                        _run_path(ROOT / argv[0], argv)
            found.append((f"{job}: {kind} {' '.join(argv)}", run))

    def benches() -> None:
        import pytest

        copy = Path(tempfile.mkdtemp(prefix="reach-benches-")) / "benchmarks"
        copy.mkdir()
        for path in (ROOT / "benchmarks").glob("*.py"):
            shutil.copy(path, copy)
        # Measuring, pytest-benchmark pauses any tracer around the bench;
        # disabled, it calls each bench once, in sight.
        with _quiet_in(copy, ["pytest"]):
            code = pytest.main([
                str(copy), "-q", "-p", "no:cacheprovider", "--benchmark-disable",
                "-o", "python_files=bench_*.py", "--rootdir", str(copy),
            ])
        if code:
            raise RuntimeError(f"paper-figure benches exited {code}")

    found.append(("benchmarks/bench_*.py", benches))

    perf = ROOT / "benchmarks" / "perf"
    sys.path.insert(0, str(perf))
    from workloads import BENCHES  # noqa: E402 - benchmarks/perf/workloads.py

    for name in BENCHES:
        def child(name=name) -> None:
            argv = ["child.py", "--workload", name, "--seed", "7",
                    "--spawned-at", str(time.time()), "--smoke",
                    "--timed-seconds", "0", "--traced-seconds", "0"]
            with _quiet_in(ROOT, argv):
                _run_path(perf / "child.py", argv)
        found.append((f"benchmarks/perf/child.py --smoke --workload {name}", child))
    return found


# -- the report ---------------------------------------------------------------


def report(hits: Dict[str, Set[int]], labels: List[str]) -> Tuple[str, List[str]]:
    """The markdown text, and every problem with the verdicts."""
    rows: List[str] = []
    block_rows: List[str] = []
    keys: Set[str] = set()
    problems: List[str] = []
    total_exec = total_run = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        executable = executable_lines(path)
        executed = hits.get(str(path), set()) & executable
        total_exec += len(executable)
        total_run += len(executed)
        share = 100.0 * len(executed) / len(executable) if executable else 100.0
        rel = path.relative_to(ROOT)
        rows.append(f"| `{rel}` | {len(executable)} | {len(executed)} | {share:.0f} % |")
        for first, last, size, key in blocks(path, executable, executed):
            keys.add(key)
            verdict = VERDICTS.get(key)
            if verdict is None:
                problems.append(f"no verdict: {rel}:{first}-{last} ({key})")
                verdict = "**no verdict**"
            block_rows.append(f"| `{rel}` | {first}-{last} | {size} | `{key}` | {verdict} |")
    for key, verdict in VERDICTS.items():
        if key not in keys:
            problems.append(f"verdict matches no block: {key}")
        for name in re.findall(r"(?:tests|benchmarks|examples|ci)/[\w/.]+\.py", verdict):
            if not (ROOT / name).is_file():
                problems.append(f"verdict names a missing file: {key}: {name}")
    share = 100.0 * total_run / total_exec
    lines = [
        "# Execution reach",
        "",
        "Generated by `ci/reach.py`; do not edit. Regenerate with",
        "`PYTHONPATH=src python ci/reach.py` from the repo root.",
        "",
        "Which lines of `src/repro` the roots execute, traced in one process",
        "(the main thread only). The roots, in the order they ran:",
        "",
        *(f"- {label}" for label in labels),
        "",
        f"In total {total_run} of {total_exec} executable lines ran ({share:.0f} %).",
        "",
        "| module | executable | executed | share |",
        "|---|---:|---:|---:|",
        *rows,
        "",
        f"## Unexecuted blocks of {MIN_BLOCK} or more executable lines",
        "",
        "Each stays for the reason given, which names the test or root that",
        "runs it (`VERDICTS` in `ci/reach.py`).",
        "",
        "| module | lines | executable | scope | verdict |",
        "|---|---|---:|---|---|",
        *block_rows,
        "",
    ]
    return "\n".join(lines), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="with --tests: where to write the executed lines")
    parser.add_argument("--tests", nargs=argparse.REMAINDER,
                        help="trace a pytest run with these arguments instead")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order, and so the lines that run, as CI has it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    tracer = LineTracer()
    if args.tests is not None:
        import pytest

        with tracer.active():
            code = pytest.main(args.tests)
        lines = {
            str(Path(path).relative_to(ROOT)): sorted(hit)
            for path, hit in sorted(tracer.hits.items())
        }
        Path(args.json or "reach-lines.json").write_text(json.dumps(lines, indent=0) + "\n")
        return int(code)

    labels: List[str] = []
    with tracer.active():  # importing the package is part of what runs
        for label, run in roots():
            print(f"reach: {label}", file=sys.stderr, flush=True)
            run()
            labels.append(label)
    text, problems = report(tracer.hits, labels)
    REPORT.write_text(text)
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
