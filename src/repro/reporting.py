"""Plain-text run reports: stage tables and task Gantt charts.

Everything renders to monospace text (no plotting dependencies), which
is what the benchmark harness saves and what a terminal user reads:

* :func:`stage_report` — one row per executed stage: timing, partitions,
  shuffle volume/remoteness, skew;
* :func:`gantt` — an ASCII timeline of task execution per node, the
  quickest way to *see* wave quantization, stragglers, and idle cores;
* :func:`utilization_report` — the Figs. 11-14 series summarized per
  node.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.units import fmt_bytes, fmt_duration
from repro.engine.context import AnalyticsContext
from repro.engine.listener import StageStats


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def stage_report(stages: Sequence[StageStats], title: str = "stages") -> str:
    """Per-stage summary table for a run's executed stages."""
    rows = []
    for i, stage in enumerate(stages):
        rows.append([
            i,
            stage.kind,
            stage.num_partitions,
            fmt_duration(stage.duration),
            fmt_bytes(stage.input_bytes),
            fmt_bytes(stage.shuffle_bytes),
            fmt_bytes(stage.remote_shuffle_read),
            f"{stage.skew():.2f}",
        ])
    table = _table(
        ["stage", "kind", "P", "time", "input", "shuffle", "remote", "skew"],
        rows,
    )
    total = sum(s.duration for s in stages)
    return f"== {title} ==\n{table}\ntotal stage time: {fmt_duration(total)}"


def gantt(
    ctx: AnalyticsContext,
    width: int = 80,
    stages: Optional[Sequence[StageStats]] = None,
) -> str:
    """ASCII timeline: per node, the count of running tasks over time.

    Each column is one time bucket; the glyph encodes how many of the
    node's cores are busy (' ' idle, digits, '#' for >=10). Makes wave
    boundaries and stragglers visible at a glance.
    """
    stages = list(stages if stages is not None else ctx.stage_stats)
    tasks = [t for s in stages for t in s.tasks]
    if not tasks:
        return "(no tasks)"
    t0 = min(t.start for t in tasks)
    t1 = max(t.end for t in tasks)
    span = max(t1 - t0, 1e-9)
    step = span / width

    lines = [f"t = {fmt_duration(t0)} .. {fmt_duration(t1)} "
             f"({fmt_duration(span)} span, {fmt_duration(step)}/col)"]
    for worker in ctx.cluster.workers:
        counts = [0] * width
        for task in tasks:
            if task.node != worker.name:
                continue
            first = int((task.start - t0) / step)
            last = int((task.end - t0) / step)
            for col in range(max(first, 0), min(last + 1, width)):
                counts[col] += 1
        glyphs = "".join(
            " " if c == 0 else (str(c) if c < 10 else "#") for c in counts
        )
        lines.append(f"{worker.name:>8s} |{glyphs}|")
    return "\n".join(lines)


def utilization_report(ctx: AnalyticsContext, buckets: int = 40) -> str:
    """Per-node averages of the four dstat-style series (Figs. 11-14)."""
    horizon = max(ctx.now, 1e-9)
    bucket = horizon / buckets
    rows = []
    for worker in ctx.cluster.workers:
        cpu = ctx.metrics.bucketize("cpu", bucket, node=worker.name, end=horizon)
        mem = ctx.metrics.bucketize(
            "mem_working", bucket, node=worker.name, end=horizon
        )
        net = ctx.metrics.bucketize(
            "net_bytes", bucket, node=worker.name, end=horizon
        )
        disk = ctx.metrics.bucketize(
            "disk_transactions", bucket, node=worker.name, end=horizon
        )
        rows.append([
            worker.name,
            worker.cores,
            f"{cpu.mean() / worker.cores * 100:.1f}%",
            fmt_bytes(mem.mean()),
            f"{net.mean() / 1e6:.2f}",
            f"{disk.mean():.1f}",
        ])
    return _table(
        ["node", "cores", "cpu", "mem (avg)", "net MB/s", "disk tx/s"], rows
    )


# ----------------------------------------------------------------------
# Self-contained HTML run report (ledger entries)
# ----------------------------------------------------------------------

_HTML_STYLE = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --axis: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --critical: #d03b3b;
  }
}
.viz-root section {
  background: var(--surface-1);
  border: 1px solid var(--grid);
  border-radius: 8px;
  padding: 16px 20px;
  margin: 0 0 16px 0;
  max-width: 980px;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px 0; }
.viz-root h2 { font-size: 15px; margin: 0 0 10px 0; }
.viz-root p.sub { color: var(--text-secondary); margin: 0 0 12px 0; font-size: 13px; }
.viz-root table { border-collapse: collapse; font-size: 13px; width: 100%; }
.viz-root th {
  text-align: left; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0;
}
.viz-root td {
  border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
  font-variant-numeric: tabular-nums;
}
.viz-root .flag { color: var(--critical); font-weight: 600; }
.viz-root .ok { color: var(--text-secondary); }
.viz-root .legend { font-size: 12px; color: var(--text-secondary); margin: 6px 0 0 0; }
.viz-root .swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin: 0 4px 0 12px; vertical-align: baseline;
}
.viz-root svg text { fill: var(--text-secondary); font-size: 11px; }
.viz-root svg .lab { fill: var(--text-primary); }
"""


def _esc(value: object) -> str:
    import html as _html

    return _html.escape(str(value))


def _stage_color(kind: str) -> str:
    return "var(--series-1)" if kind == "shuffle_map" else "var(--series-2)"


def _waterfall_svg(entry: dict) -> str:
    """Stage waterfall: one bar per stage run on the simulated timeline."""
    stages = entry.get("stages", [])
    if not stages:
        return "<p class='sub'>no stages recorded</p>"
    horizon = max(
        [s["end"] for s in stages] + [entry.get("wall_clock", 0.0), 1e-9]
    )
    label_w, row_h, bar_h, top = 230, 22, 14, 18
    plot_w = 660
    width = label_w + plot_w + 20
    height = top + row_h * len(stages) + 28

    def x(t: float) -> float:
        return label_w + t / horizon * plot_w

    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='100%' "
        f"role='img' aria-label='stage waterfall'>"
    ]
    # Time gridlines (quarters of the horizon).
    for i in range(5):
        t = horizon * i / 4
        gx = x(t)
        parts.append(
            f"<line x1='{gx:.1f}' y1='{top}' x2='{gx:.1f}' "
            f"y2='{height - 24}' stroke='var(--grid)' stroke-width='1'/>"
            f"<text x='{gx:.1f}' y='{height - 10}' "
            f"text-anchor='middle'>{fmt_duration(t)}</text>"
        )
    for i, s in enumerate(stages):
        y = top + i * row_h
        bx, bw = x(s["start"]), max(x(s["end"]) - x(s["start"]), 2.0)
        name = s["name"]
        if s.get("attempt", 0):
            name += f" (retry {s['attempt']})"
        label = name if len(name) <= 34 else name[:33] + "…"
        tip = (
            f"{name}: {fmt_duration(s['duration'])}, P={s['num_partitions']},"
            f" shuffle r/w {fmt_bytes(s['shuffle_read_bytes'])}/"
            f"{fmt_bytes(s['shuffle_write_bytes'])}"
        )
        parts.append(
            f"<text class='lab' x='{label_w - 8}' y='{y + bar_h - 2}' "
            f"text-anchor='end'>{_esc(label)}</text>"
            f"<rect x='{bx:.1f}' y='{y}' width='{bw:.1f}' height='{bar_h}' "
            f"rx='4' fill='{_stage_color(s['kind'])}'>"
            f"<title>{_esc(tip)}</title></rect>"
        )
    parts.append("</svg>")
    parts.append(
        "<p class='legend'><span class='swatch' "
        "style='background:var(--series-1)'></span>shuffle-map stage"
        "<span class='swatch' style='background:var(--series-2)'></span>"
        "result stage</p>"
    )
    return "".join(parts)


def _scatter_svg(rows: Sequence[dict]) -> str:
    """Predicted-vs-actual stage-time scatter with a y=x reference line."""
    size, margin = 320, 44
    lim = max(
        [max(r["predicted_time"], r["actual_time"]) for r in rows] + [1e-9]
    ) * 1.08

    def sx(v: float) -> float:
        return margin + v / lim * (size - 2 * margin)

    def sy(v: float) -> float:
        return size - margin - v / lim * (size - 2 * margin)

    parts = [
        f"<svg viewBox='0 0 {size} {size}' width='{size}' role='img' "
        f"aria-label='predicted vs actual stage time'>"
    ]
    for i in range(5):
        v = lim * i / 4
        parts.append(
            f"<line x1='{sx(0):.1f}' y1='{sy(v):.1f}' x2='{sx(lim):.1f}' "
            f"y2='{sy(v):.1f}' stroke='var(--grid)'/>"
            f"<text x='{sx(0) - 6:.1f}' y='{sy(v) + 4:.1f}' "
            f"text-anchor='end'>{fmt_duration(v)}</text>"
            f"<text x='{sx(v):.1f}' y='{size - margin + 16:.1f}' "
            f"text-anchor='middle'>{fmt_duration(v)}</text>"
        )
    parts.append(
        f"<line x1='{sx(0):.1f}' y1='{sy(0):.1f}' x2='{sx(lim):.1f}' "
        f"y2='{sy(lim):.1f}' stroke='var(--axis)' stroke-dasharray='4 3'/>"
    )
    for r in rows:
        tip = (
            f"{r['signature'][:16]} ({r['partitioner']}, P={r['P']}): "
            f"predicted {fmt_duration(r['predicted_time'])}, "
            f"actual {fmt_duration(r['actual_time'])}"
        )
        parts.append(
            f"<circle cx='{sx(r['predicted_time']):.1f}' "
            f"cy='{sy(r['actual_time']):.1f}' r='5' fill='var(--series-1)' "
            f"stroke='var(--surface-1)' stroke-width='2'>"
            f"<title>{_esc(tip)}</title></circle>"
        )
    parts.append(
        f"<text x='{size / 2:.0f}' y='{size - 6}' text-anchor='middle'>"
        f"predicted stage time</text>"
        f"<text x='12' y='{size / 2:.0f}' text-anchor='middle' "
        f"transform='rotate(-90 12 {size / 2:.0f})'>actual stage time</text>"
        "</svg>"
    )
    return "".join(parts)


def _bars_svg(values: Sequence[float], width: int = 160, height: int = 28) -> str:
    """Tiny inline bar chart of a per-partition byte histogram."""
    if not values:
        return "<span class='sub'>—</span>"
    peak = max(values) or 1.0
    n = len(values)
    bw = width / n
    bars = "".join(
        f"<rect x='{i * bw:.1f}' y='{height - height * v / peak:.1f}' "
        f"width='{max(bw - 0.5, 0.5):.1f}' "
        f"height='{height * v / peak:.1f}' fill='#4a90d9'/>"
        for i, v in enumerate(values)
    )
    return (
        f"<svg width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>{bars}</svg>"
    )


def _aqe_detail(event: dict) -> str:
    """One-line decision summary of an ``aqe.*`` ledger event."""
    return (
        f"{event.get('original_partitions', '?')} → "
        f"{event.get('adapted_partitions', '?')} tasks "
        f"({event.get('coalesced', 0)} coalesced)"
    )


def html_report(entry: dict) -> str:
    """One ledger entry rendered as a self-contained HTML page.

    Sections: run summary, stage waterfall, skew and straggler callouts,
    predicted-vs-actual model scatter, adaptive-execution decisions
    (predicted vs adapted partition histograms), chaos events, and the
    real host-resource profile (``--profile`` runs). No external assets,
    so the file can be archived as a CI artifact and opened anywhere.
    """
    from repro.obs.diagnostics import detect_stragglers, partition_skew

    skew = partition_skew(entry)
    stragglers = detect_stragglers(entry)
    attempts = entry.get("task_attempts", {})
    shuffle = entry.get("shuffle", {})

    out: List[str] = [
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>",
        f"<title>repro run report — {_esc(entry.get('run_id', '?'))}"
        "</title>",
        f"<style>{_HTML_STYLE}</style></head><body class='viz-root'>",
        "<section><h1>Run report: "
        f"{_esc(entry.get('run_id', '?'))}</h1>",
        "<p class='sub'>workload "
        f"<b>{_esc(entry.get('workload', '?'))}</b>"
        f" · label {_esc(entry.get('label', '?'))}"
        f" · scale {_esc(entry.get('scale', 1.0))}"
        f" · wall clock {fmt_duration(entry.get('wall_clock', 0.0))}"
        f" · {len(entry.get('stages', []))} stage runs"
        f" · shuffle local {fmt_bytes(shuffle.get('local_bytes', 0.0))}"
        f" / remote {fmt_bytes(shuffle.get('remote_bytes', 0.0))}"
        f" / written {fmt_bytes(shuffle.get('write_bytes', 0.0))}</p>",
        "<p class='sub'>task attempts: "
        + (
            ", ".join(f"{_esc(k)} {v}" for k, v in attempts.items())
            or "none recorded"
        )
        + "</p></section>",
        "<section><h2>Stage waterfall</h2>",
        _waterfall_svg(entry),
        "</section>",
    ]

    out.append("<section><h2>Partition skew</h2>")
    flagged = [f for f in skew if f.flagged]
    if flagged:
        rows = "".join(
            f"<tr><td>{_esc(f.name)}</td><td>{_esc(f.metric)}</td>"
            f"<td>{f.max_mean:.2f}</td><td>{f.gini:.3f}</td><td>{f.n}</td>"
            "<td class='flag'>⚠ skewed</td></tr>"
            for f in flagged
        )
        out.append(
            "<p class='sub'>distributions whose max/mean or Gini "
            "coefficient exceeded the skew thresholds</p>"
            "<table><tr><th>stage</th><th>distribution</th><th>max/mean"
            "</th><th>Gini</th><th>n</th><th></th></tr>"
            f"{rows}</table>"
        )
    else:
        out.append(
            "<p class='sub ok'>no stage exceeded the skew thresholds"
            f" ({len(skew)} distributions checked)</p>"
        )
    out.append("</section>")

    out.append("<section><h2>Stragglers</h2>")
    if stragglers:
        rows = "".join(
            f"<tr><td>{_esc(f.name)}</td>"
            f"<td>{fmt_duration(f.p50)}</td><td>{fmt_duration(f.p95)}</td>"
            f"<td>{fmt_duration(f.p99)}</td>"
            f"<td class='flag'>{len(f.outliers)}</td>"
            f"<td>{_esc(f.outliers[0]['node'])} task "
            f"{f.outliers[0]['task_index']} at "
            f"{fmt_duration(f.outliers[0]['duration'])}</td></tr>"
            for f in stragglers
        )
        out.append(
            "<p class='sub'>tasks slower than 2× the stage median "
            "and beyond its p95</p>"
            "<table><tr><th>stage</th><th>p50</th><th>p95</th><th>p99</th>"
            "<th>outliers</th><th>worst</th></tr>"
            f"{rows}</table>"
        )
    else:
        out.append("<p class='sub ok'>no straggler tasks detected</p>")
    out.append("</section>")

    eval_rows = (entry.get("model_eval") or {}).get("per_stage", [])
    out.append("<section><h2>Cost model: predicted vs actual</h2>")
    if eval_rows:
        out.append(
            "<p class='sub'>each mark is one stage run; the dashed line "
            "is a perfect prediction</p>"
        )
        out.append(_scatter_svg(eval_rows))
        table_rows = "".join(
            f"<tr><td>{_esc(r['signature'][:20])}</td>"
            f"<td>{_esc(r['partitioner'])}</td><td>{r['P']}</td>"
            f"<td>{fmt_duration(r['predicted_time'])}</td>"
            f"<td>{fmt_duration(r['actual_time'])}</td>"
            f"<td>{r['r2_time']:.3f}</td>"
            f"<td>{fmt_bytes(r['predicted_shuffle'])}</td>"
            f"<td>{fmt_bytes(r['actual_shuffle'])}</td>"
            f"<td>{r['r2_shuffle']:.3f}</td></tr>"
            for r in eval_rows
        )
        out.append(
            "<table><tr><th>stage</th><th>kind</th><th>P</th>"
            "<th>pred t</th><th>actual t</th><th>R² t</th>"
            "<th>pred shuffle</th><th>actual shuffle</th>"
            "<th>R² s</th></tr>"
            f"{table_rows}</table>"
        )
    else:
        out.append(
            "<p class='sub ok'>no trained cost model covered this run "
            "(profile + train first)</p>"
        )
    out.append("</section>")

    aqe = entry.get("aqe_events", [])
    out.append("<section><h2>Adaptive execution</h2>")
    if aqe:
        out.append(
            "<p class='sub'>reduce sides re-planned at runtime from "
            "measured map-output sizes; bars show the statically "
            "predicted vs adapted per-partition byte histograms</p>"
        )
        rows = "".join(
            f"<tr><td>{fmt_duration(e.get('t', 0.0))}</td>"
            f"<td>{_esc(e.get('event', '?'))}</td>"
            f"<td>{_esc(e.get('stage', '?'))}</td>"
            f"<td>{_esc(_aqe_detail(e))}</td>"
            f"<td>{e.get('gini_before', 0.0):.3f} → "
            f"{e.get('gini_after', 0.0):.3f}</td>"
            f"<td>{_bars_svg(e.get('before', []))}</td>"
            f"<td>{_bars_svg(e.get('after', []))}</td></tr>"
            for e in aqe
        )
        out.append(
            "<table><tr><th>t</th><th>event</th><th>stage</th>"
            "<th>decision</th><th>Gini</th><th>predicted</th>"
            "<th>adapted</th></tr>"
            f"{rows}</table>"
        )
    else:
        out.append(
            "<p class='sub ok'>no runtime re-planning "
            "(AQE off, or the measured sizes asked for no change)</p>"
        )
    out.append("</section>")

    chaos = entry.get("chaos_events", [])
    out.append("<section><h2>Chaos events</h2>")
    if chaos:
        rows = "".join(
            f"<tr><td>{fmt_duration(e.get('t', 0.0))}</td>"
            f"<td>{_esc(e.get('event', '?'))}</td>"
            f"<td>{_esc(', '.join(f'{k}={v}' for k, v in sorted(e.items()) if k not in ('t', 'event')))}"
            "</td></tr>"
            for e in chaos
        )
        out.append(
            "<table><tr><th>t</th><th>event</th><th>detail</th></tr>"
            f"{rows}</table>"
        )
    else:
        out.append("<p class='sub ok'>none — the run saw no failures</p>")
    out.append("</section>")

    profile = entry.get("profile")
    out.append("<section><h2>Resource profile</h2>")
    if profile:
        host = profile.get("host", {})
        gc_info = host.get("gc", {})
        out.append(
            "<p class='sub'>real host cost of this run — wall clock and "
            "allocator measurements, not simulated time (non-"
            "deterministic; excluded from identity checks): "
            f"wall {host.get('wall_s', 0.0):.3f}s"
            f" · cpu {host.get('cpu_s', 0.0):.3f}s"
            f" · tracemalloc peak "
            f"{fmt_bytes(host.get('tracemalloc_peak_bytes', 0))}"
            f" · gc {gc_info.get('collections', 0)} collections"
            f" ({gc_info.get('pause_s', 0.0) * 1e3:.1f} ms paused, "
            f"max {gc_info.get('max_pause_s', 0.0) * 1e3:.2f} ms)</p>"
        )
        stages = profile.get("stages", {})
        if stages:
            rows = "".join(
                f"<tr><td>{_esc(name)}</td><td>{agg.get('tasks', 0)}</td>"
                f"<td>{agg.get('wall_s', 0.0) * 1e3:.1f} ms</td>"
                f"<td>{agg.get('cpu_s', 0.0) * 1e3:.1f} ms</td>"
                f"<td>{fmt_bytes(agg.get('alloc_bytes', 0))}</td>"
                f"<td>{fmt_bytes(agg.get('peak_bytes', 0))}</td>"
                f"<td>{agg.get('max_task_wall_s', 0.0) * 1e3:.2f} ms</td>"
                "</tr>"
                for name, agg in stages.items()
            )
            out.append(
                "<table><tr><th>stage</th><th>tasks</th><th>wall</th>"
                "<th>cpu</th><th>alloc</th><th>peak</th>"
                "<th>max task</th></tr>"
                f"{rows}</table>"
            )
    else:
        out.append(
            "<p class='sub ok'>not profiled — run with --profile to "
            "measure host CPU, allocations, and GC pauses</p>"
        )
    out.append("</section></body></html>")
    return "".join(out)
