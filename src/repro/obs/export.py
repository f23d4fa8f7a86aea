"""Metric exporters: Prometheus text exposition and OTLP-style JSON.

Both work on a :meth:`MetricsRegistry.snapshot` dict, so anything holding
a snapshot (a live registry, a saved ``--metrics`` JSON file) can export
without re-running. Output is deterministic: names and label sets arrive
sorted from the snapshot and are rendered in that order, so two identical
runs produce byte-identical expositions — which is what lets CI diff them.

Prometheus naming: instrument names like ``shuffle.write_bytes`` are
sanitized to ``shuffle_write_bytes`` (``[a-zA-Z0-9_:]`` only), counters
get the conventional ``_total`` suffix, and histograms are rendered as
*summaries* (the registry keeps exact samples, so the p50/p95/p99 in a
snapshot are real quantiles, not bucket interpolations).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

_QUANTILES: Tuple[Tuple[str, str], ...] = (
    ("0.5", "p50"),
    ("0.95", "p95"),
    ("0.99", "p99"),
)


def sanitize_name(name: str) -> str:
    """Map an instrument name onto the Prometheus metric-name alphabet."""
    out = _NAME_SANITIZE.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(sanitize_name(k), str(v)) for k, v in sorted(labels.items())]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def to_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines: List[str] = []

    for name, series in snapshot.get("counters", {}).items():
        metric = sanitize_name(name)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# HELP {metric} Counter {name!r} from the repro registry.")
        lines.append(f"# TYPE {metric} counter")
        for entry in series:
            labels = _render_labels(entry.get("labels", {}))
            lines.append(f"{metric}{labels} {_fmt(entry['value'])}")

    for name, series in snapshot.get("gauges", {}).items():
        metric = sanitize_name(name)
        lines.append(f"# HELP {metric} Gauge {name!r} from the repro registry.")
        lines.append(f"# TYPE {metric} gauge")
        for entry in series:
            labels = _render_labels(entry.get("labels", {}))
            lines.append(f"{metric}{labels} {_fmt(entry['value'])}")

    for name, series in snapshot.get("histograms", {}).items():
        metric = sanitize_name(name)
        lines.append(f"# HELP {metric} Histogram {name!r} from the repro registry.")
        lines.append(f"# TYPE {metric} summary")
        for entry in series:
            base = entry.get("labels", {})
            for q, key in _QUANTILES:
                value = entry.get(key)
                if value is None:
                    continue
                labels = _render_labels(base, extra=("quantile", q))
                lines.append(f"{metric}{labels} {_fmt(value)}")
            labels = _render_labels(base)
            lines.append(f"{metric}_sum{labels} {_fmt(entry.get('sum', 0.0))}")
            lines.append(f"{metric}_count{labels} {_fmt(entry.get('count', 0))}")

    return "\n".join(lines) + ("\n" if lines else "")


def _otlp_attributes(labels: Dict[str, str]) -> List[dict]:
    return [
        {"key": key, "value": {"stringValue": str(value)}}
        for key, value in sorted(labels.items())
    ]


def to_otlp(snapshot: dict, time_unix_nano: int = 0) -> dict:
    """An OTLP-style (OpenTelemetry metrics data model) JSON dump.

    Counters become monotonic cumulative sums, gauges become gauges, and
    histograms become summary data points carrying the exact quantiles.
    ``time_unix_nano`` defaults to 0 so the dump itself stays
    deterministic; pass a real timestamp when feeding a collector.
    """
    metrics: List[dict] = []
    stamp = str(int(time_unix_nano))

    for name, series in snapshot.get("counters", {}).items():
        metrics.append({
            "name": name,
            "sum": {
                "aggregationTemporality": 2,  # CUMULATIVE
                "isMonotonic": True,
                "dataPoints": [
                    {
                        "attributes": _otlp_attributes(entry.get("labels", {})),
                        "timeUnixNano": stamp,
                        "asDouble": float(entry["value"]),
                    }
                    for entry in series
                ],
            },
        })

    for name, series in snapshot.get("gauges", {}).items():
        metrics.append({
            "name": name,
            "gauge": {
                "dataPoints": [
                    {
                        "attributes": _otlp_attributes(entry.get("labels", {})),
                        "timeUnixNano": stamp,
                        "asDouble": float(entry["value"]),
                    }
                    for entry in series
                ],
            },
        })

    for name, series in snapshot.get("histograms", {}).items():
        metrics.append({
            "name": name,
            "summary": {
                "dataPoints": [
                    {
                        "attributes": _otlp_attributes(entry.get("labels", {})),
                        "timeUnixNano": stamp,
                        "count": int(entry.get("count", 0)),
                        "sum": float(entry.get("sum", 0.0)),
                        "quantileValues": [
                            {"quantile": float(q), "value": float(entry[key])}
                            for q, key in _QUANTILES
                            if entry.get(key) is not None
                        ],
                    }
                    for entry in series
                ],
            },
        })

    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": "repro"},
                        }
                    ]
                },
                "scopeMetrics": [
                    {"scope": {"name": "repro.obs"}, "metrics": metrics}
                ],
            }
        ]
    }


# ----------------------------------------------------------------------
# Validation (CI smoke)
# ----------------------------------------------------------------------

_TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$"
)
_HELP_LINE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{((?:[a-zA-Z_][a-zA-Z0-9_]*="       # labels (optional)
    r'"(?:[^"\\\n]|\\\\|\\"|\\n)*",?)*)\})?'
    r" ([^ ]+)"                              # value
    r"( [0-9]+)?$"                           # optional timestamp
)
_SUFFIXES = ("_sum", "_count", "_bucket")


def validate_prometheus(text: str) -> int:
    """Strict line-by-line check of Prometheus text exposition format.

    Raises ``ValueError`` (with the offending line number) on malformed
    comments, metric names, label syntax, or non-float values, and when a
    sample's metric family was never ``# TYPE``-declared. Returns the
    number of sample lines, which callers assert is nonzero.
    """
    declared: set = set()
    samples = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                match = _TYPE_LINE.match(line)
                if match is None:
                    raise ValueError(f"line {lineno}: malformed TYPE comment")
                declared.add(match.group(1))
            elif line.startswith("# HELP "):
                if _HELP_LINE.match(line) is None:
                    raise ValueError(f"line {lineno}: malformed HELP comment")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, value = match.group(1), match.group(4)
        try:
            float(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: sample value {value!r} is not a float"
            ) from None
        family = name
        for suffix in _SUFFIXES:
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in declared:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        samples += 1
    return samples
