"""The catalogue is the only vocabulary: a source scan, and a docs check.

Outside ``repro/obs`` (and the two driver-side modules that talk to the
tracer directly) nothing creates an instrument, builds a span or spells
a log level: it reports facts by name, and every name is a catalogue
row. ``docs/observability.md`` lists what the catalogue defines.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.engine import AnalyticsContext
from repro.obs import Observability, catalogue
from repro.obs.log import LEVELS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DRIVER_SIDE = {SRC / "chopper" / "runner.py", SRC / "chopper" / "optimizer.py"}


def engine_modules():
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "obs" not in path.parents and path not in DRIVER_SIDE:
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def reported_names(tree):
    """The literal name(s) each ``<...>obs.event(`` call may report."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        receiver = getattr(receiver, "attr", getattr(receiver, "id", ""))
        if node.func.attr == "event" and receiver in ("obs", "_obs"):
            yield [
                n.value for n in ast.walk(node.args[0])
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            ]


class TestSinglePath:
    def test_no_module_outside_obs_meters_or_traces_by_hand(self):
        offences = []
        for path, tree in engine_modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name in ("counter", "gauge", "histogram") and isinstance(
                        func, ast.Attribute
                    ):
                        offences.append(f"{path}:{node.lineno}: .{name}(")
                    if name == "TraceEvent":
                        offences.append(f"{path}:{node.lineno}: TraceEvent(")
                if isinstance(node, ast.Constant) and node.value in LEVELS:
                    offences.append(f"{path}:{node.lineno}: level {node.value!r}")
        assert offences == []

    def test_reported_names_and_catalogue_rows_are_the_same_set(self):
        reported, forwarded = set(), []
        for path, tree in list(engine_modules()) + [
            (p, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(DRIVER_SIDE)
        ]:
            for names in reported_names(tree):
                assert set(names) <= set(catalogue.FACTS), f"{path}: {names}"
                reported.update(names)
                if not names:
                    forwarded.append(path.name)
        assert reported == set(catalogue.FACTS)
        # The one call without a literal name replays a worker thread's
        # buffered reports, each of which had one.
        assert forwarded == ["executor.py"]


def vocabulary():
    """Every name the catalogue defines, by kind."""
    records = [f.log for f in catalogue.FACTS.values() if f.log is not None]
    records += [catalogue.STAGE_COMPLETED, catalogue.JOB_FINISHED]
    return {
        "instrument": {
            feed.name for f in catalogue.FACTS.values() for feed in f.feeds
        },
        "span category": set(catalogue.SPAN_CATEGORIES),
        "logger": {logger for _level, logger, _event in records},
        "event": {event for _level, _logger, event in records},
        # ``attempt_ended``'s outcomes are the scheduler's own table.
        "task outcome": set(AnalyticsContext().task_scheduler._endings),
    }


class TestVocabulary:
    def test_rows_are_well_formed(self):
        for name, fact in catalogue.FACTS.items():
            if fact.log is not None:
                assert fact.log[0] in LEVELS, name
            if isinstance(fact.span, tuple):
                assert fact.span[1] in catalogue.SPAN_CATEGORIES, name
            for feed in fact.feeds:
                assert feed.kind in ("counter", "gauge", "histogram"), name

    def test_docs_list_everything_the_catalogue_defines(self):
        doc = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
        missing = [
            f"{kind} {name}"
            for kind, names in vocabulary().items()
            for name in sorted(names)
            if f"`{name}`" not in doc
        ]
        assert missing == []

    def test_eager_series_exist_at_zero_the_rest_on_first_use(self):
        hub = Observability()
        snapshot = hub.metrics.snapshot()
        eager = sorted(
            feed.name for f in catalogue.FACTS.values()
            for feed in f.feeds if feed.eager
        )
        created = sorted(name for family in snapshot.values() for name in family)
        assert created == eager and len(eager) == 16
        assert all(
            row["labels"] == {}
            for family in snapshot.values() for rows in family.values() for row in rows
        )
