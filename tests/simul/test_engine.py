"""Tests for the discrete-event simulation loop."""

import pytest

from repro.common.errors import SchedulingError
from repro.simul import SimEngine


class TestSchedule:
    def test_clock_starts_at_zero(self):
        assert SimEngine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = SimEngine()
        fired = []
        engine.schedule(2.0, fired.append, "b")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(3.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        engine = SimEngine()
        fired = []
        for label in ("x", "y", "z"):
            engine.schedule(1.0, fired.append, label)
        engine.run()
        assert fired == ["x", "y", "z"]

    def test_clock_advances_to_event_time(self):
        engine = SimEngine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]
        assert engine.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            SimEngine().schedule(-1.0, lambda: None)
        with pytest.raises(SchedulingError):
            SimEngine().schedule(float("nan"), lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = SimEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulingError):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            engine.schedule_at(float("nan"), lambda: None)

    def test_events_can_schedule_events(self):
        engine = SimEngine()
        fired = []

        def chain(n):
            fired.append(engine.now)
            if n > 0:
                engine.schedule(1.0, chain, n - 1)

        engine.schedule(0.0, chain, 3)
        engine.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestCancel:
    def test_cancelled_event_skipped(self):
        engine = SimEngine()
        fired = []
        event = engine.schedule(1.0, fired.append, "no")
        engine.schedule(2.0, fired.append, "yes")
        event.cancel()
        engine.run()
        assert fired == ["yes"]

    def test_pending_excludes_cancelled(self):
        engine = SimEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        assert engine.pending() == 1


class TestRunUntil:
    def test_horizon_stops_clock(self):
        engine = SimEngine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(10.0, fired.append, "b")
        engine.run(until=5.0)
        assert fired == ["a"]
        assert engine.now == 5.0
        engine.run()
        assert fired == ["a", "b"]


class TestReset:

    def test_clear_drops_events_and_keeps_the_clock(self):
        engine = SimEngine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.run()
        engine.schedule(1.0, fired.append, "b")
        engine.clear()
        assert engine.pending() == 0
        assert engine.run() == 1.0 and fired == ["a"]
        # Event order stays deterministic: seq keeps counting.
        assert engine.schedule(0.0, fired.append, "c").seq == 2

    def test_clear_refused_while_running(self):
        engine = SimEngine()
        engine.schedule(1.0, engine.clear)
        with pytest.raises(SchedulingError, match="running"):
            engine.run()
