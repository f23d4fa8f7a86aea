"""Discrete-event simulation kernel.

A tiny, deterministic event-driven simulator: an event loop with a virtual
clock (:class:`SimEngine`) and time-series metric recording
(:class:`MetricsRecorder`) used to reproduce the paper's utilization
figures (Figs. 11-14). Core accounting is the engine's task scheduler's
own, because its dispatch is locality-aware.

The engine layer (``repro.engine``) runs *real* computations but takes all
its timing from this kernel, which is what makes a 6-node-cluster paper
reproducible on one laptop core.
"""

from repro.simul.events import Event
from repro.simul.engine import SimEngine
from repro.simul.metrics import MetricsRecorder, TimeSeries

__all__ = ["Event", "SimEngine", "MetricsRecorder", "TimeSeries"]
