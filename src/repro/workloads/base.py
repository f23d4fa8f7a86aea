"""Workload abstraction shared by the drivers and the CHOPPER runner."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.common.errors import WorkloadError
from repro.engine.context import AnalyticsContext


@dataclass
class WorkloadResult:
    """What a workload run hands back to the harness."""

    value: Any
    details: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """A runnable, scalable benchmark driver.

    Subclasses set ``name`` and ``input_bytes`` (the virtual dataset size
    at ``scale=1.0``) and implement :meth:`run`, which drives jobs on the
    given context. ``scale`` shrinks the *virtual* input (CHOPPER's
    sampled test runs vary the input size); ``physical_scale`` shrinks the
    *physical* sample (test-speed knob, orthogonal to the simulation).
    """

    name: str = "workload"
    input_bytes: float = 0.0

    def __init__(self, physical_scale: float = 1.0, seed: int = 7) -> None:
        if not 0 < physical_scale < math.inf:
            raise WorkloadError(
                f"physical_scale must be positive and finite, got {physical_scale}"
            )
        self.physical_scale = physical_scale
        self.seed = seed

    @staticmethod
    def check_physical_records(value: int) -> int:
        """Reject a nonsensical physical sample size up front.

        Subclasses clamp small requests up to a workable floor, which
        would otherwise turn ``physical_records=0`` into a silent
        default instead of an error. Only a positive ``int`` passes: NaN,
        ``2.5`` and ``True`` are not record counts.
        """
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise WorkloadError(f"physical_records must be a positive int, got {value!r}")
        return value

    def run(self, ctx: AnalyticsContext, scale: float = 1.0) -> WorkloadResult:
        raise NotImplementedError

    def virtual_bytes(self, scale: float = 1.0) -> float:
        """Virtual input size for a run at ``scale``: positive and finite."""
        if not 0 < scale < math.inf:
            raise WorkloadError(f"scale must be positive and finite, got {scale}")
        size = self.input_bytes * scale
        if not 0 < size < math.inf:
            raise WorkloadError(
                f"virtual input size (virtual_gb x scale) must be positive and"
                f" finite, got {size} bytes"
            )
        return size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
