"""Workload configuration files — the paper's Fig. 6 artifact.

CHOPPER's optimizer output is serialized as a list of tuples, each
containing a stage signature, the partitioner, and the number of
partitions (plus this implementation's co-partition group label and the
Algorithm-3 repartition-insertion flag). The modified DAGScheduler (our
:class:`~repro.chopper.advisor.ChopperAdvisor`) reads this file before
each stage executes and adopts the scheme.

Config files round-trip through JSON so they can be generated offline,
inspected, and reused — mirroring the paper's "dynamic updates to the
Spark configuration file whenever more runtime information is obtained".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.chopper.optimizer import StageScheme
from repro.chopper.schemes import PartitionScheme
from repro.common.errors import ConfigurationError


@dataclass
class ConfigEntry:
    """One tuple of the workload config file."""

    signature: str
    scheme: PartitionScheme
    cost: float = 0.0
    group: Optional[str] = None
    insert_repartition: bool = False

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "scheme": self.scheme.to_dict(),
            "cost": self.cost,
            "group": self.group,
            "insert_repartition": self.insert_repartition,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConfigEntry":
        return cls(
            signature=payload["signature"],
            scheme=PartitionScheme.from_dict(payload["scheme"]),
            cost=payload.get("cost", 0.0),
            group=payload.get("group"),
            insert_repartition=payload.get("insert_repartition", False),
        )


@dataclass
class WorkloadConfig:
    """The full per-workload configuration file."""

    workload: str
    entries: Dict[str, ConfigEntry] = field(default_factory=dict)

    def entry(self, signature: str) -> Optional[ConfigEntry]:
        return self.entries.get(signature)

    def add(self, entry: ConfigEntry) -> None:
        self.entries[entry.signature] = entry

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_schemes(
        cls, workload: str, schemes: List[StageScheme]
    ) -> "WorkloadConfig":
        config = cls(workload=workload)
        for scheme in schemes:
            config.add(
                ConfigEntry(
                    signature=scheme.signature,
                    scheme=scheme.scheme,
                    cost=scheme.cost,
                    group=scheme.group,
                    insert_repartition=scheme.insert_repartition,
                )
            )
        return config

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "entries": [e.to_dict() for e in self.entries.values()],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkloadConfig":
        payload = json.loads(text)
        try:
            config = cls(workload=payload["workload"])
            for entry in payload["entries"]:
                config.add(ConfigEntry.from_dict(entry))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # Valid JSON, wrong shape: `[]`, `{}`, an entry without a scheme.
            raise ConfigurationError(
                f"not a workload config ({type(exc).__name__}: {exc})"
            ) from None
        return config

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "WorkloadConfig":
        return cls.from_json(Path(path).read_text())
