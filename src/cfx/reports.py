"""Structured verification outcomes with a stable wire format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Report:
    """One verification outcome: which identity, with what data, and the residual."""

    identity: str
    params: dict
    seed: Optional[int]
    passed: bool
    residual: str = "0"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "seed": self.seed,
            "pass": self.passed,
            "residual": self.residual,
        }
        out.update(self.extra)
        return out


def dumps(payload) -> str:
    """Deterministic JSON: sorted keys, no float repr surprises beyond repr()."""
    return json.dumps(payload, sort_keys=True, indent=2, default=str)
