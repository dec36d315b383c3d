"""Structured verification outcomes with a stable wire format."""

from __future__ import annotations

import json


class Report(dict):
    """One check's record, the dict the CLI prints: ``identity``, ``params``,
    ``seed``, ``pass`` and ``residual``, then the check's own keys."""

    @property
    def passed(self) -> bool:
        return self["pass"]


def dumps(payload) -> str:
    """Deterministic JSON: sorted keys, no float repr surprises beyond repr();
    a value JSON has no type for (a Fraction, say) is a TypeError."""
    return json.dumps(payload, sort_keys=True, indent=2)
