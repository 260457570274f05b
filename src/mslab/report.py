"""Structured pass/fail reports with deterministic JSON form.

Every check in the package funnels into a WitnessReport: an identifier,
an echo of the inputs, a verdict, an optional counterexample witness and
a counts map. Serialized reports are byte-identical across runs for the
same inputs and seed; wall-clock timing therefore stays out of the JSON
payload and is printed on stderr by the CLI instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

VERDICTS = ("pass", "fail", "undetermined")


def jsonable(value: Any) -> Any:
    """Recursively convert Fractions to canonical 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class WitnessReport:
    check: str
    params: dict = field(default_factory=dict)
    verdict: str = "pass"
    witness: Any = None
    counts: dict = field(default_factory=dict)
    caveat: str | None = None
    result: Any = None  # optional constructive payload (built space, etc.)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("a fail verdict must carry a witness")

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": jsonable(self.params),
            "verdict": self.verdict,
            "witness": jsonable(self.witness),
            "counts": jsonable(self.counts),
        }
        if self.caveat is not None:
            out["caveat"] = self.caveat
        if self.result is not None:
            out["result"] = jsonable(self.result)
        return out


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def report_json(report: WitnessReport) -> str:
    return canonical_json(report.to_dict())
