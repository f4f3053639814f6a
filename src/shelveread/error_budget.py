"""Compositional error budget for two-pulse shelving plus initialization.

The shelving transfer uses two consecutive pulses, so a shot is lost to a
transfer error only if *both* pulses fail: per-pulse error sources are
summed within each pulse and the two sums are multiplied.  Error sources
that bypass this redundancy (off-resonance excitation of the wrong state,
decay of the shelved level during the sequence) act once per shot and are
added after the product, as are all initialization errors.

Budget rows are data, not physics: values come from apparatus-specific
measurements supplied by the user, and a worked example configuration
ships with the package.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

from ._files import json_object, read_json, write_json

__all__ = [
    "PulseGroup",
    "BudgetEntry",
    "BudgetReport",
    "combine",
    "read_budget_json",
    "write_budget_json",
    "write_report_json",
    "read_report_json",
]


class PulseGroup(Enum):
    """Which part of the sequence an error source belongs to."""

    PULSE1 = "pulse1"
    PULSE2 = "pulse2"
    SHARED = "shared"  # spans both pulses; never enters the product
    INITIALIZATION = "initialization"


@dataclass(frozen=True)
class BudgetEntry:
    """One error source: label, sequence position, probability."""

    source: str
    pulse: PulseGroup
    value: float
    excluded_from_product: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.pulse, PulseGroup):
            object.__setattr__(self, "pulse", PulseGroup(self.pulse))
        if isinstance(self.value, bool) or not isinstance(self.value, Real):
            raise ValueError(f"value must be a real number, got {self.value!r}")
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"value must be a finite probability >= 0, got {self.value}")
        if self.pulse is PulseGroup.SHARED:
            # Shared sources act once per shot regardless of pulse redundancy.
            object.__setattr__(self, "excluded_from_product", True)


@dataclass(frozen=True)
class BudgetReport:
    """Combined totals; overall is always the exact sum of the two parts."""

    initialization_total: float
    shelving_total: float
    overall: float | None = None

    def __post_init__(self) -> None:
        for name in ("initialization_total", "shelving_total"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {value}")
        expected = self.initialization_total + self.shelving_total
        if self.overall is None:
            object.__setattr__(self, "overall", expected)
        elif self.overall != expected:
            raise ValueError(
                f"overall must equal initialization_total + shelving_total "
                f"({expected}), got {self.overall}"
            )


def combine(entries: Iterable[BudgetEntry]) -> BudgetReport:
    """Apply the two-pulse combination rule to a list of budget entries.

    shelving_total = (sum of pulse-1 sources) * (sum of pulse-2 sources)
    + the sum of all excluded/shared sources.  If only one pulse group has
    non-excluded sources the product degenerates to that group's sum (a
    single-pulse sequence), and with neither it is zero.  Initialization
    entries are purely additive.
    """
    entries = list(entries)
    initialization = 0.0
    pulse_sums: dict[PulseGroup, float] = {}  # the pulse groups present
    excluded = 0.0
    for entry in entries:
        if entry.pulse is PulseGroup.INITIALIZATION:
            initialization += entry.value
        elif entry.excluded_from_product:
            excluded += entry.value
        else:
            pulse_sums[entry.pulse] = pulse_sums.get(entry.pulse, 0.0) + entry.value
    product = math.prod(pulse_sums.values()) if pulse_sums else 0.0
    return BudgetReport(
        initialization_total=initialization, shelving_total=product + excluded
    )


# ---------------------------------------------------------------------------
# JSON interchange


def read_budget_json(path) -> dict[str, list[BudgetEntry]]:
    """Load budget configurations, one entry list per named budget.

    The file holds either an object mapping budget names (e.g. prepared
    states) to entry lists, or a bare entry list, which is keyed "budget".
    """
    try:
        payload = read_json(path)
        if isinstance(payload, list):
            payload = {"budget": payload}
        if not isinstance(payload, dict):
            raise ValueError("budget JSON must be an object or a list of entries")
        budgets: dict[str, list[BudgetEntry]] = {}
        for name, raw_entries in payload.items():
            if not isinstance(raw_entries, list):
                raise ValueError(f"budget {name!r} must map to a list of entries")
            budgets[name] = [BudgetEntry(**raw) for raw in raw_entries]
    except (TypeError, ValueError) as exc:
        # BudgetEntry(**raw) reports a missing or unknown key, or an entry
        # that is not an object, as a TypeError
        raise ValueError(f"{path}: {exc}") from None
    return budgets


def write_budget_json(
    budgets: Mapping[str, list[BudgetEntry]], path, metadata: dict | None = None
) -> None:
    payload = {
        name: [{**asdict(entry), "pulse": entry.pulse.value} for entry in entries]
        for name, entries in budgets.items()
    }
    write_json(path, payload, metadata)


def write_report_json(
    reports: Mapping[str, BudgetReport], path, metadata: dict | None = None
) -> None:
    write_json(path, {name: asdict(report) for name, report in reports.items()}, metadata)


def read_report_json(path) -> dict[str, BudgetReport]:
    try:
        return {name: BudgetReport(**raw) for name, raw in json_object(read_json(path)).items()}
    except (TypeError, ValueError) as exc:
        # BudgetReport(**raw) reports a missing or unknown key, or a report
        # that is not an object, as a TypeError
        raise ValueError(f"{path}: {exc}") from None
