"""The workload history of Definition 3.

A sequence of tuples from ``Q x Phi x P x R+``: which template ran,
at which plan-space point, which plan the optimizer chose, and what the
execution cost was.  The history is what the PPC framework harvests its
plan-space knowledge from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import WorkloadError


@dataclass(frozen=True)
class HistoryEntry:
    """One executed query instance."""

    template_name: str
    point: np.ndarray
    plan_id: int
    cost: float


class WorkloadHistory:
    """Append-only execution log across templates."""

    def __init__(self) -> None:
        self._entries: list[HistoryEntry] = []

    def record(
        self,
        template_name: str,
        point: np.ndarray,
        plan_id: int,
        cost: float,
    ) -> HistoryEntry:
        if cost < 0.0:
            raise WorkloadError("execution cost must be non-negative")
        entry = HistoryEntry(
            template_name,
            np.asarray(point, dtype=float).reshape(-1),
            int(plan_id),
            float(cost),
        )
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def templates(self) -> set[str]:
        return {entry.template_name for entry in self._entries}

    def for_template(self, template_name: str) -> list[HistoryEntry]:
        return [e for e in self._entries if e.template_name == template_name]
