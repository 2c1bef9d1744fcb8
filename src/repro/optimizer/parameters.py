"""Normalization between plan-space coordinates and selectivities.

The paper decomposes the optimizer's plan choice as
``plan(f(q))`` where ``f`` maps template parameters to *normalized*
optimizer parameters on ``[0, 1]`` (Section II-A).  This module
implements that normalization: plan-space coordinate ``x_i`` maps to an
actual predicate selectivity inside the predicate's selectivity range,
on either a log or a linear scale.

Default ranges are derived from table cardinalities so that the
*filtered* cardinality of every table sweeps a comparable interval
(roughly tens of rows up to a few hundred thousand).  With TPC-H's
exponentially spread table sizes, sweeping raw selectivity over
``[0, 1]`` on every table would push all the interesting plan-choice
crossovers into thin slivers along the axes; normalizing the swept
range recovers the rich plan diagrams (Figure 2) the experiments rely
on, exactly as the workloads of plan-diagram studies do.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optimizer.catalog import Catalog
from repro.optimizer.expressions import QueryTemplate

#: Smallest filtered cardinality the default range targets.
_MIN_TARGET_ROWS = 10.0
#: Largest filtered cardinality the default range targets.
_MAX_TARGET_ROWS = 300_000.0
#: Floor for the selectivity range lower bound.
_MIN_SELECTIVITY = 1e-5


def default_selectivity_range(row_count: int) -> tuple[float, float]:
    """Selectivity range sweeping comparable filtered cardinalities."""
    hi = min(1.0, _MAX_TARGET_ROWS / row_count)
    lo = max(_MIN_SELECTIVITY, min(_MIN_TARGET_ROWS / row_count, hi / 10.0))
    return lo, hi


class ParameterMapping:
    """Bidirectional map between ``[0, 1]^r`` and selectivity vectors."""

    def __init__(
        self,
        ranges: list[tuple[float, float]],
        scales: list[str],
    ) -> None:
        if len(ranges) != len(scales):
            raise ConfigurationError("ranges and scales must align")
        for (lo, hi), scale in zip(ranges, scales, strict=True):
            if not 0.0 < lo <= hi <= 1.0:
                raise ConfigurationError(
                    f"selectivity range ({lo}, {hi}) must satisfy 0 < lo <= hi <= 1"
                )
            if scale not in ("log", "linear"):
                raise ConfigurationError(f"unknown scale {scale!r}")
        self.ranges = list(ranges)
        self.scales = list(scales)
        self._lo = np.array([r[0] for r in ranges])
        self._hi = np.array([r[1] for r in ranges])
        self._log = np.array([s == "log" for s in scales])
        # Every conversion reads these; the bounds never change.
        self._log_lo = np.log(self._lo)
        self._log_span = np.log(self._hi) - self._log_lo
        self._log_denominator = self._log_span + 1e-300
        self._span = self._hi - self._lo
        self._denominator = self._span + 1e-300
        # One point's conversion, in Python floats: (log?, offset, span).
        self._point_terms = list(
            zip(
                self._log.tolist(),
                np.where(self._log, self._log_lo, self._lo).tolist(),
                np.where(self._log, self._log_span, self._span).tolist(),
                strict=True,
            )
        )
        # One point's normalization, in Python floats:
        # (lo, hi, log?, offset, denominator).
        self._normal_terms = list(
            zip(
                self._lo.tolist(),
                self._hi.tolist(),
                self._log.tolist(),
                np.where(self._log, self._log_lo, self._lo).tolist(),
                np.where(
                    self._log, self._log_denominator, self._denominator
                ).tolist(),
                strict=True,
            )
        )

    @classmethod
    def for_template(
        cls, template: QueryTemplate, catalog: Catalog
    ) -> "ParameterMapping":
        """Default mapping: per-predicate log-scaled cardinality ranges."""
        ranges = []
        scales = []
        for predicate in sorted(template.predicates, key=lambda p: p.param_index):
            table = catalog.table(predicate.column.table)
            if predicate.sel_range is not None:
                ranges.append(predicate.sel_range)
            else:
                ranges.append(default_selectivity_range(table.row_count))
            scales.append(predicate.scale)
        return cls(ranges, scales)

    @property
    def dimensions(self) -> int:
        return len(self.ranges)

    def to_selectivity(self, x: np.ndarray) -> np.ndarray:
        """Normalized points ``(n, r)`` to actual selectivities ``(n, r)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.dimensions:
            raise ConfigurationError(
                f"expected {self.dimensions}-dimensional points"
            )
        log_sel = np.exp(self._log_lo + x * self._log_span)
        linear_sel = self._lo + x * self._span
        return np.where(self._log, log_sel, linear_sel)

    def point_to_selectivity(self, x: list[float]) -> list[float]:
        """:meth:`to_selectivity` of one point given as ``r`` Python
        floats, computed in floats: bit for bit the batch's row, since
        ``np.exp`` of a float runs the array's ufunc loop."""
        return [
            float(np.exp(offset + value * span)) if log else offset + value * span
            for value, (log, offset, span) in zip(x, self._point_terms, strict=True)
        ]

    def to_normalized(self, selectivity: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_selectivity`.  A selectivity outside its
        range is clipped to it first, so every coordinate lands in
        ``[0, 1]``: the offset from ``lo`` is at least 0 and at most the
        span, which the denominator (span plus ``1e-300``) never
        undercuts."""
        selectivity = np.asarray(selectivity, dtype=float)
        if selectivity.ndim == 1:
            selectivity = selectivity[None, :]
        clipped = np.minimum(np.maximum(selectivity, self._lo), self._hi)
        log_x = (np.log(clipped) - self._log_lo) / self._log_denominator
        linear_x = (clipped - self._lo) / self._denominator
        return np.where(self._log, log_x, linear_x)

    def point_to_normalized(self, selectivity: list[float]) -> list[float]:
        """:meth:`to_normalized` of one point given as ``r`` Python
        floats, computed in floats: bit for bit the batch's row, since
        ``np.log`` of a float runs the array's ufunc loop.  The clip is
        two comparisons, which keep a NaN as ``np.minimum`` and
        ``np.maximum`` do (a NaN compares false)."""
        point = []
        for value, (lo, hi, log, offset, denominator) in zip(
            selectivity, self._normal_terms, strict=True
        ):
            clipped = lo if value < lo else hi if value > hi else value
            scaled = float(np.log(clipped)) if log else clipped
            point.append((scaled - offset) / denominator)
        return point
