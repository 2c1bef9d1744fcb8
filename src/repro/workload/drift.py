"""Mid-workload plan-space manipulation (Section V-D) and the drift
primitives the adversarial scenario fleet is built from.

The drift-detection experiment artificially manipulates a template's
plan space halfway through a workload so that both the plan choice and
the plan cost predictability assumptions are violated, then checks that
the online precision estimators raise an alarm.  The
:class:`ManipulatedPlanSpace` wrapper presents the same oracle
interface as the underlying :class:`~repro.optimizer.plan_space.PlanSpace`
but scrambles labels and costs on a fine random grid: neighboring
points suddenly disagree on plans (breaking Assumption 1) and the costs
of identical plans jump by random factors (breaking Assumption 2).

Beyond the original on/off switch, the wrapper is the reusable
primitive behind :mod:`repro.workload.scenarios`:

* ``set_intensity(fraction)`` scrambles only the ``fraction`` of grid
  cells with the lowest (seeded) activation rank — ramping the
  intensity models *slow* plan-space drift, while ``activate()``
  (intensity 1.0) is the original *step* drift.  The scrambled cell set
  grows monotonically with the intensity, so a ramp never "un-drifts" a
  region it already corrupted.
* ``scramble_labels=False`` leaves plan choice intact and jitters only
  the costs — a heavy-tail cost workload that violates Assumption 2
  alone, the shape the negative-feedback estimator (not the drift
  detector) must catch.

``activate()`` is idempotent: calling it again (or re-setting the same
intensity) never re-rolls the scramble, which is drawn once in the
constructor from the seed and therefore bit-identical across instances
constructed with equal parameters.

A session labels its ground truth after the fact, in batch, so it
subscribes through ``before_change``: every change of the intensity
first lets it label the instances it served under the old truth.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lsh.grid import Grid
from repro.optimizer.plan_space import PlanSpace
from repro.rng import as_generator

#: Upper bound on the scramble grid size (memory guard).
_MAX_CELLS = 4_000_000


class ManipulatedPlanSpace:
    """Plan-space oracle whose truth can be scrambled mid-workload."""

    def __init__(
        self,
        base: PlanSpace,
        resolution: int = 16,
        cost_jitter: float = 1.5,
        seed: "int | np.random.Generator | None" = 0,
        scramble_labels: bool = True,
    ) -> None:
        cells_needed = resolution**base.dimensions
        if cells_needed > _MAX_CELLS:
            raise ConfigurationError(
                f"scramble grid of {resolution}^{base.dimensions} = "
                f"{cells_needed:,d} cells exceeds the {_MAX_CELLS:,d}-cell "
                "memory guard; reduce the resolution"
            )
        if cost_jitter <= 0.0:
            raise ConfigurationError("cost_jitter must be > 0")
        rng = as_generator(seed)
        self.base = base
        self.scramble_labels = scramble_labels
        self._intensity = 0.0
        self._grid = Grid(
            np.zeros(base.dimensions), np.ones(base.dimensions), resolution
        )
        cells = self._grid.total_cells
        self._label_offsets = rng.integers(1, base.plan_count, size=cells)
        jitter_log = np.log(1.0 + cost_jitter)
        self._cost_factors = np.exp(
            rng.uniform(-jitter_log, jitter_log, size=cells)
        )
        # Activation ranks are drawn *after* the offsets/factors so a
        # fully-activated wrapper scrambles exactly as it did before the
        # partial-intensity primitive existed (same seed, same stream
        # order, same scramble).
        self._activation = rng.random(cells)
        self._before_change: "list[Callable[[], None]]" = []

    # ------------------------------------------------------------------
    # Manipulation switches (the scenario primitives)
    # ------------------------------------------------------------------
    def before_change(self, callback: "Callable[[], None]") -> None:
        """Call ``callback`` before every change of the intensity."""
        self._before_change.append(callback)

    def _change(self, intensity: float) -> None:
        if intensity != self._intensity:
            for callback in self._before_change:
                callback()
        self._intensity = intensity

    def activate(self) -> None:
        """Scramble the whole plan space from now on (step drift).

        Idempotent: the scramble was fixed at construction time, so
        repeated activation never re-rolls it.
        """
        self._change(1.0)

    def deactivate(self) -> None:
        self._change(0.0)

    def set_intensity(self, fraction: float) -> None:
        """Scramble the ``fraction`` of cells with lowest activation rank.

        Ramping this from 0 toward 1 models slow drift; the corrupted
        cell set grows monotonically with ``fraction``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                "manipulation intensity must lie in [0, 1]"
            )
        self._change(float(fraction))

    @property
    def intensity(self) -> float:
        return self._intensity

    @property
    def active(self) -> bool:
        """Whether any part of the plan space is currently scrambled."""
        return self._intensity > 0.0

    # ------------------------------------------------------------------
    # Oracle interface (mirrors PlanSpace)
    # ------------------------------------------------------------------
    @property
    def template(self):
        return self.base.template

    @property
    def dimensions(self) -> int:
        return self.base.dimensions

    @property
    def plan_count(self) -> int:
        return self.base.plan_count

    def plan(self, plan_id: int):
        return self.base.plan(plan_id)

    def _scrambled_cells(
        self, points: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(cell_ids, scrambled_mask)`` for a point batch."""
        cells = self._grid.cell_ids(points)
        # ``random()`` draws lie in [0, 1), so intensity 1.0 scrambles
        # every cell — exactly the original step manipulation.
        return cells, self._activation[cells] < self._intensity

    def label(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ids, costs = self.base.label(points)
        if self._intensity <= 0.0:
            return ids, costs
        cells, mask = self._scrambled_cells(points)
        if self.scramble_labels:
            ids = np.where(
                mask,
                (ids + self._label_offsets[cells]) % self.plan_count,
                ids,
            )
        costs = np.where(mask, costs * self._cost_factors[cells], costs)
        return ids, costs

    def plan_at(self, points: np.ndarray) -> np.ndarray:
        ids, __ = self.label(points)
        return ids

    def cost_at(
        self, points: np.ndarray, plan_id: "int | None" = None
    ) -> np.ndarray:
        if plan_id is None:
            __, costs = self.label(points)
            return costs
        costs = self.base.cost_at(points, plan_id)
        if self._intensity <= 0.0:
            return costs
        cells, mask = self._scrambled_cells(points)
        return np.where(mask, costs * self._cost_factors[cells], costs)
