"""APPROXIMATE-LSH: median density over randomized grids (Section IV-B).

``t`` randomized locality-preserving transformations produce ``t``
independently oriented grids.  Each grid yields one estimate of the
per-plan density around the test point (the count in the bucket
containing the transformed point); the median of the ``t`` estimates
feeds the confidence sanity check.  A bucket misaligned with the plan
clusters in one transform is overruled by the others, so precision
approaches BASELINE at a fraction of the space.

The per-grid synopses live in one contiguous ``(t, plans, cells)``
array pair (counts and cost sums), and every lookup goes through the
stacked transform view, so ``predict_batch`` answers a whole batch of
points in a handful of numpy passes; scalar ``predict`` is a batch of
one over the same core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.point import SamplePool
from repro.core.predictor import (
    PlanPredictor,
    Prediction,
    median_over_transforms,
    median_supported,
)
from repro.core.relevance import apply_axis_weights
from repro.exceptions import PredictionError
from repro.lsh.grid import Grid
from repro.lsh.stacked import StackedEnsemble
from repro.lsh.transforms import TransformEnsemble

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import _TemplateEmitter


class LshPredictor(PlanPredictor):
    """Median-of-``t`` grid densities with the confidence sanity check.

    :meth:`predict_batch` is the one place it decides; scalar
    :meth:`predict` is a batch of one.  Sessions serve through
    :class:`~repro.core.histogram_predictor.HistogramPredictor`, so
    this predictor takes no decision trace.
    """

    def __init__(
        self,
        pool: SamplePool,
        plan_count: "int | None" = None,
        transforms: int = 5,
        resolution: int = 8,
        confidence_threshold: float = 0.7,
        output_dims: "int | None" = None,
        aggregation: str = "median",
        axis_weights: "np.ndarray | None" = None,
        seed: "int | np.random.Generator | None" = 0,
        confidence_model: "ConfidenceModel | None" = None,
    ) -> None:
        if aggregation not in ("median", "mean"):
            raise PredictionError(f"unknown aggregation {aggregation!r}")
        self.dimensions = pool.dimensions
        self.confidence_threshold = confidence_threshold
        self.aggregation = aggregation
        self.axis_weights = (
            None if axis_weights is None
            else np.asarray(axis_weights, dtype=float)
        )
        self.model = confidence_model or ConfidenceModel()
        # Default s = r (the paper's choice for low dimensions); pass
        # output_dims < r explicitly to study dimensionality reduction —
        # it only pays off when some plan-space axes are redundant.
        self.ensemble = TransformEnsemble(
            transforms,
            self.dimensions,
            output_dims=output_dims,
            resolution=resolution,
            seed=seed,
        )
        self.grids = [
            Grid(*transform.output_bounds, resolution)
            for transform in self.ensemble
        ]
        self._rebuild_stacked()
        if plan_count is None:
            if len(pool) == 0:
                raise PredictionError(
                    "APPROXIMATE-LSH needs samples or an explicit plan count"
                )
            plan_count = int(pool.plan_ids.max()) + 1
        self.plan_count = plan_count
        # Struct-of-arrays synopses: one contiguous (t, plans, cells)
        # block each for counts and cost sums.  Indexing `_counts[i]`
        # still yields the per-grid (plans, cells) view older callers
        # (and tests) poke at.
        self._counts = np.zeros(
            (len(self.ensemble), plan_count, self.grids[0].total_cells)
        )
        self._cost_sums = np.zeros_like(self._counts)
        if len(pool):
            self._insert_pool(pool)

    def _rebuild_stacked(self) -> None:
        """(Re)build the struct-of-arrays transform/grid view; call
        again after replacing ``ensemble`` or ``grids`` wholesale."""
        self._stacked = StackedEnsemble(self.ensemble, self.grids)

    def _built_fields(self) -> dict:
        """Fields of the ``histogram_built`` event."""
        return {
            "histogram_kind": "grid",
            "transforms": len(self.ensemble),
            "plans": self.plan_count,
            "points": int(self._counts.sum() // max(len(self.ensemble), 1)),
        }

    def bind_events(self, emitter: "_TemplateEmitter") -> None:
        """Attach a lifecycle event emitter (``repro.obs.events``).

        Late binding, mirroring ``HistogramPredictor.bind_events``: the
        constructor's pool bootstrap precedes any emitter, so the
        journal records the synopsis going live (not a mutation) and
        every mutation after, not the seed replay.
        """
        self._events = emitter
        emitter("histogram_built", **self._built_fields())

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _cell_ids_batch(self, points: np.ndarray) -> np.ndarray:
        """Grid cell ids ``(t, m)`` of each point under every transform
        — plan-independent, computed once per batch."""
        return self._stacked.cell_ids(
            apply_axis_weights(points, self.axis_weights)
        )

    def _insert_pool(self, pool: SamplePool) -> None:
        cells = self._cell_ids_batch(pool.coords)
        plan_ids = np.asarray(pool.plan_ids, dtype=np.int64)
        for index in range(len(self.ensemble)):
            np.add.at(self._counts[index], (plan_ids, cells[index]), 1.0)
            np.add.at(
                self._cost_sums[index], (plan_ids, cells[index]), pool.costs
            )
        self._commit("histogram_built", **self._built_fields())

    def insert(
        self,
        x: np.ndarray,
        plan_id: int,
        cost: float = 0.0,
        provenance: str = "direct",
    ) -> None:
        """Add one labeled point to every transformed grid.

        ``provenance`` names the decision-flow origin of the point and
        is journaled with the ``point_inserted`` lifecycle event; it
        never affects the insert.
        """
        x = self._check_point(x)
        cells = self._cell_ids_batch(x[None, :])[:, 0]
        for index, cell in enumerate(cells):
            self._counts[index, plan_id, cell] += 1.0
            self._cost_sums[index, plan_id, cell] += cost
        self._commit(
            "point_inserted",
            plan=int(plan_id),
            cost=float(cost),
            weight=1.0,
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _cell_estimates(self, cells: np.ndarray) -> np.ndarray:
        """Per-plan bucket counts ``(t, plans, m)`` for cell ids
        ``(t, m)``."""
        t, m = cells.shape
        estimates = np.empty((t, self.plan_count, m))
        for index in range(t):
            estimates[index] = self._counts[index][:, cells[index]]
        return estimates

    def _aggregate(self, estimates: np.ndarray) -> np.ndarray:
        """Median (or mean, under the ablation) over the transform axis."""
        if self.aggregation == "mean":
            return estimates.mean(axis=0)
        return median_over_transforms(estimates)

    def _winner_costs(
        self, cells: np.ndarray, winners: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cost estimate for each point's winning plan:
        median over the transforms whose winning-plan bucket holds mass
        of that bucket's average cost.  NULL rows (``winners < 0``)
        gather against plan 0 to stay in bounds; callers never read
        them."""
        t, m = cells.shape
        columns = np.arange(m)
        safe = np.where(winners < 0, 0, winners)
        counts = np.empty((t, m))
        cost_sums = np.empty((t, m))
        for index in range(t):
            counts[index] = self._counts[index][safe, cells[index]]
            cost_sums[index] = self._cost_sums[index][safe, cells[index]]
        supported = counts > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            averages = np.where(
                supported, cost_sums / np.maximum(counts, 1e-300), np.nan
            )
        return median_supported(averages, supported)

    def median_counts(self, x: np.ndarray) -> np.ndarray:
        """Per-plan bucket count aggregated across the ``t`` transforms
        (median by default; mean under the ablation setting), for one
        point through the struct-of-arrays core."""
        x = self._check_point(x)
        estimates = self._cell_estimates(self._cell_ids_batch(x[None, :]))
        return self._aggregate(estimates)[:, 0]

    def predict(self, x: np.ndarray) -> "Prediction | None":
        """A batch of one: ``predict_batch(x[None, :])[0]``, whose
        check of that one-row batch is the only validation."""
        return self.predict_batch(
            np.asarray(x, dtype=float).reshape(1, -1)
        )[0]

    def predict_batch(self, points: np.ndarray) -> "list[Prediction | None]":
        """Vectorized prediction for a whole point batch — the primitive
        scalar :meth:`predict` wraps.

        The batch is validated up front (shape errors and non-finite
        rows raise, exactly like the scalar guard) and an empty
        ``(0, r)`` batch returns ``[]``.  One stacked pass computes
        every point's grid cell under every transform; the per-plan
        count gather, aggregation, confidence decision and winner cost
        estimates are fully vectorized.
        """
        points = self._check_batch(points)
        m = points.shape[0]
        if m == 0:
            return []
        cells = self._cell_ids_batch(points)
        estimates = self._cell_estimates(cells)
        counts = self._aggregate(estimates)  # (plans, m)
        winners, confidences = self.model.decide_batch(
            counts.T, self.confidence_threshold
        )
        medians, any_support = self._winner_costs(cells, winners)
        return [
            None
            if winners[j] < 0
            else Prediction(
                int(winners[j]),
                float(confidences[j]),
                float(medians[j]) if any_support[j] else None,
            )
            for j in range(m)
        ]

    def space_bytes(self) -> int:
        """``t * n_plans * buckets * 8`` bytes (count + average cost)."""
        return sum(
            self.plan_count * grid.total_cells * 8 for grid in self.grids
        )
