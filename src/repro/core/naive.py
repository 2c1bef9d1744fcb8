"""NAIVE: single fixed grid over the plan space (Section IV-B).

The plan space is partitioned once into a grid; each (plan, bucket)
pair stores a point count and an average cost, so prediction is O(1).
Density around a test point is approximated from the bucket containing
it — extended to the neighboring buckets when the query ball spills
past the bucket walls — which is exactly the misalignment weakness the
LSH ensemble fixes.
"""

from __future__ import annotations

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.point import SamplePool
from repro.core.predictor import PlanPredictor, Prediction
from repro.exceptions import PredictionError
from repro.lsh.grid import Grid


class NaivePredictor(PlanPredictor):
    """One grid, per-plan per-bucket counts and average costs."""

    def __init__(
        self,
        pool: SamplePool,
        plan_count: "int | None" = None,
        resolution: int = 8,
        radius: float = 0.05,
        confidence_threshold: float = 0.7,
        include_neighbors: bool = True,
        confidence_model: "ConfidenceModel | None" = None,
    ) -> None:
        if radius <= 0.0:
            raise PredictionError("radius must be > 0")
        self.dimensions = pool.dimensions
        self.radius = radius
        self.confidence_threshold = confidence_threshold
        self.include_neighbors = include_neighbors
        self.model = confidence_model or ConfidenceModel()
        self.grid = Grid(
            np.zeros(self.dimensions), np.ones(self.dimensions), resolution
        )
        if plan_count is None:
            if len(pool) == 0:
                raise PredictionError(
                    "NAIVE needs either samples or an explicit plan count"
                )
            plan_count = int(pool.plan_ids.max()) + 1
        self.plan_count = plan_count
        self._counts = np.zeros((plan_count, self.grid.total_cells))
        self._cost_sums = np.zeros_like(self._counts)
        if len(pool):
            self._insert_pool(pool)

    def _insert_pool(self, pool: SamplePool) -> None:
        cells = self.grid.cell_ids(pool.coords)
        for cell, plan, cost in zip(cells, pool.plan_ids, pool.costs, strict=True):
            self._counts[plan, cell] += 1.0
            self._cost_sums[plan, cell] += cost

    def insert(self, x: np.ndarray, plan_id: int, cost: float = 0.0) -> None:
        """Add one labeled point (NAIVE is trivially online-capable)."""
        x = self._check_point(x)
        cell = int(self.grid.cell_ids(x[None, :])[0])
        self._counts[plan_id, cell] += 1.0
        self._cost_sums[plan_id, cell] += cost

    def _query_cells(self, x: np.ndarray) -> list[int]:
        if self.include_neighbors:
            return list(self.grid.neighbor_ids(x, self.radius))
        return [int(self.grid.cell_ids(x[None, :])[0])]

    def predict(self, x: np.ndarray) -> "Prediction | None":
        x = self._check_point(x)
        cells = self._query_cells(x)
        counts = self._counts[:, cells].sum(axis=1)
        plan_id, confidence = self.model.decide(
            counts, self.confidence_threshold
        )
        if plan_id is None:
            return None
        cost_sum = float(self._cost_sums[plan_id, cells].sum())
        count = float(counts[plan_id])
        estimated_cost = cost_sum / count if count > 0 else None
        return Prediction(plan_id, confidence, estimated_cost)

    def space_bytes(self) -> int:
        """``n_plans * buckets * 8`` bytes (count + average cost)."""
        return self.plan_count * self.grid.total_cells * 8
