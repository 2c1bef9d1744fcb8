"""BASELINE: exact density-based plan prediction (Algorithm 1).

Stores the entire sample pool.  For a test point, counts the sample
points of each plan within radius ``d`` and applies the confidence
sanity check: predict the majority plan iff ``sin(theta(ratio))``
exceeds the confidence threshold ``gamma``.  Exact but expensive —
``O(|X|)`` per prediction and ``O(|X|)`` space — which is exactly why
Section IV develops the approximations.
"""

from __future__ import annotations

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.point import SamplePool
from repro.core.predictor import PlanPredictor, Prediction, vote
from repro.exceptions import PredictionError

#: Bytes per stored sample: r float32 coordinates + plan id + cost.
def _bytes_per_point(dimensions: int) -> int:
    return 4 * dimensions + 8


class BaselinePredictor(PlanPredictor):
    """Algorithm 1 over a fixed sample pool."""

    def __init__(
        self,
        pool: SamplePool,
        radius: float = 0.05,
        confidence_threshold: float = 0.7,
        confidence_model: "ConfidenceModel | None" = None,
    ) -> None:
        if len(pool) == 0:
            raise PredictionError("BASELINE needs a non-empty sample pool")
        if radius <= 0.0:
            raise PredictionError("radius must be > 0")
        if not 0.0 <= confidence_threshold <= 1.0:
            raise PredictionError("confidence threshold must be in [0, 1]")
        self.dimensions = pool.dimensions
        self.radius = radius
        self.confidence_threshold = confidence_threshold
        self.model = confidence_model or ConfidenceModel()
        self._coords = pool.coords
        self._plan_ids = pool.plan_ids
        self._costs = pool.costs
        self._plan_count = int(self._plan_ids.max()) + 1

    def neighborhood_counts(self, x: np.ndarray) -> np.ndarray:
        """Per-plan sample counts within the query ball (lines 1-5)."""
        x = self._check_point(x)
        distances = np.linalg.norm(self._coords - x, axis=1)
        inside = distances <= self.radius
        return np.bincount(
            self._plan_ids[inside], minlength=self._plan_count
        ).astype(float)

    def predict(self, x: np.ndarray) -> "Prediction | None":
        counts = self.neighborhood_counts(x)
        plan_id, confidence = self.model.decide(
            counts, self.confidence_threshold
        )
        if plan_id is None:
            return None
        estimated_cost = self._neighborhood_cost(x, plan_id)
        return Prediction(plan_id, confidence, estimated_cost)

    def _neighborhood_cost(self, x: np.ndarray, plan_id: int) -> "float | None":
        """Average recorded cost of the plan's samples inside the ball."""
        distances = np.linalg.norm(self._coords - x, axis=1)
        mask = (distances <= self.radius) & (self._plan_ids == plan_id)
        if not mask.any():
            return None
        return float(self._costs[mask].mean())

    def predict_batch(
        self, points: np.ndarray, chunk_size: int = 256
    ) -> "list[Prediction | None]":
        """Vectorized Algorithm 1 over a point batch.

        Chunked distance matrices keep memory bounded; per-plan counts
        and cost sums come from matrix products against a plan one-hot
        matrix, and each chunk is decided by
        :func:`~repro.core.predictor.vote` as one estimate per point.
        Plans and confidences are identical to per-point :meth:`predict`;
        a cost estimate agrees with its mean up to summation order.
        Shares the batch contract of :meth:`PlanPredictor.predict_batch`:
        ``(0, r)`` returns ``[]``, a ``(0,)`` vector is a shape error,
        non-finite rows raise.
        """
        points = self._check_batch(points)
        onehot = np.zeros((self._coords.shape[0], self._plan_count))
        onehot[np.arange(self._coords.shape[0]), self._plan_ids] = 1.0
        cost_onehot = onehot * self._costs[:, None]

        predictions: "list[Prediction | None]" = []
        for start in range(0, points.shape[0], chunk_size):
            block = points[start : start + chunk_size]
            distances = np.linalg.norm(
                block[:, None, :] - self._coords[None, :, :], axis=2
            )
            inside = (distances <= self.radius).astype(float)
            # One estimate (t = 1) per plan and point.
            counts = (inside @ onehot).T[None]
            averages = (inside @ cost_onehot).T[None] / np.maximum(
                counts, 1e-300
            )
            predictions += vote(
                counts, averages, self.model, self.confidence_threshold
            )
        return predictions

    def space_bytes(self) -> int:
        return self._coords.shape[0] * _bytes_per_point(self.dimensions)
