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
        # The pool sorted by plan (stably), so each plan's samples are
        # one slice: ``_bounds[p]:_bounds[p + 1]``.
        order = np.argsort(pool.plan_ids, kind="stable")
        self._coords = pool.coords[order]
        self._plan_ids = pool.plan_ids[order]
        self._costs = pool.costs[order]
        self._plan_count = int(self._plan_ids.max()) + 1
        self._bounds = np.searchsorted(
            self._plan_ids, np.arange(self._plan_count + 1)
        ).tolist()

    def neighborhood_counts(self, x: np.ndarray) -> np.ndarray:
        """Per-plan sample counts within the query ball (lines 1-5)."""
        x = self._check_point(x)
        distances = np.linalg.norm(self._coords - x, axis=1)
        inside = distances <= self.radius
        return np.bincount(
            self._plan_ids[inside], minlength=self._plan_count
        ).astype(float)

    def predict(self, x: np.ndarray) -> "Prediction | None":
        """A batch of one, checked as one point (the errors of
        :meth:`PlanPredictor._check_point`)."""
        return self._vote_block(self._check_point(x)[None, :])[0]

    def predict_batch(
        self, points: np.ndarray, chunk_size: int = 256
    ) -> "list[Prediction | None]":
        """Vectorized Algorithm 1 over a point batch.

        Chunked distance matrices keep memory bounded; each chunk is
        decided by :meth:`_vote_block`.  Shares the batch contract of
        :meth:`PlanPredictor.predict_batch`: ``(0, r)`` returns ``[]``,
        a ``(0,)`` vector is a shape error, non-finite rows raise.
        """
        points = self._check_batch(points)
        predictions: "list[Prediction | None]" = []
        for start in range(0, points.shape[0], chunk_size):
            predictions += self._vote_block(points[start : start + chunk_size])
        return predictions

    def _vote_block(self, block: np.ndarray) -> "list[Prediction | None]":
        """Per-plan counts and average costs in the ball around each row
        of a checked block, decided by :func:`~repro.core.predictor.vote`
        as one estimate (``t = 1``) per point.

        A plan's count and cost sum run over its slice of the
        plan-sorted pool, the sum left to right (``np.cumsum``), so a
        row's estimate depends on no other row: one-point
        :meth:`predict` gets the bits of the point's row in any batch.
        """
        distances = np.linalg.norm(
            block[:, None, :] - self._coords[None, :, :], axis=2
        )
        inside = distances <= self.radius
        costs = np.where(inside, self._costs, 0.0)
        counts = np.zeros((1, self._plan_count, block.shape[0]))
        sums = np.zeros_like(counts)
        for plan, (lo, hi) in enumerate(zip(self._bounds, self._bounds[1:])):
            if hi > lo:
                counts[0, plan] = inside[:, lo:hi].sum(axis=1)
                sums[0, plan] = np.cumsum(costs[:, lo:hi], axis=1)[:, -1]
        averages = sums / np.maximum(counts, 1e-300)
        return vote(counts, averages, self.model, self.confidence_threshold)

    def space_bytes(self) -> int:
        return self._coords.shape[0] * _bytes_per_point(self.dimensions)
