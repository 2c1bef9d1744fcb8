"""APPROXIMATE-LSH: median density over randomized grids (Section IV-B).

``t`` randomized locality-preserving transformations produce ``t``
independently oriented grids.  Each grid yields one estimate of the
per-plan density around the test point (the count in the bucket
containing the transformed point); the median of the ``t`` estimates
feeds the confidence sanity check.  A bucket misaligned with the plan
clusters in one transform is overruled by the others, so precision
approaches BASELINE at a fraction of the space.

:class:`EnsemblePredictor` is what this predictor and its histogram
variant (Section IV-C: histograms in place of grid cells) share: the
transform ensemble and its grids, the axis weights, the confidence
model, the plan count and the aggregation over the transforms.  Both
decide a block with the one :func:`~repro.core.predictor.vote`.

The per-grid synopses live in one contiguous ``(t, plans, cells)``
array pair (counts and cost sums), and every lookup goes through the
stacked transform view, so ``predict_batch`` answers a whole batch of
points in a handful of numpy passes; scalar ``predict`` is a batch of
one over the same core.
"""

from __future__ import annotations

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.point import SamplePool
from repro.core.predictor import (
    PlanPredictor,
    Prediction,
    median_over_transforms,
    vote,
)
from repro.core.relevance import apply_axis_weights
from repro.exceptions import ConfigurationError, PredictionError
from repro.lsh.grid import Grid
from repro.lsh.stacked import StackedEnsemble
from repro.lsh.transforms import TransformEnsemble
from repro.lsh.zorder import ZOrderCurve


class EnsemblePredictor(PlanPredictor):
    """``t`` randomized transforms, one grid each, and the median (or
    mean) of the ``t`` per-plan density estimates.

    A subclass estimates the densities and builds the stacked view
    (:meth:`_rebuild_stacked`) once its :attr:`curve` is set.
    """

    #: The algorithm's name, for error messages.
    label = "APPROXIMATE-LSH"
    #: The z-order curve over the grids, if the synopses are z-ordered.
    curve: "ZOrderCurve | None" = None

    def __init__(
        self,
        pool: SamplePool,
        plan_count: "int | None",
        transforms: int,
        resolution: int,
        confidence_threshold: float,
        output_dims: "int | None",
        aggregation: str,
        axis_weights: "np.ndarray | None",
        seed: "int | np.random.Generator | None",
        confidence_model: "ConfidenceModel | None",
    ) -> None:
        if aggregation not in ("median", "mean"):
            raise ConfigurationError(f"unknown aggregation {aggregation!r}")
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
        if plan_count is None:
            if len(pool) == 0:
                raise PredictionError(
                    f"{self.label} needs samples or an explicit plan count"
                )
            plan_count = int(pool.plan_ids.max()) + 1
        self.plan_count = plan_count

    def _rebuild_stacked(self) -> None:
        """(Re)build the struct-of-arrays transform/grid view.

        Derived state: must be called again after ``ensemble`` or
        ``grids`` are replaced wholesale (persistence restore does).
        """
        self._stacked = StackedEnsemble(
            self.ensemble, self.grids, curve=self.curve
        )

    def _aggregate(self, estimates: np.ndarray) -> np.ndarray:
        """Median (or mean, under the ablation) over the transform axis."""
        if self.aggregation == "mean":
            return estimates.mean(axis=0)
        return median_over_transforms(estimates)

    def predict(self, x: np.ndarray) -> "Prediction | None":
        """A batch of one: ``predict_batch(x[None, :])[0]``, whose
        check of that one-row batch is the only validation."""
        return self.predict_batch(
            np.asarray(x, dtype=float).reshape(1, -1)
        )[0]


class LshPredictor(EnsemblePredictor):
    """Median-of-``t`` grid densities with the confidence sanity check.

    :meth:`predict_batch` gathers the per-grid estimates and decides
    them with :func:`~repro.core.predictor.vote`; scalar :meth:`predict`
    is a batch of one.  It is an offline predictor: the pool given to
    the constructor is its whole synopsis.  Sessions serve through
    :class:`~repro.core.histogram_predictor.HistogramPredictor`, so
    this predictor takes no decision trace, insert or event journal.
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
        super().__init__(
            pool, plan_count, transforms, resolution, confidence_threshold,
            output_dims, aggregation, axis_weights, seed, confidence_model
        )
        self._rebuild_stacked()
        # Struct-of-arrays synopses: one contiguous (t, plans, cells)
        # block each for counts and cost sums.  Indexing `_counts[i]`
        # still yields the per-grid (plans, cells) view older callers
        # (and tests) poke at.
        self._counts = np.zeros(
            (len(self.ensemble), self.plan_count, self.grids[0].total_cells)
        )
        self._cost_sums = np.zeros_like(self._counts)
        if len(pool):
            cells = self._cell_ids_batch(pool.coords)
            plan_ids = np.asarray(pool.plan_ids, dtype=np.int64)
            for index in range(len(self.ensemble)):
                np.add.at(self._counts[index], (plan_ids, cells[index]), 1.0)
                np.add.at(
                    self._cost_sums[index],
                    (plan_ids, cells[index]),
                    pool.costs,
                )

    def _cell_ids_batch(self, points: np.ndarray) -> np.ndarray:
        """Grid cell ids ``(t, m)`` of each point under every transform
        — plan-independent, computed once per batch."""
        return self._stacked.cell_ids(
            apply_axis_weights(points, self.axis_weights)
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _cell_estimates(self, cells: np.ndarray) -> np.ndarray:
        """Per-plan bucket counts ``(t, plans, m)`` for cell ids
        ``(t, m)``."""
        return self._gather(self._counts, cells)

    def _gather(self, synopsis: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Each grid's ``(plans, m)`` columns of a ``(t, plans, cells)``
        synopsis at cell ids ``(t, m)``."""
        t, m = cells.shape
        estimates = np.empty((t, self.plan_count, m))
        for index in range(t):
            estimates[index] = synopsis[index][:, cells[index]]
        return estimates

    def predict_batch(self, points: np.ndarray) -> "list[Prediction | None]":
        """Vectorized prediction for a whole point batch — the primitive
        scalar :meth:`predict` wraps.

        The batch is validated up front (shape errors and non-finite
        rows raise, exactly like the scalar guard) and an empty
        ``(0, r)`` batch returns ``[]``.  One stacked pass computes
        every point's grid cell under every transform; the per-plan
        counts and average costs of those cells go to
        :func:`~repro.core.predictor.vote`.
        """
        points = self._check_batch(points)
        if points.shape[0] == 0:
            return []
        cells = self._cell_ids_batch(points)
        counts = self._cell_estimates(cells)
        averages = self._gather(self._cost_sums, cells) / np.maximum(
            counts, 1e-300
        )
        return vote(
            counts,
            averages,
            self.model,
            self.confidence_threshold,
            self._aggregate,
        )

    def space_bytes(self) -> int:
        """``t * n_plans * buckets * 8`` bytes (count + average cost)."""
        return sum(
            self.plan_count * grid.total_cells * 8 for grid in self.grids
        )
