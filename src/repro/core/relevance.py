"""Parameter relevance analysis (the paper's future-work extension).

Section VII: *"naively [adding parameters] could pollute the parameter
space with irrelevant parameters that reduce the precision of the
decision models; hence, further research into parameter modeling and
selection is needed."*

This module implements that selection step.  Given labeled plan-space
samples, :class:`ParameterRelevanceAnalyzer` estimates how strongly
each axis drives the optimizer's plan choice, using a nearest-neighbor
attribution estimator:

1. pair every sample with its ``k`` nearest neighbors;
2. per axis, compare the mean squared displacement of *disagreeing*
   pairs (different plans) with that of agreeing pairs — disagreeing
   pairs moved systematically further along axes that drive plan
   boundaries, and no further than usual along irrelevant axes.

The resulting per-axis weights plug into the LSH predictors
(``axis_weights``), which compress irrelevant axes toward the cube
centre before transforming — so grid cells aggregate over directions
that cannot flip the plan instead of wasting resolution on them.
"""

from __future__ import annotations

import numpy as np

from repro.core.point import SamplePool
from repro.exceptions import ConfigurationError


class ParameterRelevanceAnalyzer:
    """Estimates per-axis plan-choice relevance from labeled samples."""

    def __init__(
        self,
        coords: "np.ndarray | SamplePool",
        plan_ids: "np.ndarray | None" = None,
        neighbors: int = 4,
        chunk_size: int = 512,
    ) -> None:
        if isinstance(coords, SamplePool):
            plan_ids = coords.plan_ids
            coords = coords.coords
        coords = np.asarray(coords, dtype=float)
        plan_ids = np.asarray(plan_ids)
        if coords.ndim != 2 or coords.shape[0] < 2:
            raise ConfigurationError(
                "relevance analysis needs at least two labeled samples"
            )
        if plan_ids.shape[0] != coords.shape[0]:
            raise ConfigurationError("coords and plan_ids must align")
        self.coords = coords
        self.plan_ids = plan_ids
        self.neighbors = min(neighbors, coords.shape[0] - 1)
        self.chunk_size = chunk_size
        self._flip_rates: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) index arrays of all k-NN pairs (chunked)."""
        n = self.coords.shape[0]
        sources = np.repeat(np.arange(n), self.neighbors)
        targets = np.empty((n, self.neighbors), dtype=np.int64)
        for start in range(0, n, self.chunk_size):
            stop = min(start + self.chunk_size, n)
            block = self.coords[start:stop]
            distances = np.linalg.norm(
                block[:, None, :] - self.coords[None, :, :], axis=2
            )
            for row in range(stop - start):
                distances[row, start + row] = np.inf
            targets[start:stop] = np.argsort(distances, axis=1)[
                :, : self.neighbors
            ]
        return sources, targets.ravel()

    def axis_flip_rates(self) -> np.ndarray:
        """Per-axis disagreement-displacement ratio.

        ``E[dx_k^2 | plans differ] / E[dx_k^2 | plans agree]`` over all
        k-NN pairs: above 1 means movement along axis ``k``
        systematically accompanies plan flips (relevant); near or below
        1 means the axis does not drive boundaries.
        """
        if self._flip_rates is not None:
            return self._flip_rates
        sources, targets = self._neighbor_pairs()
        displacement = (self.coords[sources] - self.coords[targets]) ** 2
        disagree = self.plan_ids[sources] != self.plan_ids[targets]

        if not disagree.any() or disagree.all():
            # No boundary evidence: every axis looks equally (ir)relevant.
            self._flip_rates = np.ones(self.coords.shape[1])
            return self._flip_rates
        mean_disagree = displacement[disagree].mean(axis=0)
        mean_agree = displacement[~disagree].mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._flip_rates = np.where(
                mean_agree > 0.0,
                mean_disagree / np.maximum(mean_agree, 1e-300),
                1.0,
            )
        return self._flip_rates

    # ------------------------------------------------------------------
    # Selection outputs
    # ------------------------------------------------------------------
    def axis_weights(
        self, floor: float = 0.05, temperature: float = 0.1
    ) -> np.ndarray:
        """Per-axis weights in ``[floor, 1]``.

        A logistic squash around the natural pivot (rate 1.0 = "flips at
        the base rate"): clearly relevant axes approach weight 1,
        clearly irrelevant ones approach ``floor``.  Feed the result to
        a predictor's ``axis_weights`` to compress irrelevant directions
        before hashing.
        """
        rates = self.axis_flip_rates()
        squashed = 1.0 / (1.0 + np.exp(-(rates - 1.0) / temperature))
        return np.clip(floor + (1.0 - floor) * squashed, floor, 1.0)

    def relevant_axes(self, threshold: float = 1.0) -> list[int]:
        """Axes whose flip rate exceeds ``threshold`` (default: the
        base-rate pivot — disagreeing pairs moved further along them
        than agreeing pairs did)."""
        rates = self.axis_flip_rates()
        return [int(i) for i in np.flatnonzero(rates > threshold)]


def apply_axis_weights(
    points: np.ndarray, weights: "np.ndarray | None"
) -> np.ndarray:
    """Compress each axis toward the cube centre by its weight.

    ``x' = 0.5 + (x - 0.5) * w`` keeps points inside ``[0, 1]^r``
    (weights lie in ``[0, 1]``) and is locality-preserving per axis, so
    the plan-choice predictability assumption survives the rescaling.
    """
    if weights is None:
        return points
    weights = np.asarray(weights, dtype=float)
    points = np.asarray(points, dtype=float)
    if weights.shape[0] != points.shape[-1]:
        raise ConfigurationError("axis weights must match dimensionality")
    if (weights < 0.0).any() or (weights > 1.0).any():
        raise ConfigurationError("axis weights must lie in [0, 1]")
    return 0.5 + (points - 0.5) * weights
