"""Common predictor interface.

Every plan-prediction algorithm — the Section III comparators and the
four approximation levels of Section IV — answers
the same question: *given a plan-space point, which plan would the
optimizer choose, or NULL if unsure* (the output model of Section
II-B).  :class:`PlanPredictor` fixes that interface so experiments can
treat algorithms uniformly.  :func:`vote` is Algorithm 1's block
decision, which BASELINE, APPROXIMATE-LSH and
APPROXIMATE-LSH-HISTOGRAMS share over their own density estimates.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import PredictionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.confidence import ConfidenceModel


@dataclass(frozen=True)
class Prediction:
    """A non-NULL prediction: the plan, the confidence behind it, and —
    when the predictor tracks costs — the expected execution cost of
    the plan at the predicted point (used by negative feedback)."""

    plan_id: int
    confidence: float
    estimated_cost: "float | None" = None


def median_over_transforms(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)``, bit for bit, as one sort over the
    short leading (transform) axis — without ``np.median``'s per-call
    overhead.  An even count averages the two middle values as
    ``(a + b) / 2``, exactly as ``np.median`` does."""
    ordered = np.sort(values, axis=0)
    half = ordered.shape[0] // 2
    if ordered.shape[0] % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2.0


def median_supported(
    values: np.ndarray, supported: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise median of ``values (t, m)`` over the ``supported``
    entries.

    The vectorized form of "median per-transform average cost over the
    transforms that actually hold mass for the winning plan".  Returns
    ``(medians, any_support)``: columns with no supported transform get
    a NaN median and ``any_support`` False (the caller maps those to an
    absent cost estimate).  Bitwise equal to ``np.nanmedian`` over the
    supported entries: unsupported entries become NaN, which the sort
    puts last, and the middle pair of the first ``k`` supported values
    is averaged as ``(a + b) / 2`` (for odd ``k`` both halves name the
    same value, and ``(x + x) / 2 == x``).

    A single column (scalar ``predict``) sorts just its supported
    entries and averages the same middle pair — the same bits, without
    the masked whole-matrix pass.
    """
    if values.shape[1] == 1:
        kept = np.sort(values[supported[:, 0], 0])
        k = kept.shape[0]
        if k == 0:
            return np.array([np.nan]), np.array([False])
        return (
            np.array([(kept[(k - 1) // 2] + kept[k // 2]) / 2.0]),
            np.array([True]),
        )
    ordered = np.sort(np.where(supported, values, np.nan), axis=0)
    support = supported.sum(axis=0)
    high = support // 2
    low = np.maximum(high - 1 + support % 2, 0)
    columns = np.arange(values.shape[1])
    any_support = support > 0
    medians = np.where(
        any_support,
        (ordered[low, columns] + ordered[high, columns]) / 2.0,
        np.nan,
    )
    return medians, any_support


def vote(
    counts: np.ndarray,
    averages: np.ndarray,
    model: "ConfidenceModel",
    threshold: float,
    aggregate: "Callable[[np.ndarray], np.ndarray]" = median_over_transforms,
    noise_floor: "float | None" = None,
) -> "list[Prediction | None]":
    """Algorithm 1's block vote: a prediction (or ``None``) per column
    of the ``(t, plans, m)`` per-estimate ``counts`` and ``averages``
    (average costs, read only where the count holds mass).

    The ``t`` estimates are aggregated per plan (the median over the
    transforms by default), a column whose aggregated maximum lies
    below ``noise_floor`` is eliminated, the confidence check of
    ``model.decide_batch`` picks the winner, and the winner's cost is
    the median of its averages over the estimates holding its mass
    (:func:`median_supported`).  Every step is elementwise per column,
    so a column's decision does not depend on the block around it.
    """
    m = counts.shape[2]
    aggregated = aggregate(counts)  # (plans, m)
    winners, confidences = model.decide_batch(aggregated.T, threshold)
    if noise_floor is not None:
        winners = np.where(aggregated.max(axis=0) < noise_floor, -1, winners)
    plans = winners.tolist()
    # A vote with no winner reads no cost: skip the median.
    estimates = [None] * m
    if max(plans, default=-1) >= 0:
        columns = np.arange(m)
        safe = np.maximum(winners, 0)
        medians, any_support = median_supported(
            averages[:, safe, columns], counts[:, safe, columns] > 0.0
        )
        estimates = [
            median if plan >= 0 and supported else None
            for plan, median, supported in zip(
                plans, medians.tolist(), any_support.tolist()
            )
        ]
    return [
        None if plan < 0 else Prediction(plan, confidence, estimate)
        for plan, confidence, estimate in zip(
            plans, confidences.tolist(), estimates
        )
    ]


class PlanPredictor(ABC):
    """Interface shared by every plan-prediction algorithm."""

    #: Dimensionality ``r`` of the plan space the predictor serves.
    dimensions: int

    @abstractmethod
    def predict(self, x: np.ndarray) -> "Prediction | None":
        """Predict the optimizer's plan at ``x`` (``None`` = NULL)."""

    def predict_batch(self, points: np.ndarray) -> list["Prediction | None"]:
        """Predict for many points; subclasses may vectorize.

        The batch contract all implementations share: an empty
        ``(0, r)`` batch returns ``[]``, a 1-D input must be exactly one
        ``r``-dimensional point (so a ``(0,)`` vector is a shape error,
        not a silently promoted ``(1, 0)`` batch), and any non-finite
        coordinate raises :class:`PredictionError` up front — the same
        guard scalar :meth:`predict` applies per point.
        """
        points = self._check_batch(points)
        return [self.predict(points[i]) for i in range(points.shape[0])]

    @abstractmethod
    def space_bytes(self) -> int:
        """Memory footprint under the paper's space-accounting model
        (Table I)."""

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        """Validate one point into an ``(r,)`` float vector.  A wrong
        length raises :class:`ValueError`; a non-finite coordinate
        raises :class:`PredictionError`, checked in Python floats as
        :meth:`_check_batch` checks one row."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dimensions:
            # Callers and tests pin ValueError for shape mismatches.
            raise ValueError(  # repro: noqa[RPR104] - shape contract
                f"expected a {self.dimensions}-dimensional point, "
                f"got {x.shape[0]}"
            )
        if not all(map(math.isfinite, x.tolist())):
            raise PredictionError(
                "plan-space point contains NaN or infinity"
            )
        return x

    def _check_batch(self, points: np.ndarray) -> np.ndarray:
        """Validate a point batch into a ``(m, r)`` float matrix.

        Shape errors raise :class:`ValueError`; non-finite coordinates
        raise :class:`PredictionError`, mirroring :meth:`_check_point`
        so a batch can never sneak past the scalar guard.  One row (the
        one-point z pass's input) is checked in Python floats, which
        costs a fraction of the array check.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            if points.shape[0] != self.dimensions:
                raise ValueError(  # repro: noqa[RPR104] - shape contract
                    f"expected a {self.dimensions}-dimensional point, "
                    f"got shape {points.shape}"
                )
            points = points[None, :]
        elif points.ndim != 2:
            raise ValueError(  # repro: noqa[RPR104] - shape contract
                f"expected an (m, {self.dimensions}) batch, "
                f"got shape {points.shape}"
            )
        if points.shape[1] != self.dimensions:
            raise ValueError(  # repro: noqa[RPR104] - shape contract
                f"expected {self.dimensions}-dimensional points, "
                f"got shape {points.shape}"
            )
        if points.shape[0] == 1:
            finite = all(map(math.isfinite, points[0].tolist()))
        else:
            finite = not points.shape[0] or bool(np.isfinite(points).all())
        if not finite:
            raise PredictionError(
                "point batch contains NaN or infinity"
            )
        return points
