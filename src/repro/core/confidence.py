"""The chord-based confidence model of Section IV-A.

Around a test point, the density predictor counts labeled sample
points per plan within radius ``d``.  When the counts are mixed, the
paper models the neighborhood as a circle split by a straight plan
boundary (a chord): the majority plan ``P_max`` occupies one side, all
other plans the other side (Figure 4(b)).  The sample-count ratio
``c_max / sum(others)`` determines where that chord must lie, the chord
position determines the angle ``theta``, and the prediction confidence
is ``sin(theta)``:

* ratio <= 1 — the test point may be outside ``P_max``'s region:
  confidence 0;
* ratio -> infinity — the chord is pushed to the circle's far edge:
  confidence -> 1.

A pure neighborhood (no foreign samples) follows the probabilistic
model of Figure 4(a) instead: each sample point independently asserts
that its neighbors share its plan with probability ``chi`` (the plan
choice predictability constant, 0.9 in the paper's example), so the
confidence after ``alpha`` agreeing samples is ``1 - (1 - chi)^alpha``
— the paper's "larger alpha implies greater confidence".
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.exceptions import ConfigurationError

#: Plan choice predictability constant chi of Assumption 1; drives the
#: confidence of pure (single-plan) neighborhoods.
DEFAULT_CHI = 0.9

#: Resolution of the precomputed ratio -> confidence interpolation table.
_TABLE_SIZE = 512


def segment_fraction(phi: float) -> float:
    """Area fraction of a circular segment with half-angle ``phi``.

    The segment cut off by a chord whose half-angle (as seen from the
    centre) is ``phi`` has area ``r^2 (phi - sin(phi) cos(phi))``; as a
    fraction of the disc, that is ``(phi - sin(phi) cos(phi)) / pi``.
    """
    return (phi - math.sin(phi) * math.cos(phi)) / math.pi


def confidence_angle(ratio: float) -> float:
    """Solve for the chord half-angle given the count ratio.

    The minority side must occupy area fraction ``1 / (1 + ratio)``;
    bisection finds the half-angle ``phi`` producing that fraction.
    Returns ``theta = pi/2 - phi``, the angle whose sine is the
    confidence.
    """
    if ratio < 1.0:
        return 0.0
    target = 1.0 / (1.0 + ratio)
    lo, hi = 0.0, math.pi / 2.0
    for __ in range(60):
        mid = (lo + hi) / 2.0
        if segment_fraction(mid) < target:
            lo = mid
        else:
            hi = mid
    phi = (lo + hi) / 2.0
    return math.pi / 2.0 - phi


def confidence_from_ratio(ratio: float) -> float:
    """Exact confidence ``sin(theta(ratio))``."""
    return math.sin(confidence_angle(ratio))


@functools.cache
def chord_table() -> tuple[np.ndarray, np.ndarray]:
    """``(ratios, confidences)``: the chord model at ``_TABLE_SIZE``
    log-spaced ratios in ``[1, 1e6]``; the curve saturates near 1 well
    before the upper end.

    Built once per process, on first use, and read-only, so no model can
    change another's table: it does not depend on ``chi``.  Each entry
    comes from the scalar :func:`confidence_from_ratio`; the bisection
    is never vectorized, since ``np.sin`` is not guaranteed bit-equal to
    ``math.sin``.
    """
    ratios = np.logspace(0.0, 6.0, _TABLE_SIZE)
    confidences = np.array([confidence_from_ratio(r) for r in ratios])
    ratios.flags.writeable = False
    confidences.flags.writeable = False
    return ratios, confidences


def pure_confidence(chi: float, alpha: np.ndarray) -> np.ndarray:
    """``1 - (1 - chi)^alpha`` for an array of agreeing-sample counts.

    Always numpy's array power: Python's ``**`` on a float can round a
    fractional ``alpha`` 1 ulp differently, so the scalar and batch
    paths both come here to stay bitwise equal.
    """
    return 1.0 - (1.0 - chi) ** alpha


class ConfidenceModel:
    """Fast vectorized confidence evaluation with a precomputed table.

    :meth:`decide_batch` is the one decision: :meth:`decide` and
    scalar ``predict`` are one-row calls of it.  Its one-row arithmetic
    is :meth:`confidence` of ``c_max`` and the row's sum less ``c_max``,
    which a served point's decision
    (:meth:`~repro.core.histogram_predictor.HistogramPredictor.predict_z`)
    calls directly; a traced decision's ``confidence`` span payload is
    read from that call's inputs and output, not recomputed by a second
    routine.
    """

    def __init__(self, chi: float = DEFAULT_CHI) -> None:
        if not 0.0 < chi < 1.0:
            raise ConfigurationError("chi must lie strictly inside (0, 1)")
        self.chi = chi
        # Writeable copies of the shared table: ``np.interp`` copies a
        # read-only operand on every call, which costs more than these
        # two 4 KiB copies once.
        ratios, confidences = chord_table()
        self._ratios, self._confidences = ratios.copy(), confidences.copy()

    def confidence(self, max_count: float, other_count: float) -> float:
        """Confidence that the majority plan is optimal at the test point.

        ``max_count`` is the sample count (or density) of the most
        frequent plan inside the ball, ``other_count`` the total of all
        remaining plans.  Pure neighborhoods use the probabilistic
        ``1 - (1 - chi)^alpha`` model; mixed neighborhoods use the chord
        model on the count ratio.  Returns 0 when the majority does not
        strictly dominate.
        """
        if max_count <= 0.0:
            return 0.0
        others = max(other_count, 0.0)
        if others == 0.0:
            return float(pure_confidence(self.chi, np.array([max_count]))[0])
        ratio = max_count / others
        if ratio < 1.0:
            return 0.0
        if ratio >= self._ratios[-1]:
            return 1.0
        return float(np.interp(ratio, self._ratios, self._confidences))

    def decide(
        self,
        counts: "np.ndarray | list[float]",
        threshold: float,
    ) -> "tuple[int | None, float]":
        """Pick the majority plan if its confidence exceeds ``threshold``.

        ``counts`` holds per-plan sample counts (index = plan id).
        Returns ``(plan_id, confidence)``, with ``plan_id = None`` for a
        NULL prediction.  This is lines 6-16 of Algorithm 1, run as a
        one-row :meth:`decide_batch`, so every caller shares the hot
        path's arithmetic.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.size == 0:
            return None, 0.0
        winners, confidences = self.decide_batch(
            counts.reshape(1, -1), threshold
        )
        winner = int(winners[0])
        return (None if winner < 0 else winner), float(confidences[0])

    def decide_batch(
        self,
        counts: np.ndarray,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`decide` over a ``(points, plans)`` matrix.

        Returns ``(winners, confidences)`` where ``winners`` is ``-1``
        for NULL predictions.  Each row gets the bits a lone row gets —
        including the saturation to exactly ``1.0`` once the count
        ratio leaves the interpolation table, which a plain
        ``np.interp`` clamp would miss — so scalar ``predict`` and
        :meth:`decide` are one-row calls of this method.

        A one-row matrix takes the scalar arithmetic of
        :meth:`confidence` instead of ~35 masked array calls; every
        other matrix runs :meth:`_batch_confidence`.
        The matrix is made C-contiguous first, so each row's sum reduces
        in the same order as a lone row's, whatever the caller's layout.
        Subclasses overriding :meth:`confidence` override
        :meth:`_batch_confidence` to match.
        """
        counts = np.ascontiguousarray(counts, dtype=float)
        if counts.ndim != 2:
            raise ConfigurationError("decide_batch expects a 2-D matrix")
        if counts.shape[0] == 1:
            row = counts[0]
            winner = int(row.argmax())
            max_count = float(row[winner])
            value = self.confidence(max_count, float(row.sum()) - max_count)
            answered = value > threshold and max_count > 0.0
            return np.array([winner if answered else -1]), np.array([value])
        winners = np.argmax(counts, axis=1)
        max_counts = counts[np.arange(counts.shape[0]), winners]
        others = counts.sum(axis=1) - max_counts
        confidences = self._batch_confidence(max_counts, others)
        answered = confidences > threshold
        winners = np.where(answered & (max_counts > 0.0), winners, -1)
        return winners, confidences

    def _batch_confidence(
        self, max_counts: np.ndarray, others: np.ndarray
    ) -> np.ndarray:
        """:meth:`confidence` over arrays of ``c_max`` and
        ``sum(others)``, element for element."""
        confidences = np.zeros(max_counts.shape[0])
        pure = (others <= 0.0) & (max_counts > 0.0)
        confidences[pure] = pure_confidence(self.chi, max_counts[pure])
        mixed = (others > 0.0) & (max_counts >= others)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(
                others > 0.0, max_counts / np.maximum(others, 1e-300), 0.0
            )
        confidences[mixed] = np.interp(
            ratios[mixed], self._ratios, self._confidences
        )
        # Parity with the scalar path: beyond the table the chord model
        # saturates to exactly 1.0, not to the last tabulated value.
        confidences[mixed & (ratios >= self._ratios[-1])] = 1.0
        return confidences


class FrequencyConfidenceModel(ConfidenceModel):
    """Ablation baseline: raw relative frequency instead of the chord model.

    Confidence is simply ``c_max / total`` — the majority plan's share
    of the neighborhood.  Compared to the chord model this is far less
    discriminating near boundaries (a 70/30 split already scores 0.7),
    which the confidence-model ablation bench quantifies.
    """

    def confidence(self, max_count: float, other_count: float) -> float:
        if max_count <= 0.0:
            return 0.0
        others = max(other_count, 0.0)
        if others == 0.0:
            return float(pure_confidence(self.chi, np.array([max_count]))[0])
        if max_count < others:
            return 0.0
        return max_count / (max_count + others)

    def _batch_confidence(
        self, max_counts: np.ndarray, others: np.ndarray
    ) -> np.ndarray:
        """Vectorized frequency-model twin of :meth:`confidence` (the
        inherited chord interpolation would not match it)."""
        confidences = np.zeros(max_counts.shape[0])
        pure = (others <= 0.0) & (max_counts > 0.0)
        confidences[pure] = pure_confidence(self.chi, max_counts[pure])
        mixed = (others > 0.0) & (max_counts >= others)
        confidences[mixed] = (
            max_counts[mixed] / (max_counts[mixed] + others[mixed])
        )
        return confidences
