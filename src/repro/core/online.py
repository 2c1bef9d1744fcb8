"""ONLINE-APPROXIMATE-LSH-HISTOGRAMS (Section IV-D).

The online predictor starts from an empty sample pool and learns the
plan space lazily: every time the optimizer is invoked (cache miss, low
confidence, random exploration, or negative feedback), the truly
optimized point is inserted into the incremental histograms.  Policy
pieces bundled here:

* **random optimizer invocations** — even when a prediction exists, the
  optimizer is invoked with a probability derived from the user's mean
  invocation probability, scaled up for low-confidence predictions;
* **negative feedback** — after executing a predicted plan, the
  cost-feedback detector compares observed cost with the histogram cost
  estimate; on a suspected error the optimizer is invoked and the
  corrective point inserted, reducing support for the bad prediction;
* **no positive feedback** — predicted (unverified) points are never
  inserted, so the histograms only ever summarize truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.feedback import CostFeedbackDetector
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.point import SamplePool
from repro.core.positive_feedback import PositiveFeedbackPolicy
from repro.core.predictor import PlanPredictor, Prediction
from repro.exceptions import ConfigurationError
from repro.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import _TemplateEmitter
    from repro.obs.tracing import DecisionTrace

#: Default noise-elimination threshold: a prediction needs support of at
#: least this fraction of all accumulated points (Section IV-C uses "a
#: fixed threshold").
DEFAULT_NOISE_FRACTION = 0.002


class OnlinePredictor(PlanPredictor):
    """Empty-start histogram predictor plus the online policies."""

    def __init__(
        self,
        dimensions: int,
        plan_count: int,
        transforms: int = 5,
        resolution: int = 16,
        max_buckets: int = 40,
        radius: float = 0.05,
        confidence_threshold: float = 0.8,
        noise_fraction: "float | None" = DEFAULT_NOISE_FRACTION,
        mean_invocation_probability: float = 0.05,
        negative_feedback: bool = True,
        cost_epsilon: float = 0.25,
        positive_feedback: "PositiveFeedbackPolicy | None" = None,
        seed: "int | np.random.Generator | None" = 0,
        confidence_model: "ConfidenceModel | None" = None,
    ) -> None:
        if not 0.0 <= mean_invocation_probability <= 1.0:
            raise ConfigurationError(
                "mean invocation probability must be in [0, 1]"
            )
        rng = as_generator(seed)
        self.dimensions = dimensions
        self.mean_invocation_probability = mean_invocation_probability
        self.negative_feedback = negative_feedback
        self.positive_feedback = positive_feedback
        self.detector = CostFeedbackDetector(cost_epsilon)
        self._rng = rng
        self.predictor = HistogramPredictor(
            SamplePool(dimensions),
            plan_count=plan_count,
            transforms=transforms,
            resolution=resolution,
            max_buckets=max_buckets,
            radius=radius,
            confidence_threshold=confidence_threshold,
            noise_fraction=noise_fraction,
            histogram_kind="incremental",
            seed=rng,
            confidence_model=confidence_model,
        )

    # ------------------------------------------------------------------
    # PlanPredictor interface
    # ------------------------------------------------------------------
    def predict(
        self, x: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> "Prediction | None":
        return self.predictor.predict(x, trace=trace)

    def predict_batch(
        self, points: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> "list[Prediction | None]":
        """Vectorized prediction over a point batch (the histogram
        predictor's struct-of-arrays primitive)."""
        return self.predictor.predict_batch(points, trace=trace)

    def space_bytes(self) -> int:
        return self.predictor.space_bytes()

    @property
    def sample_count(self) -> int:
        """Number of points inserted so far (weight-independent)."""
        return int(self.predictor.total_points)

    @property
    def mutation_count(self) -> int:
        """Synopsis-mutation counter: batch consumers compare it before
        and after each instance to detect stale precomputed
        predictions."""
        return self.predictor.mutation_count

    def bind_events(self, emitter: "_TemplateEmitter") -> None:
        """Attach a lifecycle event emitter to the inner histograms."""
        self.predictor.bind_events(emitter)

    # ------------------------------------------------------------------
    # Online policies
    # ------------------------------------------------------------------
    def observe(
        self,
        x: np.ndarray,
        plan_id: int,
        cost: float,
        provenance: str = "direct",
    ) -> None:
        """Insert a truly optimized (verified) point into the histograms.

        ``provenance`` names the decision-flow origin of the point
        (cache miss, exploration, negative feedback, ...) and flows
        through to the ``point_inserted`` lifecycle event; it never
        affects the insert.
        """
        self.predictor.insert(x, plan_id, cost, provenance=provenance)
        if self.positive_feedback is not None:
            self.positive_feedback.record_verified()

    def observe_unverified(
        self,
        x: np.ndarray,
        prediction: Prediction,
        observed_cost: float,
    ) -> bool:
        """Offer an executed-but-unverified prediction as positive feedback.

        Accepted only when a positive-feedback policy is configured and
        its checks and balances pass; the point then enters the
        histograms at the policy's discounted weight.  Returns whether
        the point was inserted.
        """
        if self.positive_feedback is None:
            return False
        if not self.positive_feedback.should_insert(prediction):
            return False
        self.predictor.insert(
            x,
            prediction.plan_id,
            observed_cost,
            weight=self.positive_feedback.weight,
            provenance="positive_feedback",
        )
        return True

    def should_invoke_optimizer(self, prediction: "Prediction | None") -> bool:
        """Random-exploration policy (Section IV-D).

        With no prediction, the optimizer must be invoked.  Otherwise
        the invocation probability is the mean probability scaled by
        how unsure the prediction is — ``2 p (1 - confidence)`` — so a
        50 %-confidence prediction is explored at exactly the mean rate
        and a fully confident one almost never.
        """
        if prediction is None:
            return True
        if self.mean_invocation_probability == 0.0:
            return False
        probability = min(
            1.0,
            2.0
            * self.mean_invocation_probability
            * (1.0 - prediction.confidence),
        )
        return bool(self._rng.random() < probability)

    def suspect_error(
        self, prediction: Prediction, observed_cost: float
    ) -> bool:
        """Negative-feedback trigger: does the observed execution cost
        contradict the histogram cost estimate?"""
        if not self.negative_feedback:
            return False
        return self.detector.is_erroneous(
            prediction.estimated_cost, observed_cost
        )

    def drop(self) -> None:
        """Restart learning from scratch (drift response)."""
        self.predictor.drop()
        if self.positive_feedback is not None:
            self.positive_feedback.reset()
