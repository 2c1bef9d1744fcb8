"""Cost-based misprediction detection (negative feedback, Section IV-E).

The sample pool contains only truly optimal points (no positive
feedback), so the histogram cost synopses estimate the *optimal*
execution cost near any point.  By the plan cost predictability
assumption, a correct prediction's observed cost must lie within a
relative error bound ``epsilon`` of that estimate; a larger deviation
is taken — by the contrapositive — as evidence of a false prediction.
The paper fixes ``epsilon = 0.25`` and reports the resulting binary
estimator is about 72 % accurate.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

#: The paper's cost error bound.
DEFAULT_EPSILON = 0.25


class CostFeedbackDetector:
    """Binary classifier: was a prediction erroneous, judging by cost?

    The check is one-sided: executing a *wrong* plan can only cost more
    than the optimal-cost estimate, never less, so a cheaper-than-
    estimated execution signals estimate smearing rather than a
    misprediction.
    """

    def __init__(self, epsilon: float = DEFAULT_EPSILON) -> None:
        if epsilon <= 0.0:
            raise ConfigurationError("epsilon must be > 0")
        self.epsilon = epsilon

    def is_erroneous(
        self,
        estimated_cost: "float | None",
        observed_cost: float,
    ) -> bool:
        """True when the observed cost exceeds the estimate by more
        than the error bound.

        With no cost estimate available (empty neighborhood) the
        detector abstains, i.e. reports "not erroneous".
        """
        if estimated_cost is None or estimated_cost <= 0.0:
            return False
        if observed_cost <= 0.0:
            return False
        return observed_cost / estimated_cost > 1.0 + self.epsilon
