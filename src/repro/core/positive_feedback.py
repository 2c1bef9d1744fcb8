"""Positive feedback with checks and balances (the paper's future work).

Section VII: *"it would be desirable to incorporate positive feedback
into the decision algorithm to shorten the training period and improve
recall.  Using positive feedback comes with the risk that the
importance of some information is unduly amplified, and so a system of
checks and balances would be needed to prevent a feedback spiral that
destroys precision."*

This module implements that system.  A prediction the framework chose
to *trust* (executed without optimizer verification, and not flagged by
the cost-feedback detector) may be inserted into the sample pool as an
**unverified** point, subject to three balances:

1. **confidence gate** — only predictions whose confidence exceeds a
   high bar (default 0.97) qualify; boundary-adjacent guesses never
   self-reinforce;
2. **discounted weight** — unverified points carry fractional mass
   (default 0.25), so it always takes several of them to outvote one
   optimizer-verified point;
3. **mass cap** — the total unverified mass may never exceed a fixed
   fraction of the verified mass (default 0.5); once the cap is hit,
   insertion pauses until more verified points arrive.

Disabling all three (``unguarded()``) reproduces the avalanche the
paper warns about — the positive-feedback ablation bench measures both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.predictor import Prediction
from repro.exceptions import ConfigurationError


@dataclass
class PositiveFeedbackPolicy:
    """Checks and balances for inserting unverified predictions."""

    min_confidence: float = 0.97
    weight: float = 0.25
    mass_cap_ratio: float = 0.5
    #: Disable the mass cap entirely (the unguarded configuration).
    capped: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigurationError("min_confidence must be in [0, 1]")
        if not 0.0 < self.weight <= 1.0:
            raise ConfigurationError("weight must be in (0, 1]")
        if self.mass_cap_ratio <= 0.0:
            raise ConfigurationError("mass_cap_ratio must be > 0")
        self.verified_mass = 0.0
        self.unverified_mass = 0.0

    @classmethod
    def unguarded(cls) -> "PositiveFeedbackPolicy":
        """No gate, full weight, no cap — the feedback-spiral
        configuration the paper warns about."""
        return cls(min_confidence=0.0, weight=1.0, capped=False)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def record_verified(self, weight: float = 1.0) -> None:
        """An optimizer-verified point entered the pool."""
        self.verified_mass += weight

    def reset(self) -> None:
        """Forget all mass accounting (after a drift drop)."""
        self.verified_mass = 0.0
        self.unverified_mass = 0.0

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def should_insert(self, prediction: Prediction) -> bool:
        """May this unverified prediction enter the sample pool?"""
        if prediction.confidence < self.min_confidence:
            return False
        if self.capped and (
            self.unverified_mass + self.weight
            > self.mass_cap_ratio * self.verified_mass
        ):
            return False
        self.unverified_mass += self.weight
        return True
