"""Cost-feedback misprediction detector."""

import pytest

from repro.core.feedback import CostFeedbackDetector
from repro.exceptions import ConfigurationError


class TestOneSided:
    def test_overrun_beyond_bound_flagged(self):
        detector = CostFeedbackDetector(epsilon=0.25)
        assert detector.is_erroneous(100.0, 130.0)

    def test_overrun_within_bound_accepted(self):
        detector = CostFeedbackDetector(epsilon=0.25)
        assert not detector.is_erroneous(100.0, 124.0)

    def test_cheap_execution_not_flagged(self):
        """One-sided default: cheaper than estimated is never an error."""
        detector = CostFeedbackDetector(epsilon=0.25)
        assert not detector.is_erroneous(100.0, 10.0)

    def test_boundary_is_strict(self):
        detector = CostFeedbackDetector(epsilon=0.25)
        assert not detector.is_erroneous(100.0, 125.0)
        assert detector.is_erroneous(100.0, 125.0001)


class TestAbstention:
    def test_missing_estimate_abstains(self):
        detector = CostFeedbackDetector()
        assert not detector.is_erroneous(None, 100.0)

    def test_nonpositive_values_abstain(self):
        detector = CostFeedbackDetector()
        assert not detector.is_erroneous(0.0, 100.0)
        assert not detector.is_erroneous(100.0, 0.0)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            CostFeedbackDetector(epsilon=0.0)
