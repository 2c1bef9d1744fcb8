"""Positive feedback: checks and balances (the paper's future work)."""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.core.positive_feedback import PositiveFeedbackPolicy
from repro.core.predictor import Prediction
from repro.exceptions import ConfigurationError
from repro.obs import names as metric_names
from repro.workload import RandomTrajectoryWorkload


class TestPolicy:
    def test_confidence_gate(self):
        policy = PositiveFeedbackPolicy(min_confidence=0.95)
        policy.record_verified()
        policy.record_verified()
        assert not policy.should_insert(Prediction(0, confidence=0.9))
        assert policy.should_insert(Prediction(0, confidence=0.99))

    def test_mass_cap(self):
        policy = PositiveFeedbackPolicy(
            min_confidence=0.0, weight=0.25, mass_cap_ratio=0.5
        )
        policy.record_verified()  # verified mass 1.0 -> cap 0.5
        confident = Prediction(0, confidence=1.0)
        assert policy.should_insert(confident)  # unverified 0.25
        assert policy.should_insert(confident)  # unverified 0.50
        assert not policy.should_insert(confident)  # would exceed cap
        policy.record_verified()  # cap now 1.0
        assert policy.should_insert(confident)

    def test_counters(self):
        # The policy keeps no outcome tally (the session's
        # ``ppc_positive_feedback_total`` counts outcomes); only an
        # accepted insert books unverified mass.
        policy = PositiveFeedbackPolicy(min_confidence=0.5)
        policy.record_verified()
        assert policy.should_insert(Prediction(0, confidence=0.9))
        assert not policy.should_insert(Prediction(0, confidence=0.1))
        assert policy.unverified_mass == policy.weight

    def test_reset(self):
        policy = PositiveFeedbackPolicy(min_confidence=0.0)
        policy.record_verified()
        policy.should_insert(Prediction(0, confidence=1.0))
        policy.reset()
        assert policy.verified_mass == 0.0
        assert policy.unverified_mass == 0.0

    def test_unguarded_always_accepts(self):
        policy = PositiveFeedbackPolicy.unguarded()
        for __ in range(100):
            assert policy.should_insert(Prediction(0, confidence=0.0))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PositiveFeedbackPolicy(min_confidence=1.5)
        with pytest.raises(ConfigurationError):
            PositiveFeedbackPolicy(weight=0.0)
        with pytest.raises(ConfigurationError):
            PositiveFeedbackPolicy(mass_cap_ratio=0.0)


class TestOnlineIntegration:
    def test_unverified_points_carry_fractional_weight(self, tiny_space):
        session = TemplateSession(
            tiny_space,
            PPCConfig(
                confidence_threshold=0.5,
                positive_feedback=True,
                positive_feedback_min_confidence=0.0,
                positive_feedback_weight=0.25,
                positive_feedback_mass_cap=10.0,
            ),
            seed=0,
        )
        x = np.array([0.3, 0.3])
        session.observe(x, 0, cost=5.0)
        inserted = session.offer_unverified(
            x, Prediction(0, confidence=1.0), observed_cost=5.0
        )
        assert inserted
        # The sample count stays an integer; the discount shows up in
        # the separately tracked weighted mass.
        assert session.predictor.total_points == 2
        assert isinstance(session.predictor.total_points, int)
        assert session.predictor.total_mass == pytest.approx(1.25)

    def test_no_policy_means_no_positive_feedback(self, tiny_space):
        session = TemplateSession(tiny_space, PPCConfig(), seed=0)
        assert session.positive_feedback is None
        assert not session.offer_unverified(
            np.array([0.3, 0.3]), Prediction(0, confidence=1.0), 5.0
        )
        assert session.predictor.total_points == 0

    def test_drop_resets_policy(self, tiny_space):
        session = TemplateSession(
            tiny_space,
            PPCConfig(
                positive_feedback=True,
                positive_feedback_min_confidence=0.0,
                positive_feedback_mass_cap=10.0,
            ),
            seed=0,
        )
        policy = session.positive_feedback
        session.observe(np.array([0.3, 0.3]), 0, 5.0)
        assert session.offer_unverified(
            np.array([0.3, 0.3]), Prediction(0, confidence=1.0), 5.0
        )
        session.forget()
        assert policy.verified_mass == 0.0
        assert policy.unverified_mass == 0.0
        assert session.predictor.total_points == 0


class TestFrameworkIntegration:
    def test_guarded_feedback_does_not_destroy_precision(self, q1_space):
        base_config = PPCConfig(
            confidence_threshold=0.8, drift_response=False
        )
        feedback_config = PPCConfig(
            confidence_threshold=0.8,
            drift_response=False,
            positive_feedback=True,
        )
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=17).generate(
            600
        )
        results = {}
        for name, config in (
            ("off", base_config), ("on", feedback_config),
        ):
            session = TemplateSession(q1_space, config, seed=0)
            for point in workload:
                session.execute(point)
            results[name] = session.ground_truth_metrics()
        assert results["on"].precision > results["off"].precision - 0.05

    def test_unverified_mass_accumulates(self, q1_space):
        config = PPCConfig(
            confidence_threshold=0.8,
            drift_response=False,
            positive_feedback=True,
        )
        session = TemplateSession(q1_space, config, seed=0)
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=18).generate(
            400
        )
        for point in workload:
            session.execute(point)
        policy = session.positive_feedback
        assert policy is not None
        assert (
            session.metrics.counter_value(
                metric_names.POSITIVE_FEEDBACK_TOTAL,
                template="Q1",
                outcome="accepted",
            )
            > 0
        )
        assert policy.unverified_mass <= (
            policy.mass_cap_ratio * policy.verified_mass + policy.weight
        )
