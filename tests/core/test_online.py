"""ONLINE-APPROXIMATE-LSH-HISTOGRAMS policies, as the session runs them."""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.core.governor import MIN_BUCKETS, MemoryGovernor
from repro.core.predictor import Prediction
from repro.exceptions import ConfigurationError


def _session(space, seed=0, **overrides):
    return TemplateSession(space, PPCConfig(**overrides), seed=seed)


@pytest.fixture()
def session(tiny_space):
    return _session(
        tiny_space,
        confidence_threshold=0.5,
        mean_invocation_probability=0.05,
    )


class TestLearning:
    def test_starts_empty_and_silent(self, session):
        assert session.predictor.total_points == 0
        assert session.predictor.predict([0.5, 0.5]) is None

    def test_observes_and_predicts(self, session):
        for __ in range(8):
            session.observe(np.array([0.3, 0.3]), plan_id=1, cost=10.0)
        prediction = session.predictor.predict([0.3, 0.3])
        assert prediction is not None
        assert prediction.plan_id == 1
        assert session.predictor.total_points == 8

    def test_drop_forgets(self, session):
        for __ in range(8):
            session.observe(np.array([0.3, 0.3]), 1, 10.0)
        session.forget()
        assert session.predictor.total_points == 0
        assert session.predictor.predict([0.3, 0.3]) is None


class TestInvocationPolicy:
    def test_null_prediction_forces_invocation(self, session):
        record = session.execute(np.array([0.5, 0.5]))
        assert record.predicted is None
        assert record.invocation_reason == "null_prediction"
        assert record.optimizer_invoked

    def test_zero_probability_never_explores(self, tiny_space):
        session = _session(tiny_space, mean_invocation_probability=0.0)
        state = session._rng.bit_generator.state
        prediction = Prediction(0, confidence=0.1)
        assert not any(
            session.should_explore(prediction) for __ in range(100)
        )
        # p = 0 draws no coin at all.
        assert session._rng.bit_generator.state == state

    def test_confident_predictions_rarely_explored(self, session):
        confident = Prediction(0, confidence=0.999)
        fires = sum(session.should_explore(confident) for __ in range(2000))
        assert fires < 20

    def test_unsure_predictions_explored_more(self, tiny_space):
        session = _session(
            tiny_space, seed=1, mean_invocation_probability=0.1
        )
        unsure = Prediction(0, confidence=0.0)
        confident = Prediction(0, confidence=0.95)
        unsure_fires = sum(
            session.should_explore(unsure) for __ in range(2000)
        )
        confident_fires = sum(
            session.should_explore(confident) for __ in range(2000)
        )
        assert unsure_fires > confident_fires
        # Mean rate at confidence 0 is 2p = 0.2.
        assert unsure_fires == pytest.approx(400, rel=0.3)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            PPCConfig(mean_invocation_probability=1.5)


class TestNegativeFeedback:
    def test_error_suspected_on_cost_blowup(self, session):
        prediction = Prediction(0, 0.9, estimated_cost=100.0)
        assert session.suspect_error(prediction, observed_cost=200.0)

    def test_no_error_within_bound(self, session):
        prediction = Prediction(0, 0.9, estimated_cost=100.0)
        assert not session.suspect_error(prediction, observed_cost=110.0)

    def test_disabled_feedback_never_fires(self, tiny_space):
        session = _session(tiny_space, negative_feedback=False)
        prediction = Prediction(0, 0.9, estimated_cost=100.0)
        assert not session.suspect_error(prediction, observed_cost=1e9)

    def test_corrective_insert_reduces_support(self, session):
        """Inserting truth points of another plan flips the majority —
        the negative-feedback mechanism of Section IV-D."""
        x = np.array([0.4, 0.4])
        for __ in range(4):
            session.observe(x, plan_id=0, cost=10.0)
        assert session.predictor.predict(x).plan_id == 0
        # A handful of corrective points makes the region contested
        # (confidence below threshold -> NULL)...
        for __ in range(12):
            session.observe(x, plan_id=2, cost=10.0)
        assert session.predictor.predict(x) is None
        # ...and a solid corrective majority flips the prediction.
        for __ in range(13):
            session.observe(x, plan_id=2, cost=10.0)
        assert session.predictor.predict(x).plan_id == 2


def _state(session):
    """Everything ``forget`` is responsible for, in comparable form."""
    predictor = session.predictor
    policy = session.positive_feedback
    return {
        "rows": [
            [np.asarray(row).tolist() for row in transform]
            for transform in predictor._packed.rows()
        ],
        "total_points": predictor.total_points,
        "total_mass": predictor.total_mass,
        "max_buckets": predictor.max_buckets,
        "space_bytes": predictor.space_bytes(),
        "mutations": predictor.mutation_count,
        "policy": (policy.verified_mass, policy.unverified_mass),
        "monitor": session.monitor.quality_snapshot(),
        "plan_precision": dict(session.monitor._plan_precision),
        "cached_plans": len(session.cache),
    }


class TestForget:
    def test_governor_drop_and_drift_drop_agree(self, tiny_space):
        """The memory governor's drop and the drift response take the
        same ``forget`` step: after either, the synopsis, the
        positive-feedback policy, the monitor and the cache match."""
        common = dict(
            confidence_threshold=0.3,
            mean_invocation_probability=0.0,
            drift_threshold=0.99,
            drift_min_observations=5,
            monitor_window=10,
            positive_feedback=True,
            # At the governor's floor, so its first action is the drop.
            max_buckets=MIN_BUCKETS,
        )
        drifting = _session(tiny_space, drift_response=True, **common)
        governed = _session(tiny_space, drift_response=False, **common)
        # Lies about one point make the sliding precision collapse
        # (the drift test of ``test_framework``).
        x = np.array([0.5, 0.5])
        true_plan = int(tiny_space.plan_at(x[None, :])[0])
        wrong_plan = (true_plan + 1) % tiny_space.plan_count
        for session in (drifting, governed):
            for __ in range(12):
                session.observe(x, wrong_plan, cost=1.0)
        decisions = 0
        while True:
            decisions += 1
            assert decisions <= 30, "drift never fired"
            governed.execute(x)
            if drifting.execute(x).drift_triggered:
                break
        assert governed.predictor.total_points > 0
        assert len(governed.cache) > 0
        assert governed.positive_feedback.verified_mass > 0.0

        governor = MemoryGovernor(budget_bytes=1)
        governor.register(governed)
        actions = governor.enforce()
        assert [action.action for action in actions] == ["drop"]
        assert _state(governed) == _state(drifting)
        assert governed.predictor.total_points == 0
        assert governed.positive_feedback.verified_mass == 0.0
        assert len(governed.cache) == 0
