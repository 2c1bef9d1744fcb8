"""Multi-template memory governor."""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.core.governor import MIN_BUCKETS, MemoryGovernor
from repro.exceptions import ConfigurationError
from repro.workload import RandomTrajectoryWorkload
from tests.core.legacy import assert_predictions_match, legacy_predict_batch


@pytest.fixture()
def sessions(q1_space, tiny_space):
    config = PPCConfig(confidence_threshold=0.8, drift_response=False)
    hot = TemplateSession(q1_space, config, seed=0)
    cold = TemplateSession(tiny_space, config, seed=1)
    # Fill both with points so their histograms occupy space.
    workload = RandomTrajectoryWorkload(2, spread=0.05, seed=2).generate(200)
    for point in workload:
        hot.execute(point)
        cold.execute(point)
    return hot, cold


class TestAccounting:
    def test_total_bytes_sums_sessions(self, sessions):
        hot, cold = sessions
        governor = MemoryGovernor(budget_bytes=10**9)
        governor.register(hot)
        governor.register(cold)
        assert governor.total_bytes == (
            hot.predictor.space_bytes() + cold.predictor.space_bytes()
        )
        assert not governor.over_budget()

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            MemoryGovernor(0)


class TestEnforcement:
    def test_within_budget_is_a_noop(self, sessions):
        hot, cold = sessions
        governor = MemoryGovernor(budget_bytes=10**9)
        governor.register(hot)
        governor.register(cold)
        assert governor.enforce() == []

    def test_cold_template_shrunk_first(self, sessions):
        hot, cold = sessions
        governor = MemoryGovernor(budget_bytes=10**9)
        governor.register(hot)
        governor.register(cold)
        # Only the hot template keeps being used.
        for __ in range(50):
            governor.touch(q1_name(hot))
        governor.budget_bytes = governor.total_bytes - 1
        actions = governor.enforce()
        assert actions, "must reclaim something"
        assert actions[0].template == cold.plan_space.template.name
        assert actions[0].action == "shrink"

    def test_enforce_reaches_budget(self, sessions):
        hot, cold = sessions
        governor = MemoryGovernor(budget_bytes=10**9)
        governor.register(hot)
        governor.register(cold)
        governor.budget_bytes = governor.total_bytes // 3
        governor.enforce()
        assert governor.total_bytes <= governor.budget_bytes

    def test_floor_leads_to_drop(self, sessions):
        hot, cold = sessions
        governor = MemoryGovernor(budget_bytes=1)  # impossible budget
        governor.register(cold)
        actions = governor.enforce()
        kinds = {a.action for a in actions}
        assert "drop" in kinds
        assert cold.predictor.total_points == 0

    def test_shrink_preserves_prediction_ability(self, sessions):
        hot, __ = sessions
        governor = MemoryGovernor(budget_bytes=10**9)
        governor.register(hot)
        governor.budget_bytes = hot.predictor.space_bytes() // 2
        governor.enforce()
        predictor = hot.predictor
        assert predictor.max_buckets >= MIN_BUCKETS
        # The shrunken structure still answers.
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=2).generate(50)
        answered = sum(
            1 for p in workload if hot.predictor.predict(p) is not None
        )
        assert answered > 0

    def test_shrink_refreshes_the_packed_lookup(self, sessions):
        """A governor shrink goes through the predictor: the packed
        block is repacked (predictions equal the per-histogram
        reference) and the mutation counter advances."""
        hot, __ = sessions
        governor = MemoryGovernor(budget_bytes=10**9)
        governor.register(hot)
        predictor = hot.predictor
        before = predictor.mutation_count
        buckets_before = predictor.max_buckets
        governor.budget_bytes = hot.predictor.space_bytes() // 2
        actions = governor.enforce()
        assert actions and actions[0].action == "shrink"
        assert predictor.max_buckets < buckets_before
        assert predictor.mutation_count > before
        probes = np.array(
            RandomTrajectoryWorkload(2, spread=0.05, seed=3).generate(200)
        )
        assert_predictions_match(
            predictor.predict_batch(probes),
            legacy_predict_batch(predictor, probes),
        )


def q1_name(session):
    return session.plan_space.template.name
