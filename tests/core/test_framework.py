"""The PPC framework decision flow (Figure 1)."""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import PPCFramework, TemplateSession
from repro.workload import RandomTrajectoryWorkload


@pytest.fixture()
def session(tiny_space):
    config = PPCConfig(
        confidence_threshold=0.6,
        mean_invocation_probability=0.05,
        drift_response=False,
    )
    return TemplateSession(tiny_space, config, seed=0)


class TestDecisionFlow:
    def test_first_instance_always_optimizes(self, session):
        record = session.execute(np.array([0.5, 0.5]))
        assert record.optimizer_invoked
        assert record.invocation_reason == "null_prediction"
        assert record.executed_plan == record.optimal_plan

    def test_repeated_instances_eventually_cached(self, session):
        x = np.array([0.3, 0.3])
        for __ in range(10):
            record = session.execute(x)
        assert record.predicted is not None
        assert record.predicted == record.optimal_plan
        # At least one execution must have run without the optimizer.
        assert session.optimizer_invocations < 10

    def test_records_carry_ground_truth(self, session):
        record = session.execute(np.array([0.2, 0.8]))
        ids, costs = session.plan_space.label(np.array([[0.2, 0.8]]))
        assert record.optimal_plan == ids[0]
        assert record.optimal_cost == pytest.approx(costs[0])

    def test_suboptimality_of_optimal_execution_is_one(self, session):
        record = session.execute(np.array([0.5, 0.5]))
        assert record.suboptimality == pytest.approx(1.0)

    def test_ground_truth_metrics_accumulate(self, session):
        for x in np.random.default_rng(0).uniform(0, 1, (30, 2)):
            session.execute(x)
        metrics = session.ground_truth_metrics()
        assert metrics.total == 30
        assert 0.0 <= metrics.precision <= 1.0

    def test_cache_populated_on_invocation(self, session):
        record = session.execute(np.array([0.5, 0.5]))
        assert record.executed_plan in session.cache


class TestDriftResponse:
    def test_sustained_failure_triggers_drop(self, tiny_space):
        config = PPCConfig(
            confidence_threshold=0.3,
            mean_invocation_probability=0.0,
            negative_feedback=True,
            drift_response=True,
            drift_threshold=0.99,  # hair-trigger for the test
            drift_min_observations=5,
            monitor_window=10,
        )
        session = TemplateSession(tiny_space, config, seed=0)
        # Teach the predictor lies: a wrong plan with an absurdly low
        # cost, so every predicted execution blows the cost bound, the
        # negative feedback path reveals the mispredictions, and the
        # sliding precision estimate collapses.
        x = np.array([0.5, 0.5])
        true_plan = int(tiny_space.plan_at(x[None, :])[0])
        wrong_plan = (true_plan + 1) % tiny_space.plan_count
        for __ in range(12):
            session.observe(x, wrong_plan, cost=1.0)
        fired = False
        for __ in range(30):
            record = session.execute(x)
            if record.drift_triggered:
                fired = True
                break
        assert fired
        assert session.drift_events >= 1
        assert session.predictor.total_points <= 1


class TestMultiTemplate:
    def test_framework_routes_by_template(self, tiny_space, q1_space):
        framework = PPCFramework(
            PPCConfig(drift_response=False), seed=0
        )
        framework.register(tiny_space)
        framework.register(q1_space)
        framework.execute("tiny", np.array([0.5, 0.5]))
        framework.execute("Q1", np.array([0.5, 0.5]))
        assert framework.session("tiny").records[0].template == "tiny"
        assert framework.session("Q1").records[0].template == "Q1"
        assert framework.optimizer_invocations == 2

    def test_online_workload_learns(self, q1_space):
        framework = PPCFramework(
            PPCConfig(drift_response=False, confidence_threshold=0.8),
            seed=0,
        )
        framework.register(q1_space)
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=3).generate(300)
        for point in workload:
            framework.execute("Q1", point)
        session = framework.session("Q1")
        metrics = session.ground_truth_metrics()
        assert metrics.precision > 0.9
        assert metrics.recall > 0.3
        assert session.optimizer_invocations < 300
