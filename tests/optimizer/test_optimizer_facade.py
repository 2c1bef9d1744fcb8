"""The Optimizer facade."""

import numpy as np
import pytest

from repro.optimizer import Optimizer


class TestOptimizerFacade:
    def test_optimize_returns_plan_and_cost(self, tiny_template, tiny_catalog):
        optimizer = Optimizer(tiny_template, tiny_catalog)
        plan, cost = optimizer.optimize(np.array([[0.4, 0.6]]))
        assert plan.fingerprint
        assert cost > 0

    def test_invocations_counted(self, tiny_template, tiny_catalog):
        optimizer = Optimizer(tiny_template, tiny_catalog)
        for __ in range(3):
            optimizer.optimize(np.array([[0.5, 0.5]]))
        assert optimizer.invocation_count == 3

    def test_matches_enumerator(self, tiny_template, tiny_catalog):
        from repro.optimizer.enumeration import DPEnumerator

        optimizer = Optimizer(tiny_template, tiny_catalog)
        enumerator = DPEnumerator(tiny_template, tiny_catalog)
        point = np.array([[0.3, 0.7]])
        plan_a, cost_a = optimizer.optimize(point)
        plan_b, cost_b = enumerator.optimize(point)
        assert plan_a.fingerprint == plan_b.fingerprint
        assert cost_a == pytest.approx(cost_b)


class TestExperimentSetupHelpers:
    def test_offline_truth_shapes(self, q1_space):
        from repro.experiments.setup import offline_truth

        test, truth = offline_truth(q1_space, test_count=100, seed=1)
        assert test.shape == (100, 2)
        assert truth.shape == (100,)
        assert (truth >= 0).all()

    def test_evaluate_offline_agrees_with_manual_scoring(
        self, q1_space, q1_pool, q1_test
    ):
        from repro.core.baseline import BaselinePredictor
        from repro.experiments.setup import evaluate_offline
        from repro.metrics import evaluate_predictions

        predictor = BaselinePredictor(q1_pool, 0.1, 0.7)
        test, truth = q1_test
        metrics = evaluate_offline(predictor, test, truth)
        manual_ids = [
            None if p is None else p.plan_id
            for p in predictor.predict_batch(test)
        ]
        manual = evaluate_predictions(manual_ids, truth)
        assert metrics.precision == manual.precision
        assert metrics.recall == manual.recall

    def test_standard_pool_sizes(self):
        from repro.experiments.setup import standard_pool

        space, pool = standard_pool("Q0", sample_size=64, seed=5)
        assert len(pool) == 64
        assert pool.dimensions == space.dimensions
