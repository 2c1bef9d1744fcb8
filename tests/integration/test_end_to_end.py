"""End-to-end integration: the full PPC stack on real plan spaces."""

import numpy as np
import pytest

from repro import (
    BaselinePredictor,
    HistogramPredictor,
    LshPredictor,
    NaivePredictor,
    PPCConfig,
    PPCFramework,
)
from repro.metrics import evaluate_predictions
from repro.workload import RandomTrajectoryWorkload, sample_labeled_pool


class TestApproximationLadderOrdering:
    """The qualitative shape of Section V-A on a real plan space:
    every algorithm is precise; the approximations trade recall."""

    @pytest.fixture(scope="class")
    def scores(self, q1_space, q1_pool, q1_test):
        test, truth = q1_test
        algorithms = {
            "baseline": BaselinePredictor(
                q1_pool, radius=0.05, confidence_threshold=0.7
            ),
            "naive": NaivePredictor(
                q1_pool, resolution=8, radius=0.05, confidence_threshold=0.7
            ),
            "lsh": LshPredictor(
                q1_pool, transforms=5, resolution=8,
                confidence_threshold=0.7, seed=1,
            ),
            "histograms": HistogramPredictor(
                q1_pool, transforms=5, max_buckets=40, radius=0.05,
                confidence_threshold=0.7, seed=1,
            ),
        }
        scores = {}
        for name, predictor in algorithms.items():
            ids = [
                None if p is None else p.plan_id
                for p in predictor.predict_batch(test)
            ]
            scores[name] = evaluate_predictions(ids, truth)
        return scores

    def test_everyone_is_precise(self, scores):
        for name, metrics in scores.items():
            assert metrics.precision > 0.9, name

    def test_baseline_has_best_recall(self, scores):
        for name in ("naive", "lsh", "histograms"):
            assert scores[name].recall <= scores["baseline"].recall + 0.05

    def test_histograms_beat_naive_recall(self, scores):
        assert scores["histograms"].recall > scores["naive"].recall

    def test_everyone_answers_something(self, scores):
        for name, metrics in scores.items():
            assert metrics.recall > 0.3, name


class TestOnlineConvergence:
    def test_recall_improves_over_time(self, q1_space):
        framework = PPCFramework(
            PPCConfig(confidence_threshold=0.8, drift_response=False),
            seed=0,
        )
        framework.register(q1_space)
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=11).generate(
            800
        )
        records = [framework.execute("Q1", point) for point in workload]
        # The warm-up phase (empty sample pool) answers little; once
        # learned, the answer rate sits well above it (it still dips
        # whenever a trajectory enters unexplored territory).
        warmup = [r.predicted is not None for r in records[:20]]
        learned = [r.predicted is not None for r in records[20:]]
        assert np.mean(learned) > np.mean(warmup) + 0.1

    def test_invocation_rate_drops(self, q1_space):
        framework = PPCFramework(
            PPCConfig(confidence_threshold=0.8, drift_response=False),
            seed=0,
        )
        framework.register(q1_space)
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=12).generate(
            800
        )
        records = [framework.execute("Q1", point) for point in workload]
        early = np.mean([r.optimizer_invoked for r in records[:200]])
        late = np.mean([r.optimizer_invoked for r in records[-200:]])
        assert late < early

    def test_executed_plans_never_catastrophic(self, q1_space):
        """Executed plans stay within a sane factor of optimal on
        average — mispredictions are rare and bounded."""
        framework = PPCFramework(
            PPCConfig(confidence_threshold=0.8, drift_response=False),
            seed=0,
        )
        framework.register(q1_space)
        workload = RandomTrajectoryWorkload(2, spread=0.04, seed=13).generate(
            500
        )
        records = [framework.execute("Q1", point) for point in workload]
        suboptimality = np.array([r.suboptimality for r in records])
        assert np.median(suboptimality) == pytest.approx(1.0)
        assert suboptimality.mean() < 2.0


class TestHigherDimensionalTemplates:
    def test_q5_pipeline(self, q5_space):
        pool = sample_labeled_pool(q5_space, 1500, seed=21)
        predictor = HistogramPredictor(
            pool, transforms=5, max_buckets=40, radius=0.1,
            confidence_threshold=0.7, seed=1,
        )
        from repro.workload import sample_points

        test = sample_points(q5_space.dimensions, 300, seed=22)
        truth = q5_space.plan_at(test)
        ids = [
            None if p is None else p.plan_id
            for p in predictor.predict_batch(test)
        ]
        metrics = evaluate_predictions(ids, truth)
        assert metrics.precision > 0.8
        assert metrics.recall > 0.1
