"""NAIVE grid predictor."""

import numpy as np
import pytest

from repro.core.naive import NaivePredictor
from repro.core.point import SamplePool
from repro.exceptions import PredictionError


def _pool():
    pool = SamplePool(2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 0.45, size=(60, 2)):
        pool.add(x, 0, cost=5.0)
    for x in rng.uniform(0.55, 1.0, size=(60, 2)):
        pool.add(x, 1, cost=9.0)
    return pool


class TestPrediction:
    def test_cluster_interiors(self):
        predictor = NaivePredictor(_pool(), resolution=8, radius=0.05)
        assert predictor.predict([0.2, 0.2]).plan_id == 0
        assert predictor.predict([0.8, 0.8]).plan_id == 1

    def test_empty_region_returns_null(self):
        predictor = NaivePredictor(
            _pool(), resolution=8, radius=0.01, include_neighbors=False
        )
        assert predictor.predict([0.51, 0.49]) is None

    def test_neighbor_inclusion_expands_counts(self):
        pool = _pool()
        lone = NaivePredictor(
            pool, resolution=8, radius=0.2, include_neighbors=False
        )
        wide = NaivePredictor(pool, resolution=8, radius=0.2)
        x = np.array([0.3, 0.3])
        assert wide._query_cells(x) != lone._query_cells(x)
        assert (
            wide._counts[:, wide._query_cells(x)].sum()
            >= lone._counts[:, lone._query_cells(x)].sum()
        )

    def test_estimated_cost_is_bucket_average(self):
        predictor = NaivePredictor(
            _pool(), resolution=4, radius=0.01, include_neighbors=False
        )
        prediction = predictor.predict([0.2, 0.2])
        assert prediction.estimated_cost == pytest.approx(5.0)

    def test_online_insert(self):
        pool = SamplePool(2)
        predictor = NaivePredictor(
            pool, plan_count=2, resolution=4, radius=0.05,
            confidence_threshold=0.5,
        )
        assert predictor.predict([0.1, 0.1]) is None
        for __ in range(5):
            predictor.insert(np.array([0.1, 0.1]), plan_id=1, cost=2.0)
        prediction = predictor.predict([0.1, 0.1])
        assert prediction.plan_id == 1

    def test_empty_pool_needs_plan_count(self):
        with pytest.raises(PredictionError):
            NaivePredictor(SamplePool(2))


class TestSpace:
    def test_space_formula(self):
        predictor = NaivePredictor(_pool(), plan_count=4, resolution=8)
        assert predictor.space_bytes() == 4 * 8 * 8 * 8

    def test_misalignment_weakness(self, q1_space, q1_pool, q1_test):
        """NAIVE answers fewer points than BASELINE at equal gamma —
        the bucket-misalignment weakness the paper reports."""
        from repro.core.baseline import BaselinePredictor

        test, truth = q1_test
        naive = NaivePredictor(
            q1_pool, resolution=8, radius=0.05, confidence_threshold=0.7
        )
        baseline = BaselinePredictor(
            q1_pool, radius=0.05, confidence_threshold=0.7
        )
        naive_answered = sum(
            1 for i in range(200) if naive.predict(test[i]) is not None
        )
        baseline_answered = sum(
            1 for i in range(200) if baseline.predict(test[i]) is not None
        )
        assert naive_answered <= baseline_answered
