"""BASELINE (Algorithm 1): exact density prediction."""

import numpy as np
import pytest

from repro.core.baseline import BaselinePredictor
from repro.core.point import SamplePool
from repro.exceptions import PredictionError


def _pool_two_clusters():
    """Plan 0 fills the left half, plan 1 the right half."""
    pool = SamplePool(2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 0.4, size=(50, 2)):
        pool.add(x, plan_id=0, cost=10.0)
    for x in rng.uniform(0.6, 1.0, size=(50, 2)):
        pool.add(x, plan_id=1, cost=20.0)
    return pool


class TestPrediction:
    def test_deep_inside_cluster_predicted(self):
        predictor = BaselinePredictor(
            _pool_two_clusters(), radius=0.15, confidence_threshold=0.7
        )
        prediction = predictor.predict([0.2, 0.2])
        assert prediction is not None
        assert prediction.plan_id == 0
        assert prediction.confidence > 0.7

    def test_other_cluster(self):
        predictor = BaselinePredictor(
            _pool_two_clusters(), radius=0.15, confidence_threshold=0.7
        )
        assert predictor.predict([0.8, 0.8]).plan_id == 1

    def test_empty_neighborhood_returns_null(self):
        predictor = BaselinePredictor(
            _pool_two_clusters(), radius=0.05, confidence_threshold=0.5
        )
        # (0.5, 0.5) lies in the empty gap between the clusters.
        assert predictor.predict([0.5, 0.5]) is None

    def test_estimated_cost_from_neighborhood(self):
        predictor = BaselinePredictor(
            _pool_two_clusters(), radius=0.2, confidence_threshold=0.5
        )
        prediction = predictor.predict([0.2, 0.2])
        assert prediction.estimated_cost == pytest.approx(10.0)

    def test_neighborhood_counts(self):
        pool = SamplePool(1)
        pool.add([0.50], 0)
        pool.add([0.52], 0)
        pool.add([0.90], 1)
        predictor = BaselinePredictor(pool, radius=0.05)
        counts = predictor.neighborhood_counts([0.51])
        assert counts.tolist() == [2.0, 0.0]

    def test_mixed_boundary_suppressed_at_high_gamma(self):
        """Points straddling the boundary are answered at low gamma and
        suppressed at high gamma (the precision/recall dial)."""
        pool = SamplePool(1)
        for v in np.linspace(0.40, 0.49, 10):
            pool.add([v], 0)
        for v in np.linspace(0.51, 0.60, 10):
            pool.add([v], 1)
        lenient = BaselinePredictor(pool, radius=0.15, confidence_threshold=0.0)
        strict = BaselinePredictor(pool, radius=0.15, confidence_threshold=0.9)
        # 0.56 sees 10 points of plan 1 and 9 of plan 0: a slim majority
        # that only the lenient threshold accepts.
        assert lenient.predict([0.56]) is not None
        assert strict.predict([0.56]) is None


class TestOneRendering:
    """Scalar ``predict`` is a batch of one, and a point's row of any
    batch holds the same bits: each plan's cost sum runs left to right
    over the plan's samples in pool order."""

    @staticmethod
    def _pool():
        rng = np.random.default_rng(7)
        coords = rng.uniform(size=(900, 2))
        # Four quadrant plans, a tenth of the labels scattered.
        plan_ids = (coords[:, 0] > 0.5) + 2 * (coords[:, 1] > 0.5)
        scattered = rng.uniform(size=900) < 0.1
        plan_ids[scattered] = rng.integers(0, 4, size=scattered.sum())
        costs = rng.uniform(1.0, 1000.0, size=900)
        return SamplePool.from_arrays(coords, plan_ids, costs)

    def test_rows_do_not_depend_on_the_batch(self):
        pool = self._pool()
        predictor = BaselinePredictor(pool, radius=0.12, confidence_threshold=0.5)
        probes = np.random.default_rng(8).uniform(size=(300, 2))
        full = predictor.predict_batch(probes)
        assert sum(p is not None for p in full) > 100
        for chunk in (1, 2, 7, 100):
            assert predictor.predict_batch(probes, chunk_size=chunk) == full
        assert [predictor.predict(x) for x in probes] == full

    def test_cost_is_the_left_to_right_mean(self):
        pool = self._pool()
        predictor = BaselinePredictor(pool, radius=0.12, confidence_threshold=0.5)
        probes = np.random.default_rng(9).uniform(size=(100, 2))
        for x, prediction in zip(probes, predictor.predict_batch(probes)):
            if prediction is None:
                continue
            distances = np.linalg.norm(pool.coords - x, axis=1)
            total, count = 0.0, 0
            for k in range(len(pool)):
                if pool.plan_ids[k] == prediction.plan_id and distances[k] <= 0.12:
                    total += float(pool.costs[k])
                    count += 1
            assert prediction.estimated_cost == total / count


class TestValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(PredictionError):
            BaselinePredictor(SamplePool(2))

    def test_bad_radius_rejected(self):
        with pytest.raises(PredictionError):
            BaselinePredictor(_pool_two_clusters(), radius=0.0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(PredictionError):
            BaselinePredictor(_pool_two_clusters(), confidence_threshold=1.5)

    def test_wrong_dimension_rejected(self):
        predictor = BaselinePredictor(_pool_two_clusters())
        with pytest.raises(ValueError):
            predictor.predict([0.5])


class TestSpaceAccounting:
    def test_bytes_scale_with_pool(self):
        pool = _pool_two_clusters()
        predictor = BaselinePredictor(pool)
        assert predictor.space_bytes() == len(pool) * (4 * 2 + 8)


class TestAgainstOracle:
    def test_high_precision_on_q1(self, q1_space, q1_pool, q1_test):
        predictor = BaselinePredictor(
            q1_pool, radius=0.05, confidence_threshold=0.7
        )
        test, truth = q1_test
        correct = answered = 0
        for i in range(test.shape[0]):
            prediction = predictor.predict(test[i])
            if prediction is None:
                continue
            answered += 1
            correct += prediction.plan_id == truth[i]
        assert answered > test.shape[0] * 0.5
        assert correct / answered > 0.95
