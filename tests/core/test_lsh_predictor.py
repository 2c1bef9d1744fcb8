"""APPROXIMATE-LSH: median density over randomized grids."""

import numpy as np
import pytest

from repro.core.histogram_predictor import HistogramPredictor
from repro.core.lsh_predictor import LshPredictor
from repro.core.point import SamplePool
from repro.exceptions import ConfigurationError, PredictionError


def _pool():
    pool = SamplePool(2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 0.45, size=(80, 2)):
        pool.add(x, 0, cost=5.0)
    for x in rng.uniform(0.55, 1.0, size=(80, 2)):
        pool.add(x, 1, cost=9.0)
    return pool


def median_counts(predictor, x):
    """Per-plan bucket count aggregated across the transforms for one
    point, through the predictor's own lookup primitives."""
    cells = predictor._cell_ids_batch(np.asarray(x, dtype=float)[None, :])
    return predictor._aggregate(predictor._cell_estimates(cells))[:, 0]


class TestPrediction:
    def test_cluster_interiors(self):
        predictor = LshPredictor(_pool(), transforms=5, resolution=8, seed=1)
        assert predictor.predict([0.2, 0.2]).plan_id == 0
        assert predictor.predict([0.85, 0.85]).plan_id == 1

    def test_median_robust_to_one_bad_grid(self):
        """With t = 5 grids, corrupting the counts of two grids cannot
        change the median."""
        predictor = LshPredictor(_pool(), transforms=5, resolution=8, seed=1)
        x = np.array([0.2, 0.2])
        before = median_counts(predictor, x)
        # Corrupt two grids by zeroing all their counts.
        predictor._counts[0][:] = 0.0
        predictor._counts[1][:] = 0.0
        after = median_counts(predictor, x)
        assert after[0] <= before[0]
        assert after.argmax() == before.argmax()

    def test_pool_cell_predicts_its_plan_and_cost(self):
        pool = SamplePool(2)
        for __ in range(6):
            pool.add(np.array([0.3, 0.3]), 1, cost=4.0)
        predictor = LshPredictor(
            pool, plan_count=2, transforms=3, resolution=8,
            confidence_threshold=0.5, seed=1,
        )
        prediction = predictor.predict([0.3, 0.3])
        assert prediction.plan_id == 1
        assert prediction.estimated_cost == pytest.approx(4.0)

    def test_empty_pool_needs_plan_count(self):
        with pytest.raises(PredictionError):
            LshPredictor(SamplePool(2))

    def test_deterministic_under_seed(self):
        pool = _pool()
        a = LshPredictor(pool, transforms=3, resolution=8, seed=9)
        b = LshPredictor(pool, transforms=3, resolution=8, seed=9)
        x = np.array([0.7, 0.6])
        assert np.allclose(median_counts(a, x), median_counts(b, x))


class TestSettings:
    @pytest.mark.parametrize("cls", [LshPredictor, HistogramPredictor])
    def test_unknown_aggregation_is_a_configuration_error(self, cls):
        """Both rungs of the ladder refuse the same bad setting with
        the same error, before any synopsis is built."""
        with pytest.raises(ConfigurationError, match="unknown aggregation"):
            cls(_pool(), aggregation="mode")

    @pytest.mark.parametrize(
        ("cls", "name"),
        [
            (LshPredictor, "APPROXIMATE-LSH"),
            (HistogramPredictor, "APPROXIMATE-LSH-HISTOGRAMS"),
        ],
    )
    def test_empty_pool_names_the_algorithm(self, cls, name):
        with pytest.raises(PredictionError, match=f"^{name} needs samples"):
            cls(SamplePool(2))


class TestSpace:
    def test_space_formula(self):
        predictor = LshPredictor(
            _pool(), plan_count=3, transforms=4, resolution=8, seed=1
        )
        assert predictor.space_bytes() == 4 * 3 * 64 * 8

    def test_dimensionality_reduction(self):
        pool = SamplePool(4)
        rng = np.random.default_rng(2)
        for x in rng.uniform(0, 1, size=(50, 4)):
            pool.add(x, 0)
        predictor = LshPredictor(
            pool, transforms=3, resolution=8, output_dims=2, seed=1
        )
        # Grids are 2-D: 64 cells each instead of 4096.
        assert predictor.grids[0].total_cells == 64
        assert predictor.predict([0.5, 0.5, 0.5, 0.5]) is not None
