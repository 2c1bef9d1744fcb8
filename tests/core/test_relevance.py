"""Parameter relevance analysis and axis weighting."""

import numpy as np
import pytest

from repro.core.histogram_predictor import HistogramPredictor
from repro.core.point import SamplePool
from repro.core.relevance import (
    ParameterRelevanceAnalyzer,
    apply_axis_weights,
)
from repro.exceptions import ConfigurationError
from repro.metrics import evaluate_predictions


def _labeled_samples(n=800, dims=4, relevant=(0, 1), seed=0):
    """Labels depend only on the `relevant` axes (quadrant id)."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, (n, dims))
    labels = np.zeros(n, dtype=np.int64)
    for rank, axis in enumerate(relevant):
        labels += (coords[:, axis] > 0.5).astype(np.int64) << rank
    return coords, labels


class TestAnalyzer:
    def test_relevant_axes_identified(self):
        coords, labels = _labeled_samples()
        analyzer = ParameterRelevanceAnalyzer(coords, labels)
        assert set(analyzer.relevant_axes()) == {0, 1}

    def test_flip_rates_separate_relevant_from_noise(self):
        coords, labels = _labeled_samples()
        rates = ParameterRelevanceAnalyzer(coords, labels).axis_flip_rates()
        assert min(rates[0], rates[1]) > max(rates[2], rates[3])

    def test_weights_bounded_and_ordered(self):
        coords, labels = _labeled_samples()
        weights = ParameterRelevanceAnalyzer(coords, labels).axis_weights()
        assert (weights >= 0.05).all() and (weights <= 1.0).all()
        # Relevant axes get clearly higher weight than noise axes.
        assert min(weights[0], weights[1]) > max(weights[2], weights[3])

    def test_suggested_output_dims(self):
        coords, labels = _labeled_samples(relevant=(0, 1, 2))
        analyzer = ParameterRelevanceAnalyzer(coords, labels)
        # An ``s`` for dimensionality reduction: the axes that drive
        # plan choice.
        assert len(analyzer.relevant_axes()) == 3

    def test_single_relevant_axis(self):
        coords, labels = _labeled_samples(relevant=(2,))
        analyzer = ParameterRelevanceAnalyzer(coords, labels)
        assert analyzer.relevant_axes() == [2]

    def test_accepts_sample_pool(self):
        coords, labels = _labeled_samples(n=100)
        pool = SamplePool.from_arrays(coords, labels)
        analyzer = ParameterRelevanceAnalyzer(pool)
        assert analyzer.axis_flip_rates().shape == (4,)

    def test_chunked_matches_unchunked(self):
        coords, labels = _labeled_samples(n=300)
        small = ParameterRelevanceAnalyzer(coords, labels, chunk_size=64)
        large = ParameterRelevanceAnalyzer(coords, labels, chunk_size=4096)
        assert small.axis_flip_rates() == pytest.approx(
            large.axis_flip_rates()
        )

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterRelevanceAnalyzer(np.zeros((1, 2)), np.zeros(1))


class TestApplyAxisWeights:
    def test_identity_with_none(self):
        points = np.random.default_rng(0).uniform(0, 1, (5, 3))
        assert apply_axis_weights(points, None) is points

    def test_full_weight_is_identity(self):
        points = np.random.default_rng(0).uniform(0, 1, (5, 3))
        assert apply_axis_weights(points, np.ones(3)) == pytest.approx(points)

    def test_zero_weight_collapses_to_center(self):
        points = np.array([[0.0, 1.0], [1.0, 0.0]])
        squeezed = apply_axis_weights(points, np.array([0.0, 1.0]))
        assert squeezed[:, 0] == pytest.approx([0.5, 0.5])
        assert squeezed[:, 1] == pytest.approx(points[:, 1])

    def test_output_stays_in_unit_cube(self):
        points = np.random.default_rng(1).uniform(0, 1, (100, 4))
        weights = np.array([1.0, 0.5, 0.1, 0.0])
        out = apply_axis_weights(points, weights)
        assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_invalid_weights_rejected(self):
        points = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            apply_axis_weights(points, np.array([0.5]))
        with pytest.raises(ConfigurationError):
            apply_axis_weights(points, np.array([0.5, 1.5]))


class TestWeightedPrediction:
    def test_weights_recover_recall_on_polluted_space(self):
        """With two relevant + two irrelevant axes, compressing the
        noise axes lets the grid cells aggregate usefully."""
        coords, labels = _labeled_samples(n=1500, dims=4, seed=3)
        pool = SamplePool.from_arrays(coords, labels)
        test_coords, test_labels = _labeled_samples(n=400, dims=4, seed=5)

        weights = ParameterRelevanceAnalyzer(pool).axis_weights()
        plain = HistogramPredictor(
            pool, transforms=5, radius=0.2, confidence_threshold=0.7, seed=1
        )
        weighted = HistogramPredictor(
            pool, transforms=5, radius=0.2, confidence_threshold=0.7,
            axis_weights=weights, seed=1,
        )

        def score(predictor):
            ids = [
                None if p is None else p.plan_id
                for p in predictor.predict_batch(test_coords)
            ]
            return evaluate_predictions(ids, test_labels)

        plain_metrics = score(plain)
        weighted_metrics = score(weighted)
        assert weighted_metrics.recall > plain_metrics.recall
        assert weighted_metrics.precision > plain_metrics.precision - 0.05
