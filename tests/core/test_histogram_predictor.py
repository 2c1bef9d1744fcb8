"""APPROXIMATE-LSH-HISTOGRAMS: z-order synopses in histograms."""

import numpy as np
import pytest

from repro.core.histogram_predictor import HistogramPredictor, ball_volume
from repro.core.point import SamplePool
from repro.exceptions import ConfigurationError, PredictionError
from tests.core.legacy import (
    assert_predictions_match,
    legacy_cell_densities,
    legacy_predict_batch,
    legacy_range_estimates,
)


def _pool():
    pool = SamplePool(2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 0.45, size=(100, 2)):
        pool.add(x, 0, cost=5.0)
    for x in rng.uniform(0.55, 1.0, size=(100, 2)):
        pool.add(x, 1, cost=9.0)
    return pool


class TestBallVolume:
    def test_unit_circle(self):
        assert ball_volume(1.0, 2) == pytest.approx(np.pi)

    def test_interval(self):
        assert ball_volume(0.5, 1) == pytest.approx(1.0)


class TestStaticFit:
    @pytest.mark.parametrize("kind", ["maxdiff", "equidepth", "equiwidth"])
    def test_cluster_interiors(self, kind):
        predictor = HistogramPredictor(
            _pool(), transforms=5, radius=0.1, histogram_kind=kind, seed=1
        )
        assert predictor.predict([0.2, 0.2]).plan_id == 0
        assert predictor.predict([0.8, 0.8]).plan_id == 1

    def test_static_fit_rejects_insert(self):
        predictor = HistogramPredictor(_pool(), histogram_kind="maxdiff", seed=1)
        with pytest.raises(PredictionError):
            predictor.insert(np.array([0.5, 0.5]), 0)

    def test_bucket_budget_respected(self):
        predictor = HistogramPredictor(
            _pool(), max_buckets=10, histogram_kind="maxdiff", seed=1
        )
        for row in predictor._histograms:
            for histogram in row:
                assert histogram.bucket_count <= 10

    def test_space_bounded_by_formula(self):
        predictor = HistogramPredictor(
            _pool(), transforms=5, max_buckets=40, seed=1
        )
        assert predictor.space_bytes() <= 5 * 2 * 40 * 12

    def test_estimated_cost_near_cluster_cost(self):
        predictor = HistogramPredictor(_pool(), radius=0.1, seed=1)
        prediction = predictor.predict(np.array([0.2, 0.2]))
        assert prediction.plan_id == 0
        assert prediction.estimated_cost == pytest.approx(5.0, rel=0.01)


class TestIncrementalMode:
    def test_learns_from_insertions(self):
        predictor = HistogramPredictor(
            SamplePool(2),
            plan_count=2,
            histogram_kind="incremental",
            confidence_threshold=0.5,
            seed=1,
        )
        assert predictor.predict([0.3, 0.3]) is None
        for __ in range(8):
            predictor.insert(np.array([0.3, 0.3]), 1, cost=4.0)
        assert predictor.predict([0.3, 0.3]).plan_id == 1
        assert predictor.total_points == 8

    def test_drop_resets_everything(self):
        predictor = HistogramPredictor(
            _pool(), histogram_kind="incremental", confidence_threshold=0.5,
            seed=1,
        )
        assert predictor.predict([0.2, 0.2]) is not None
        predictor.drop()
        assert predictor.total_points == 0
        assert predictor.predict([0.2, 0.2]) is None
        # After dropping, insertion works again.
        predictor.insert(np.array([0.2, 0.2]), 0, cost=1.0)
        assert predictor.total_points == 1


class TestAtomicInsert:
    def test_static_reject_leaves_counts_untouched(self):
        predictor = HistogramPredictor(
            _pool(), histogram_kind="maxdiff", seed=1
        )
        before = [
            [h.range_count(-1.0, 2.0) for h in row]
            for row in predictor._histograms
        ]
        with pytest.raises(PredictionError):
            predictor.insert(np.array([0.5, 0.5]), 0)
        after = [
            [h.range_count(-1.0, 2.0) for h in row]
            for row in predictor._histograms
        ]
        assert after == before
        assert predictor.total_points == 200
        assert predictor.total_mass == 200.0

    def test_mixed_insertability_mutates_nothing(self):
        """A non-insertable histogram in any transform row must abort
        the insert before earlier transforms are touched."""
        from repro.histograms import MaxDiffHistogram

        predictor = HistogramPredictor(
            SamplePool(2),
            plan_count=2,
            histogram_kind="incremental",
            seed=1,
        )
        predictor.insert(np.array([0.3, 0.3]), 0, cost=1.0)
        # Sabotage the LAST transform's plan-0 histogram: the loop
        # would mutate every earlier transform before hitting it.
        static = MaxDiffHistogram.build(
            np.array([]), np.array([]), bucket_count=8
        )
        predictor._histograms[-1][0] = static
        before = [
            row[0].range_count(-1.0, 2.0)
            for row in predictor._histograms[:-1]
        ]
        with pytest.raises(PredictionError):
            predictor.insert(np.array([0.3, 0.3]), 0, cost=1.0)
        after = [
            row[0].range_count(-1.0, 2.0)
            for row in predictor._histograms[:-1]
        ]
        assert after == before
        assert predictor.total_points == 1
        assert predictor.total_mass == 1.0

    def test_nonpositive_weight_rejected_without_mutation(self):
        predictor = HistogramPredictor(
            SamplePool(2),
            plan_count=2,
            histogram_kind="incremental",
            seed=1,
        )
        for bad in (0.0, -0.5):
            with pytest.raises(PredictionError):
                predictor.insert(np.array([0.3, 0.3]), 0, weight=bad)
        assert predictor.total_points == 0
        assert predictor.total_mass == 0.0


class TestCountVersusMass:
    def test_weighted_inserts_keep_point_count_integral(self):
        predictor = HistogramPredictor(
            SamplePool(2),
            plan_count=2,
            histogram_kind="incremental",
            seed=1,
        )
        predictor.insert(np.array([0.3, 0.3]), 0, cost=1.0)
        predictor.insert(np.array([0.31, 0.31]), 0, cost=1.0)
        predictor.insert(np.array([0.32, 0.32]), 0, cost=1.0, weight=0.25)
        assert predictor.total_points == 3
        assert isinstance(predictor.total_points, int)
        assert predictor.total_mass == pytest.approx(2.25)

    def test_static_build_counts_pool_points(self):
        predictor = HistogramPredictor(_pool(), histogram_kind="maxdiff", seed=1)
        assert predictor.total_points == 200
        assert isinstance(predictor.total_points, int)
        assert predictor.total_mass == pytest.approx(200.0)

    def test_drop_resets_both(self):
        predictor = HistogramPredictor(
            _pool(), histogram_kind="incremental", seed=1
        )
        predictor.insert(np.array([0.3, 0.3]), 0, weight=0.5)
        predictor.drop()
        assert predictor.total_points == 0
        assert predictor.total_mass == 0.0


class TestNoiseElimination:
    def test_sparse_support_suppressed(self):
        pool = _pool()
        strict = HistogramPredictor(
            pool, radius=0.1, noise_fraction=0.5, seed=1,
            confidence_threshold=0.0,
        )
        lenient = HistogramPredictor(
            pool, radius=0.1, noise_fraction=None, seed=1,
            confidence_threshold=0.0,
        )
        x = [0.2, 0.2]
        # A neighborhood holding well under half of all points is
        # suppressed by the absurdly strict threshold but not without it.
        assert strict.predict(x) is None
        assert lenient.predict(x) is not None


class TestValidation:
    def test_resolution_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            HistogramPredictor(_pool(), resolution=10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            HistogramPredictor(_pool(), histogram_kind="wavelet")

    def test_empty_pool_needs_plan_count(self):
        with pytest.raises(PredictionError):
            HistogramPredictor(SamplePool(2))

    def test_bad_radius(self):
        with pytest.raises(PredictionError):
            HistogramPredictor(_pool(), radius=-1.0)

    def test_high_dimension_bits_clamped(self):
        """dims*bits must stay within the 62-bit Morton budget."""
        pool = SamplePool(6)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, size=(30, 6)):
            pool.add(x, 0)
        predictor = HistogramPredictor(pool, resolution=4096, seed=1)
        assert predictor.curve.dims * predictor.curve.bits <= 62


class TestPackedLookup:
    """The packed block against the per-histogram reference."""

    @pytest.mark.parametrize(
        "kind", ["maxdiff", "equidepth", "equiwidth", "voptimal", "incremental"]
    )
    def test_estimates_and_predictions_match_reference(self, kind):
        predictor = HistogramPredictor(
            _pool(), radius=0.1, histogram_kind=kind, seed=1,
            confidence_threshold=0.5,
        )
        probes = np.random.default_rng(4).uniform(0.0, 1.0, (300, 2))
        __, counts, avg_costs = predictor._range_estimates(probes)
        __, ref_counts, ref_costs = legacy_range_estimates(predictor, probes)
        np.testing.assert_allclose(counts, ref_counts, rtol=1e-12, atol=0)
        np.testing.assert_allclose(avg_costs, ref_costs, rtol=1e-12, atol=0)
        assert_predictions_match(
            predictor.predict_batch(probes),
            legacy_predict_batch(predictor, probes),
        )
        np.testing.assert_allclose(
            predictor.cell_densities(32),
            legacy_cell_densities(predictor, 32),
            rtol=1e-12,
            atol=0,
        )

    def test_inserts_keep_the_block_current(self):
        predictor = HistogramPredictor(
            SamplePool(2), plan_count=2, histogram_kind="incremental",
            max_buckets=6, seed=1,
        )
        rng = np.random.default_rng(5)
        probes = rng.uniform(0.0, 1.0, (50, 2))
        for x in rng.uniform(0.0, 1.0, (40, 2)):
            predictor.insert(x, int(x[0] > 0.5), cost=float(x.sum()))
            __, counts, __ = predictor._range_estimates(probes)
            __, ref_counts, __ = legacy_range_estimates(predictor, probes)
            np.testing.assert_allclose(counts, ref_counts, rtol=1e-12, atol=0)

    def test_shrink_repacks_and_bumps(self):
        predictor = HistogramPredictor(
            _pool(), histogram_kind="incremental", radius=0.1, seed=1
        )
        before = predictor.mutation_count
        predictor.shrink(5)
        assert predictor.mutation_count == before + 1
        assert predictor.max_buckets == 5
        assert all(
            h.bucket_count <= 5 for row in predictor._histograms for h in row
        )
        probes = np.random.default_rng(6).uniform(0.0, 1.0, (100, 2))
        assert_predictions_match(
            predictor.predict_batch(probes),
            legacy_predict_batch(predictor, probes),
        )


class TestAgainstOracle:
    def test_precision_on_q1(self, q1_space, q1_pool, q1_test):
        predictor = HistogramPredictor(
            q1_pool, radius=0.05, confidence_threshold=0.7, seed=1
        )
        test, truth = q1_test
        correct = answered = 0
        for i in range(test.shape[0]):
            prediction = predictor.predict(test[i])
            if prediction is None:
                continue
            answered += 1
            correct += prediction.plan_id == truth[i]
        assert answered > test.shape[0] * 0.4
        assert correct / answered > 0.95
