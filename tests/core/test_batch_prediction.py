"""Vectorized prediction paths match their scalar counterparts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import ConfidenceModel, FrequencyConfidenceModel
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.lsh_predictor import LshPredictor
from repro.core.point import SamplePool
from repro.exceptions import ConfigurationError, PredictionError
from repro.obs.tracing import DecisionTrace
from repro.workload import sample_points


def _pool():
    pool = SamplePool(2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 0.45, size=(120, 2)):
        pool.add(x, 0, cost=5.0)
    for x in rng.uniform(0.55, 1.0, size=(120, 2)):
        pool.add(x, 1, cost=9.0)
    return pool


class TestDecideBatch:
    def test_matches_scalar(self):
        model = ConfidenceModel()
        rng = np.random.default_rng(1)
        counts = np.zeros((2100, 4))
        counts[:100] = rng.integers(0, 20, size=(100, 4))
        # Pure neighbourhoods with small fractional counts: Python's
        # ``**`` rounds a few percent of these 1 ulp away from numpy's
        # array power.
        counts[100:, 2] = rng.uniform(0.01, 1.0, size=2000)
        winners, confidences = model.decide_batch(counts, 0.7)
        for i in range(counts.shape[0]):
            plan, confidence = model.decide(counts[i], 0.7)
            expected = -1 if plan is None else plan
            assert winners[i] == expected
            assert confidences[i] == confidence

    def test_all_zero_rows_are_null(self):
        model = ConfidenceModel()
        winners, confidences = model.decide_batch(np.zeros((3, 4)), 0.0)
        assert (winners == -1).all()
        assert (confidences == 0.0).all()

    def test_rejects_non_matrix(self):
        with pytest.raises(ConfigurationError):
            ConfidenceModel().decide_batch(np.zeros(4), 0.5)


class TestHistogramPredictBatch:
    @pytest.mark.parametrize("kind", ["maxdiff", "incremental"])
    def test_matches_scalar(self, kind):
        predictor = HistogramPredictor(
            _pool(),
            transforms=5,
            radius=0.1,
            confidence_threshold=0.7,
            noise_fraction=0.002,
            histogram_kind=kind,
            seed=1,
        )
        test = sample_points(2, 200, seed=3)
        scalar = [predictor.predict(test[i]) for i in range(200)]
        batch = predictor.predict_batch(test)
        for s, b in zip(scalar, batch, strict=True):
            assert (s is None) == (b is None)
            if s is not None:
                assert s.plan_id == b.plan_id
                assert s.confidence == b.confidence
                if s.estimated_cost is None:
                    assert b.estimated_cost is None
                else:
                    assert s.estimated_cost == b.estimated_cost

    def test_single_point_input(self):
        predictor = HistogramPredictor(
            _pool(), radius=0.1, confidence_threshold=0.5, seed=1
        )
        batch = predictor.predict_batch(np.array([0.2, 0.2]))
        assert len(batch) == 1
        assert batch[0].plan_id == 0

    def test_batch_faster_than_scalar(self):
        import time

        predictor = HistogramPredictor(
            _pool(), transforms=5, radius=0.1, seed=1
        )
        test = sample_points(2, 300, seed=4)
        start = time.perf_counter()
        for i in range(300):
            predictor.predict(test[i])
        scalar_time = time.perf_counter() - start
        start = time.perf_counter()
        predictor.predict_batch(test)
        batch_time = time.perf_counter() - start
        assert batch_time < scalar_time


def _assert_parity(predictor, points):
    """predict_batch must agree with per-point predict exactly."""
    scalar = [predictor.predict(points[i]) for i in range(points.shape[0])]
    batch = predictor.predict_batch(points)
    assert len(batch) == len(scalar)
    for s, b in zip(scalar, batch, strict=True):
        assert (s is None) == (b is None)
        if s is None:
            continue
        assert s.plan_id == b.plan_id
        assert s.confidence == b.confidence
        if s.estimated_cost is None:
            assert b.estimated_cost is None
        else:
            assert s.estimated_cost == b.estimated_cost
    return scalar, batch


class TestScalarBatchParity:
    """predict vs predict_batch on unstructured random pools."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["maxdiff", "incremental"])
    def test_random_pools(self, seed, kind):
        rng = np.random.default_rng(seed)
        pool = SamplePool(2)
        coords = rng.uniform(size=(150, 2))
        plan_ids = rng.integers(0, 3, size=150)
        costs = rng.uniform(1.0, 10.0, size=150)
        for x, plan, cost in zip(coords, plan_ids, costs, strict=True):
            pool.add(x, int(plan), cost=float(cost))
        predictor = HistogramPredictor(
            pool,
            transforms=3,
            radius=0.08,
            confidence_threshold=0.4,
            noise_fraction=0.01,
            histogram_kind=kind,
            seed=seed + 10,
        )
        test = sample_points(2, 120, seed=seed + 20)
        _assert_parity(predictor, test)

    def test_noise_elimination_parity_includes_nulls(self):
        predictor = HistogramPredictor(
            _pool(),
            transforms=5,
            radius=0.1,
            confidence_threshold=0.0,
            noise_fraction=0.05,
            seed=1,
        )
        test = sample_points(2, 200, seed=5)
        __, batch = _assert_parity(predictor, test)
        # The parity check must actually exercise both branches.
        assert any(b is None for b in batch)
        assert any(b is not None for b in batch)

    def test_unsupported_winner_yields_cost_none_in_both(self):
        class ForcedWinner(ConfidenceModel):
            """Forces a plan no training point supports."""

            def decide(self, counts, threshold):
                return 2, 1.0

            def decide_batch(self, counts, threshold):
                m = counts.shape[0]
                return np.full(m, 2, dtype=int), np.ones(m)

        predictor = HistogramPredictor(
            _pool(),
            plan_count=3,
            transforms=5,
            radius=0.1,
            confidence_threshold=0.0,
            noise_fraction=None,
            seed=1,
            confidence_model=ForcedWinner(),
        )
        test = sample_points(2, 50, seed=9)
        __, batch = _assert_parity(predictor, test)
        # Plan 2 has zero support everywhere: a prediction is still
        # produced, but with no cost estimate — in both code paths.
        assert all(b is not None for b in batch)
        assert all(b.estimated_cost is None for b in batch)


class TestBaselinePredictBatch:
    def test_matches_scalar(self):
        from repro.core.baseline import BaselinePredictor

        predictor = BaselinePredictor(
            _pool(), radius=0.15, confidence_threshold=0.7
        )
        test = sample_points(2, 300, seed=6)
        scalar = [
            BaselinePredictor.predict(predictor, test[i]) for i in range(300)
        ]
        batch = predictor.predict_batch(test, chunk_size=64)
        for s, b in zip(scalar, batch, strict=True):
            assert (s is None) == (b is None)
            if s is not None:
                assert s.plan_id == b.plan_id
                assert s.confidence == b.confidence
                if s.estimated_cost is None:
                    assert b.estimated_cost is None
                else:
                    assert s.estimated_cost == b.estimated_cost

    def test_chunking_irrelevant_to_results(self):
        from repro.core.baseline import BaselinePredictor

        predictor = BaselinePredictor(_pool(), radius=0.15)
        test = sample_points(2, 100, seed=7)
        small = predictor.predict_batch(test, chunk_size=7)
        large = predictor.predict_batch(test, chunk_size=1000)
        for a, b in zip(small, large, strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.plan_id == b.plan_id


class TestLshScalarBatchParity:
    """LSH predict vs predict_batch, bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("aggregation", ["median", "mean"])
    def test_random_pools(self, seed, aggregation):
        rng = np.random.default_rng(seed)
        pool = SamplePool(2)
        coords = rng.uniform(size=(150, 2))
        plan_ids = rng.integers(0, 3, size=150)
        costs = rng.uniform(1.0, 10.0, size=150)
        for x, plan, cost in zip(coords, plan_ids, costs, strict=True):
            pool.add(x, int(plan), cost=float(cost))
        predictor = LshPredictor(
            pool,
            transforms=5,
            resolution=8,
            confidence_threshold=0.4,
            aggregation=aggregation,
            seed=seed + 10,
        )
        test = sample_points(2, 120, seed=seed + 20)
        scalar = [predictor.predict(test[i]) for i in range(120)]
        batch = predictor.predict_batch(test)
        for s, b in zip(scalar, batch, strict=True):
            # Bit-for-bit, not approximate: the two paths must share
            # one numeric core.
            assert s == b

    def test_structured_pool_exercises_both_branches(self):
        predictor = LshPredictor(
            _pool(), transforms=5, confidence_threshold=0.7, seed=1
        )
        test = sample_points(2, 200, seed=3)
        batch = predictor.predict_batch(test)
        scalar = [predictor.predict(test[i]) for i in range(200)]
        assert batch == scalar
        assert any(b is None for b in batch)
        assert any(b is not None for b in batch)

    def test_unsupported_winner_yields_cost_none_in_both(self):
        class ForcedWinner(ConfidenceModel):
            def decide(self, counts, threshold):
                return 2, 1.0

            def decide_batch(self, counts, threshold):
                m = counts.shape[0]
                return np.full(m, 2, dtype=int), np.ones(m)

        predictor = LshPredictor(
            _pool(),
            plan_count=3,
            transforms=5,
            confidence_threshold=0.0,
            seed=1,
            confidence_model=ForcedWinner(),
        )
        test = sample_points(2, 50, seed=9)
        batch = predictor.predict_batch(test)
        scalar = [predictor.predict(test[i]) for i in range(50)]
        assert batch == scalar
        assert all(b is not None for b in batch)
        assert all(b.estimated_cost is None for b in batch)


def _histogram(seed=1, **overrides):
    kwargs = dict(
        transforms=5, radius=0.1, confidence_threshold=0.7, seed=seed
    )
    kwargs.update(overrides)
    return HistogramPredictor(_pool(), **kwargs)


def _lsh(seed=1, **overrides):
    kwargs = dict(transforms=5, confidence_threshold=0.7, seed=seed)
    kwargs.update(overrides)
    return LshPredictor(_pool(), **kwargs)


class TestBatchInputContract:
    """The shared batch contract: validation happens up front, whole
    batch, before any per-point work."""

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    def test_nan_row_raises_prediction_error(self, build):
        predictor = build()
        points = sample_points(2, 10, seed=0)
        points[7, 1] = np.nan
        with pytest.raises(PredictionError):
            predictor.predict_batch(points)

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_row_raises_prediction_error(self, build, bad):
        predictor = build()
        points = sample_points(2, 10, seed=0)
        points[0, 0] = bad
        with pytest.raises(PredictionError):
            predictor.predict_batch(points)

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (1, 2)])
    def test_one_row_non_finite_raises_the_batch_error(self, build, bad, shape):
        # One row takes the check in floats; the error is the batch's.
        point = np.full(shape, 0.5)
        point.flat[1] = bad
        with pytest.raises(PredictionError, match="batch contains NaN"):
            build().predict_batch(point)

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    def test_scalar_predict_rejects_non_finite(self, build):
        predictor = build()
        with pytest.raises(PredictionError):
            predictor.predict(np.array([0.5, np.nan]))

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    def test_empty_matrix_returns_empty_list(self, build):
        assert build().predict_batch(np.empty((0, 2))) == []

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    def test_empty_vector_is_a_shape_error(self, build):
        # (0,) must NOT be promoted to a (1, 0) batch.
        with pytest.raises(ValueError, match="shape"):
            build().predict_batch(np.empty(0))

    @pytest.mark.parametrize("build", [_histogram, _lsh])
    def test_wrong_width_is_a_shape_error(self, build):
        with pytest.raises(ValueError):
            build().predict_batch(np.zeros((4, 3)))

    def test_baseline_shares_the_contract(self):
        from repro.core.baseline import BaselinePredictor

        predictor = BaselinePredictor(_pool(), radius=0.15)
        assert predictor.predict_batch(np.empty((0, 2))) == []
        with pytest.raises(ValueError, match="shape"):
            predictor.predict_batch(np.empty(0))
        bad = sample_points(2, 5, seed=0)
        bad[2, 0] = np.inf
        with pytest.raises(PredictionError):
            predictor.predict_batch(bad)


def _point_mass_predictor(n_points, noise_fraction, seed=1):
    """A predictor whose whole mass sits on one plan at one point, so
    the aggregated count at that point equals ``n_points`` exactly."""
    pool = SamplePool(2)
    for __ in range(n_points):
        pool.add(np.array([0.5, 0.5]), 0, cost=3.0)
    return HistogramPredictor(
        pool,
        plan_count=2,
        transforms=3,
        radius=0.1,
        confidence_threshold=0.0,
        noise_fraction=noise_fraction,
        histogram_kind="incremental",
        seed=seed,
    )


class TestNoiseEliminationBoundary:
    """The elimination comparison is strict ``<``: support exactly at
    ``noise_fraction * total_mass`` survives, in both code paths."""

    def test_exactly_at_threshold_is_not_eliminated(self):
        # 10 identical points, noise_fraction 1.0: max count == total
        # mass exactly, so max_count < fraction * mass is False.
        predictor = _point_mass_predictor(10, noise_fraction=1.0)
        x = np.array([0.5, 0.5])
        scalar = predictor.predict(x)
        batch = predictor.predict_batch(x[None, :])
        assert scalar is not None
        assert batch == [scalar]

    def test_just_above_threshold_is_eliminated(self):
        # Same mass, but the threshold now exceeds any attainable
        # count by a hair: everything is noise.
        predictor = _point_mass_predictor(
            10, noise_fraction=np.nextafter(1.0, 2.0)
        )
        x = np.array([0.5, 0.5])
        assert predictor.predict(x) is None
        assert predictor.predict_batch(x[None, :]) == [None]

    @pytest.mark.parametrize(
        "noise_fraction", [0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.5]
    )
    def test_boundary_sweep_parity(self, noise_fraction):
        predictor = _point_mass_predictor(8, noise_fraction)
        test = sample_points(2, 40, seed=11)
        test[0] = [0.5, 0.5]
        _assert_parity(predictor, test)


class TestColdPredictors:
    """total_mass == 0 / empty synopses answer null, both paths."""

    def test_cold_histogram_predictor(self):
        predictor = HistogramPredictor(
            SamplePool(2),
            plan_count=2,
            transforms=3,
            radius=0.1,
            noise_fraction=0.002,
            histogram_kind="incremental",
            seed=1,
        )
        assert predictor.total_mass == 0.0
        test = sample_points(2, 20, seed=0)
        assert predictor.predict_batch(test) == [None] * 20
        _assert_parity(predictor, test)

    def test_cold_lsh_predictor(self):
        predictor = LshPredictor(
            SamplePool(2), plan_count=2, transforms=3, seed=1
        )
        test = sample_points(2, 20, seed=0)
        assert predictor.predict_batch(test) == [None] * 20
        assert [predictor.predict(x) for x in test] == [None] * 20


class TestDecideBatchSaturation:
    """Scalar confidence saturates to exactly 1.0 at huge ratios; the
    interpolated batch path must not clamp a hair below it."""

    def test_saturated_ratio_is_exactly_one(self):
        model = ConfidenceModel()
        counts = np.array([[1e7, 1.0]])
        winners, confidences = model.decide_batch(counts, 0.9)
        plan, confidence = model.decide(counts[0], 0.9)
        assert winners[0] == plan
        assert confidence == 1.0
        assert confidences[0] == 1.0

    def test_frequency_model_batch_matches_scalar(self):
        model = FrequencyConfidenceModel()
        rng = np.random.default_rng(2)
        counts = np.zeros((2200, 4))
        counts[:200] = rng.integers(0, 15, size=(200, 4))
        counts[0] = 0.0  # all-zero row
        counts[1] = [5.0, 0.0, 0.0, 0.0]  # pure neighborhood
        # Pure neighbourhoods with small fractional counts.
        counts[200:, 1] = rng.uniform(0.01, 1.0, size=2000)
        winners, confidences = model.decide_batch(counts, 0.6)
        for i in range(counts.shape[0]):
            plan, confidence = model.decide(counts[i], 0.6)
            expected = -1 if plan is None else plan
            assert winners[i] == expected
            assert confidences[i] == confidence


class TestParityProperties:
    """Hypothesis sweep: parity holds for arbitrary pools/configs."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        noise_fraction=st.one_of(
            st.none(), st.floats(0.0, 1.2, allow_nan=False)
        ),
        threshold=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_histogram_parity(self, seed, noise_fraction, threshold):
        rng = np.random.default_rng(seed)
        pool = SamplePool(2)
        n = int(rng.integers(1, 60))
        coords = rng.uniform(size=(n, 2))
        plan_ids = rng.integers(0, 3, size=n)
        for x, plan in zip(coords, plan_ids, strict=True):
            pool.add(x, int(plan), cost=float(rng.uniform(1.0, 9.0)))
        predictor = HistogramPredictor(
            pool,
            plan_count=3,
            transforms=3,
            radius=0.1,
            confidence_threshold=threshold,
            noise_fraction=noise_fraction,
            histogram_kind="incremental",
            seed=int(rng.integers(0, 1000)),
        )
        test = rng.uniform(size=(30, 2))
        scalar = [predictor.predict(test[i]) for i in range(30)]
        assert predictor.predict_batch(test) == scalar

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        threshold=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_lsh_parity(self, seed, threshold):
        rng = np.random.default_rng(seed)
        pool = SamplePool(2)
        n = int(rng.integers(1, 60))
        for __ in range(n):
            pool.add(
                rng.uniform(size=2),
                int(rng.integers(0, 3)),
                cost=float(rng.uniform(1.0, 9.0)),
            )
        predictor = LshPredictor(
            pool,
            plan_count=3,
            transforms=3,
            confidence_threshold=threshold,
            seed=int(rng.integers(0, 1000)),
        )
        test = rng.uniform(size=(30, 2))
        scalar = [predictor.predict(test[i]) for i in range(30)]
        assert predictor.predict_batch(test) == scalar


def _dense_pool(plans=12, seed=3):
    """Every neighbourhood holds every plan, so the per-plan counts are
    dense fractions whose row sum depends on summation order."""
    rng = np.random.default_rng(seed)
    pool = SamplePool(2)
    for x in rng.uniform(size=(1500, 2)):
        plan = 0 if rng.random() < 0.55 else int(rng.integers(1, plans))
        pool.add(x, plan, cost=float(rng.uniform(1.0, 10.0)))
    return pool


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


class TestOneRowBranches:
    """The one-row branches of ``decide_batch`` and ``median_supported``
    and the one-query packed lookup (scalar ``predict``) give each row
    exactly the bits a multi-row call gives it."""

    @pytest.mark.parametrize("model", [ConfidenceModel, FrequencyConfidenceModel])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_decide_batch(self, model, layout):
        rng = np.random.default_rng(4)
        counts = rng.uniform(0.0, 9.0, size=(400, 12))
        counts[:, 0] += rng.uniform(0.0, 200.0, size=400)  # mixed, passing
        counts[100:200, 1:] = 0.0  # pure, fractional
        counts[100:200, 0] = rng.uniform(0.01, 3.0, size=100)
        counts[200] = 0.0  # empty
        counts[201] = 1.0  # tie
        counts[202] = [1e7] + [1.0] * 11  # beyond the ratio table
        if layout == "F":  # predict_batch hands over a transpose
            counts = np.asfortranarray(counts)
        decide = model().decide_batch
        winners, confidences = decide(counts, 0.6)
        for i in range(counts.shape[0]):
            one_winner, one_confidence = decide(counts[i:i + 1], 0.6)
            assert one_winner.tolist() == [winners[i]]
            assert _bits(one_confidence) == _bits(confidences[i])

    @pytest.mark.parametrize("t", [1, 2, 5, 6])
    def test_median_supported(self, t):
        from repro.core.predictor import median_supported

        rng = np.random.default_rng(t)
        values = rng.uniform(1.0, 10.0, size=(t, 300))
        supported = rng.random((t, 300)) < 0.6
        supported[:, :5] = False  # no transform holds the winner
        medians, any_support = median_supported(values, supported)
        for j in range(300):
            one_median, one_support = median_supported(
                values[:, j:j + 1], supported[:, j:j + 1]
            )
            assert one_support.tolist() == [any_support[j]]
            assert _bits(one_median) == _bits(medians[j])
        assert not any_support[:5].any()

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("aggregation", ["median", "mean"])
    @pytest.mark.parametrize("model", [ConfidenceModel, FrequencyConfidenceModel])
    @pytest.mark.parametrize("noise_fraction", [None, 0.02])
    @pytest.mark.parametrize("kind", ["maxdiff", "incremental"])
    def test_histogram_predict(
        self, aggregation, model, noise_fraction, kind, traced
    ):
        predictor = HistogramPredictor(
            _dense_pool(),
            transforms=6,
            radius=0.3,
            max_buckets=7,
            confidence_threshold=0.1,
            noise_fraction=noise_fraction,
            histogram_kind=kind,
            aggregation=aggregation,
            confidence_model=model(),
            seed=1,
        )
        test = sample_points(2, 150, seed=8)
        scalar = [
            predictor.predict(
                test[i], DecisionTrace("T", i, "forced") if traced else None
            )
            for i in range(150)
        ]
        assert scalar == predictor.predict_batch(test)
        assert any(s is not None for s in scalar)

    def test_unsupported_winner_yields_cost_none_in_both(self):
        class ForcedWinner(ConfidenceModel):
            def decide_batch(self, counts, threshold):
                m = counts.shape[0]
                return np.full(m, 2, dtype=int), np.ones(m)

        predictor = HistogramPredictor(
            _pool(),
            plan_count=3,
            transforms=5,
            radius=0.1,
            confidence_threshold=0.0,
            confidence_model=ForcedWinner(),
            seed=1,
        )
        test = sample_points(2, 40, seed=9)
        batch = predictor.predict_batch(test)
        assert batch == [predictor.predict(test[i]) for i in range(40)]
        assert all(b is not None and b.estimated_cost is None for b in batch)
