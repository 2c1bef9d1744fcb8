"""APPROXIMATE-LSH-HISTOGRAMS: z-order synopses in histograms."""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.core.histogram_predictor import HistogramPredictor, ball_volume
from repro.core.point import SamplePool
from repro.exceptions import (
    ConfigurationError,
    HistogramError,
    PredictionError,
)
from repro.obs import names as metric_names
from repro.tpch import plan_space_for
from repro.workload.runner import decision_digest
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
        assert (predictor._packed.bucket_counts <= 10).all()

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
        before = predictor._packed._buckets.copy()
        with pytest.raises(PredictionError):
            predictor.insert(np.array([0.5, 0.5]), 0)
        assert predictor._packed._buckets.tobytes() == before.tobytes()
        assert predictor.total_points == 200
        assert predictor.total_mass == 200.0

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


class TestBlockKeepsItsBooks:
    """The packed block books its own writes: a write that reaches past
    the predictor straight to ``predictor._packed`` still bumps
    ``mutation_count`` and journals exactly one event, and the block
    stays the predictor's one store."""

    @staticmethod
    def _bound():
        predictor = HistogramPredictor(
            _pool(), histogram_kind="incremental", seed=1
        )
        events = []
        predictor.bind_events(lambda kind, **fields: events.append(kind))
        assert events == ["histogram_built"]
        events.clear()
        return predictor, events

    @pytest.mark.parametrize(
        "write, kind",
        [
            (
                lambda block: block.insert(
                    1, np.full(block.transforms, 0.5), 2.0, 1.0, 40
                ),
                "point_inserted",
            ),
            (lambda block: block.clear(), "histogram_rebuilt"),
            (lambda block: block.shrink(5), "histogram_shrunk"),
            (
                lambda block: block.load(block.rows(), 7, 6.5),
                "histogram_built",
            ),
        ],
        ids=["insert", "clear", "shrink", "load"],
    )
    def test_direct_write_keeps_the_books(self, write, kind):
        predictor, events = self._bound()
        block = predictor._packed
        before = predictor.mutation_count
        write(block)
        assert predictor._packed is block
        assert predictor.mutation_count == before + 1
        assert events == [kind]

    def test_writers_keep_the_totals(self):
        predictor, __ = self._bound()
        block = predictor._packed
        block.insert(0, np.full(block.transforms, 0.25), 1.0, 0.5, 40)
        assert (predictor.total_points, predictor.total_mass) == (201, 200.5)
        block.shrink(3)
        assert (predictor.total_points, predictor.total_mass) == (201, 200.5)
        block.load(block.rows(), 9, 8.5)
        assert (predictor.total_points, predictor.total_mass) == (9, 8.5)
        block.clear()
        assert (predictor.total_points, predictor.total_mass) == (0, 0.0)

    def test_predictor_writes_keep_the_one_block(self):
        predictor, events = self._bound()
        block = predictor._packed
        rows = block.rows()
        predictor.shrink(5)
        predictor.drop()
        predictor.insert(np.array([0.2, 0.2]), 0, cost=1.0)
        predictor.load_histograms(rows, 200, 200.0)
        assert predictor._packed is block
        assert events == [
            "histogram_shrunk",
            "histogram_rebuilt",
            "point_inserted",
            "histogram_built",
        ]

    def test_malformed_load_changes_nothing(self):
        predictor, events = self._bound()
        rows = predictor._packed.rows()
        bad = [list(row) for row in rows]
        bad[2][1] = [[0.1, 0.2, 1.0]]  # three fields, not four
        version = predictor.mutation_count
        with pytest.raises(ValueError):
            predictor.load_histograms(bad, 9, 9.0)
        assert predictor._packed.rows() == rows
        assert predictor.mutation_count == version
        assert predictor.total_points == 200
        assert events == []

    def test_unbound_block_still_counts_its_writes(self):
        predictor = HistogramPredictor(
            _pool(), histogram_kind="incremental", seed=1
        )
        assert predictor.mutation_count == 200
        predictor._packed.clear()
        assert predictor.mutation_count == 201

    def test_static_shrink_moves_no_books(self):
        predictor = HistogramPredictor(_pool(), histogram_kind="maxdiff", seed=1)
        events = []
        predictor.bind_events(lambda kind, **fields: events.append(kind))
        before = predictor._packed._buckets.copy()
        version = predictor.mutation_count
        predictor.shrink(5)
        assert predictor.max_buckets == 5
        assert predictor._packed._buckets.tobytes() == before.tobytes()
        assert predictor.mutation_count == version
        assert events == ["histogram_built"]

    @pytest.mark.parametrize("kind", ["maxdiff", "incremental"])
    def test_shrink_rejects_an_empty_budget(self, kind):
        predictor = HistogramPredictor(_pool(), histogram_kind=kind, seed=1)
        with pytest.raises(HistogramError):
            predictor.shrink(0)
        assert predictor.max_buckets == 40


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

    def test_empty_bucket_budget_rejected(self):
        """An empty incremental predictor has no histogram to build, so
        the budget is checked up front, not at the first insert."""
        with pytest.raises(HistogramError):
            HistogramPredictor(
                SamplePool(2), plan_count=2, max_buckets=0,
                histogram_kind="incremental",
            )

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
        counts, avg_costs = predictor.lookup(predictor.z_values(probes))
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
            counts, __ = predictor.lookup(predictor.z_values(probes))
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
        assert (predictor._packed.bucket_counts <= 5).all()
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


class TestEmptyVote:
    """A decision in which no column has a winner reads no cost
    estimate, so ``decide`` skips the winner-cost median; the
    ``cost_estimate`` span still opens and is annotated, and the stage
    metrics count the decision as before."""

    POINT = np.array([0.3, 0.6])

    @staticmethod
    def _tree(span, depth=0):
        """``(depth, name)`` of every span, parents first."""
        yield depth, span.name
        for child in span.children:
            yield from TestEmptyVote._tree(child, depth + 1)

    @staticmethod
    def _stage_counts(session):
        def count(name, **labels):
            return session.metrics.histogram(name, template="Q1", **labels).count

        return (
            {
                stage: count(metric_names.STAGE_SECONDS, stage=stage)
                for stage in metric_names.STAGES
            },
            count(metric_names.PREDICT_TRANSFORM_SECONDS),
            count(metric_names.PREDICT_RANGE_QUERY_SECONDS),
        )

    def test_cold_decision_traced_and_untraced(self):
        config = PPCConfig()
        traced = TemplateSession(plan_space_for("Q1"), config, seed=0)
        trace = traced.explain(self.POINT)
        t = len(traced.predictor.ensemble)
        assert list(self._tree(trace.root)) == [
            (0, "decision"), (1, "normalize"), (1, "predict"),
            (2, "z_values"), (2, "density_lookup"), *[(2, "transform")] * t,
            (2, "aggregate"), (2, "noise_elimination"), (2, "confidence"),
            (2, "cost_estimate"), (1, "decide"), (1, "optimize"),
            (1, "drift_check"), (1, "record"),
        ]
        spans = {span.name: span.attributes for span in trace.spans()}
        plans = traced.plan_space.plan_count
        assert spans["predict"] == {"plan": None}
        assert spans["aggregate"] == {
            "method": "median", "counts": [0.0] * plans,
        }
        assert spans["noise_elimination"] == {
            "max_count": 0.0,
            "total_mass": 0.0,
            "noise_fraction": config.noise_fraction,
            "threshold": 0.0,
            "eliminated": False,
        }
        assert spans["confidence"] == {
            "gamma": config.confidence_threshold,
            "winner": None,
            "max_count": 0.0,
            "other_count": 0.0,
            "ratio": None,
            "model": "null",
            "sin_theta": 0.0,
            "passed": False,
        }
        assert spans["cost_estimate"] == {"plan": None, "estimated_cost": None}

        untraced = TemplateSession(plan_space_for("Q1"), config, seed=0)
        record = untraced.execute(self.POINT)
        assert record.invocation_reason == "null_prediction"
        assert record.optimizer_invoked
        assert decision_digest(record) == decision_digest(traced.records[-1])
        expected = ({"predict": 1, "optimize": 1, "execute": 0, "feedback": 0}, 1, 1)
        assert self._stage_counts(traced) == expected
        assert self._stage_counts(untraced) == expected

    def test_a_batch_without_a_winner_decides_all_null(self):
        """Columns with no mass at all, then columns γ rejects: every
        prediction is ``None``, as each column's alone."""
        predictor = HistogramPredictor(
            SamplePool(2), plan_count=2, histogram_kind="incremental", seed=1
        )
        points = np.random.default_rng(3).uniform(0.0, 1.0, (6, 2))
        assert predictor.predict_batch(points) == [None] * 6
        # Two plans with equal mass everywhere: γ rejects every column.
        for x in points:
            predictor.insert(x, 0, cost=2.0)
            predictor.insert(x, 1, cost=3.0)
        predictions = predictor.predict_batch(points)
        assert predictions == [None] * 6
        assert predictions == [predictor.predict(x) for x in points]
