"""Experiment drivers: every figure/table function runs and its output
has the paper's qualitative shape (scaled-down parameters for speed)."""

import numpy as np
import pytest

from repro.experiments.approximation import (
    run_bucket_sweep,
    run_confidence_sweep,
)
from repro.experiments.assumptions import run_assumption_validation
from repro.experiments.comparison import run_clustering_comparison
from repro.experiments.diagrams import (
    plan_diagram,
    trajectory_sample,
    transform_views,
    zorder_distributions,
)
from repro.experiments.drift import run_drift_detection, run_estimator_accuracy
from repro.experiments.online_perf import run_feedback_ablation
from repro.experiments.runtime_perf import run_runtime_comparison
from repro.experiments.tables import run_space_accounting, run_template_inventory


class TestComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_clustering_comparison(
            repeats=2, sample_size=400, test_size=400, radii=(0.05, 0.1)
        )

    def test_density_high_gamma_most_precise(self, rows):
        """Figure 3's headline: density with high gamma beats k-means."""
        by_name = {}
        for row in rows:
            by_name.setdefault(row.algorithm, []).append(row.precision)
        density = np.mean(by_name["density(g=0.95)"])
        kmeans = np.mean(by_name["k-means(c=40)"])
        assert density > kmeans

    def test_gamma_trades_recall_for_precision(self, rows):
        by_name = {}
        for row in rows:
            by_name.setdefault(row.algorithm, []).append(row)
        low = np.mean([r.recall for r in by_name["density(g=0.5)"]])
        high = np.mean([r.recall for r in by_name["density(g=0.95)"]])
        assert high <= low + 1e-9


class TestSweeps:
    def test_confidence_sweep_monotone_precision(self):
        rows = run_confidence_sweep(
            gammas=(0.5, 0.9), sample_size=800, test_size=300,
            radii=(0.05, 0.1),
        )
        assert rows[1].precision >= rows[0].precision - 0.02
        assert rows[1].recall <= rows[0].recall + 0.02

    def test_bucket_sweep_recall_grows(self):
        rows = run_bucket_sweep(
            bucket_counts=(5, 80), sample_size=800, test_size=300
        )
        assert rows[1].recall >= rows[0].recall
        # Precision stays roughly flat (the paper's key property).
        assert abs(rows[1].precision - rows[0].precision) < 0.1


class TestAssumptions:
    def test_predictability_decays_with_distance(self):
        rows = run_assumption_validation(
            templates=("Q1",),
            distances=(0.01, 0.2),
            test_points=30,
            neighbors_per_point=50,
        )
        close, far = rows[0], rows[1]
        assert close.same_plan_probability > 0.9
        assert close.same_plan_probability >= far.same_plan_probability
        assert 0.0 <= far.same_plan_lower_bound_95 <= far.same_plan_probability


class TestDrift:
    def test_estimator_accuracy_in_paper_ballpark(self):
        result = run_estimator_accuracy(sample_size=800, test_size=800)
        assert result.evaluated > 100
        # Paper reports ~72 %; accept a generous band around it.
        assert result.accuracy > 0.6

    def test_manipulation_drops_estimates_and_alarms(self):
        run = run_drift_detection(workload_size=700, seed=3)
        before = np.mean(
            run.precision_trace[
                run.manipulation_index - 100 : run.manipulation_index
            ]
        )
        after_slice = run.precision_trace[
            run.manipulation_index + 50 : run.manipulation_index + 250
        ]
        # Sudden drop in the precision estimate shortly after the
        # manipulation, and a total collapse of answered predictions.
        assert np.min(after_slice) < before - 0.04
        assert run.recall_after < 0.25 * run.recall_before
        # The monitor raises the drift alarm after the manipulation.
        assert run.alarm_index is not None
        assert run.alarm_index >= run.manipulation_index


class TestRuntime:
    def test_figure13_ordering(self, tiny_space):
        rows, breakdowns = run_runtime_comparison(
            templates=("Q1",), workload_size=300
        )
        by_regime = {r.regime: r for r in rows}
        assert by_regime["IDEAL"].total_ms <= by_regime["PPC"].total_ms
        assert by_regime["PPC"].total_ms < by_regime["NO-CACHING"].total_ms


class TestFeedbackAblation:
    def test_variants_all_run(self):
        runs = run_feedback_ablation(
            workload_size=300, repeats=1, seed=5
        )
        variants = {run.variant for run in runs}
        assert variants == {
            "full",
            "no-noise-elimination",
            "no-negative-feedback",
            "neither",
        }
        for run in runs:
            assert 0.0 <= run.precision <= 1.0


class TestTables:
    def test_space_accounting_ordering(self):
        rows = run_space_accounting(sample_size=800)
        by_name = {r.algorithm: r.measured_bytes for r in rows}
        # Histograms are the most compact of the LSH family.
        assert by_name["APPROXIMATE-LSH-HISTOGRAMS"] < by_name["APPROXIMATE-LSH"]
        assert by_name["BASELINE"] > 0

    def test_template_inventory(self):
        rows = run_template_inventory(probe_points=400)
        assert len(rows) == 9
        degrees = [r.parameter_degree for r in rows]
        assert min(degrees) == 2 and max(degrees) == 6
        assert all(r.estimated_plan_count >= 2 for r in rows)


class TestDiagrams:
    def test_plan_diagram_renders(self):
        diagram = plan_diagram("Q1", resolution=16)
        rendering = diagram.render()
        assert len(rendering.splitlines()) == 16
        assert sum(diagram.plan_fractions.values()) == pytest.approx(1.0)

    def test_transform_views(self):
        views = transform_views(transforms=2, samples=100)
        assert len(views) == 2
        assert views[0].projected.shape == (100, 2)

    def test_zorder_fragmentation_observed(self):
        distributions = zorder_distributions(samples=400)
        # Z-ordering splits at least one plan into multiple intervals —
        # the phenomenon motivating noise elimination.
        assert any(d.interval_count > 1 for d in distributions)

    def test_trajectory_sample_shape(self):
        workload = trajectory_sample(count=200)
        assert workload.shape == (200, 2)


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
