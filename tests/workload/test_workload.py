"""Workload generation: binding, history, sampling, trajectories, drift."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.tpch import build_catalog, build_statistics, query_template
from repro.workload import (
    ManipulatedPlanSpace,
    QueryInstance,
    RandomTrajectoryWorkload,
    TemplateBinder,
    WorkloadHistory,
    sample_labeled_pool,
    sample_points,
)


@pytest.fixture(scope="module")
def binder():
    catalog = build_catalog(scale_factor=0.01)
    statistics = build_statistics(catalog, seed=0, gaussian_samples=5000)
    return TemplateBinder(query_template("Q1"), statistics)


class TestTemplateBinder:
    def test_round_trip_point_instance_point(self, binder):
        point = np.array([0.3, 0.7])
        instance = binder.to_instance(point)
        assert instance.template_name == "Q1"
        assert instance.parameter_degree == 2
        back = binder.to_point(instance)
        assert back == pytest.approx(point, abs=0.02)

    def test_instance_values_in_column_domains(self, binder):
        instance = binder.to_instance(np.array([0.5, 0.5]))
        s_date, l_partkey = instance.values
        assert 0.0 <= s_date <= 2557.0
        assert l_partkey >= 1.0

    def test_monotone_binding(self, binder):
        low = binder.to_instance(np.array([0.1, 0.5])).values[0]
        high = binder.to_instance(np.array([0.9, 0.5])).values[0]
        assert low < high

    def test_template_mismatch_rejected(self, binder):
        with pytest.raises(WorkloadError):
            binder.to_point(QueryInstance("Q2", (1.0, 2.0)))

    def test_arity_mismatch_rejected(self, binder):
        with pytest.raises(WorkloadError):
            binder.to_point(QueryInstance("Q1", (1.0,)))
        with pytest.raises(WorkloadError):
            binder.to_instance(np.array([0.5]))


class TestWorkloadHistory:
    def test_record_and_project(self):
        history = WorkloadHistory()
        history.record("Q1", [0.1, 0.2], plan_id=3, cost=10.0)
        history.record("Q1", [0.3, 0.4], plan_id=1, cost=20.0)
        history.record("Q2", [0.5, 0.6], plan_id=0, cost=5.0)
        assert len(history) == 3
        assert history.templates() == {"Q1", "Q2"}
        entries = history.for_template("Q1")
        assert [entry.plan_id for entry in entries] == [3, 1]

    def test_negative_cost_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadHistory().record("Q1", [0.1], 0, -1.0)


class TestUniformSampling:
    def test_points_in_unit_cube(self):
        points = sample_points(3, 100, seed=0)
        assert points.shape == (100, 3)
        assert (points >= 0).all() and (points <= 1).all()

    def test_labeled_pool(self, q1_space):
        pool = sample_labeled_pool(q1_space, 50, seed=0)
        assert len(pool) == 50
        assert (pool.plan_ids < q1_space.plan_count).all()
        assert (pool.costs > 0).all()

    def test_invalid_count(self):
        with pytest.raises(WorkloadError):
            sample_points(2, 0)


class TestTrajectories:
    def test_shape_and_bounds(self):
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=0).generate(1000)
        assert workload.shape == (1000, 2)
        assert (workload >= 0).all() and (workload <= 1).all()

    def test_temporal_locality(self):
        """Consecutive points are far closer than random pairs."""
        workload = RandomTrajectoryWorkload(2, spread=0.01, seed=0).generate(500)
        consecutive = np.linalg.norm(np.diff(workload, axis=0), axis=1)
        rng = np.random.default_rng(1)
        random_pairs = np.linalg.norm(
            workload[rng.permutation(500)] - workload[rng.permutation(500)],
            axis=1,
        )
        assert np.median(consecutive) < np.median(random_pairs) / 3

    def test_spread_controls_jitter(self):
        tight = RandomTrajectoryWorkload(
            2, spread=0.01, trajectory_count=1, step_scale=0.0, momentum=0.0,
            seed=0,
        ).generate(300)
        loose = RandomTrajectoryWorkload(
            2, spread=0.08, trajectory_count=1, step_scale=0.0, momentum=0.0,
            seed=0,
        ).generate(300)
        assert tight.std(axis=0).mean() < loose.std(axis=0).mean()

    def test_trajectory_count_segments(self):
        workload = RandomTrajectoryWorkload(
            2, spread=0.001, trajectory_count=10, seed=0
        ).generate(95)
        assert workload.shape == (95, 2)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            RandomTrajectoryWorkload(0)
        with pytest.raises(WorkloadError):
            RandomTrajectoryWorkload(2, spread=0.0)
        with pytest.raises(WorkloadError):
            RandomTrajectoryWorkload(2, trajectory_count=0)
        with pytest.raises(WorkloadError):
            RandomTrajectoryWorkload(2, momentum=1.0)


class TestManipulatedPlanSpace:
    def test_transparent_until_activated(self, q1_space):
        oracle = ManipulatedPlanSpace(q1_space, seed=0)
        points = sample_points(2, 100, seed=1)
        ids_base, costs_base = q1_space.label(points)
        ids, costs = oracle.label(points)
        assert (ids == ids_base).all()
        assert costs == pytest.approx(costs_base)

    def test_activation_scrambles_labels_and_costs(self, q1_space):
        oracle = ManipulatedPlanSpace(q1_space, seed=0)
        oracle.activate()
        points = sample_points(2, 200, seed=1)
        ids_base, costs_base = q1_space.label(points)
        ids, costs = oracle.label(points)
        assert (ids != ids_base).mean() > 0.5
        assert not np.allclose(costs, costs_base)
        # Labels stay valid plan ids.
        assert (ids >= 0).all() and (ids < q1_space.plan_count).all()

    def test_deactivation_restores_truth(self, q1_space):
        oracle = ManipulatedPlanSpace(q1_space, seed=0)
        oracle.activate()
        oracle.set_intensity(0.0)
        points = sample_points(2, 50, seed=1)
        assert (oracle.plan_at(points) == q1_space.plan_at(points)).all()

    def test_scramble_is_deterministic(self, q1_space):
        a = ManipulatedPlanSpace(q1_space, seed=3)
        b = ManipulatedPlanSpace(q1_space, seed=3)
        a.activate()
        b.activate()
        points = sample_points(2, 50, seed=1)
        assert (a.plan_at(points) == b.plan_at(points)).all()

    def test_breaks_choice_predictability(self, q1_space):
        """Nearby points frequently disagree after manipulation."""
        oracle = ManipulatedPlanSpace(q1_space, resolution=16, seed=0)
        oracle.activate()
        rng = np.random.default_rng(2)
        anchors = rng.uniform(0.1, 0.9, size=(100, 2))
        neighbors = np.clip(anchors + rng.normal(0, 0.05, (100, 2)), 0, 1)
        disagreement = (
            oracle.plan_at(anchors) != oracle.plan_at(neighbors)
        ).mean()
        base_disagreement = (
            q1_space.plan_at(anchors) != q1_space.plan_at(neighbors)
        ).mean()
        assert disagreement > base_disagreement


class TestGreaterEqualPredicates:
    def test_geq_binding_round_trip(self):
        from repro.optimizer.expressions import (
            ColumnRef,
            ParamPredicate,
            QueryTemplate,
        )

        catalog = build_catalog(scale_factor=0.01)
        statistics = build_statistics(catalog, seed=0, gaussian_samples=5000)
        template = QueryTemplate(
            name="tail",
            tables=("orders",),
            predicates=(
                ParamPredicate(ColumnRef("orders", "o_date"), 0, op=">="),
            ),
        )
        binder = TemplateBinder(template, statistics)
        point = np.array([0.3])
        instance = binder.to_instance(point)
        back = binder.to_point(instance)
        assert back == pytest.approx(point, abs=0.02)

    def test_geq_value_decreases_with_selectivity(self):
        from repro.optimizer.expressions import (
            ColumnRef,
            ParamPredicate,
            QueryTemplate,
        )

        catalog = build_catalog(scale_factor=0.01)
        statistics = build_statistics(catalog, seed=0, gaussian_samples=5000)
        template = QueryTemplate(
            name="tail2",
            tables=("orders",),
            predicates=(
                ParamPredicate(ColumnRef("orders", "o_date"), 0, op=">="),
            ),
        )
        binder = TemplateBinder(template, statistics)
        # Higher selectivity of "o_date >= v" means a *smaller* v.
        low_sel = binder.to_instance(np.array([0.1])).values[0]
        high_sel = binder.to_instance(np.array([0.9])).values[0]
        assert high_sel < low_sel
