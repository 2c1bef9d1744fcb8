"""ManipulatedPlanSpace edge cases, promoted into tested contracts.

The wrapper went from an on/off switch to the scenario fleet's drift
primitive; these tests pin the behaviors the scenarios (and the
Section V-D experiment) rely on: idempotent activation, validated and
monotone intensity, cost-only mode, the memory guard, seeded
determinism of the scramble itself, and ground truth labelled against
the truth an instance was served under.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.exceptions import ConfigurationError
from repro.workload import ManipulatedPlanSpace
from repro.workload.uniform import sample_points


@pytest.fixture(scope="module")
def points(tiny_space):
    return sample_points(tiny_space.dimensions, 400, seed=5)


class TestConstruction:
    def test_memory_guard_names_the_limit(self, tiny_space):
        with pytest.raises(ConfigurationError, match="memory guard"):
            ManipulatedPlanSpace(tiny_space, resolution=3000)

    def test_memory_guard_message_shows_the_arithmetic(self, tiny_space):
        with pytest.raises(ConfigurationError, match=r"3000\^2"):
            ManipulatedPlanSpace(tiny_space, resolution=3000)

    def test_cost_jitter_must_be_positive(self, tiny_space):
        with pytest.raises(ConfigurationError, match="cost_jitter"):
            ManipulatedPlanSpace(tiny_space, cost_jitter=0.0)

    def test_oracle_interface_mirrors_base(self, tiny_space):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        assert oracle.dimensions == tiny_space.dimensions
        assert oracle.plan_count == tiny_space.plan_count
        assert oracle.template is tiny_space.template
        assert oracle.plan(0) is tiny_space.plan(0)


class TestActivation:
    def test_inactive_wrapper_is_transparent(self, tiny_space, points):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        assert not oracle.active
        ids, costs = oracle.label(points)
        base_ids, base_costs = tiny_space.label(points)
        assert (ids == base_ids).all()
        assert (costs == base_costs).all()
        assert (
            oracle.cost_at(points, 0) == tiny_space.cost_at(points, 0)
        ).all()

    def test_activate_scrambles_labels_and_costs(self, tiny_space, points):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        oracle.activate()
        assert oracle.active
        assert oracle.intensity == 1.0
        ids, costs = oracle.label(points)
        base_ids, base_costs = tiny_space.label(points)
        # Offsets are drawn in [1, plan_count), so every point's label
        # moves under a full scramble.
        assert (ids != base_ids).all()
        assert not np.allclose(costs, base_costs)

    def test_double_activate_is_idempotent(self, tiny_space, points):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        oracle.activate()
        first_ids, first_costs = oracle.label(points)
        oracle.activate()
        again_ids, again_costs = oracle.label(points)
        assert (first_ids == again_ids).all()
        assert (first_costs == again_costs).all()

    def test_deactivate_restores_truth_and_reactivation_repeats(
        self, tiny_space, points
    ):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        oracle.activate()
        scrambled, __ = oracle.label(points)
        oracle.deactivate()
        assert not oracle.active
        restored, __ = oracle.label(points)
        assert (restored == tiny_space.plan_at(points)).all()
        # The scramble is fixed at construction: re-activation never
        # re-rolls it.
        oracle.activate()
        rescrambled, __ = oracle.label(points)
        assert (rescrambled == scrambled).all()


class TestIntensity:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_out_of_range_intensity_rejected(self, tiny_space, bad):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        with pytest.raises(ConfigurationError, match="intensity"):
            oracle.set_intensity(bad)

    def test_scrambled_set_grows_monotonically(self, tiny_space, points):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        base_ids = tiny_space.plan_at(points)
        previous: "set[int]" = set()
        previous_size = -1
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            oracle.set_intensity(fraction)
            changed = {
                int(i)
                for i in np.flatnonzero(oracle.plan_at(points) != base_ids)
            }
            assert previous <= changed, (
                f"intensity {fraction} un-drifted already corrupted points"
            )
            assert len(changed) >= previous_size
            previous, previous_size = changed, len(changed)
        assert len(previous) == len(points)

    def test_partial_intensity_scrambles_roughly_that_fraction(
        self, tiny_space, points
    ):
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        oracle.set_intensity(0.5)
        changed = (oracle.plan_at(points) != tiny_space.plan_at(points)).mean()
        assert 0.25 < changed < 0.75

    def test_set_intensity_one_equals_activate(self, tiny_space, points):
        stepped = ManipulatedPlanSpace(tiny_space, seed=3)
        stepped.activate()
        ramped = ManipulatedPlanSpace(tiny_space, seed=3)
        ramped.set_intensity(1.0)
        assert (
            stepped.plan_at(points) == ramped.plan_at(points)
        ).all()


class TestCostOnlyMode:
    def test_scramble_labels_false_preserves_plan_choice(
        self, tiny_space, points
    ):
        oracle = ManipulatedPlanSpace(
            tiny_space, seed=0, scramble_labels=False, cost_jitter=6.0
        )
        oracle.activate()
        ids, costs = oracle.label(points)
        base_ids, base_costs = tiny_space.label(points)
        assert (ids == base_ids).all(), "Assumption 1 must stay intact"
        assert not np.allclose(costs, base_costs), (
            "Assumption 2 must be violated"
        )

    def test_cost_at_jitters_fixed_plan_costs_too(self, tiny_space, points):
        oracle = ManipulatedPlanSpace(
            tiny_space, seed=0, scramble_labels=False, cost_jitter=6.0
        )
        oracle.activate()
        assert not np.allclose(
            oracle.cost_at(points, 0), tiny_space.cost_at(points, 0)
        )


class TestDeterminism:
    def test_equal_seeds_scramble_identically(self, tiny_space, points):
        a = ManipulatedPlanSpace(tiny_space, seed=9)
        b = ManipulatedPlanSpace(tiny_space, seed=9)
        a.activate()
        b.activate()
        ids_a, costs_a = a.label(points)
        ids_b, costs_b = b.label(points)
        assert (ids_a == ids_b).all()
        assert (costs_a == costs_b).all()

    def test_different_seeds_scramble_differently(self, tiny_space, points):
        a = ManipulatedPlanSpace(tiny_space, seed=9)
        b = ManipulatedPlanSpace(tiny_space, seed=10)
        a.activate()
        b.activate()
        assert (a.plan_at(points) != b.plan_at(points)).any()


class TestDeferredGroundTruth:
    def test_a_change_labels_pending_records_under_the_old_truth(
        self, tiny_space, points
    ):
        # The session labels served instances after the fact; a change
        # of the scramble must not reach the ones served before it.
        oracle = ManipulatedPlanSpace(tiny_space, seed=0)
        session = TemplateSession(
            oracle, PPCConfig(drift_response=False), seed=0
        )
        before = points[:40]
        records = [session.execute(x) for x in before]
        assert any(record.pending for record in records)
        oracle.activate()
        assert not any(record.pending for record in records)
        after = [session.execute(x) for x in points[40:80]]
        ids, costs = tiny_space.label(before)
        assert [r.optimal_plan for r in records] == ids.tolist()
        assert [r.optimal_cost for r in records] == costs.tolist()
        ids, costs = oracle.label(points[40:80])
        assert [r.optimal_plan for r in after] == ids.tolist()
        assert [r.optimal_cost for r in after] == costs.tolist()
