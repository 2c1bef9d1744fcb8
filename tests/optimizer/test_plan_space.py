"""The plan-space oracle: harvesting, labeling, cost queries."""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optimizer.expressions import (
    ColumnRef,
    ParamPredicate,
    QueryTemplate,
)
from repro.optimizer.enumeration import DPEnumerator, PlanBuilder
from repro.optimizer.plan_space import (
    HARVEST_GROUPS,
    HARVEST_ROUNDS,
    PlanSpace,
)
from repro.optimizer.plans import PhysicalPlan
from repro.tpch import TEMPLATE_NAMES, build_catalog, plan_space_for, query_template
from tests.optimizer.harvest_reference import (
    probe_rounds,
    round_by_round_fingerprints,
)
from tests.optimizer.test_harvest_golden import BushyPlanSpace, _catalog

#: The tiny template's structured probes: 13 distinct points.
TINY_STRUCTURED = 13
#: One DP's batch per group of rounds on the tiny template: the
#: structured probes and two random rounds, then two rounds, then four.
TINY_GROUP_BATCHES = [TINY_STRUCTURED + 128, 128, 256]


class TestHarvest:
    def test_plans_discovered(self, tiny_space):
        assert tiny_space.plan_count >= 2
        assert len(tiny_space.plans) == tiny_space.plan_count

    def test_plan_fingerprints_unique(self, tiny_space):
        prints = [p.fingerprint for p in tiny_space.plans]
        assert len(set(prints)) == len(prints)

    def test_deterministic_under_seed(self, tiny_template, tiny_catalog):
        a = PlanSpace(tiny_template, tiny_catalog, seed=3)
        b = PlanSpace(tiny_template, tiny_catalog, seed=3)
        points = np.random.default_rng(0).uniform(0, 1, (50, 2))
        assert (a.plan_at(points) == b.plan_at(points)).all()

    def test_one_dp_per_group_of_rounds(
        self, tiny_template, tiny_catalog, monkeypatch
    ):
        """The structured probes and the first two random rounds are one
        batch, then two rounds, then the last four; a group runs only if
        the harvest reaches it."""
        batches = []
        optimize = DPEnumerator.optimize

        def recording(self, points):
            batches.append(len(points))
            return optimize(self, points)

        monkeypatch.setattr(DPEnumerator, "optimize", recording)
        PlanSpace(tiny_template, tiny_catalog, seed=0)
        assert HARVEST_GROUPS == (3, 2, 4)
        assert sum(HARVEST_GROUPS) == 1 + HARVEST_ROUNDS
        assert len(PlanSpace._structured_probes(2)) == TINY_STRUCTURED
        assert 1 <= len(batches) <= len(HARVEST_GROUPS)
        assert batches == TINY_GROUP_BATCHES[: len(batches)]

    def test_zero_degree_template_rejected(self, tiny_catalog):
        template = QueryTemplate(name="none", tables=("dept",))
        with pytest.raises(OptimizationError):
            PlanSpace(template, tiny_catalog)


class ScriptedEnumerator:
    """Stands in for the DP: every point of probe round ``k`` wins with
    ``plans[script[k]]``.  It tells the rounds apart by their points,
    drawn here as the harvest draws them (so a harvest that drew them
    otherwise fails the lookup), and records each call's batch size."""

    def __init__(self, plans, script, degree, seed):
        self.plans = plans
        self.script = script
        self.batches = []
        self.round_of = {
            point.tobytes(): k
            for k, points in enumerate(probe_rounds(degree, seed))
            for point in points
        }

    def optimize(self, points):
        self.batches.append(len(points))
        return [
            (self.plans[self.script[self.round_of[point.tobytes()]]], 0.0)
            for point in points
        ]


@pytest.fixture(scope="module")
def tiny_plans(tiny_template, tiny_catalog):
    """Nine distinct emp-dept join plans, as many as probe rounds."""
    builder = PlanBuilder(tiny_template, tiny_catalog)
    plans = [
        PhysicalPlan(join)
        for outer, inner in (("emp", "dept"), ("dept", "emp"))
        for path in builder.access_paths(outer)
        for join in builder.join_candidates(path, inner)
    ]
    assert len({plan.fingerprint for plan in plans}) >= 1 + HARVEST_ROUNDS
    return plans[: 1 + HARVEST_ROUNDS]


class TestGroupedHarvestStops:
    """Where a harvest stops, against the group it stops in.  Rounds 0-2
    are the first group, 3-4 the second and 5-8 the third."""

    @pytest.mark.parametrize(
        "script, plan_count, batches",
        [
            # Round 1 finds nothing new: inside the first group.
            ([0, 0, 1, 2, 3, 4, 5, 6, 7], 1, TINY_GROUP_BATCHES[:1]),
            # Round 2, the first group's last round.
            ([0, 1, 1, 2, 3, 4, 5, 6, 7], 2, TINY_GROUP_BATCHES[:1]),
            # Round 3, the first of the second group.
            ([0, 1, 2, 2, 3, 4, 5, 6, 7], 3, TINY_GROUP_BATCHES[:2]),
            # Round 4, inside a later group.
            ([0, 1, 2, 3, 3, 4, 5, 6, 7], 4, TINY_GROUP_BATCHES[:2]),
            # Round 6, inside the last group.
            ([0, 1, 2, 3, 4, 5, 5, 6, 7], 6, TINY_GROUP_BATCHES),
            # The last round finds nothing new.
            ([0, 1, 2, 3, 4, 5, 6, 7, 7], 8, TINY_GROUP_BATCHES),
            # Every round finds a new plan: all rounds run.
            (list(range(1 + HARVEST_ROUNDS)), 9, TINY_GROUP_BATCHES),
        ],
        ids=["round1", "round2", "round3", "round4", "round6", "round8", "all"],
    )
    def test_stops_at_the_first_round_with_nothing_new(
        self, tiny_template, tiny_catalog, tiny_plans, monkeypatch,
        script, plan_count, batches,
    ):
        scripted = ScriptedEnumerator(tiny_plans, script, 2, seed=5)
        monkeypatch.setattr(
            DPEnumerator, "optimize", lambda self, points: scripted.optimize(points)
        )
        space = PlanSpace(tiny_template, tiny_catalog, seed=5)
        assert [plan.fingerprint for plan in space.plans] == [
            plan.fingerprint for plan in tiny_plans[:plan_count]
        ]
        assert scripted.batches == batches

    def test_a_harvest_without_winners_raises(
        self, tiny_template, tiny_catalog, monkeypatch
    ):
        batches = []

        def nothing(self, points):
            batches.append(len(points))
            return []

        monkeypatch.setattr(DPEnumerator, "optimize", nothing)
        with pytest.raises(OptimizationError, match="^harvest produced no plans$"):
            PlanSpace(tiny_template, tiny_catalog, seed=0)
        assert batches == TINY_GROUP_BATCHES[:1]


class TestRoundByRoundParity:
    """One DP per group of rounds registers what one DP per round does:
    the same fingerprints in the same order."""

    @pytest.mark.parametrize("bushy", [False, True], ids=["left_deep", "bushy"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_same_fingerprints_in_the_same_order(self, name, seed, bushy):
        template = query_template(name)
        space_type = BushyPlanSpace if bushy else PlanSpace
        space = space_type(template, _catalog(), seed=seed)
        reference = DPEnumerator(template, _catalog(), allow_bushy=bushy)
        assert [plan.fingerprint for plan in space.plans] == (
            round_by_round_fingerprints(reference, seed)
        )


#: ``tracemalloc`` peak of one harvest, MiB.  One DP per group of rounds
#: peaks at about 0.56 (Q5) and 1.56 (Q7); one DP over all nine rounds
#: at 1.81 and 4.58.
HARVEST_PEAK_LIMIT_MIB = {"Q5": 0.75, "Q7": 2.0}


@pytest.mark.parametrize("name", sorted(HARVEST_PEAK_LIMIT_MIB))
def test_harvest_peak_memory(name):
    template = query_template(name)
    catalog = build_catalog()
    # A first harvest keeps one-time set-up out of the measured one.
    PlanSpace(template, catalog)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, __ = tracemalloc.get_traced_memory()
        PlanSpace(template, catalog)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / 2**20 <= HARVEST_PEAK_LIMIT_MIB[name]


class TestLabeling:
    def test_label_matches_dp_at_harvest_points(self, tiny_space):
        """At any point, the oracle's plan cost equals the DP result."""
        rng = np.random.default_rng(1)
        for point in rng.uniform(0, 1, (10, 2)):
            dp_plan, dp_cost = tiny_space._enumerator.optimize(point[None, :])[0]
            ids, costs = tiny_space.label(point[None, :])
            assert costs[0] <= dp_cost + 1e-9

    def test_costs_are_minimal_over_candidates(self, tiny_space):
        points = np.random.default_rng(2).uniform(0, 1, (100, 2))
        matrix = tiny_space.cost_matrix(points)
        ids, costs = tiny_space.label(points)
        assert np.allclose(costs, matrix.min(axis=0))

    def test_cost_at_specific_plan_ge_optimal(self, tiny_space):
        points = np.random.default_rng(3).uniform(0, 1, (50, 2))
        __, optimal = tiny_space.label(points)
        for plan_id in range(tiny_space.plan_count):
            costs = tiny_space.cost_at(points, plan_id)
            assert (costs >= optimal - 1e-9).all()

    def test_cost_at_optimal_plan_matches_label(self, tiny_space):
        point = np.array([[0.4, 0.6]])
        ids, costs = tiny_space.label(point)
        direct = tiny_space.cost_at(point, int(ids[0]))
        assert direct[0] == pytest.approx(costs[0])

    def test_out_of_cube_points_rejected(self, tiny_space):
        with pytest.raises(OptimizationError):
            tiny_space.label(np.array([[1.5, 0.5]]))

    def test_wrong_dimension_rejected(self, tiny_space):
        with pytest.raises(OptimizationError):
            tiny_space.label(np.array([[0.5, 0.5, 0.5]]))

    def test_single_point_convenience(self, tiny_space):
        ids = tiny_space.plan_at(np.array([0.5, 0.5]))
        assert ids.shape == (1,)

    @pytest.mark.parametrize("name", ["Q1", "Q3", "Q5"])
    def test_a_tie_goes_to_the_lowest_id_on_both_paths(self, name):
        """A candidate listed twice ties with itself at every point.
        A one-point label takes the first minimum of its float costs,
        which is ``np.argmin``'s rule: it returns the lower id, the id
        a batch label returns, with the same cost bits."""
        space = copy.copy(plan_space_for(name))
        original = space.plans
        # Every plan again after the originals, and the last one first.
        space.plans = [original[-1], *original, *original]
        points = np.random.default_rng(5).uniform(
            0.0, 1.0, (60, space.dimensions)
        )
        batch_ids, batch_costs = space.label(points)
        ids = []
        for index, point in enumerate(points):
            point_ids, point_costs = space.label(point[None, :])
            assert point_ids.shape == point_costs.shape == (1,)
            assert point_costs[0].tobytes() == batch_costs[index].tobytes()
            ids.append(int(point_ids[0]))
        assert ids == batch_ids.tolist()
        # The lowest copy of each winner: the front copy of the last
        # plan, else the first of the originals.
        true_ids, __ = plan_space_for(name).label(points)
        last = len(original) - 1
        assert ids == [0 if k == last else k + 1 for k in true_ids.tolist()]

    @pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "Q7"])
    def test_one_point_costs_stay_python_floats(self, name):
        """``np.exp`` and ``np.log2`` hand a float point a Python float
        back, so no node above them computes in numpy scalars; each
        one-point cost is its plan's ``evaluate`` over a one-row batch,
        bit for bit."""
        space = plan_space_for(name)
        point = np.full(space.dimensions, 0.37)
        row = space._enumerator.selectivities(point)
        costs, __ = space._costs(point)
        for plan, cost in zip(space.plans, costs, strict=True):
            assert type(cost) is float
            assert np.float64(cost).tobytes() == plan.root.evaluate(row)[1].tobytes()

    @pytest.mark.parametrize(
        "plan_id",
        [-1, -2, "count", 1.0, np.float64(1.0), True],
        ids=["-1", "-2", "count", "float", "numpy_float", "True"],
    )
    def test_an_id_outside_the_candidates_is_refused(self, tiny_space, plan_id):
        """A negative id would index from the end and serve the last
        plans; one past the end would raise a bare ``IndexError``; a
        float id would raise a bare ``TypeError``, and ``True`` would
        serve plan 1.  Each names the id in an ``OptimizationError``."""
        if plan_id == "count":
            plan_id = tiny_space.plan_count
        with pytest.raises(OptimizationError, match=f"plan id {plan_id} "):
            tiny_space.plan(plan_id)
        for points in (np.array([[0.5, 0.5]]), np.full((3, 2), 0.5)):
            with pytest.raises(OptimizationError, match=f"plan id {plan_id} "):
                tiny_space.cost_at(points, plan_id)
        last = tiny_space.plan_count - 1
        assert tiny_space.plan(last) is tiny_space.plans[last]

    def test_numpy_integer_ids_are_accepted(self, tiny_space):
        points = np.full((3, 2), 0.5)
        for plan_id in (1, np.int64(1), np.intp(1)):
            assert tiny_space.plan(plan_id) is tiny_space.plans[1]
            assert (
                tiny_space.cost_at(points, plan_id).tobytes()
                == tiny_space.cost_matrix(points)[1].tobytes()
            )
            assert (
                tiny_space.cost_at(points[:1], plan_id).tobytes()
                == tiny_space.cost_matrix(points[:1])[1].tobytes()
            )


class TestTpchSpaces:
    def test_q1_has_multiple_plans(self, q1_space):
        assert q1_space.plan_count >= 3

    def test_q1_regions_nontrivial(self, q1_space):
        points = np.random.default_rng(4).uniform(0, 1, (2000, 2))
        ids = q1_space.plan_at(points)
        __, counts = np.unique(ids, return_counts=True)
        # At least two plans occupy more than 10 % of the space each.
        assert (counts / 2000 > 0.10).sum() >= 2

    def test_costs_positive_everywhere(self, q1_space):
        points = np.random.default_rng(5).uniform(0, 1, (500, 2))
        __, costs = q1_space.label(points)
        assert (costs > 0).all()
