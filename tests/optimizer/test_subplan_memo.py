"""Costing shared subplans once changes no cost bit, and one dynamic
program costs each shared node once.

``DPEnumerator.optimize`` evaluates its plans through one memo that
spans its whole batch of points, ``PlanSpace.cost_matrix`` costs each
distinct subplan once through its compiled program, and the plan space
interns the subtrees its candidates share.  Both are exact only if
costing a shared subplan once returns bit for bit what costing each
plan alone returns, and if interning never folds two nodes whose cost
formulas differ.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator, PlanBuilder, _Cell
from repro.optimizer.operators import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    SeqScan,
    Sort,
)
from repro.optimizer.plan_space import HARVEST_ROUND_POINTS, PlanSpace
from repro.tpch import TEMPLATE_NAMES, plan_space_for
from tests.optimizer.test_label_batching import coordinate

MODEL = CostModel()


def plain_matrix(space, points):
    """Each candidate costed alone, without a memo."""
    return np.stack(
        [space.cost_at(points, plan_id) for plan_id in range(space.plan_count)]
    )


class PlainEnumerator(DPEnumerator):
    """The batch DP with every candidate costed from scratch."""

    @staticmethod
    def _offer(cell, node, x, memo, where):
        DPEnumerator._offer(cell, node, x, {}, where)


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_memoized_cost_matrix_is_plain_cost_bitwise(name, data):
    space = plan_space_for(name)
    points = np.array(
        data.draw(
            st.lists(
                st.lists(
                    coordinate,
                    min_size=space.dimensions,
                    max_size=space.dimensions,
                ),
                min_size=1,
                max_size=16,
            )
        )
    )
    memoized = space.cost_matrix(points)
    plain = plain_matrix(space, points)
    assert memoized.dtype == plain.dtype == np.float64
    assert memoized.tobytes() == plain.tobytes()
    ids, costs = space.label(points)
    assert np.array_equal(ids, np.argmin(plain, axis=0))
    assert costs.tobytes() == plain[ids, np.arange(len(points))].tobytes()


@pytest.mark.parametrize("bushy", [False, True], ids=["left_deep", "bushy"])
@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "Q6"])
def test_memoized_optimize_is_plain_optimize_bitwise(name, bushy):
    space = plan_space_for(name)
    args = (space.template, space.catalog, space.model)
    memoized = DPEnumerator(*args, allow_bushy=bushy)
    plain = PlainEnumerator(*args, allow_bushy=bushy)
    points = np.random.default_rng(5).uniform(0.0, 1.0, (6, space.dimensions))
    points[:3] = np.round(points[:3], 2)
    for (plan_a, cost_a), (plan_b, cost_b) in zip(
        memoized.optimize(points), plain.optimize(points)
    ):
        assert plan_a.fingerprint == plan_b.fingerprint
        assert np.float64(cost_a).tobytes() == np.float64(cost_b).tobytes()


class TestInterning:
    def test_synthetic_index_inner_stays_apart_from_the_real_scan(self):
        """``IndexNLJoin``'s never-evaluated inner scan has one page and
        the real scan's fingerprint; interning must not fold them."""
        outer = SeqScan("a", 10_000, 100, (0,), MODEL)
        real = SeqScan("b", 5_000, 50, (1,), MODEL)
        probe = IndexNLJoin(outer, "b", "ix_b", 5_000, (1,), 1e-3, MODEL)
        hashed = HashJoin(outer, real, 1e-3, MODEL)
        assert probe.inner.fingerprint() == real.fingerprint()
        pool: dict = {}
        hashed = hashed.interned(pool)
        probe = probe.interned(pool)
        assert probe.outer is hashed.outer
        assert probe.inner is not hashed.inner
        assert probe.inner.pages == 1.0
        assert hashed.inner.pages == 50.0

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_interned_plans_cost_what_the_optimizer_returned(self, name):
        """The harvest's winners, rebuilt un-interned, cost bit for bit
        what the space's interned candidates of the same fingerprint
        cost."""
        space = plan_space_for(name)
        enumerator = DPEnumerator(space.template, space.catalog, space.model)
        ids = {plan.fingerprint: i for i, plan in enumerate(space.plans)}
        points = np.random.default_rng(9).uniform(0.0, 1.0, (64, space.dimensions))
        selectivities = enumerator.mapping.to_selectivity(points)
        probes = PlanSpace._structured_probes(space.dimensions)
        for fresh, __ in enumerator.optimize(probes):
            interned = space.cost_at(points, ids[fresh.fingerprint])
            assert interned.tobytes() == fresh.cost(selectivities).tobytes()

    def test_shared_subplans_are_one_object(self, q5_space):
        nodes, distinct = 0, set()
        stack = [plan.root for plan in q5_space.plans]
        while stack:
            node = stack.pop()
            nodes += 1
            distinct.add(id(node))
            stack.extend(getattr(node, slot) for slot in node._child_slots)
        assert len(distinct) < nodes / 2


class TestMemo:
    def test_memoized_results_are_read_only(self):
        outer = SeqScan("a", 10_000, 100, (0,), MODEL)
        join = HashJoin(outer, SeqScan("b", 5_000, 50, (1,), MODEL), 1e-3, MODEL)
        memo: dict = {}
        rows, cost = join.evaluate(np.array([[0.5, 0.5]]), memo)
        shared_rows, shared_cost = memo[outer]
        for array in (rows, cost, shared_rows, shared_cost):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_a_memo_hit_returns_the_cached_arrays(self):
        scan = SeqScan("a", 10_000, 100, (0,), MODEL)
        memo: dict = {}
        first = scan.evaluate(np.array([[0.5]]), memo)
        assert scan.evaluate(np.array([[0.5]]), memo) is first

    def test_plain_evaluate_returns_writable_arrays(self):
        scan = SeqScan("a", 10_000, 100, (0,), MODEL)
        rows, cost = scan.evaluate(np.array([0.5]))
        rows[0] = cost[0] = 1.0


class TestSharedNodes:
    @pytest.mark.parametrize("bushy", [False, True], ids=["left_deep", "bushy"])
    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_a_round_evaluates_each_access_path_and_sort_once(
        self, name, bushy, monkeypatch
    ):
        """Every candidate over an access path or a sort enforcer shares
        the one node, and its costs stay in the memo while any later
        join can use it: no loser's pop and no end-of-size pruning makes
        the round cost it again.  Counted per node and per structure, so
        a rebuilt copy of a shared node counts too."""
        space = plan_space_for(name)
        enumerator = DPEnumerator(
            space.template, space.catalog, space.model, allow_bushy=bushy
        )
        calls: collections.Counter = collections.Counter()
        structures: collections.Counter = collections.Counter()
        for kind in (SeqScan, IndexScan, Sort):

            def counted(self, x, memo, _evaluate=kind._evaluate):
                calls[self] += 1
                structures[self.fingerprint()] += 1
                return _evaluate(self, x, memo)

            monkeypatch.setattr(kind, "_evaluate", counted)
        points = np.random.default_rng(7).uniform(
            0.0, 1.0, (HARVEST_ROUND_POINTS, space.dimensions)
        )
        enumerator.optimize(points)
        assert any(isinstance(node, IndexScan) for node in calls)
        assert any(isinstance(node, Sort) for node in calls)
        assert max(calls.values()) == 1
        assert max(structures.values()) == 1

    def test_a_builder_builds_each_shared_node_once(self, q5_space):
        builder = PlanBuilder(q5_space.template, q5_space.catalog)
        tables = q5_space.template.tables
        assert builder.access_paths(tables[0]) is builder.access_paths(tables[0])
        scan = builder.access_paths(tables[0])[0]
        order = "nowhere.column"
        assert builder.sorted(scan, order) is builder.sorted(scan, order)
        assert builder.sorted(scan, order).child is scan
        assert builder.sorted(scan, order) is not builder.sorted(scan, "x.y")

    def test_retain_keeps_the_enforcers_later_joins_can_use(self, q5_space):
        builder = PlanBuilder(q5_space.template, q5_space.catalog)
        paths = [
            path
            for table in q5_space.template.tables
            for path in builder.access_paths(table)
        ]
        others = [path for path in paths if path.tables != paths[0].tables]
        kept, dropped = (
            HashJoin(paths[0], other, 0.5, MODEL) for other in others[:2]
        )
        over_path = builder.sorted(paths[0], "o.path")
        over_kept = builder.sorted(kept, "o.kept")
        over_dropped = builder.sorted(dropped, "o.dropped")
        shared = builder.retain([kept])
        assert shared == paths + [over_path, over_kept]
        assert over_dropped not in shared
        assert builder.sorted(dropped, "o.dropped") is not over_dropped


class TestCell:
    def test_a_node_that_holds_no_point_leaves_its_slot(self):
        """A displaced node is let go; its slot holds None, so every
        index and the order of the winners stay."""
        everywhere = np.ones(4, dtype=bool)
        a, b, c = (SeqScan(t, 100, 10, (), MODEL) for t in "abc")
        cell = _Cell(4)
        assert cell.take(a, np.array([5.0, 5.0, 5.0, 5.0]), everywhere) == []
        assert cell.take(b, np.array([6.0, 4.0, 6.0, 4.0]), everywhere) == []
        assert cell.take(b, np.array([9.0, 9.0, 9.0, 9.0]), everywhere) is None
        assert cell.take(c, np.array([1.0, 9.0, 1.0, 9.0]), everywhere) == [a]
        assert cell.nodes == [None, b, c]
        assert [(node, mask.tolist()) for node, mask in cell.winners()] == [
            (b, [False, True, False, True]),
            (c, [True, False, True, False]),
        ]
        assert cell.index.tolist() == [2, 1, 2, 1]
        assert cell.cost.tolist() == [1.0, 4.0, 1.0, 4.0]

    def test_a_tie_keeps_the_first_node(self):
        everywhere = np.ones(2, dtype=bool)
        a, b = (SeqScan(t, 100, 10, (), MODEL) for t in "ab")
        cell = _Cell(2)
        cell.take(a, np.array([3.0, 3.0]), everywhere)
        assert cell.take(b, np.array([3.0, 3.0]), everywhere) is None
        assert cell.nodes == [a]
