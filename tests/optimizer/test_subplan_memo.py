"""Costing shared subplans once changes no cost bit.

``DPEnumerator.optimize`` evaluates its plans through one memo that
spans its whole batch of points, ``PlanSpace.cost_matrix`` costs each
distinct subplan once through its compiled program, and the plan space
interns the subtrees its candidates share.  Both are exact only if
costing a shared subplan once returns bit for bit what costing each
plan alone returns, and if interning never folds two nodes whose cost
formulas differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.operators import HashJoin, IndexNLJoin, SeqScan
from repro.optimizer.plan_space import PlanSpace
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
