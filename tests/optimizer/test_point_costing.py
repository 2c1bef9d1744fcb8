"""One point costs in Python floats, bit for bit what a batch costs.

Every operator has one ``_evaluate`` formula.  ``evaluate`` runs it over
``(n,)`` columns, ``evaluate_point`` over the Python floats of one
point, and the plan-space oracle and the DP enumerator pick the float
path whenever they cost exactly one point.  The two operand kinds must
agree on every row count and cost bit, above all where a formula
branches: the ``Sort`` floor at two rows, the hash join's spill
threshold, the unclustered index scan's ``exp`` and a scan with no
predicate, whose cardinality and cost are constants.  A non-finite
point would split the modes (a comparison with NaN is False where
``np.maximum`` propagates it), so the oracle and the optimizer reject it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizationError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.operators import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    Sort,
)
from repro.tpch import TEMPLATE_NAMES, plan_space_for
from tests.optimizer.test_label_batching import coordinate

MODEL = CostModel()
LIMIT = MODEL.hash_memory_rows
selectivity = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, 0.02, 0.5]),
)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_modes_agree(node, points: np.ndarray) -> None:
    """Each row's float-path rows and cost equal the batch's, bitwise,
    with and without a memo."""
    rows, cost = node.evaluate(points)
    assert rows.shape == cost.shape == (len(points),)
    memo_rows, memo_cost = node.evaluate(points, {})
    assert memo_rows.tobytes() == rows.tobytes()
    assert memo_cost.tobytes() == cost.tobytes()
    for i, point in enumerate(points):
        for memo in (None, {}):
            point_rows, point_cost = node.evaluate_point(point.tolist(), memo)
            assert isinstance(point_rows, float)
            assert isinstance(point_cost, float)
            assert bits(point_rows) == rows[i].tobytes()
            assert bits(point_cost) == cost[i].tobytes()


def sort_over(base_rows: float) -> Sort:
    return Sort(SeqScan("a", base_rows, 10, (0,), MODEL), "a.k", MODEL)


class TestBranchPoints:
    @given(
        base_rows=st.sampled_from([1.0, 2.0, 3.0, 100.0]),
        s0=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_sort_at_and_below_two_rows(self, base_rows, s0):
        node = sort_over(base_rows)
        assert_modes_agree(node, np.array([[s0], [1.0], [0.0], [2.0 / base_rows]]))

    def test_sort_floor_is_exact(self):
        """At or below two rows the sort costs ``factor * rows``:
        ``log2(2.0)`` is exactly one on both paths."""
        for base_rows in (0.5, 2.0):
            rows, cost = sort_over(base_rows).evaluate_point([1.0])
            assert rows == base_rows
            scan_cost = 10 * MODEL.seq_page_cost + base_rows * MODEL.cpu_tuple_cost
            assert cost == scan_cost + MODEL.sort_cost_factor * base_rows

    @pytest.mark.parametrize(
        "inner_rows",
        [math.nextafter(LIMIT, 0.0), LIMIT, math.nextafter(LIMIT, math.inf)],
        ids=["below", "at", "above"],
    )
    def test_hash_join_at_the_spill_threshold(self, inner_rows):
        """``inner_rows > hash_memory_rows`` spills; exactly at the
        limit it does not, on either path."""
        outer = SeqScan("a", 100_000, 1_563, (0,), MODEL)
        inner = SeqScan("b", inner_rows, 782, (1,), MODEL)
        join = HashJoin(outer, inner, 1e-4, MODEL)
        points = np.array([[0.5, 1.0], [1.0, 1.0], [0.01, 1.0]])
        assert_modes_agree(join, points)
        __, spilled = join.evaluate_point([0.5, 1.0])
        __, unspilled = HashJoin(
            outer, SeqScan("b", inner_rows, 782, (1,), MODEL), 1e-4,
            CostModel(hash_memory_rows=2 * LIMIT),
        ).evaluate_point([0.5, 1.0])
        assert (spilled > unspilled) == (inner_rows > LIMIT)

    @given(s0=selectivity, s1=selectivity)
    @settings(max_examples=60, deadline=None)
    def test_unclustered_index_scan(self, s0, s1):
        """The Mackert-Lohman ``np.exp`` runs on a float for one point
        and must match the array ufunc's bits (``math.exp`` would not)."""
        scan = IndexScan("b", "ix", 1, 50_000, 782, (0,), False, MODEL)
        assert_modes_agree(scan, np.array([[s0, s1], [s1, s0], [1.0, 1e-5]]))

    @given(s0=selectivity, s1=selectivity)
    @settings(max_examples=30, deadline=None)
    def test_empty_param_indexes(self, s0, s1):
        """No predicate reaches these subtrees: their rows and cost are
        constants, broadcast to ``(n,)`` on the batch path."""
        constant = SeqScan("c", 5_000, 50, (), MODEL)
        other = SeqScan("d", 80_000, 900, (), MODEL)
        nodes = [
            constant,
            Sort(constant, "c.k", MODEL),
            HashJoin(other, constant, 1e-3, MODEL),
            NestedLoopJoin(SeqScan("a", 1_000, 10, (0,), MODEL), constant, 1e-3, MODEL),
            IndexScan("b", "ix", 1, 50_000, 782, (), True, MODEL),
            IndexNLJoin(constant, "b", "pk_b", 50_000, (), 1.0 / 50_000, MODEL),
            MergeJoin(
                Sort(other, "d.k", MODEL), Sort(constant, "c.k", MODEL),
                1e-3, MODEL, order="d.k",
            ),
        ]
        for node in nodes:
            assert_modes_agree(node, np.array([[s0, s1], [s1, s0]]))

    def test_a_constant_root_is_broadcast_and_writable(self):
        rows, cost = SeqScan("c", 5_000, 50, (), MODEL).evaluate(np.zeros((3, 2)))
        assert rows.shape == cost.shape == (3,)
        rows[0] = cost[0] = 1.0

    def test_a_memoized_constant_is_a_read_only_column(self):
        constant = SeqScan("c", 5_000, 50, (), MODEL)
        join = HashJoin(SeqScan("a", 1_000, 10, (0,), MODEL), constant, 1e-3, MODEL)
        memo: dict = {}
        join.evaluate(np.full((4, 1), 0.5), memo)
        for array in memo[constant]:
            assert array.shape == (4,)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_single_point_cost_at_is_batch_cost_at_bitwise(name, data):
    space = plan_space_for(name)
    points = np.array(
        data.draw(
            st.lists(
                st.lists(
                    coordinate,
                    min_size=space.dimensions,
                    max_size=space.dimensions,
                ),
                min_size=2,
                max_size=8,
            )
        )
    )
    for plan_id in [None, *range(space.plan_count)]:
        batch = space.cost_at(points, plan_id)
        single = np.concatenate(
            [space.cost_at(point[None, :], plan_id) for point in points]
        )
        assert single.dtype == batch.dtype == np.float64
        assert single.tobytes() == batch.tobytes()


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_optimize_cost_is_the_batch_cost_of_its_plan(name):
    """The DP's answer at one point equals the batch cost of the plan it
    returns, at every structured harvest probe."""
    space = plan_space_for(name)
    enumerator = DPEnumerator(space.template, space.catalog, space.model)
    probes = space._structured_probes(space.dimensions)
    selectivities = enumerator.mapping.to_selectivity(probes)
    for i, probe in enumerate(probes):
        plan, cost = enumerator.optimize(probe)[0]
        assert isinstance(cost, float)
        assert bits(cost) == plan.cost(selectivities[i : i + 1])[0].tobytes()


class TestNonFinitePoints:
    BAD = [math.nan, math.inf, -math.inf, -0.25, 1.5]

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "below", "above"])
    def test_oracle_rejects(self, q5_space, bad):
        point = np.full(q5_space.dimensions, 0.5)
        point[1] = bad
        batch = np.stack([np.full(q5_space.dimensions, 0.5), point])
        for points in (point[None, :], batch):
            with pytest.raises(OptimizationError):
                q5_space.label(points)
            with pytest.raises(OptimizationError):
                q5_space.cost_matrix(points)
            with pytest.raises(OptimizationError):
                q5_space.cost_at(points)
            with pytest.raises(OptimizationError):
                q5_space.cost_at(points, 0)

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "below", "above"])
    def test_optimizer_rejects(self, q5_space, bad):
        enumerator = DPEnumerator(q5_space.template, q5_space.catalog, q5_space.model)
        point = np.full(q5_space.dimensions, 0.5)
        point[0] = bad
        with pytest.raises(OptimizationError):
            enumerator.optimize(point)

    def test_optimizer_rejects_a_batch_with_one_bad_point(self, q5_space):
        enumerator = DPEnumerator(q5_space.template, q5_space.catalog, q5_space.model)
        batch = np.full((2, q5_space.dimensions), 0.5)
        assert len(enumerator.optimize(batch)) == 2
        batch[1, 0] = math.nan
        with pytest.raises(OptimizationError):
            enumerator.optimize(batch)
