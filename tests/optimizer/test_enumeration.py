"""DP enumeration: access paths, join candidates, optimality, and the
batched DP's parity with one point at a time."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import OptimizationError
from repro.optimizer.catalog import Catalog, Column, Index, Table
from repro.optimizer.enumeration import DPEnumerator, PlanBuilder
from repro.optimizer.expressions import (
    ColumnRef,
    JoinPredicate,
    ParamPredicate,
    QueryTemplate,
)
from repro.optimizer.operators import IndexScan, SeqScan
from repro.tpch import TEMPLATE_NAMES, build_catalog, query_template
from tests.optimizer.test_order_by import _template as ordered_template


class TestAccessPaths:
    def test_seqscan_always_offered(self, tiny_template, tiny_catalog):
        builder = PlanBuilder(tiny_template, tiny_catalog)
        paths = builder.access_paths("dept")
        assert any(isinstance(p, SeqScan) for p in paths)

    def test_index_scan_for_indexed_predicate(self, tiny_template, tiny_catalog):
        builder = PlanBuilder(tiny_template, tiny_catalog)
        paths = builder.access_paths("emp")
        index_scans = [p for p in paths if isinstance(p, IndexScan)]
        assert len(index_scans) == 1  # only emp.hired is indexed
        assert index_scans[0].sort_order == "emp.hired"

    def test_no_index_scan_for_unindexed_predicate(
        self, tiny_template, tiny_catalog
    ):
        builder = PlanBuilder(tiny_template, tiny_catalog)
        # dept.budget has no index.
        paths = builder.access_paths("dept")
        assert all(isinstance(p, SeqScan) for p in paths)


class TestJoinCandidates:
    def test_all_methods_offered(self, tiny_template, tiny_catalog):
        builder = PlanBuilder(tiny_template, tiny_catalog)
        outer = builder.access_paths("emp")[0]
        candidates = builder.join_candidates(outer, "dept")
        kinds = {type(c).__name__ for c in candidates}
        assert {"HashJoin", "NestedLoopJoin", "MergeJoin"} <= kinds
        # dept.dept_id is indexed (pk), so IndexNLJoin must appear.
        assert "IndexNLJoin" in kinds

    def test_unconnected_tables_yield_nothing(self, tiny_template, tiny_catalog):
        builder = PlanBuilder(tiny_template, tiny_catalog)
        outer = builder.access_paths("dept")[0]
        # joining dept with dept again is blocked upstream; simulate an
        # unconnected expansion via a template without the join.
        template = QueryTemplate(
            name="nojoin",
            tables=("emp", "dept"),
            predicates=(ParamPredicate(ColumnRef("emp", "hired"), 0),),
        )
        builder = PlanBuilder(template, tiny_catalog)
        assert builder.join_candidates(outer, "emp") == []

    def test_join_selectivity_from_distinct_counts(
        self, tiny_template, tiny_catalog
    ):
        builder = PlanBuilder(tiny_template, tiny_catalog)
        selectivity = builder.join_selectivity(list(tiny_template.joins))
        assert selectivity == pytest.approx(1.0 / 500.0)


class TestDPOptimality:
    def test_dp_matches_exhaustive_left_deep(self, tiny_template, tiny_catalog):
        """On a two-table query, DP must find the best of all
        (outer choice x inner choice x method) combinations."""
        enumerator = DPEnumerator(tiny_template, tiny_catalog)
        builder = enumerator.builder
        x_norm = np.array([[0.5, 0.5]])
        x_sel = enumerator.mapping.to_selectivity(x_norm)

        best_cost = np.inf
        for outer_table, inner_table in itertools.permutations(
            ("emp", "dept")
        ):
            for outer in builder.access_paths(outer_table):
                for candidate in builder.join_candidates(outer, inner_table):
                    __, cost = candidate.evaluate(x_sel)
                    best_cost = min(best_cost, float(cost[0]))

        plan, dp_cost = enumerator.optimize(x_norm)[0]
        assert dp_cost == pytest.approx(best_cost, rel=1e-9)

    def test_plan_choice_varies_across_space(self, tiny_template, tiny_catalog):
        enumerator = DPEnumerator(tiny_template, tiny_catalog)
        fingerprints = set()
        for x0 in (0.02, 0.5, 0.98):
            for x1 in (0.02, 0.5, 0.98):
                plan, __ = enumerator.optimize(np.array([[x0, x1]]))[0]
                fingerprints.add(plan.fingerprint)
        assert len(fingerprints) >= 2

    def test_cost_positive(self, tiny_template, tiny_catalog):
        enumerator = DPEnumerator(tiny_template, tiny_catalog)
        __, cost = enumerator.optimize(np.array([[0.5, 0.5]]))[0]
        assert cost > 0

    def test_wrong_arity_rejected(self, tiny_template, tiny_catalog):
        enumerator = DPEnumerator(tiny_template, tiny_catalog)
        with pytest.raises(OptimizationError):
            enumerator.optimize(np.array([[0.5, 0.5, 0.5]]))

    def test_disconnected_join_graph_rejected(self, tiny_catalog):
        template = QueryTemplate(
            name="disconnected",
            tables=("emp", "dept"),
            predicates=(
                ParamPredicate(ColumnRef("emp", "hired"), 0),
                ParamPredicate(ColumnRef("dept", "budget"), 1),
            ),
        )
        enumerator = DPEnumerator(template, tiny_catalog)
        with pytest.raises(OptimizationError):
            enumerator.optimize(np.array([[0.5, 0.5]]))


class TestThreeWayJoin:
    def test_three_table_chain(self, tiny_catalog):
        """Add a third table and check DP still returns a valid plan
        covering all tables."""
        catalog = Catalog()
        for table in tiny_catalog.tables.values():
            catalog.add_table(
                Table(table.name, table.row_count, dict(table.columns))
            )
        for index in tiny_catalog.indexes.values():
            catalog.add_index(
                Index(index.name, index.table, index.column, index.unique,
                      index.clustered)
            )
        catalog.add_table(
            Table(
                "region",
                20,
                {
                    "region_id": Column("region_id", 1, 20, 20),
                    "r_tax": Column("r_tax", 0, 10, 10),
                },
            )
        )
        catalog.tables["dept"].columns["region_id"] = Column(
            "region_id", 1, 20, 20
        )
        template = QueryTemplate(
            name="chain3",
            tables=("emp", "dept", "region"),
            joins=(
                JoinPredicate(
                    ColumnRef("emp", "dept_id"), ColumnRef("dept", "dept_id")
                ),
                JoinPredicate(
                    ColumnRef("dept", "region_id"),
                    ColumnRef("region", "region_id"),
                ),
            ),
            predicates=(
                ParamPredicate(ColumnRef("emp", "hired"), 0),
                ParamPredicate(ColumnRef("region", "r_tax"), 1),
            ),
        )
        enumerator = DPEnumerator(template, catalog)
        plan, cost = enumerator.optimize(np.array([[0.3, 0.7]]))[0]
        assert plan.root.tables == frozenset(("emp", "dept", "region"))
        assert cost > 0


#: Coordinates drawn per row: anywhere in [0, 1], or on a 1/10 or 1/100
#: grid, where candidate costs tie most often.
tie_prone = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(0, 10).map(lambda k: k / 10.0),
    st.integers(0, 100).map(lambda k: k / 100.0),
)


def draw_batch(data, dimensions: int) -> np.ndarray:
    """A few drawn rows, then the all-0 and all-1 corners."""
    rows = data.draw(
        st.lists(
            st.lists(tie_prone, min_size=dimensions, max_size=dimensions),
            min_size=1,
            max_size=6,
        )
    )
    return np.array(rows + [[0.0] * dimensions, [1.0] * dimensions])


def assert_batch_is_per_point(enumerator: DPEnumerator, points: np.ndarray):
    """``optimize(batch)[i]`` is ``optimize(batch[i:i+1])[0]``: the same
    plan fingerprint and the same cost bits."""
    answers = enumerator.optimize(points)
    assert len(answers) == len(points)
    for i, (plan, cost) in enumerate(answers):
        alone, alone_cost = enumerator.optimize(points[i : i + 1])[0]
        assert plan.fingerprint == alone.fingerprint
        assert isinstance(cost, float)
        assert np.float64(cost).tobytes() == np.float64(alone_cost).tobytes()


@pytest.fixture(scope="module")
def tpch_catalog() -> Catalog:
    return build_catalog()


class TestBatchParity:
    @pytest.mark.parametrize("bushy", [False, True], ids=["left_deep", "bushy"])
    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_tpch_batch_is_per_point(self, tpch_catalog, name, bushy, data):
        template = query_template(name)
        enumerator = DPEnumerator(template, tpch_catalog, allow_bushy=bushy)
        assert_batch_is_per_point(
            enumerator, draw_batch(data, template.parameter_degree)
        )

    @given(data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_order_by_batch_is_per_point(self, tiny_catalog, data):
        """The finalist step: a plan sorted on the ORDER BY column, or a
        plan under a final ``Sort``."""
        template = ordered_template(order_by=ColumnRef("emp", "hired"))
        enumerator = DPEnumerator(template, tiny_catalog)
        points = draw_batch(data, template.parameter_degree)
        assert_batch_is_per_point(enumerator, points)
        for plan, __ in enumerator.optimize(points):
            assert plan.root.sort_order == "emp.hired"

    def test_empty_batch_has_no_answers(self, tiny_template, tiny_catalog):
        enumerator = DPEnumerator(tiny_template, tiny_catalog)
        assert enumerator.optimize(np.empty((0, 2))) == []
