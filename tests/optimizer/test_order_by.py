"""ORDER BY: interesting orders at the root of the plan."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.expressions import (
    ColumnRef,
    JoinPredicate,
    ParamPredicate,
    QueryTemplate,
)
from repro.optimizer.operators import Sort


def _template(order_by=None):
    return QueryTemplate(
        name="ordered",
        tables=("emp", "dept"),
        joins=(
            JoinPredicate(ColumnRef("emp", "dept_id"), ColumnRef("dept", "dept_id")),
        ),
        predicates=(
            ParamPredicate(ColumnRef("emp", "hired"), 0),
            ParamPredicate(ColumnRef("dept", "budget"), 1),
        ),
        order_by=order_by,
    )


class TestOrderBy:
    def test_output_carries_requested_order(self, tiny_catalog):
        template = _template(order_by=ColumnRef("emp", "hired"))
        enumerator = DPEnumerator(template, tiny_catalog)
        rng = np.random.default_rng(0)
        for point in rng.uniform(0, 1, (6, 2)):
            plan, __ = enumerator.optimize(point[None, :])[0]
            assert plan.root.sort_order == "emp.hired"

    def test_sorted_plan_no_more_than_sort_on_cheapest(self, tiny_catalog):
        """The ordered optimum never exceeds unordered optimum + one
        explicit sort (that combination is always a candidate)."""
        plain = DPEnumerator(_template(), tiny_catalog)
        ordered = DPEnumerator(
            _template(order_by=ColumnRef("emp", "hired")), tiny_catalog
        )
        rng = np.random.default_rng(1)
        for point in rng.uniform(0, 1, (6, 2)):
            plan_plain, cost_plain = plain.optimize(point[None, :])[0]
            x_sel = plain.mapping.to_selectivity(point[None, :])
            sorted_cheapest = Sort(
                plan_plain.root, "emp.hired", plain.builder.model
            )
            __, upper_bound = sorted_cheapest.evaluate(x_sel)
            __, cost_ordered = ordered.optimize(point[None, :])[0]
            assert cost_ordered <= float(upper_bound[0]) + 1e-9

    def test_ordered_at_least_as_expensive_as_plain(self, tiny_catalog):
        plain = DPEnumerator(_template(), tiny_catalog)
        ordered = DPEnumerator(
            _template(order_by=ColumnRef("emp", "hired")), tiny_catalog
        )
        point = np.array([[0.3, 0.6]])
        __, cost_plain = plain.optimize(point)[0]
        __, cost_ordered = ordered.optimize(point)[0]
        assert cost_ordered >= cost_plain - 1e-9

    def test_interesting_order_exploited_when_sort_is_expensive(
        self, tiny_catalog
    ):
        """When the result is large, sorting it costs more than reading
        through the matching index: the natively ordered plan must win
        (no top-level Sort)."""
        template = QueryTemplate(
            name="scan_ordered",
            tables=("emp",),
            predicates=(
                ParamPredicate(
                    ColumnRef("emp", "hired"), 0,
                    sel_range=(0.5, 0.99), scale="linear",
                ),
            ),
            order_by=ColumnRef("emp", "hired"),
        )
        enumerator = DPEnumerator(template, tiny_catalog)
        plan, __ = enumerator.optimize(np.array([[0.9]]))[0]
        assert not isinstance(plan.root, Sort)
        assert plan.root.sort_order == "emp.hired"

    def test_sort_enforcer_chosen_when_cheap(self, tiny_catalog):
        """When the result is tiny, a final sort is cheaper than any
        order-preserving plan: the enforcer must win."""
        ordered = DPEnumerator(
            _template(order_by=ColumnRef("emp", "hired")), tiny_catalog
        )
        plan, __ = ordered.optimize(np.array([[0.05, 0.5]]))[0]
        assert isinstance(plan.root, Sort)

    def test_order_by_rendered_in_sql(self):
        template = _template(order_by=ColumnRef("emp", "hired"))
        assert template.sql().endswith("ORDER BY emp.hired")

    def test_order_by_foreign_table_rejected(self):
        with pytest.raises(ConfigurationError):
            _template(order_by=ColumnRef("zzz", "a"))
