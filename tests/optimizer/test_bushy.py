"""Bushy join enumeration."""

import numpy as np
import pytest

from repro.optimizer.enumeration import DPEnumerator
from repro.tpch import build_catalog, query_template


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


class TestBushyEnumeration:
    def test_bushy_never_worse(self, catalog):
        """Bushy enumeration explores a superset of left-deep trees, so
        its optimum can only be equal or cheaper at every point."""
        template = query_template("Q7")  # five tables
        left_deep = DPEnumerator(template, catalog, allow_bushy=False)
        bushy = DPEnumerator(template, catalog, allow_bushy=True)
        rng = np.random.default_rng(0)
        for point in rng.uniform(0, 1, (8, 6)):
            __, cost_ld = left_deep.optimize(point[None, :])[0]
            __, cost_bushy = bushy.optimize(point[None, :])[0]
            assert cost_bushy <= cost_ld + 1e-9

    def test_bushy_wins_on_double_ended_chain(self):
        """A chain with selective filters at both ends and a many-many
        blowup in the middle: left-deep must carry the blowup from one
        end; only a bushy tree reduces both ends first."""
        from repro.optimizer.catalog import Catalog, Column, Table
        from repro.optimizer.expressions import (
            ColumnRef,
            JoinPredicate,
            ParamPredicate,
            QueryTemplate,
        )

        catalog = Catalog()
        catalog.add_table(
            Table("a", 10_000, {
                "ab": Column("ab", 1, 10_000, 10_000),
                "af": Column("af", 0, 100, 100),
            })
        )
        catalog.add_table(
            Table("b", 10_000, {
                "ab": Column("ab", 1, 10_000, 10_000),
                # Many-many middle join: only 100 distinct keys.
                "bc": Column("bc", 1, 100, 100),
            })
        )
        catalog.add_table(
            Table("c", 1_000_000, {
                "bc": Column("bc", 1, 100, 100),
                "cd": Column("cd", 1, 10, 10),
            })
        )
        catalog.add_table(
            Table("d", 10, {
                "cd": Column("cd", 1, 10, 10),
                "df": Column("df", 0, 100, 100),
            })
        )
        template = QueryTemplate(
            name="chain",
            tables=("a", "b", "c", "d"),
            joins=(
                JoinPredicate(ColumnRef("a", "ab"), ColumnRef("b", "ab")),
                JoinPredicate(ColumnRef("b", "bc"), ColumnRef("c", "bc")),
                JoinPredicate(ColumnRef("c", "cd"), ColumnRef("d", "cd")),
            ),
            predicates=(
                ParamPredicate(
                    ColumnRef("a", "af"), 0,
                    sel_range=(1e-3, 1e-2),
                ),
                ParamPredicate(
                    ColumnRef("d", "df"), 1,
                    sel_range=(0.05, 0.2),
                ),
            ),
        )
        left_deep = DPEnumerator(template, catalog, allow_bushy=False)
        bushy = DPEnumerator(template, catalog, allow_bushy=True)
        point = np.array([[0.1, 0.1]])
        plan_bushy, cost_bushy = bushy.optimize(point)[0]
        __, cost_ld = left_deep.optimize(point)[0]
        assert cost_bushy < cost_ld
        assert _has_bushy_shape(plan_bushy.root)

    def test_three_tables_unaffected(self, catalog):
        """With fewer than four tables there is no bushy shape; both
        modes must agree exactly."""
        template = query_template("Q3")
        left_deep = DPEnumerator(template, catalog, allow_bushy=False)
        bushy = DPEnumerator(template, catalog, allow_bushy=True)
        rng = np.random.default_rng(2)
        for point in rng.uniform(0, 1, (5, 3)):
            plan_ld, cost_ld = left_deep.optimize(point[None, :])[0]
            plan_bushy, cost_bushy = bushy.optimize(point[None, :])[0]
            assert cost_bushy == pytest.approx(cost_ld)
            assert plan_bushy.fingerprint == plan_ld.fingerprint


def _has_bushy_shape(node) -> bool:
    """True if some join in the tree has joins on both inputs."""
    from repro.optimizer.operators import Sort, _Join

    def strip(child):
        while isinstance(child, Sort):
            child = child.child
        return child

    if isinstance(node, _Join):
        outer = strip(node.outer)
        inner = strip(node.inner)
        if isinstance(outer, _Join) and isinstance(inner, _Join):
            return True
        return _has_bushy_shape(outer) or _has_bushy_shape(inner)
    return False
