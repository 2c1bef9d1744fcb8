"""Cost-based query-optimizer substrate.

The paper treats a commercial optimizer as a black box exposing two
functions per query template: ``plan(x)`` — the chosen plan at a point
``x`` of normalized optimizer parameters (predicate selectivities) —
and ``cost(x, p)`` — a plan's estimated execution cost at ``x``.  This
package implements that black box from scratch:

* a catalog of tables, columns and indexes (:mod:`~repro.optimizer.catalog`);
* per-column quantile statistics and selectivity estimation
  (:mod:`~repro.optimizer.statistics`, :mod:`~repro.optimizer.selectivity`);
* a query representation with parameterized predicates
  (:mod:`~repro.optimizer.expressions`);
* physical operators with vectorized cardinality/cost formulas
  (:mod:`~repro.optimizer.operators`, :mod:`~repro.optimizer.cost_model`);
* a System-R style dynamic-programming join enumerator
  (:mod:`~repro.optimizer.enumeration`);
* the :class:`~repro.optimizer.plan_space.PlanSpace` oracle that labels
  arbitrary selectivity points with optimal plans and costs, which is
  what every PPC experiment consumes.
"""

from repro.optimizer.catalog import Catalog, Column, Index, Table
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.expressions import (
    ColumnRef,
    JoinPredicate,
    ParamPredicate,
    QueryTemplate,
)
from repro.optimizer.plan_space import PlanSpace
from repro.optimizer.plans import PhysicalPlan
from repro.optimizer.statistics import CatalogStatistics, ColumnStatistics

__all__ = [
    "Catalog",
    "Column",
    "Index",
    "Table",
    "ColumnRef",
    "JoinPredicate",
    "ParamPredicate",
    "QueryTemplate",
    "CostModel",
    "DPEnumerator",
    "PlanSpace",
    "PhysicalPlan",
    "CatalogStatistics",
    "ColumnStatistics",
]
