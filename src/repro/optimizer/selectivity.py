"""Predicate selectivity estimation from column statistics.

The bridge between parameter *values* and the optimizer's world of
selectivities: given a parameterized range predicate and a bound value,
estimate the fraction of rows satisfying it — computed exactly the way
the optimizer itself would, from the per-column quantile sketches
(Section II-B: the framework "computes the predicate selectivities in
the same way that the query optimizer makes its selectivity
estimations").
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.optimizer.expressions import ParamPredicate
from repro.optimizer.statistics import CatalogStatistics


def predicate_selectivity(
    statistics: CatalogStatistics,
    predicate: ParamPredicate,
    value: float,
) -> float:
    """Estimated selectivity of ``predicate`` bound to ``value``."""
    sketch = statistics.column(
        predicate.column.table, predicate.column.column
    )
    leq = float(sketch.selectivity_leq(value))
    if predicate.op == "<=":
        return leq
    if predicate.op == ">=":
        return 1.0 - leq
    raise ConfigurationError(f"unsupported predicate op {predicate.op!r}")


def value_for_selectivity(
    statistics: CatalogStatistics,
    predicate: ParamPredicate,
    selectivity: float,
) -> float:
    """Inverse of :func:`predicate_selectivity` (up to interpolation)."""
    if not 0.0 <= selectivity <= 1.0:
        raise ConfigurationError("selectivity must lie in [0, 1]")
    sketch = statistics.column(
        predicate.column.table, predicate.column.column
    )
    target = selectivity if predicate.op == "<=" else 1.0 - selectivity
    return float(sketch.value_at_selectivity(target))

