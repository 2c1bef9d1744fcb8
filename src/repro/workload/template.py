"""Binding between query instances and plan-space points.

A :class:`QueryInstance` carries the actual parameter values an
application supplies (Definition 1).  The :class:`TemplateBinder`
implements the paper's ``f`` function (Section II-A): it converts those
values to predicate selectivities using the same column statistics the
optimizer uses, then normalizes the selectivities onto ``[0, 1]``
through the template's parameter mapping.  A run of instances binds in
arrays (:meth:`TemplateBinder.to_points`); a single instance binds in
Python floats (:meth:`TemplateBinder.to_point`), bit for bit the run's
row.  The inverse direction lets workload generators place query
instances at chosen plan-space coordinates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import WorkloadError
from repro.optimizer.expressions import QueryTemplate
from repro.optimizer.parameters import ParameterMapping
from repro.optimizer.selectivity import value_for_selectivity
from repro.optimizer.statistics import CatalogStatistics

#: Value types the one-instance bind converts with ``float``, as the
#: run's ``np.array(..., dtype=float)`` converts them.
_REAL_TYPES = frozenset(
    {float, int, bool, np.bool_}
    | {
        np.dtype(code).type
        for code in np.typecodes["AllInteger"] + np.typecodes["Float"]
    }
)


@dataclass(frozen=True)
class QueryInstance:
    """An instantiation of a query template (Definition 1)."""

    template_name: str
    values: tuple[float, ...]

    @property
    def parameter_degree(self) -> int:
        return len(self.values)


class TemplateBinder:
    """Bidirectional ``f`` map for one template.

    The column sketches are resolved when the binder is built.  A run
    of instances (:meth:`to_points`) then costs one ``np.interp`` per
    predicate and one normalization, however long it is; a single
    instance (:meth:`to_point`) costs one bisection, one interpolation
    and one normalization per predicate, in Python floats.
    """

    def __init__(
        self,
        template: QueryTemplate,
        statistics: CatalogStatistics,
        mapping: "ParameterMapping | None" = None,
    ) -> None:
        self.template = template
        self.statistics = statistics
        self.mapping = mapping or ParameterMapping.for_template(
            template, statistics.catalog
        )
        self._predicates = sorted(
            template.predicates, key=lambda p: p.param_index
        )
        # Per predicate, in parameter order: its column sketch's
        # quantiles and fractions (``ColumnStatistics.selectivity_leq``
        # is ``np.interp`` over them), and whether its selectivity is
        # ``1 - leq`` (``>=``); ``_knots`` holds the same sketches as
        # tuples of floats (``ColumnStatistics.knots``) for the
        # one-instance bind.
        self._sketches = []
        self._knots = []
        for predicate in self._predicates:
            sketch = statistics.column(
                predicate.column.table, predicate.column.column
            )
            geq = predicate.op == ">="
            self._sketches.append((sketch.quantiles, sketch.fractions, geq))
            self._knots.append((*sketch.knots, geq))

    def to_points(self, instances: Sequence[QueryInstance]) -> np.ndarray:
        """Map a run of instances to plan-space points, ``(m, r)``.

        Every instance is checked before any is bound: its template,
        its value count, and that each value is a number.  The first
        bad one raises :class:`WorkloadError` naming its position in
        ``instances``.  ``None`` binds as NaN, like NaN itself, and the
        session's non-finite guard rejects the point.  The selectivities
        are then computed the way the optimizer estimates them, one
        sketch lookup (``np.interp``) per predicate over the run's column
        of values, and normalized in one call over the block.
        """
        name = self.template.name
        degree = self.template.parameter_degree
        for index, instance in enumerate(instances):
            if instance.template_name != name:
                raise WorkloadError(
                    f"instance {index} of {instance.template_name!r} bound "
                    f"against template {name!r}"
                )
            if len(instance.values) != degree:
                raise WorkloadError(
                    f"instance {index} has {len(instance.values)} values; "
                    f"template {name!r} expects {degree}"
                )
        try:
            values = np.array(
                [instance.values for instance in instances], dtype=float
            ).reshape(len(instances), degree)
        except (TypeError, ValueError, OverflowError):
            raise WorkloadError(_non_numeric(instances)) from None
        selectivities = np.empty_like(values)
        for column, (quantiles, fractions, geq) in enumerate(self._sketches):
            leq = np.interp(values[:, column], quantiles, fractions)
            selectivities[:, column] = 1.0 - leq if geq else leq
        return self.mapping.to_normalized(selectivities)

    def to_point(self, instance: QueryInstance) -> np.ndarray:
        """Map one instance's parameter values to a plan-space point.

        Computed in Python floats, per predicate: the value's
        interpolation on its column sketch (:func:`_interp`, numpy's
        interp rule written out), ``1 - leq`` for ``>=``, then
        :meth:`ParameterMapping.point_to_normalized`.  Each step makes
        the same IEEE operations as the arrays of :meth:`to_points`, so
        the point is bit for bit the run's row.  An instance this path
        does not take (another template, another value count, or a value
        that is not ``None``, a real number or a numpy real scalar, or
        does not fit a float) is a run of one through :meth:`to_points`,
        which raises its :class:`WorkloadError` or binds it as a run
        does.
        """
        values = instance.values
        if (
            instance.template_name != self.template.name
            or len(values) != len(self._sketches)
        ):
            return self.to_points([instance])[0]
        selectivities = []
        for value, (quantiles, fractions, geq) in zip(values, self._knots):
            if value is None:
                value = math.nan
            elif type(value) in _REAL_TYPES:
                try:
                    value = float(value)
                except OverflowError:
                    return self.to_points([instance])[0]
            else:
                return self.to_points([instance])[0]
            leq = _interp(value, quantiles, fractions)
            selectivities.append(1.0 - leq if geq else leq)
        return np.array(self.mapping.point_to_normalized(selectivities))

    def to_instance(self, point: np.ndarray) -> QueryInstance:
        """Produce parameter values landing at a plan-space point."""
        point = np.asarray(point, dtype=float).reshape(1, -1)
        if point.shape[1] != self.template.parameter_degree:
            raise WorkloadError(
                f"point has degree {point.shape[1]}; template expects "
                f"{self.template.parameter_degree}"
            )
        selectivities = self.mapping.to_selectivity(point)[0]
        values = tuple(
            value_for_selectivity(self.statistics, predicate, selectivity)
            for predicate, selectivity in zip(self._predicates, selectivities, strict=True)
        )
        return QueryInstance(self.template.name, values)


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """``np.interp(x, xp, fp)`` of one float over two or more
    non-decreasing knots ``xp`` and their values ``fp``, bit for bit,
    in Python floats.

    numpy's rule: NaN passes through; below ``xp[0]`` is ``fp[0]`` and
    above ``xp[-1]`` is ``fp[-1]``; otherwise ``j`` is the last knot at
    or below ``x`` (the last of tied knots), and ``x == xp[j]`` returns
    ``fp[j]``.  Between knots the line through ``j`` is
    ``slope * (x - xp[j]) + fp[j]``; a NaN there retries through
    ``j + 1``, and a NaN again between equal values is ``fp[j]``.
    """
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or x == xp[j]:
        # At or past the last knot, or on a knot.
        return fp[j]
    # xp[j] < x < xp[j + 1]: the divisor is positive.
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    result = slope * (x - xp[j]) + fp[j]
    if result != result:
        result = slope * (x - xp[j + 1]) + fp[j + 1]
        if result != result and fp[j] == fp[j + 1]:
            result = fp[j]
    return result


def _non_numeric(instances: Sequence[QueryInstance]) -> str:
    """The error message naming the first value that is not a number."""
    for index, instance in enumerate(instances):
        for position, value in enumerate(instance.values):
            try:
                numeric = np.asarray(value, dtype=float).ndim == 0
            except (TypeError, ValueError, OverflowError):
                numeric = False
            if not numeric:
                return (
                    f"instance {index} of {instance.template_name!r}: "
                    f"value {position} ({value!r:.40}) is not a number"
                )
    return "instance values are not numbers"
