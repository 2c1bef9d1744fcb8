"""Column statistics: quantile sketches over column value distributions.

A :class:`ColumnStatistics` stores the column's empirical quantile
function as a small table of (fraction, value) pairs — the moral
equivalent of the equi-depth histograms a real optimizer keeps per
column.  Two operations matter:

* ``selectivity_leq(v)`` — the estimated fraction of rows with value at
  most ``v`` (the forward map used when binding a query instance); and
* ``value_at_selectivity(s)`` — the parameter value whose ``<=``
  predicate selects fraction ``s`` of the rows (the inverse map used by
  workload generators to place query instances at chosen plan-space
  coordinates).

Both are monotone and inverse to each other up to interpolation error,
which the property-based tests pin down.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CatalogError
from repro.optimizer.catalog import Catalog, Column
from repro.rng import as_generator

#: Resolution of the per-column quantile sketch.
QUANTILE_POINTS = 129


class ColumnStatistics:
    """Quantile sketch of one column's value distribution."""

    def __init__(self, column: Column, quantiles: np.ndarray) -> None:
        quantiles = np.asarray(quantiles, dtype=float)
        if quantiles.ndim != 1 or quantiles.size < 2:
            raise CatalogError("quantile sketch needs at least two points")
        if not np.isfinite(quantiles).all():
            raise CatalogError("quantile sketch must be finite")
        if (np.diff(quantiles) < 0).any():
            raise CatalogError("quantile sketch must be non-decreasing")
        self.column = column
        self.quantiles = quantiles
        self.fractions = np.linspace(0.0, 1.0, quantiles.size)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, column: Column, samples: np.ndarray) -> "ColumnStatistics":
        """Build the sketch from sampled column values.

        The sketch is what ``np.quantile(samples, fractions)`` returns
        (numpy's default ``linear`` method), byte for byte unless the
        samples hold both ``-0.0`` and ``0.0``, which sort either way.
        :func:`_linear_quantiles` reads it off the sorted samples by
        index, without numpy's partition around every fraction's order
        statistics.  A non-finite sample makes a non-finite quantile,
        which the constructor rejects.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise CatalogError(f"no samples for column {column.name}")
        return cls(column, _linear_quantiles(np.sort(samples, axis=None)))

    @classmethod
    def uniform(cls, column: Column) -> "ColumnStatistics":
        """Exact sketch for a uniformly distributed column."""
        quantiles = np.linspace(column.lo, column.hi, QUANTILE_POINTS)
        return cls(column, quantiles)

    @classmethod
    def gaussian(
        cls,
        column: Column,
        mean: float,
        std: float,
        sample_count: int = 50_000,
        seed: "int | np.random.Generator | None" = None,
    ) -> "ColumnStatistics":
        """Sketch for a Gaussian column clipped to the column domain.

        The paper's modified TPC-H schema populates the added date
        columns with Gaussian values; this mirrors that generation
        without materializing the table.
        """
        rng = as_generator(seed)
        samples = rng.normal(mean, std, size=sample_count)
        samples = np.clip(samples, column.lo, column.hi)
        return cls.from_samples(column, samples)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def selectivity_leq(self, value: "float | np.ndarray") -> "float | np.ndarray":
        """Estimated fraction of rows with column value <= ``value``."""
        result = np.interp(value, self.quantiles, self.fractions)
        if np.isscalar(value):
            return float(result)
        return result

    def value_at_selectivity(
        self, selectivity: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Parameter value whose ``<=`` predicate selects ``selectivity``."""
        result = np.interp(selectivity, self.fractions, self.quantiles)
        if np.isscalar(selectivity):
            return float(result)
        return result


def _linear_quantiles(ordered: np.ndarray) -> np.ndarray:
    """The sketch's quantiles of sorted samples, bit for bit what
    ``np.quantile`` returns for them with its ``linear`` method.

    numpy's recipe, written out: fraction ``f`` of ``n`` samples sits at
    virtual index ``(n - 1) * f``, between the order statistics at its
    floor and the next index (both the last sample from ``n - 1`` on,
    where the weight becomes ``virtual + 1``), and numpy's ``_lerp``
    weighs the pair from the lower one below a weight of one half and
    from the upper one from there on.
    """
    n = ordered.size
    virtual = (n - 1) * np.linspace(0.0, 1.0, QUANTILE_POINTS)
    index = np.floor(virtual)
    last = virtual >= n - 1
    index[last] = -1
    weight = virtual - index
    lower = index.astype(np.intp)
    upper = lower + 1
    upper[last] = -1
    below, above = ordered[lower], ordered[upper]
    span = above - below
    quantiles = below + span * weight
    np.subtract(above, span * (1 - weight), out=quantiles, where=weight >= 0.5)
    return quantiles


class TableStatistics:
    """Statistics for one table: row count plus per-column sketches."""

    def __init__(self, name: str, row_count: int) -> None:
        self.name = name
        self.row_count = row_count
        self.columns: dict[str, ColumnStatistics] = {}

    def add(self, stats: ColumnStatistics) -> None:
        self.columns[stats.column.name] = stats

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no statistics for column {self.name}.{name}"
            ) from None


class CatalogStatistics:
    """Statistics for every table of a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.tables: dict[str, TableStatistics] = {}

    def add_table(self, stats: TableStatistics) -> None:
        self.catalog.table(stats.name)
        self.tables[stats.name] = stats

    def table(self, name: str) -> TableStatistics:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no statistics for table {name!r}") from None

    def column(self, table: str, column: str) -> ColumnStatistics:
        return self.table(table).column(column)
