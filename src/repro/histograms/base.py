"""Histogram base class and bucket representation.

A histogram summarizes a weighted one-dimensional point set.  Each
bucket stores its boundaries, the number of points that fell inside it
and the sum of their associated costs.  Range queries interpolate under
the standard *continuous-values assumption*: points are uniformly
distributed within a bucket, so a query range receives mass
proportional to its overlap with the bucket.

The paper's space accounting (Table I) charges 12 bytes per bucket — a
32-bit count, a 32-bit average cost and a 32-bit boundary — which
:meth:`Histogram.space_bytes` reproduces.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass

import numpy as np

from repro.exceptions import HistogramError

#: Bytes per bucket: 32-bit count + 32-bit average cost + 32-bit boundary.
BYTES_PER_BUCKET = 12


@dataclass
class Bucket:
    """A single histogram bucket over ``[lo, hi]``.

    ``count`` is the number of inserted points, ``cost_sum`` the sum of
    their cost annotations.  A zero-width bucket (``lo == hi``) models a
    point mass, which arises naturally in the incremental histogram.
    """

    lo: float
    hi: float
    count: float = 0.0
    cost_sum: float = 0.0

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def average_cost(self) -> float:
        """Mean cost of the points in this bucket (0 when empty)."""
        if self.count <= 0.0:
            return 0.0
        return self.cost_sum / self.count

    def overlap_fraction(self, lo: float, hi: float) -> float:
        """Fraction of this bucket's mass inside the query range."""
        if self.width <= 0.0:
            return 1.0 if lo <= self.lo <= hi else 0.0
        inter = min(hi, self.hi) - max(lo, self.lo)
        if inter <= 0.0:
            return 0.0
        return min(1.0, inter / self.width)


class Histogram(ABC):
    """Common query interface shared by all histogram variants.

    Subclasses populate :attr:`buckets` (kept sorted by ``lo``) either
    at construction time (static variants) or via ``insert`` (the
    incremental variant).
    """

    def __init__(self, domain: tuple[float, float] = (0.0, 1.0)) -> None:
        lo, hi = domain
        if not lo < hi:
            raise HistogramError(f"empty histogram domain [{lo}, {hi}]")
        self.domain = (float(lo), float(hi))
        self.buckets: list[Bucket] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_count(self) -> float:
        """Total mass stored in the histogram."""
        return sum(b.count for b in self.buckets)

    @property
    def bucket_count(self) -> int:
        return len(self.buckets)

    def range_count(self, lo: float, hi: float) -> float:
        """Estimated number of points in ``[lo, hi]``."""
        if hi < lo:
            lo, hi = hi, lo
        return sum(b.count * b.overlap_fraction(lo, hi) for b in self.buckets)

    def range_cost(self, lo: float, hi: float) -> float:
        """Estimated average cost of the points in ``[lo, hi]``.

        Returns 0 when the range holds no mass, mirroring a histogram
        query that finds no qualifying buckets.
        """
        if hi < lo:
            lo, hi = hi, lo
        count = 0.0
        cost = 0.0
        for bucket in self.buckets:
            fraction = bucket.overlap_fraction(lo, hi)
            if fraction > 0.0:
                count += bucket.count * fraction
                cost += bucket.cost_sum * fraction
        if count <= 0.0:
            return 0.0
        return cost / count

    def space_bytes(self) -> int:
        """Storage footprint under the paper's 12-bytes-per-bucket model."""
        return self.bucket_count * BYTES_PER_BUCKET

    # ------------------------------------------------------------------
    # Vectorized range queries
    # ------------------------------------------------------------------
    def _bucket_arrays(self) -> tuple[np.ndarray, ...]:
        """Columnar bucket view: lo, hi, count and cost-sum arrays."""
        rows = [(b.lo, b.hi, b.count, b.cost_sum) for b in self.buckets]
        return tuple(np.array(rows, dtype=float).reshape(-1, 4).T)

    def _overlap_matrix(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> "np.ndarray | None":
        """Overlap fractions, shape ``(queries, buckets)``."""
        if not self.buckets:
            return None
        los, his, __, __ = self._bucket_arrays()
        lo = np.asarray(lo, dtype=float)[:, None]
        hi = np.asarray(hi, dtype=float)[:, None]
        widths = his - los
        inter = np.minimum(hi, his) - np.maximum(lo, los)
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.clip(inter / widths, 0.0, 1.0)
        # Point-mass buckets: in range iff lo <= bucket.lo <= hi.
        point_mass = widths <= 0.0
        in_range = (lo <= los) & (los <= hi)
        return np.where(point_mass, in_range.astype(float), fraction)

    def range_count_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`range_count` over query arrays ``(m,)``."""
        mass, __ = self.range_query_batch(lo, hi)
        return mass

    def range_query_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counts and average costs for query arrays ``(m,)`` in one
        overlap pass.  The predictors answer all their histograms at
        once through :class:`~repro.histograms.packed.PackedHistograms`;
        this per-histogram form is the reference that block is tested
        against.  An explicit multiply + trailing-axis sum, not a BLAS
        ``@``, reduces each query's mass over its own contiguous strip,
        bitwise independent of how many queries share the batch."""
        fractions = self._overlap_matrix(lo, hi)
        if fractions is None:
            zeros = np.zeros(np.asarray(lo).shape[0])
            return zeros, zeros.copy()
        __, __, counts, cost_sums = self._bucket_arrays()
        mass = (fractions * counts).sum(axis=1)
        cost = (fractions * cost_sums).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            average = np.where(mass > 0.0, cost / np.maximum(mass, 1e-300), 0.0)
        return mass, average

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _check_in_domain(self, value: float) -> None:
        lo, hi = self.domain
        if not lo <= value <= hi:
            raise HistogramError(
                f"value {value!r} outside histogram domain [{lo}, {hi}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(buckets={self.bucket_count}, "
            f"count={self.total_count:g})"
        )
