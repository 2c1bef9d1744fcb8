"""Equi-width histogram: fixed-width buckets over the domain.

The simplest construction; bucket boundaries ignore the data entirely,
so it suffers exactly the bucket-misalignment problem the paper
attributes to fixed grids.  Included as the weakest member of the
histogram family and as an ablation baseline for the boundary-choosing
constructions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import HistogramError
from repro.histograms.base import Bucket, Histogram


class EquiWidthHistogram(Histogram):
    """Histogram with ``bucket_count`` equal-width buckets."""

    def __init__(
        self,
        bucket_count: int,
        domain: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        if bucket_count < 1:
            raise HistogramError("bucket_count must be >= 1")
        super().__init__(domain)
        lo, hi = self.domain
        edges = np.linspace(lo, hi, bucket_count + 1)
        self.buckets = [
            Bucket(float(edges[i]), float(edges[i + 1]))
            for i in range(bucket_count)
        ]

    @classmethod
    def build(
        cls,
        values: Sequence[float],
        costs: Sequence[float] | None = None,
        bucket_count: int = 40,
        domain: tuple[float, float] = (0.0, 1.0),
    ) -> "EquiWidthHistogram":
        """Construct and populate a histogram from labeled points."""
        hist = cls(bucket_count, domain)
        if costs is None:
            costs = np.zeros(len(values))
        for value, cost in zip(values, costs, strict=True):
            hist.insert(float(value), float(cost))
        return hist

    def insert(self, value: float, cost: float = 0.0, weight: float = 1.0) -> None:
        """Add one point; O(1) via direct bucket-index arithmetic."""
        self._check_in_domain(value)
        if weight <= 0.0:
            raise HistogramError("insertion weight must be > 0")
        lo, hi = self.domain
        span = hi - lo
        index = int((value - lo) / span * len(self.buckets))
        index = min(index, len(self.buckets) - 1)
        bucket = self.buckets[index]
        bucket.count += weight
        bucket.cost_sum += cost * weight
