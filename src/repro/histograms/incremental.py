"""Online-insertable bounded-bucket histogram.

The ONLINE-APPROXIMATE-LSH-HISTOGRAMS predictor inserts newly optimized
plan-space points into its histograms one at a time (Section IV-D), so
the synopsis structure must support streaming insertion under a hard
bucket budget.  This implementation follows the streaming-histogram
approach of Ben-Haim and Tom-Tov: each insertion creates a point-mass
bucket, and when the budget is exceeded the two adjacent buckets whose
merge produces the narrowest combined bucket are coalesced.  Merging
the narrowest pair keeps boundaries aligned with the dense z-order
clusters, approximating the error-minimizing constructions that the
static variants compute offline.

This class is the reference that the predictors' in-place insert,
:meth:`repro.histograms.packed.PackedHistograms.insert`, is tested against.
"""

from __future__ import annotations

import bisect

from repro.exceptions import HistogramError
from repro.histograms.base import Bucket, Histogram


class IncrementalHistogram(Histogram):
    """Histogram with at most ``max_buckets`` buckets, built by insertion."""

    def __init__(
        self,
        max_buckets: int = 40,
        domain: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        if max_buckets < 1:
            raise HistogramError("max_buckets must be >= 1")
        super().__init__(domain)
        self.max_buckets = max_buckets

    def insert(self, value: float, cost: float = 0.0, weight: float = 1.0) -> None:
        """Insert one labeled point, merging buckets if over budget.

        ``weight`` scales the point's mass (and its cost contribution);
        fractional weights implement the discounted insertion of the
        positive-feedback extension.
        """
        self._check_in_domain(value)
        if weight <= 0.0:
            raise HistogramError("insertion weight must be > 0")
        index = bisect.bisect_left(self.buckets, value, key=lambda b: b.lo)

        # Absorb into an existing bucket when the value already lies
        # inside one; otherwise create a point-mass bucket.
        if index < len(self.buckets) and self.buckets[index].lo == value:
            bucket = self.buckets[index]
        elif index > 0 and self.buckets[index - 1].hi >= value:
            bucket = self.buckets[index - 1]
        else:
            bucket = Bucket(lo=value, hi=value)
            self.buckets.insert(index, bucket)
        bucket.count += weight
        bucket.cost_sum += cost * weight

        while len(self.buckets) > self.max_buckets:
            self._merge_narrowest_pair()

    def shrink(self, new_max: int) -> None:
        """Reduce the bucket budget in place (memory-governor support)."""
        if new_max < 1:
            raise HistogramError("max_buckets must be >= 1")
        self.max_buckets = new_max
        while len(self.buckets) > self.max_buckets:
            self._merge_narrowest_pair()

    def _merge_narrowest_pair(self) -> None:
        """Coalesce the adjacent pair whose union is narrowest."""
        best_index = 0
        best_span = float("inf")
        for i in range(len(self.buckets) - 1):
            span = self.buckets[i + 1].hi - self.buckets[i].lo
            if span < best_span:
                best_span = span
                best_index = i
        left = self.buckets[best_index]
        right = self.buckets.pop(best_index + 1)
        left.hi = right.hi
        left.count += right.count
        left.cost_sum += right.cost_sum

    def clear(self) -> None:
        """Drop all buckets (used when a template's plan space drifts)."""
        self.buckets.clear()
