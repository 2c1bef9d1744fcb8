"""Database-histogram substrate.

The paper stores plan-space synopses inside "standard database
histograms" (Section IV-C): unidimensional structures holding, per
bucket, a boundary, a point count and an average plan cost.  This
package provides the histogram family used throughout the library:

* :class:`~repro.histograms.equiwidth.EquiWidthHistogram` — fixed-width
  buckets (the weakest construction; used as an ablation baseline).
* :class:`~repro.histograms.equidepth.EquiDepthHistogram` — quantile
  buckets (equal mass).
* :class:`~repro.histograms.maxdiff.MaxDiffHistogram` — boundaries placed
  at the largest gaps in the sorted data, the "choose boundaries to
  minimize estimation error" construction the paper relies on.
* :class:`~repro.histograms.voptimal.VOptimalHistogram` — exact
  variance-optimal boundaries by dynamic programming (the optimum that
  MaxDiff approximates).
* :class:`~repro.histograms.incremental.IncrementalHistogram` — an
  online-insertable bounded-bucket histogram (merge-on-overflow), the
  reference for the insert of :mod:`repro.histograms.packed`'s store.
"""

from repro.histograms.base import Bucket, Histogram
from repro.histograms.equidepth import EquiDepthHistogram
from repro.histograms.equiwidth import EquiWidthHistogram
from repro.histograms.incremental import IncrementalHistogram
from repro.histograms.maxdiff import MaxDiffHistogram
from repro.histograms.voptimal import VOptimalHistogram

__all__ = [
    "Bucket",
    "Histogram",
    "EquiWidthHistogram",
    "EquiDepthHistogram",
    "MaxDiffHistogram",
    "VOptimalHistogram",
    "IncrementalHistogram",
]
