"""Packed histogram block: every (transform, plan) synopsis in one array.

APPROXIMATE-LSH-HISTOGRAMS answers ``t × plans`` range queries per
prediction (Section IV-C), one per (transform, plan) histogram.  Asking
each :class:`~repro.histograms.base.Histogram` in turn costs an
interpreter round trip and a dense ``(queries, buckets)`` overlap matrix
per histogram, which is far more than the O(t log b_h) the paper
charges a lookup.  :class:`PackedHistograms` instead keeps all bucket
bounds, counts and cost sums padded into one ``(t, plans, width)``
block, next to running prefix sums of counts and cost sums, and answers
a whole query batch in one vectorized pass:

1. per row, the first bucket with ``lo >= q_lo`` and the first with
   ``hi > q_hi``, both from one boolean count over the bucket axis:
   ``hi <= q_hi`` is ``hi < nextafter(q_hi, inf)`` for finite floats,
   so the lo and hi planes compare against a stacked pair of bounds;
2. the buckets between them lie fully inside the query (point masses
   included), so their mass is a prefix-sum difference;
3. the two edge buckets just outside that run get the per-bucket
   overlap fraction of :meth:`Histogram.range_query_batch`.

Steps 2 and 3 read one gather: the two edge buckets' columns of every
plane, prefix sums included.  At one query the pass costs a few dozen
numpy calls, whatever ``t`` and ``plans``; a served decision's one
point takes :meth:`PackedHistograms.query_point`, which runs steps 2
and 3 on the same code without the query axis.

The pass relies on each row's buckets being sorted by ``lo`` and
pairwise non-overlapping (``hi[b] <= lo[b + 1]``), which every
histogram construction in this package maintains.  Every other bucket
then contributes exactly zero under the overlap formula.  Masses and
average costs match the per-histogram path up to summation order
(relative error ~1e-15), and every step is elementwise per query, so
one query's answer does not depend on the batch around it.

The block is also the store the online predictor writes (Section
IV-D): :meth:`PackedHistograms.insert` repeats
:class:`~repro.histograms.incremental.IncrementalHistogram`'s insert
bit for bit on a plan's ``t`` rows in place; that class is the
reference the block is tested against.  An insert writes a row's
fields as scalars, a row over its budget merges in place
(:meth:`PackedHistograms._merge`, a slice shift, no copy of the row),
and a row that outgrows the block widens it by doubling, not by one
column (:meth:`PackedHistograms._grow`): an online optimizer call pays
for the arithmetic, not for building arrays.

It keeps its own books.  Its four writers — :meth:`insert`,
:meth:`clear`, :meth:`shrink` and :meth:`load` — are the only code
that changes its rows, and each bumps :attr:`version`, keeps
``total_points`` and ``total_mass`` and hands one change event to the
callback bound with :meth:`bind`.  No caller can change a row without
all three following.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import HistogramError
from repro.histograms.base import BYTES_PER_BUCKET, Histogram

#: Bound of the sentinel buckets padding every row: zero-width point
#: masses at ``∓_FAR`` fall outside any finite query.  A finite value,
#: because an infinite bound would give the width ``inf - inf = NaN``.
_FAR = np.finfo(float).max

# Field planes of the bucket block: bucket bounds, count and cost sum,
# then the count and cost sums of every bucket before this one.
_LO, _HI, _COUNT, _COST, _BEFORE_COUNT, _BEFORE_COST = range(6)
_PLANES = 6
#: The stored planes ``[:_STORED]`` precede the derived prefix planes.
_STORED = _BEFORE_COUNT

#: One trailing sentinel column: an empty point mass at ``+_FAR``.
_TRAILING = np.array([[_FAR], [_FAR], [0.0], [0.0], [0.0], [0.0]])

#: Smallest positive float: divides a zero-width bucket's clipped (zero)
#: overlap without changing any positive width.
_TINY = float(np.nextafter(0.0, 1.0))

#: Cap on the (bound, row, query, bucket) cells one query pass compares,
#: which bounds its temporaries.  On a warmed 1500-query Q1 batch the
#: pass peaks at ~0.9 MiB, output included; each doubling of the cap
#: adds 0.2-0.45 MiB for at most ~10% speed.
_CHUNK_CELLS = 1 << 16


def _sentinels(shape: tuple[int, int], width: int) -> np.ndarray:
    """A ``(6, *shape, width)`` block of empty rows: all sentinels."""
    block = np.empty((_PLANES, *shape, width))
    block[...] = _TRAILING[:, None, None, :]
    block[_LO:_HI + 1, :, :, 0] = -_FAR
    return block


def bucket_rows(
    rows: Sequence[Sequence[Histogram]],
) -> list[list[list[tuple[float, float, float, float]]]]:
    """The ``(lo, hi, count, cost_sum)`` bucket lists of offline-built
    histograms, one row of ``plans`` per transform: the form
    :meth:`PackedHistograms.load` and :meth:`~PackedHistograms.rows`
    share."""
    return [
        [[(b.lo, b.hi, b.count, b.cost_sum) for b in h.buckets] for h in row]
        for row in rows
    ]


class PackedHistograms:
    """The ``t × plans`` histograms of a predictor as one padded block:
    the synopsis store itself, not a copy.

    Column 0 of every row is a sentinel at ``-_FAR`` and at least one
    trailing sentinel at ``+_FAR`` follows each row's real buckets, so
    the edge buckets of any finite query always exist.  A pack
    (construction, :meth:`load`, :meth:`shrink`, :meth:`clear`) lays
    the block out as wide as its widest row plus those two sentinels,
    since the query's cost scales with the width.  An insert that
    outgrows it doubles the width, up to the budget plus two
    (:meth:`_grow`), so a block reallocates at most ⌈log2(budget +
    2)⌉ times between packs; the extra trailing sentinels overlap no
    query and change no answer.
    """

    #: Number of writes so far: each writer adds exactly one.
    version = 0
    #: Number of points inserted (integer, weight-independent).
    total_points = 0
    #: Total inserted mass: the sum of the inserted weights.
    total_mass = 0.0
    #: Change callback ``(kind, **fields)``; ``None`` journals nothing.
    _on_change: "Callable[..., object] | None" = None

    def __init__(self, rows: Sequence[Sequence[Histogram]]) -> None:
        """Pack offline-built histograms, one row of ``plans`` per
        transform."""
        self._pack(bucket_rows(rows))

    @classmethod
    def from_buckets(
        cls, rows: Sequence[Sequence[Sequence[Sequence[float]]]]
    ) -> "PackedHistograms":
        """A block from one ``(lo, hi, count, cost_sum)`` bucket list
        per (transform, plan): the snapshot's form (empty: no points)."""
        packed = cls.__new__(cls)
        packed._pack(rows)
        return packed

    def bind(self, on_change: "Callable[..., object]") -> None:
        """Hand every later write's change event to ``on_change(kind,
        **fields)``: ``point_inserted``, ``histogram_rebuilt``,
        ``histogram_shrunk`` or ``histogram_built``."""
        self._on_change = on_change

    def _changed(self, kind: str, /, **fields) -> None:
        """Book one write: bump :attr:`version` and hand the event
        ``kind`` with ``fields`` to the bound callback, if any."""
        self.version += 1
        if self._on_change is not None:
            self._on_change(kind, **fields)

    def _pack(self, rows: Sequence[Sequence[Sequence[Sequence[float]]]]) -> None:
        """Lay out ``rows`` (one bucket list per (transform, plan)) as
        the block, as narrow as its widest row allows.  Malformed rows
        raise before the block changes."""
        counts = np.array(
            [[len(buckets) for buckets in row] for row in rows], dtype=np.intp
        )
        block = _sentinels(counts.shape, int(counts.max()) + 2)
        for index, row in enumerate(rows):
            for plan, buckets in enumerate(row):
                block[:_STORED, index, plan, 1:len(buckets) + 1] = (
                    np.array(buckets, dtype=float).T
                )
        self._accumulate(block)
        self._install(block)
        #: ``(t, plans)``: real buckets per row.
        self.bucket_counts = counts

    def _install(self, block: np.ndarray) -> None:
        """Make ``block`` the store."""
        #: ``(6, t, plans, width)``: lo, hi, count and cost-sum planes,
        #: then the count and cost-sum prefix sums — column ``k`` holds
        #: the sum over buckets ``< k``.
        self._buckets = block
        self.transforms, self.plans, self.width = block.shape[1:]
        # Flat offset of each row's two edge columns, for gathering
        # them: the first edge is the column before the covered run.
        self._edge_base = np.arange(self.transforms * self.plans).reshape(
            self.transforms, self.plans
        ) * self.width + np.array([-1, 0]).reshape(2, 1, 1)

    def _accumulate(self, rows: np.ndarray) -> None:
        """Refresh the prefix-sum planes of the block view ``rows``."""
        np.add.accumulate(
            rows[_COUNT:_COST + 1, ..., :-1],
            axis=-1,
            out=rows[_BEFORE_COUNT:, ..., 1:],
        )

    def _grow(self, n: int, budget: int) -> None:
        """Widen every row with trailing sentinels so that a row of
        ``n < budget`` buckets can open one more: to twice the width,
        at least ``n + 3`` and at most ``budget + 2`` columns."""
        width = min(max(n + 3, 2 * self.width), budget + 2)
        block = _sentinels(self.bucket_counts.shape, width)
        block[..., :self.width] = self._buckets
        self._accumulate(block)
        self._install(block)

    def _merge(self, row: np.ndarray, n: int, budget: int) -> int:
        """Merge the narrowest adjacent pair of ``row``'s ``n`` buckets
        (the first on a tie, as ``IncrementalHistogram`` does) until
        ``budget`` remain, in place: the right bucket of a pair folds
        into the left one and the buckets after it shift one column
        left; the freed columns become trailing sentinels.  ``row`` is
        one row's stored planes; returns its bucket count.  The caller
        re-accumulates the prefixes."""
        end = n
        while n > budget:
            left = int((row[_HI, 2:n + 1] - row[_LO, 1:n]).argmin()) + 1
            row[_HI, left] = row[_HI, left + 1]
            row[_COUNT, left] += row[_COUNT, left + 1]
            row[_COST, left] += row[_COST, left + 1]
            row[:, left + 1:n] = row[:, left + 2:n + 1]
            n -= 1
        row[:, n + 1:end + 1] = _TRAILING[:_STORED]
        return n

    def insert(
        self,
        plan: int,
        z_values: np.ndarray,
        cost: float,
        weight: float,
        budget: int,
        provenance: str = "direct",
    ) -> None:
        """Insert one point into plan ``plan``'s row of each transform
        ``i`` at ``z_values[i]``, bit for bit as
        ``IncrementalHistogram(budget).insert`` does: join the bucket
        whose ``lo`` is z, else the previous bucket if it reaches z,
        else open a point mass; then merge while over ``budget``
        (:meth:`_merge`, in place).  The plan id, the number of
        z-values and every z (in ``[0, 1]``) are checked before any
        write, so a rejected insert changes nothing.

        A row's writes are scalar: an opened bucket's four fields, or
        the joined bucket's count and cost sum, with ``cost * weight``
        computed once for every row.  A row that keeps an opened bucket
        it has no trailing column for widens the whole block by
        doubling (:meth:`_grow`), not by one column.

        Adds one point and ``weight`` to the totals and journals
        ``point_inserted`` with ``provenance``.
        """
        plan = int(plan)
        if not 0 <= plan < self.plans:
            raise HistogramError(
                f"plan {plan} outside the block's {self.plans} plans"
            )
        z = np.asarray(z_values, dtype=float)
        if z.shape != (self.transforms,):
            raise HistogramError(
                f"z-values of shape {z.shape} for {self.transforms} transforms"
            )
        values = z.tolist()
        if not all(0.0 <= value <= 1.0 for value in values):
            raise HistogramError(f"z-values {values} outside [0, 1]")
        # ``bisect_left`` over each row's buckets, plus one for the
        # -_FAR sentinel: the column of the first bucket with lo >= z.
        # The lo plane ascends along a row to +_FAR sentinels above any
        # z, so the first False (argmin) is the count of Trues.
        at = (self._buckets[_LO, :, plan] < z[:, None]).argmin(axis=1)
        counts = self.bucket_counts[:, plan].tolist()
        added = cost * weight
        for index, (column, value, n) in enumerate(
            zip(at.tolist(), values, counts, strict=True)
        ):
            row = self._buckets[:_STORED, index, plan]
            hit = row[_LO, column] == value
            if hit or row[_HI, column - 1] >= value:
                if not hit:
                    column -= 1
                row[_COUNT, column] += weight
                row[_COST, column] += added
            else:
                # Shift the tail right over the first trailing sentinel;
                # a full row merges back before the insert returns, so
                # only a row that keeps the new bucket widens the block.
                if n < budget and n + 3 > self.width:
                    self._grow(n, budget)
                    row = self._buckets[:_STORED, index, plan]
                row[:, column + 1:n + 2] = row[:, column:n + 1]
                row[_LO, column] = value
                row[_HI, column] = value
                # The reference adds to a fresh bucket's zeros, which
                # turns a -0.0 into 0.0; ``0.0 +`` keeps those bits.
                row[_COUNT, column] = 0.0 + weight
                row[_COST, column] = 0.0 + added
                n += 1
            if n > budget:
                n = self._merge(row, n, budget)
            self.bucket_counts[index, plan] = n
        self._accumulate(self._buckets[:, :, plan])
        self.total_points += 1
        self.total_mass += weight
        self._changed(
            "point_inserted",
            plan=plan,
            cost=float(cost),
            weight=float(weight),
            provenance=provenance,
        )

    def clear(self) -> None:
        """Empty every row and zero the totals (Section IV-E's drop);
        journals ``histogram_rebuilt`` with what was dropped."""
        points, mass = self.total_points, self.total_mass
        self._pack([[[]] * self.plans for __ in range(self.transforms)])
        self.total_points, self.total_mass = 0, 0.0
        self._changed(
            "histogram_rebuilt",
            points_dropped=points,
            mass_dropped=mass,
        )

    def shrink(self, budget: int) -> None:
        """Merge every row down to at most ``budget`` buckets, as
        :meth:`~repro.histograms.incremental.IncrementalHistogram.shrink`
        does, with the insert's in-place :meth:`_merge`, and narrow the
        block to its widest row; journals ``histogram_shrunk``."""
        if budget < 1:
            raise HistogramError("max_buckets must be >= 1")
        for index, plan in np.argwhere(self.bucket_counts > budget).tolist():
            self.bucket_counts[index, plan] = self._merge(
                self._buckets[:_STORED, index, plan],
                int(self.bucket_counts[index, plan]),
                budget,
            )
        self._pack(self.rows())
        self._changed("histogram_shrunk", max_buckets=budget)

    def load(
        self,
        rows: Sequence[Sequence[Sequence[Sequence[float]]]],
        total_points: int,
        total_mass: float,
    ) -> None:
        """Replace every row with ``rows`` (one ``(lo, hi, count,
        cost_sum)`` bucket list per (transform, plan), as :meth:`rows`
        gives them) and the totals with those given: a static build or
        a snapshot restore.  Journals ``histogram_built``."""
        self._pack(rows)
        self.total_points, self.total_mass = total_points, total_mass
        self._changed(
            "histogram_built",
            transforms=self.transforms,
            plans=self.plans,
            points=total_points,
        )

    def rows(self) -> list[list[list[list[float]]]]:
        """Each (transform, plan) row's ``[lo, hi, count, cost_sum]``
        buckets: what :meth:`from_buckets` reads."""
        return [
            [
                self._buckets[:_STORED, index, plan, 1:n + 1].T.tolist()
                for plan, n in enumerate(counts)
            ]
            for index, counts in enumerate(self.bucket_counts.tolist())
        ]

    def space_bytes(self) -> int:
        """The paper's 12 bytes per bucket over every row."""
        return int(self.bucket_counts.sum()) * BYTES_PER_BUCKET

    def query(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masses and average costs of every row for query bounds
        ``lo``/``hi`` of shape ``(t, m)`` (one query batch per
        transform, shared by its plans).  Returns two ``(t, plans, m)``
        arrays; the average is 0 where the mass is.

        Wide batches run in column chunks of at most ``_CHUNK_CELLS``
        (bound, row, query, bucket) cells, which bounds the
        temporaries; every step is elementwise per row and per query,
        so chunking changes no bit.
        """
        m = lo.shape[1]
        rows = self.transforms * self.plans
        chunk = max(1, _CHUNK_CELLS // (2 * rows * self.width))
        if m <= chunk:
            return self._query(lo, hi)
        mass = np.empty((self.transforms, self.plans, m))
        average = np.empty_like(mass)
        for start in range(0, m, chunk):
            part = slice(start, start + chunk)
            mass[..., part], average[..., part] = self._query(
                lo[:, part], hi[:, part]
            )
        return mass, average

    def tiles(self, edges: np.ndarray) -> np.ndarray:
        """Masses of every row over the cells ``[edges[j], edges[j+1]]``
        of strictly increasing ``edges``: a ``(t, plans, cells)`` array,
        bit-identical to :meth:`query` of the same bounds.

        Every row shares the sorted bounds, so each bucket bound finds
        the first cell it precedes by one ``searchsorted`` and a row's
        bucket counts per cell accumulate into the edge indices —
        integers equal to the bucket-axis count, without its
        ``(t, plans, cells, width)`` temporaries.
        """
        cells = edges.shape[0] - 1
        rows = self.transforms * self.plans
        ends = np.empty((2, self.transforms, self.plans, cells), dtype=np.intp)
        # A bucket with lo < edges[j] counts toward cell j from its
        # ``searchsorted(right)`` on; one with hi <= edges[j + 1] from
        # its ``searchsorted(left)`` on the upper edges.
        for out, bounds, cuts, side in (
            (ends[0], self._buckets[_LO], edges[:-1], "right"),
            (ends[1], self._buckets[_HI], edges[1:], "left"),
        ):
            first = np.searchsorted(cuts, bounds, side=side).reshape(rows, -1)
            first += np.arange(rows)[:, None] * (cells + 1)
            counts = np.bincount(first.ravel(), minlength=rows * (cells + 1))
            out.reshape(rows, cells)[:] = np.cumsum(
                counts.reshape(rows, cells + 1), axis=1
            )[:, :cells]
        shape = (self.transforms, cells)
        mass, __ = self._query(
            np.broadcast_to(edges[:-1], shape),
            np.broadcast_to(edges[1:], shape),
            ends,
        )
        return mass

    def query_point(
        self, lo: Sequence[float], hi: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masses and cost sums of every row for one query per
        transform, ``[lo[i], hi[i]]`` in Python floats: two ``(t,
        plans)`` arrays, each entry bit for bit :meth:`query`'s of the
        same bounds (its average is the cost sum over the mass, where
        the mass is positive).

        The one-point form of :meth:`query`: one compare of the lo and
        hi planes against the stacked bounds, one ``argmin`` and the
        shared overlap pass (:meth:`_sums`), without the batch axis or
        the all-rows average.  ``math.nextafter`` on a float gives
        ``np.nextafter``'s bits.
        """
        # The compared bounds lo and nextafter(hi), then hi itself.
        bounds = np.array([lo, [math.nextafter(v, math.inf) for v in hi], hi])
        ends = np.less(
            self._buckets[_LO:_HI + 1], bounds[:2, :, None, None]
        ).argmin(axis=3)
        return self._sums(bounds[0, :, None], bounds[2, :, None], ends)

    def _query(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        ends: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The query pass over the block; ``ends`` (from :meth:`tiles`)
        skips its bucket-axis count."""
        block = self._buckets
        q_lo = lo[:, None, :]
        q_hi = hi[:, None, :]
        # ends[0]: first bucket with lo >= q_lo; ends[1]: first bucket
        # with hi > q_hi.  Buckets in between are fully covered.
        if ends is None:
            bounds = np.empty((2, *lo.shape))
            bounds[0] = lo
            np.nextafter(hi, np.inf, out=bounds[1])
            below = np.less(
                block[_LO:_HI + 1, :, :, None, :], bounds[:, :, None, :, None]
            )
            # Both planes ascend along a row, so ``below`` is a run of
            # True then False, and for bounds below _FAR the trailing
            # +_FAR sentinel ends every run: the first False (argmin) is
            # the count of Trues.
            ends = below.argmin(axis=4)
        mass, cost = self._sums(q_lo, q_hi, ends)
        average = np.where(mass > 0.0, cost / np.maximum(mass, 1e-300), 0.0)
        return mass, average

    def _sums(
        self, q_lo: np.ndarray, q_hi: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mass and cost sum of every row over the query bounds ``q_lo``
        and ``q_hi``, given each row's covered run ``ends`` (``(2, t,
        plans, ...)``: the first bucket with ``lo >= q_lo``, the first
        with ``hi > q_hi``).  Elementwise, so a query's bits do not
        depend on the shape around it.  Overwrites ``ends``."""
        block = self._buckets
        # Edge buckets: the one before the covered run and the one that
        # ends it.  A query inside a single bucket has ends[1] ==
        # ends[0] - 1; raising ends[1] to ends[0] leaves its covered run
        # empty and moves its second edge to the next bucket, which
        # starts at or after that bucket's end, beyond q_hi, and so
        # overlaps nothing.
        np.maximum(ends[1], ends[0], out=ends[1])
        # The edges' flat offsets, with the query axis if there is one.
        base = self._edge_base if ends.ndim == 3 else self._edge_base[..., None]
        edges = block.reshape(_PLANES, -1).take(ends + base, axis=1)
        b_lo, b_hi = edges[_LO], edges[_HI]
        near = edges[_COUNT:_COST + 1, 0]
        # Prefix sums up to ends[1] minus those up to ends[0]; the
        # latter is the first edge's prefix plus its own sums, exactly
        # as the accumulation formed it.
        covered = edges[_BEFORE_COUNT:, 1] - (edges[_BEFORE_COUNT:, 0] + near)
        # The per-histogram overlap fraction clip(inter / width, 0, 1).
        # An edge bucket reaches past one query bound, so its overlap
        # never exceeds its width and the upper clip is a no-op; the
        # lower clip runs before the division, which then cannot
        # overflow.  The point-mass rule needs no branch: a zero-width
        # edge bucket lies strictly outside the query (inside, it would
        # be covered), so its clipped overlap is 0 and 0 / _TINY is 0.
        widths = b_hi - b_lo
        fraction = np.minimum(q_hi, b_hi) - np.maximum(q_lo, b_lo)
        np.maximum(fraction, 0.0, out=fraction)
        fraction /= np.maximum(widths, _TINY)
        # Each edge's count and cost sum times its fraction, in one
        # product; added to the covered sums first edge first.
        parts = edges[_COUNT:_COST + 1] * fraction
        mass, cost = covered + parts[:, 0] + parts[:, 1]
        return mass, cost
