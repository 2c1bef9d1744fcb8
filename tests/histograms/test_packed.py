"""Numeric contract of the packed histogram block (hypothesis).

The packed block must answer every (transform, plan) range query the
way ``Histogram.range_query_batch`` does — masses and average costs
within rtol 1e-12 (only the summation order differs) — for every
histogram kind, including point-mass buckets, touching buckets,
weighted inserts, queries past ``[0, 1]`` and queries wider than a
bucket, and the tiled query must equal the plain one bit for bit.
The block is also the online synopsis store: after any history of
inserts, shrinks and drops it must equal, plane for plane, a block
freshly packed from ``IncrementalHistogram`` reference rows that
replayed the same operations.  The sort-based medians must equal
``np.median`` / ``np.nanmedian`` bit for bit, and the block's
precondition (buckets sorted by ``lo``, pairwise non-overlapping) must
hold for every construction and mutation.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.predictor import median_over_transforms, median_supported
from repro.exceptions import HistogramError
from repro.histograms import (
    EquiDepthHistogram,
    EquiWidthHistogram,
    IncrementalHistogram,
    MaxDiffHistogram,
    VOptimalHistogram,
)
from repro.histograms.packed import PackedHistograms

STATIC = {
    "maxdiff": MaxDiffHistogram,
    "equidepth": EquiDepthHistogram,
    "equiwidth": EquiWidthHistogram,
    "voptimal": VOptimalHistogram,
}
KINDS = (*STATIC, "incremental")

# A coarse grid makes duplicate values — hence point masses and
# buckets touching at a shared boundary — common.
grid_values = st.integers(0, 16).map(lambda k: k / 16)
unit_values = st.one_of(
    grid_values, st.floats(0.0, 1.0, allow_nan=False)
)
# Weights and costs stay within a few-x range: the prefix-sum
# difference then cannot cancel enough to leave rtol 1e-12.
weights = st.sampled_from([0.5, 0.75, 1.0])
costs = st.floats(1.0, 4.0, allow_nan=False)


def assert_well_formed(histogram):
    """The packed block's precondition on one histogram: buckets sorted
    by ``lo`` and pairwise non-overlapping (touching is allowed)."""
    buckets = histogram.buckets
    for left, right in zip(buckets, buckets[1:], strict=False):
        assert left.lo <= left.hi <= right.lo


@st.composite
def histograms(draw, kind):
    """One histogram of ``kind`` built from drawn labeled points."""
    n = draw(st.integers(0, 30))
    values = draw(st.lists(unit_values, min_size=n, max_size=n))
    point_costs = draw(st.lists(costs, min_size=n, max_size=n))
    budget = draw(st.integers(1, 12))
    if kind == "incremental":
        histogram = IncrementalHistogram(max_buckets=budget)
        for value, cost in zip(values, point_costs, strict=True):
            histogram.insert(value, cost, weight=draw(weights))
            assert_well_formed(histogram)
        if draw(st.booleans()):
            histogram.shrink(draw(st.integers(1, budget)))
    else:
        histogram = STATIC[kind].build(
            values, point_costs, bucket_count=budget
        )
        if kind == "equiwidth" and draw(st.booleans()):
            histogram.insert(
                draw(unit_values), draw(costs), weight=draw(weights)
            )
    assert_well_formed(histogram)
    return histogram


@st.composite
def blocks(draw, kinds=KINDS):
    """``(rows, lo, hi)``: a ``t × plans`` grid of histograms of one of
    ``kinds`` and a ``(t, m)`` query batch against it."""
    kind = draw(st.sampled_from(kinds))
    t = draw(st.integers(1, 6))
    plans = draw(st.integers(1, 3))
    rows = [
        [draw(histograms(kind)) for __ in range(plans)] for __ in range(t)
    ]
    m = draw(st.integers(1, 6))
    edges = sorted({
        edge
        for row in rows
        for histogram in row
        for bucket in histogram.buckets
        for edge in (bucket.lo, bucket.hi)
    })
    # Query bounds: free floats past [0, 1], or exact bucket bounds.
    bound = st.floats(-0.5, 1.5, allow_nan=False)
    if edges:
        bound = st.one_of(bound, st.sampled_from(edges))
    pairs = draw(
        st.lists(st.tuples(bound, bound), min_size=t * m, max_size=t * m)
    )
    lo = np.array([min(pair) for pair in pairs]).reshape(t, m)
    hi = np.array([max(pair) for pair in pairs]).reshape(t, m)
    return rows, lo, hi


def reference(rows, lo, hi):
    """Per-histogram ``range_query_batch`` answers, ``(t, plans, m)``."""
    # Subnormal bucket widths overflow the overlap division (to a
    # fraction clipped at 1), which is expected here.
    with np.errstate(over="ignore"):
        answers = [
            [h.range_query_batch(lo[i], hi[i]) for h in row]
            for i, row in enumerate(rows)
        ]
    mass = np.array([[answer[0] for answer in row] for row in answers])
    average = np.array([[answer[1] for answer in row] for row in answers])
    return mass, average


class TestAgainstPerHistogramQueries:
    @given(data=blocks())
    @settings(max_examples=300, deadline=None)
    def test_masses_and_costs_match(self, data):
        rows, lo, hi = data
        mass, average = PackedHistograms(rows).query(lo, hi)
        expected_mass, expected_average = reference(rows, lo, hi)
        np.testing.assert_allclose(mass, expected_mass, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            average, expected_average, rtol=1e-12, atol=0
        )

    @given(
        data=blocks(kinds=("incremental",)),
        values=st.lists(unit_values, min_size=6, max_size=6),
        cost=costs,
        weight=weights,
        slack=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_update_tracks_inserts(
        self, data, values, cost, weight, slack
    ):
        """Inserting into plan 0's rows in place (which may open a
        bucket, merge, or widen the block) equals packing the reference
        rows from scratch after the same insert."""
        rows, lo, hi = data
        budget = max(1, *(row[0].bucket_count for row in rows)) + slack
        packed = PackedHistograms(rows)
        z = values[:len(rows)]
        for row, value in zip(rows, z, strict=True):
            row[0].max_buckets = budget
            row[0].insert(value, cost, weight=weight)
        packed.insert(0, np.array(z), cost, weight, budget)
        fresh = PackedHistograms(rows)
        assert_same_block(packed, fresh)
        for got, want in zip(
            packed.query(lo, hi), fresh.query(lo, hi), strict=True
        ):
            np.testing.assert_array_equal(got, want)

    def test_growing_row_widens_block(self):
        packed = PackedHistograms([[IncrementalHistogram(max_buckets=50)]])
        for k in range(20):
            packed.insert(0, np.array([k / 20]), 1.0, 1.0, 50)
        assert packed.width == 22
        mass, __ = packed.query(np.array([[-1.0]]), np.array([[2.0]]))
        assert mass[0, 0, 0] == 20.0

    def test_query_inside_one_bucket_counts_it_once(self):
        histogram = MaxDiffHistogram.build([0.2, 0.8], bucket_count=1)
        mass, __ = PackedHistograms([[histogram]]).query(
            np.array([[0.4]]), np.array([[0.6]])
        )
        assert mass[0, 0, 0] == pytest.approx(2 * 0.2 / 0.6, rel=1e-12)

    def test_chunked_batch_equals_columns(self):
        """A wide batch runs in column chunks; each column must equal
        its batch-of-one answer bit for bit."""
        rng = np.random.default_rng(0)
        rows = [
            [MaxDiffHistogram.build(rng.uniform(0, 1, 50), bucket_count=40)
             for __ in range(4)]
            for __ in range(5)
        ]
        packed = PackedHistograms(rows)
        z = rng.uniform(0, 1, (5, 3000))
        mass, average = packed.query(z - 0.05, z + 0.05)
        for j in (0, 1234, 2999):
            one_mass, one_average = packed.query(
                z[:, j:j + 1] - 0.05, z[:, j:j + 1] + 0.05
            )
            np.testing.assert_array_equal(mass[..., j:j + 1], one_mass)
            np.testing.assert_array_equal(average[..., j:j + 1], one_average)

    @given(data=blocks())
    @settings(max_examples=200, deadline=None)
    def test_one_query_equals_its_batch_column_bitwise(self, data):
        """Scalar ``predict`` asks one query per transform; its answer
        must carry exactly the bits of that query's batch column."""
        rows, lo, hi = data
        packed = PackedHistograms(rows)
        mass, average = packed.query(lo, hi)
        for j in range(lo.shape[1]):
            one_mass, one_average = packed.query(
                lo[:, j:j + 1], hi[:, j:j + 1]
            )
            assert one_mass.tobytes() == mass[..., j:j + 1].tobytes()
            assert one_average.tobytes() == average[..., j:j + 1].tobytes()

    @given(data=blocks(), edges=st.lists(unit_values, min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_tiles_equal_the_query_of_their_cells_bitwise(self, data, edges):
        """The tiled query (shared sorted cell bounds, the scorecard's
        ``cell_densities``) computes the bucket-axis counts another
        way; its masses must equal :meth:`query`'s bit for bit."""
        rows, __, __ = data
        edges = np.unique(edges)
        assume(edges.size >= 2)
        packed = PackedHistograms(rows)
        shape = (packed.transforms, edges.size - 1)
        mass, __ = packed.query(
            np.broadcast_to(edges[:-1], shape),
            np.broadcast_to(edges[1:], shape),
        )
        assert packed.tiles(edges).tobytes() == mass.tobytes()


def assert_same_block(packed, expected):
    """Every plane (prefix sums included), the width, the per-row
    bucket counts and the footprint are equal bit for bit."""
    assert packed.width == expected.width
    np.testing.assert_array_equal(packed.bucket_counts, expected.bucket_counts)
    assert packed._buckets.shape == expected._buckets.shape
    assert packed._buckets.tobytes() == expected._buckets.tobytes()
    assert packed.space_bytes() == expected.space_bytes()


def _inserts(t, plans):
    """One insert of a history: a plan, a z-value per transform row, a
    cost and a weight."""
    return st.tuples(
        st.just("insert"),
        st.integers(0, plans - 1),
        st.lists(unit_values, min_size=t, max_size=t),
        costs,
        weights,
    )


@st.composite
def histories(draw):
    """``(t, plans, budget, operations)``: inserts (weighted, on a
    coarse grid, so duplicate z-values and buckets touching at a shared
    bound are common) mixed with shrinks and drops."""
    t = draw(st.integers(1, 4))
    plans = draw(st.integers(1, 3))
    budget = draw(st.integers(1, 8))
    insert = _inserts(t, plans)
    operations = draw(
        st.lists(
            st.one_of(
                insert,
                insert,
                insert,
                insert,
                st.tuples(st.just("shrink"), st.integers(1, 8)),
                st.tuples(st.just("drop")),
            ),
            max_size=60,
        )
    )
    return t, plans, budget, operations


class TestOneStore:
    """The block is the store: in-place inserts and shrinks replay the
    reference ``IncrementalHistogram`` rows bit for bit."""

    @given(history=histories())
    @settings(max_examples=200, deadline=None)
    def test_block_equals_replayed_reference_rows(self, history):
        t, plans, budget, operations = history

        def fresh_rows():
            return [
                [IncrementalHistogram(max_buckets=budget) for __ in range(plans)]
                for __ in range(t)
            ]

        reference = fresh_rows()
        packed = PackedHistograms(reference)
        for operation, *args in operations:
            if operation == "insert":
                plan, z, cost, weight = args
                packed.insert(plan, np.array(z), cost, weight, budget)
                for row, value in zip(reference, z, strict=True):
                    row[plan].insert(value, cost, weight=weight)
            elif operation == "shrink":
                (budget,) = args
                packed.shrink(budget)
                for row in reference:
                    for histogram in row:
                        histogram.shrink(budget)
            else:
                reference = fresh_rows()
                packed = PackedHistograms.from_buckets(
                    [[[] for __ in range(plans)] for __ in range(t)]
                )
            expected = PackedHistograms(reference)
            assert_same_block(packed, expected)
            assert packed.space_bytes() == sum(
                histogram.space_bytes() for row in reference for histogram in row
            )
        assert packed.rows() == [
            [
                [[b.lo, b.hi, b.count, b.cost_sum] for b in histogram.buckets]
                for histogram in row
            ]
            for row in reference
        ]
        restored = PackedHistograms.from_buckets(packed.rows())
        assert_same_block(restored, packed)

    @given(
        history=histories(),
        queries=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_plan_restricted_query_is_a_slice_of_the_full_one(
        self, history, queries, data
    ):
        """After any history of inserts (merging over budget, widening
        the block), a query restricted to some plans answers exactly
        those plans' rows of the full query, bit for bit."""
        t, plans, budget, operations = history
        packed = PackedHistograms.from_buckets(
            [[[] for __ in range(plans)] for __ in range(t)]
        )
        for operation, *args in operations:
            if operation == "insert":
                plan, z, cost, weight = args
                packed.insert(plan, np.array(z), cost, weight, budget)
            elif operation == "shrink":
                (budget,) = args
                packed.shrink(budget)
        centers = np.array(queries)
        half = data.draw(st.sampled_from([0.0, 0.01, 0.1, 0.6]))
        lo = np.tile(centers - half, (t, 1))
        hi = np.tile(centers + half, (t, 1))
        selected = data.draw(
            st.lists(
                st.integers(0, plans - 1), min_size=1, max_size=plans,
                unique=True,
            ).map(sorted)
        )
        mass, average = packed.query(lo, hi)
        part_mass, part_average = packed.query(lo, hi, selected)
        assert part_mass.shape == (t, len(selected), centers.shape[0])
        np.testing.assert_array_equal(part_mass, mass[:, selected])
        np.testing.assert_array_equal(part_average, average[:, selected])

    def test_plan_restricted_wide_batch_is_a_slice(self):
        """Wide batches run in column chunks sized by the rows queried;
        a restricted query's chunks still answer the same bits."""
        rng = np.random.default_rng(7)
        packed = PackedHistograms.from_buckets([[[]] * 5 for __ in range(4)])
        for __ in range(300):
            packed.insert(
                int(rng.integers(5)), rng.uniform(0.0, 1.0, 4),
                float(rng.uniform(1.0, 9.0)), 1.0, 12,
            )
        centers = rng.uniform(0.0, 1.0, (4, 3000))
        mass, average = packed.query(centers - 0.02, centers + 0.02)
        for selected in ([3], [0, 4], [1, 2, 3]):
            part_mass, part_average = packed.query(
                centers - 0.02, centers + 0.02, selected
            )
            np.testing.assert_array_equal(part_mass, mass[:, selected])
            np.testing.assert_array_equal(part_average, average[:, selected])

    @pytest.mark.parametrize(
        "plan, z",
        [
            (0, [0.1, 0.2, -1e-9]),
            (0, [0.1, 0.2, 1.0 + 1e-9]),
            (0, [0.1, 0.2, float("nan")]),
            (-1, [0.1, 0.2, 0.3]),
            (2, [0.1, 0.2, 0.3]),
            (0, [0.1, 0.2]),
            (0, [0.1, 0.2, 0.3, 0.4]),
            (0, [[0.1, 0.2, 0.3]]),
        ],
        ids=[
            "-1e-09", "1.000000001", "nan", "negative-plan",
            "plan-past-end", "short-z", "long-z", "2-d-z",
        ],
    )
    def test_rejected_insert_writes_nothing(self, plan, z):
        """A z-value outside ``[0, 1]`` in any row, a plan id outside
        the block (a negative one included) or a z-vector that is not
        one value per transform rejects the insert before any row is
        touched, and the block's books stay as they were."""
        packed = PackedHistograms.from_buckets([[[], []], [[], []], [[], []]])
        packed.insert(0, np.array([0.25, 0.5, 0.75]), 2.0, 1.0, 4)
        packed.take_dirty()
        before = packed._buckets.copy()
        books = (packed.version, packed.total_points, packed.total_mass)
        with pytest.raises(HistogramError):
            packed.insert(plan, np.array(z), 2.0, 1.0, 4)
        assert packed._buckets.tobytes() == before.tobytes()
        assert packed.bucket_counts.tolist() == [[1, 0]] * 3
        assert packed.space_bytes() == 3 * 12
        assert (packed.version, packed.total_points, packed.total_mass) == books
        assert packed.take_dirty() == []

    def test_insert_at_budget_keeps_the_width(self):
        """A full row opens a bucket and merges back without widening
        the block, even for an instant."""
        packed = PackedHistograms.from_buckets([[[]]])
        for k in range(4):
            packed.insert(0, np.array([k / 4]), 1.0, 1.0, 4)
        block = packed._buckets
        packed.insert(0, np.array([0.9]), 1.0, 1.0, 4)
        assert packed.width == 6
        assert packed._buckets is block

    def test_shrink_narrows_the_block(self):
        packed = PackedHistograms.from_buckets([[[]], [[]]])
        for k in range(10):
            packed.insert(0, np.array([k / 10, 1 - k / 10]), 1.0, 1.0, 10)
        assert packed.width == 12
        packed.shrink(3)
        assert packed.width == 5
        assert packed.bucket_counts.tolist() == [[3], [3]]
        with pytest.raises(HistogramError):
            packed.shrink(0)


medians_values = st.integers(1, 6).flatmap(
    lambda t: st.lists(
        st.one_of(grid_values, st.floats(0.0, 1e6, allow_nan=False)),
        min_size=t * 4,
        max_size=t * 4,
    ).map(lambda xs: np.array(xs).reshape(t, 4))
)


class TestSortMedians:
    @given(values=medians_values)
    @settings(max_examples=200, deadline=None)
    def test_median_over_transforms_is_np_median(self, values):
        np.testing.assert_array_equal(
            median_over_transforms(values), np.median(values, axis=0)
        )

    @given(values=medians_values, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_median_supported_is_nanmedian(self, values, data):
        supported = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=values.size,
                    max_size=values.size,
                )
            )
        ).reshape(values.shape)
        medians, any_support = median_supported(values, supported)
        np.testing.assert_array_equal(any_support, supported.any(axis=0))
        with warnings.catch_warnings():
            # All-NaN columns warn; their NaN median is the contract.
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.nanmedian(
                np.where(supported, values, np.nan), axis=0
            )
        np.testing.assert_array_equal(medians, expected)
