"""Vectorized histogram range queries match the scalar path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms import (
    EquiDepthHistogram,
    IncrementalHistogram,
    MaxDiffHistogram,
)

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


class TestBatchMatchesScalar:
    @given(
        values=st.lists(unit_floats, min_size=1, max_size=100),
        queries=st.lists(
            st.tuples(unit_floats, unit_floats), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_counts(self, values, queries):
        hist = IncrementalHistogram(max_buckets=10)
        for i, v in enumerate(values):
            hist.insert(v, cost=float(i))
        los = np.array([min(a, b) for a, b in queries])
        his = np.array([max(a, b) for a, b in queries])
        batch = hist.range_count_batch(los, his)
        scalar = [hist.range_count(lo, hi) for lo, hi in zip(los, his, strict=True)]
        assert batch == pytest.approx(scalar)

    @given(
        values=st.lists(unit_floats, min_size=1, max_size=100),
        queries=st.lists(
            st.tuples(unit_floats, unit_floats), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_maxdiff_costs(self, values, queries):
        costs = list(range(len(values)))
        hist = MaxDiffHistogram.build(values, costs, bucket_count=8)
        los = np.array([min(a, b) for a, b in queries])
        his = np.array([max(a, b) for a, b in queries])
        __, batch = hist.range_query_batch(los, his)
        scalar = [hist.range_cost(lo, hi) for lo, hi in zip(los, his, strict=True)]
        assert batch == pytest.approx(scalar)

    def test_empty_histogram_batch(self):
        hist = IncrementalHistogram(max_buckets=4)
        counts = hist.range_count_batch(np.array([0.1]), np.array([0.9]))
        assert counts.tolist() == [0.0]

    def test_cache_invalidated_on_insert(self):
        hist = IncrementalHistogram(max_buckets=4)
        hist.insert(0.5)
        before = hist.range_count_batch(np.array([0.0]), np.array([1.0]))[0]
        hist.insert(0.5)
        after = hist.range_count_batch(np.array([0.0]), np.array([1.0]))[0]
        assert before == 1.0
        assert after == 2.0

    def test_cache_invalidated_on_clear(self):
        hist = IncrementalHistogram(max_buckets=4)
        hist.insert(0.5)
        hist.range_count_batch(np.array([0.0]), np.array([1.0]))
        hist.clear()
        assert hist.range_count_batch(
            np.array([0.0]), np.array([1.0])
        ).tolist() == [0.0]

    def test_equidepth_full_domain(self):
        values = np.random.default_rng(0).uniform(0, 1, 200)
        hist = EquiDepthHistogram.build(values, bucket_count=10)
        total = hist.range_count_batch(np.array([0.0]), np.array([1.0]))[0]
        assert total == pytest.approx(200.0)
