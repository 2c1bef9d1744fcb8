"""Physical operators: cardinality and cost formulas."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.operators import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    Sort,
)

MODEL = CostModel()


def _points(*rows):
    return np.array(rows, dtype=float)


@pytest.fixture()
def scan_a():
    return SeqScan("a", base_rows=10_000, pages=100, param_indexes=(0,), model=MODEL)


@pytest.fixture()
def scan_b():
    return SeqScan("b", base_rows=1_000, pages=10, param_indexes=(1,), model=MODEL)


class TestSeqScan:
    def test_cardinality_scales_with_selectivity(self, scan_a):
        rows, __ = scan_a.evaluate(_points([0.5, 1.0], [0.1, 1.0]))
        assert rows.tolist() == [5_000.0, 1_000.0]

    def test_cost_independent_of_selectivity(self, scan_a):
        __, cost = scan_a.evaluate(_points([0.5, 1.0], [0.01, 1.0]))
        assert cost[0] == cost[1]
        expected = 100 * MODEL.seq_page_cost + 10_000 * MODEL.cpu_tuple_cost
        assert cost[0] == pytest.approx(expected)

    def test_multiple_local_predicates_multiply(self):
        scan = SeqScan("a", 1000, 10, (0, 1), MODEL)
        rows, __ = scan.evaluate(_points([0.5, 0.5]))
        assert rows[0] == pytest.approx(250.0)

    def test_no_predicates(self):
        scan = SeqScan("a", 1000, 10, (), MODEL)
        rows, __ = scan.evaluate(_points([0.5, 0.5]))
        assert rows[0] == 1000.0


class TestIndexScan:
    def _scan(self, clustered):
        return IndexScan(
            "a", "ix", sarg_param=0, base_rows=10_000, pages=160,
            residual_params=(1,), clustered=clustered, model=MODEL,
        )

    def test_rows_include_residual_filters(self):
        rows, __ = self._scan(False).evaluate(_points([0.1, 0.5]))
        assert rows[0] == pytest.approx(10_000 * 0.1 * 0.5)

    def test_cost_monotone_in_sargable_selectivity(self):
        scan = self._scan(False)
        __, costs = scan.evaluate(_points([0.01, 1.0], [0.5, 1.0], [0.99, 1.0]))
        assert costs[0] < costs[1] < costs[2]

    def test_unclustered_io_saturates_at_table_pages(self):
        scan = self._scan(False)
        __, cost_full = scan.evaluate(_points([1.0, 1.0]))
        ceiling = (
            MODEL.index_probe_cost
            + 160 * MODEL.random_page_cost
            + 10_000 * MODEL.cpu_tuple_cost
        )
        assert cost_full[0] <= ceiling + 1e-9

    def test_clustered_cheaper_than_unclustered_midrange(self):
        point = _points([0.5, 1.0])
        __, clustered = self._scan(True).evaluate(point)
        __, unclustered = self._scan(False).evaluate(point)
        assert clustered[0] < unclustered[0]

    def test_beats_seqscan_only_at_low_selectivity(self, scan_a):
        index = IndexScan(
            "a", "ix", 0, 10_000, 160, (), clustered=False, model=MODEL
        )
        low = _points([0.001, 1.0])
        high = _points([0.9, 1.0])
        assert index.evaluate(low)[1][0] < scan_a.evaluate(low)[1][0]
        assert index.evaluate(high)[1][0] > scan_a.evaluate(high)[1][0]

    def test_sarg_cannot_repeat_as_residual(self):
        with pytest.raises(ConfigurationError):
            IndexScan("a", "ix", 0, 100, 10, (0,), False, MODEL)


class TestCostModel:
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 0.0, -1.0]
    )
    @pytest.mark.parametrize(
        "name", ["seq_page_cost", "hash_memory_rows", "hash_spill_factor"]
    )
    def test_a_constant_must_be_finite_and_positive(self, name, value):
        """A NaN or infinite constant would reach the compiled cost
        program as a literal it cannot write; it is refused up front."""
        with pytest.raises(ConfigurationError, match=name):
            CostModel(**{name: value})


class TestSort:
    def test_preserves_rows_adds_cost(self, scan_a):
        sort = Sort(scan_a, "a.x", MODEL)
        point = _points([0.5, 1.0])
        rows_scan, cost_scan = scan_a.evaluate(point)
        rows_sort, cost_sort = sort.evaluate(point)
        assert rows_sort[0] == rows_scan[0]
        assert cost_sort[0] > cost_scan[0]

    def test_sets_sort_order(self, scan_a):
        assert Sort(scan_a, "a.x", MODEL).sort_order == "a.x"


class TestJoins:
    def test_output_cardinality(self, scan_a, scan_b):
        join = HashJoin(scan_a, scan_b, join_selectivity=0.001, model=MODEL)
        rows, __ = join.evaluate(_points([0.5, 0.5]))
        assert rows[0] == pytest.approx(5_000 * 500 * 0.001)

    def test_overlapping_sides_rejected(self, scan_a):
        other = SeqScan("a", 10, 1, (), MODEL)
        with pytest.raises(ConfigurationError):
            HashJoin(scan_a, other, 0.5, MODEL)

    def test_invalid_selectivity_rejected(self, scan_a, scan_b):
        with pytest.raises(ConfigurationError):
            HashJoin(scan_a, scan_b, 0.0, MODEL)
        with pytest.raises(ConfigurationError):
            HashJoin(scan_a, scan_b, 1.5, MODEL)

    def test_hash_spill_penalty(self, scan_b):
        big = SeqScan("big", 10_000_000, 100_000, (0,), MODEL)
        join = HashJoin(scan_b, big, 1e-6, MODEL)
        # Build side below memory at low selectivity, above at high.
        sel_small = MODEL.hash_memory_rows / 10_000_000 * 0.5
        sel_large = MODEL.hash_memory_rows / 10_000_000 * 2.0
        __, cost_small = join.evaluate(_points([sel_small, 1.0]))
        __, cost_large = join.evaluate(_points([sel_large, 1.0]))
        build_ratio = sel_large / sel_small
        # Spill adds more than the linear growth of the build input.
        assert cost_large[0] > cost_small[0] * 1.01
        assert cost_large[0] - cost_small[0] > 0

    def test_nested_loop_quadratic_term(self, scan_a, scan_b):
        join = NestedLoopJoin(scan_a, scan_b, 0.001, MODEL)
        __, c1 = join.evaluate(_points([0.1, 0.1]))
        __, c2 = join.evaluate(_points([0.2, 0.2]))
        compare_1 = 10_000 * 0.1 * 1_000 * 0.1 * MODEL.cpu_compare_cost
        compare_4 = 10_000 * 0.2 * 1_000 * 0.2 * MODEL.cpu_compare_cost
        assert (c2[0] - c1[0]) >= (compare_4 - compare_1) * 0.9

    def test_index_nl_join_cost_scales_with_outer(self, scan_b):
        join = IndexNLJoin(
            outer=scan_b,
            inner_table="a",
            inner_index="pk_a",
            inner_base_rows=10_000,
            inner_param_indexes=(0,),
            join_selectivity=1.0 / 10_000,
            model=MODEL,
        )
        __, c_small = join.evaluate(_points([1.0, 0.1]))
        __, c_big = join.evaluate(_points([1.0, 1.0]))
        assert c_big[0] > c_small[0]

    def test_index_nl_join_output_rows(self, scan_b):
        join = IndexNLJoin(
            outer=scan_b,
            inner_table="a",
            inner_index="pk_a",
            inner_base_rows=10_000,
            inner_param_indexes=(0,),
            join_selectivity=1.0 / 10_000,
            model=MODEL,
        )
        rows, __ = join.evaluate(_points([0.5, 0.2]))
        # outer 200 rows x 1 match per probe x residual 0.5.
        assert rows[0] == pytest.approx(200 * 1.0 * 0.5)

    def test_merge_join_sets_sort_order(self, scan_a, scan_b):
        join = MergeJoin(scan_a, scan_b, 0.001, MODEL, order="a.x")
        assert join.sort_order == "a.x"

    def test_merge_join_cost_linear_in_inputs(self, scan_a, scan_b):
        join = MergeJoin(scan_a, scan_b, 1e-6, MODEL, order="a.x")
        __, c1 = join.evaluate(_points([0.1, 0.1]))
        __, c2 = join.evaluate(_points([0.2, 0.2]))
        assert c2[0] > c1[0]


class TestFingerprints:
    def test_distinct_structures_distinct_fingerprints(self, scan_a, scan_b):
        hash_join = HashJoin(scan_a, scan_b, 0.001, MODEL)
        merge_join = MergeJoin(scan_a, scan_b, 0.001, MODEL, order="a.x")
        nl_join = NestedLoopJoin(scan_a, scan_b, 0.001, MODEL)
        prints = {
            hash_join.fingerprint(),
            merge_join.fingerprint(),
            nl_join.fingerprint(),
        }
        assert len(prints) == 3

    def test_swapped_sides_distinct(self, scan_a, scan_b):
        ab = HashJoin(scan_a, scan_b, 0.001, MODEL)
        ba = HashJoin(scan_b, scan_a, 0.001, MODEL)
        assert ab.fingerprint() != ba.fingerprint()
