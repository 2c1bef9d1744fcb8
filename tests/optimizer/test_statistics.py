"""Column statistics: quantile sketches and selectivity maps."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import CatalogError
from repro.optimizer.catalog import Catalog, Column, Table
from repro.optimizer.statistics import (
    CatalogStatistics,
    ColumnStatistics,
    TableStatistics,
)
from repro.tpch import build_catalog, build_statistics

#: sha256 over every column sketch of ``build_statistics(build_catalog(1.0),
#: seed=0)``: tables, then columns, in sorted order, ``quantiles.tobytes()``.
SKETCH_SHA256 = "d87ac964716e8acc50707c275d9d7feab6eb26e37526aa3bd311019f2ad443e8"


@pytest.fixture()
def uniform_column():
    return Column("u", 0.0, 100.0, 100)


class TestColumnStatistics:
    def test_uniform_selectivity_is_linear(self, uniform_column):
        stats = ColumnStatistics.uniform(uniform_column)
        assert stats.selectivity_leq(0.0) == pytest.approx(0.0)
        assert stats.selectivity_leq(50.0) == pytest.approx(0.5)
        assert stats.selectivity_leq(100.0) == pytest.approx(1.0)

    def test_selectivity_clamped_outside_domain(self, uniform_column):
        stats = ColumnStatistics.uniform(uniform_column)
        assert stats.selectivity_leq(-10.0) == 0.0
        assert stats.selectivity_leq(500.0) == 1.0

    def test_selectivity_monotone(self, uniform_column):
        stats = ColumnStatistics.uniform(uniform_column)
        values = np.linspace(0, 100, 50)
        sels = stats.selectivity_leq(values)
        assert (np.diff(sels) >= 0).all()

    def test_inverse_round_trip(self, uniform_column):
        stats = ColumnStatistics.uniform(uniform_column)
        for sel in (0.1, 0.33, 0.9):
            value = stats.value_at_selectivity(sel)
            assert stats.selectivity_leq(value) == pytest.approx(sel, abs=1e-9)

    def test_gaussian_mass_concentrated_at_mean(self, uniform_column):
        stats = ColumnStatistics.gaussian(
            uniform_column, mean=50.0, std=10.0, seed=0
        )
        assert stats.selectivity_leq(50.0) == pytest.approx(0.5, abs=0.02)
        # Within one sigma: about 68 % of mass.
        mass = stats.selectivity_leq(60.0) - stats.selectivity_leq(40.0)
        assert mass == pytest.approx(0.68, abs=0.05)

    def test_gaussian_clipped_to_domain(self, uniform_column):
        stats = ColumnStatistics.gaussian(
            uniform_column, mean=50.0, std=40.0, seed=0
        )
        assert stats.quantiles.min() >= 0.0
        assert stats.quantiles.max() <= 100.0

    def test_from_samples_empirical_quantiles(self, uniform_column):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        stats = ColumnStatistics.from_samples(uniform_column, samples)
        assert stats.selectivity_leq(2.5) == pytest.approx(0.5, abs=0.1)

    def test_rejects_decreasing_sketch(self, uniform_column):
        with pytest.raises(CatalogError):
            ColumnStatistics(uniform_column, np.array([2.0, 1.0]))

    def test_rejects_empty_samples(self, uniform_column):
        with pytest.raises(CatalogError):
            ColumnStatistics.from_samples(uniform_column, np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sketch(self, uniform_column, bad):
        for quantiles in ([1.0, bad], [bad, 1.0], [1.0, bad, 3.0], [bad, bad]):
            with pytest.raises(CatalogError, match="finite"):
                ColumnStatistics(uniform_column, np.array(quantiles))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, uniform_column, bad):
        for samples in ([bad], [1.0, bad], [bad, 1.0], [1.0, bad, 3.0]):
            with pytest.raises(CatalogError, match="finite"):
                ColumnStatistics.from_samples(uniform_column, np.array(samples))

    def test_knots_are_the_sketch_as_floats(self, uniform_column):
        """The one-value bind's tuples hold the sketch's bits; a sketch
        builds them once, and sketches of one size share the fractions."""
        stats = ColumnStatistics.gaussian(uniform_column, 40.0, 9.0, seed=3)
        other = ColumnStatistics.uniform(uniform_column)
        quantiles, fractions = stats.knots
        assert np.array(quantiles).tobytes() == stats.quantiles.tobytes()
        assert np.array(fractions).tobytes() == stats.fractions.tobytes()
        assert stats.knots is stats.knots
        assert other.knots[1] is fractions
        short = ColumnStatistics(uniform_column, np.array([1.0, 2.0, 2.0]))
        assert short.knots == ((1.0, 2.0, 2.0), (0.0, 0.5, 1.0))


def _sample_sets(count, seed=0):
    """Seeded sample sets of 1 to 30,000 values: plain, tied, and with
    point masses clipped at both bounds of the column."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 129, 130, 30_000]
    sizes += rng.integers(1, 30_001, size=count - len(sizes)).tolist()
    for i, size in enumerate(sizes):
        samples = rng.normal(50.0, rng.uniform(30.0, 60.0), size=size)
        if i % 3 == 1:
            # floor, not round: a negative value never floors to -0.0
            samples = np.floor(samples / rng.uniform(0.5, 20.0))
        elif i % 3 == 2:
            samples = np.clip(samples, 0.0, 100.0)
        yield samples


class TestFromSamplesParity:
    def test_equals_quantile_of_unsorted_samples(self, uniform_column):
        fractions = np.linspace(0.0, 1.0, 129)
        for samples in _sample_sets(300):
            expected = np.quantile(samples, fractions)
            before = samples.copy()
            stats = ColumnStatistics.from_samples(uniform_column, samples)
            assert stats.quantiles.tobytes() == expected.tobytes()
            assert stats.fractions.tobytes() == fractions.tobytes()
            assert samples.tobytes() == before.tobytes()

    def test_sample_sets_have_ties_and_clipped_masses(self):
        sets = list(_sample_sets(300))
        assert min(s.size for s in sets) == 1
        assert max(s.size for s in sets) == 30_000
        assert all(np.unique(s).size < s.size for s in sets[1::3] if s.size > 100)
        clipped = [s for s in sets[2::3] if s.size > 100]
        assert all((s == 0.0).sum() > 1 and (s == 100.0).sum() > 1 for s in clipped)

    def test_signed_zeros_tie_by_value(self, uniform_column):
        # -0.0 and 0.0 compare equal, so sorting may order them either
        # way: the one tie whose members differ in their bytes.  The
        # sketch may then differ in a zero's sign, never in a value.
        rng = np.random.default_rng(1)
        fractions = np.linspace(0.0, 1.0, 129)
        for __ in range(50):
            samples = rng.choice([-1.0, -0.0, 0.0, 1.0], size=rng.integers(1, 500))
            expected = np.quantile(samples, fractions)
            stats = ColumnStatistics.from_samples(uniform_column, samples)
            assert np.array_equal(stats.quantiles, expected)


class TestHalfWeights:
    def test_a_half_weight_lerps_from_the_upper_sample(self, uniform_column):
        # With 128m + 65 samples, every odd fraction k/128 sits halfway
        # between two order statistics.  There numpy's lerp takes
        # ``b - (b - a) * 0.5``, which differs from ``a + (b - a) * 0.5``
        # in the last bit on some pairs; the sets below hold such pairs.
        rng = np.random.default_rng(3)
        fractions = np.linspace(0.0, 1.0, 129)
        odd = np.arange(1, 129, 2)
        split = 0
        for size in (65, 193, 321, 449) * 30:
            samples = rng.normal(size=size) * 10.0 ** rng.uniform(-3.0, 3.0)
            ordered = np.sort(samples)
            below = ordered[(size - 1) * odd // 128]
            above = ordered[(size - 1) * odd // 128 + 1]
            span = above - below
            split += int(np.sum(below + span * 0.5 != above - span * 0.5))
            stats = ColumnStatistics.from_samples(uniform_column, samples)
            expected = np.quantile(samples, fractions)
            assert stats.quantiles.tobytes() == expected.tobytes()
        assert split > 0


def test_tpch_sketches_golden():
    statistics = build_statistics(build_catalog(1.0), seed=0)
    digest = hashlib.sha256()
    for table in sorted(statistics.tables):
        columns = statistics.tables[table].columns
        for column in sorted(columns):
            digest.update(columns[column].quantiles.tobytes())
    assert digest.hexdigest() == SKETCH_SHA256


class TestCatalogStatistics:
    def test_lookup_chain(self):
        catalog = Catalog()
        column = Column("a", 0, 1, 2)
        catalog.add_table(Table("t", 10, {"a": column}))
        stats = CatalogStatistics(catalog)
        table_stats = TableStatistics("t", 10)
        table_stats.add(ColumnStatistics.uniform(column))
        stats.add_table(table_stats)
        assert stats.column("t", "a").column is column

    def test_missing_statistics_raise(self):
        catalog = Catalog()
        catalog.add_table(Table("t", 10))
        stats = CatalogStatistics(catalog)
        with pytest.raises(CatalogError):
            stats.table("t")
        stats.add_table(TableStatistics("t", 10))
        with pytest.raises(CatalogError):
            stats.column("t", "missing")
