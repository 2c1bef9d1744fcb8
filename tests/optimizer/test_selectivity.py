"""Predicate selectivity estimation."""

import pytest

from repro.exceptions import ConfigurationError
from repro.optimizer.expressions import ColumnRef, ParamPredicate
from repro.optimizer.selectivity import (
    predicate_selectivity,
    value_for_selectivity,
)
from repro.tpch import build_catalog, build_statistics


@pytest.fixture(scope="module")
def statistics():
    catalog = build_catalog(scale_factor=0.01)
    return build_statistics(catalog, seed=0, gaussian_samples=5000)


@pytest.fixture(scope="module")
def leq_predicate():
    return ParamPredicate(ColumnRef("customer", "c_acctbal"), 0)


@pytest.fixture(scope="module")
def geq_predicate():
    return ParamPredicate(ColumnRef("customer", "c_acctbal"), 0, op=">=")


class TestPredicateSelectivity:
    def test_leq_and_geq_complement(self, statistics, leq_predicate, geq_predicate):
        value = 4500.0  # mid-range of c_acctbal
        leq = predicate_selectivity(statistics, leq_predicate, value)
        geq = predicate_selectivity(statistics, geq_predicate, value)
        assert leq + geq == pytest.approx(1.0)
        assert leq == pytest.approx(0.5, abs=0.02)

    def test_leq_monotone_in_value(self, statistics, leq_predicate):
        sels = [
            predicate_selectivity(statistics, leq_predicate, v)
            for v in (0.0, 2500.0, 5000.0, 9000.0)
        ]
        assert sels == sorted(sels)

    def test_geq_antitone_in_value(self, statistics, geq_predicate):
        sels = [
            predicate_selectivity(statistics, geq_predicate, v)
            for v in (0.0, 2500.0, 5000.0, 9000.0)
        ]
        assert sels == sorted(sels, reverse=True)

    def test_round_trip(self, statistics, leq_predicate, geq_predicate):
        for predicate in (leq_predicate, geq_predicate):
            for sel in (0.1, 0.5, 0.9):
                value = value_for_selectivity(statistics, predicate, sel)
                back = predicate_selectivity(statistics, predicate, value)
                assert back == pytest.approx(sel, abs=1e-9)

    def test_invalid_selectivity_rejected(self, statistics, leq_predicate):
        with pytest.raises(ConfigurationError):
            value_for_selectivity(statistics, leq_predicate, 1.5)

