"""Block binding: a run of instances binds in one pass.

``TemplateBinder.to_points`` checks every instance of a run, then makes
one ``np.interp`` per predicate over the run's column of values and one
normalization over the block.  Its rows must equal the per-instance map
bit for bit — the one-row ``to_point`` and the reference composition of
:func:`predicate_selectivity` and ``ParameterMapping.to_normalized`` —
for ``<=`` and ``>=`` predicates and for values outside the column's
domain.  A malformed instance raises before anything of its run runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanCachingService
from repro.exceptions import PredictionError, WorkloadError
from repro.optimizer.expressions import ColumnRef, ParamPredicate, QueryTemplate
from repro.optimizer.selectivity import predicate_selectivity
from repro.tpch import build_catalog, build_statistics, query_template
from repro.workload import QueryInstance, TemplateBinder

#: ``>=`` next to ``<=``, on a Gaussian date column and a uniform one.
MIXED = QueryTemplate(
    name="mixed",
    tables=("orders",),
    predicates=(
        ParamPredicate(ColumnRef("orders", "o_date"), 0, op=">="),
        ParamPredicate(ColumnRef("orders", "o_totalprice"), 1),
        ParamPredicate(ColumnRef("orders", "o_custkey"), 2, op=">="),
    ),
)
TEMPLATES = [f"Q{i}" for i in range(9)] + ["mixed"]


@pytest.fixture(scope="module")
def binders():
    catalog = build_catalog(scale_factor=0.01)
    statistics = build_statistics(catalog, seed=0, gaussian_samples=5000)
    built = {
        name: TemplateBinder(query_template(name), statistics)
        for name in TEMPLATES[:-1]
    }
    built["mixed"] = TemplateBinder(MIXED, statistics)
    return built


def _reference_point(binder, instance):
    """The per-instance map as first written: one selectivity per value."""
    predicates = sorted(binder.template.predicates, key=lambda p: p.param_index)
    selectivities = np.array(
        [
            predicate_selectivity(binder.statistics, predicate, value)
            for predicate, value in zip(predicates, instance.values, strict=True)
        ]
    )
    return binder.mapping.to_normalized(selectivities)[0]


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


@st.composite
def _run(draw, binder):
    """1-20 instances with values up to half a domain outside it."""
    columns = [
        binder.statistics.catalog.table(p.column.table).columns[p.column.column]
        for p in sorted(binder.template.predicates, key=lambda p: p.param_index)
    ]
    values = [
        st.floats(
            column.lo - (column.hi - column.lo) / 2,
            column.hi + (column.hi - column.lo) / 2,
        )
        for column in columns
    ]
    return [
        QueryInstance(binder.template.name, draw(st.tuples(*values)))
        for __ in range(draw(st.integers(1, 20)))
    ]


class TestBlockBinding:
    @given(name=st.sampled_from(TEMPLATES), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_block_binds_each_row_bit_for_bit(self, binders, name, data):
        binder = binders[name]
        instances = data.draw(_run(binder))
        block = binder.to_points(instances)
        assert block.shape == (len(instances), binder.template.parameter_degree)
        rows = np.array([binder.to_point(instance) for instance in instances])
        reference = np.array(
            [_reference_point(binder, instance) for instance in instances]
        )
        np.testing.assert_array_equal(_bits(block), _bits(rows))
        np.testing.assert_array_equal(_bits(block), _bits(reference))

    def test_geq_selectivity_falls_as_the_value_rises(self, binders):
        binder = binders["mixed"]
        low, high = binder.to_points(
            [
                QueryInstance("mixed", (100.0, 1e5, 100.0)),
                QueryInstance("mixed", (2000.0, 1e5, 1e5)),
            ]
        )
        assert high[0] < low[0] and high[2] < low[2]
        assert high[1] == low[1]

    def test_an_empty_run_binds_to_an_empty_block(self, binders):
        assert binders["Q3"].to_points([]).shape == (0, 3)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (QueryInstance("Q2", (1.0, 2.0)), "instance 2 of 'Q2'"),
            (QueryInstance("Q1", (1.0,)), "instance 2 has 1 values"),
            (QueryInstance("Q1", ("abc", 1.0)), "instance 2 of 'Q1': value 0"),
            (QueryInstance("Q1", (1.0, (2.0, 3.0))), "value 1"),
            (QueryInstance("Q1", (1.0, 10**400)), "value 1"),
        ],
    )
    def test_a_bad_instance_is_named_by_its_position(
        self, binders, bad, message
    ):
        good = QueryInstance("Q1", (100.0, 2000.0))
        with pytest.raises(WorkloadError, match=message.replace("(", r"\(")):
            binders["Q1"].to_points([good, good, bad, good])

    def test_none_and_nan_bind_as_nan(self, binders):
        points = binders["Q1"].to_points(
            [
                QueryInstance("Q1", (None, 2000.0)),
                QueryInstance("Q1", (100.0, float("nan"))),
            ]
        )
        assert np.isnan(points[0, 0]) and np.isnan(points[1, 1])
        assert np.isfinite(points[0, 1]) and np.isfinite(points[1, 0])


class TestBindingOrder:
    """A run binds value ``i`` to the predicate of ``param_index`` i,
    whatever order the template declares its predicates in."""

    @pytest.fixture(scope="class")
    def binder(self, binders):
        template = QueryTemplate(
            name="two",
            tables=("customer",),
            predicates=(
                ParamPredicate(ColumnRef("customer", "c_date"), 1),
                ParamPredicate(ColumnRef("customer", "c_acctbal"), 0),
            ),
        )
        return TemplateBinder(template, binders["Q1"].statistics)

    def test_ordered_by_param_index(self, binder):
        point = binder.to_points([QueryInstance("two", (9999.0, 0.0))])[0]
        assert point[0] == pytest.approx(1.0, abs=0.01)
        assert point[1] == pytest.approx(0.0, abs=0.01)

    def test_arity_checked(self, binder):
        with pytest.raises(WorkloadError, match="expects 2"):
            binder.to_points([QueryInstance("two", (1.0, 2.0, 3.0))])


@pytest.fixture()
def service():
    service = PlanCachingService.tpch(scale_factor=0.1, seed=0)
    service.register("Q1")
    return service


class TestServiceBinding:
    def test_execute_rejects_a_non_numeric_value(self, service):
        with pytest.raises(WorkloadError, match="'abc'"):
            service.execute(QueryInstance("Q1", ("abc", 1.0)))
        assert service.framework.session("Q1").decisions == 0

    def test_a_malformed_instance_mid_run_runs_nothing_of_it(self, service):
        good = [
            service.instance_at("Q1", np.array([0.2 + 0.1 * i, 0.5]))
            for i in range(4)
        ]
        for bad in (
            QueryInstance("Q1", ("abc", 1.0)),
            QueryInstance("Q1", (1.0,)),
        ):
            with pytest.raises(WorkloadError) as batch_error:
                service.execute_batch(good[:2] + [bad] + good[2:])
            with pytest.raises(WorkloadError) as scalar_error:
                service.execute(bad)
            assert "instance 2" in str(batch_error.value)
            assert str(scalar_error.value) == str(batch_error.value).replace(
                "instance 2", "instance 0"
            )
        session = service.framework.session("Q1")
        assert session.decisions == 0
        assert not session.records

    def test_none_and_nan_reach_the_non_finite_guard(self, service):
        session = service.framework.session("Q1")
        rejected = session._rejected_counters["non_finite"]
        for values in ((None, 2000.0), (100.0, float("nan"))):
            with pytest.raises(PredictionError):
                service.execute(QueryInstance("Q1", values))
        with pytest.raises(PredictionError):
            service.execute_batch([QueryInstance("Q1", (None, 2000.0))])
        assert rejected.value == 3
