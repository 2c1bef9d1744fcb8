"""Binding: a run of instances in arrays, one instance in floats.

``TemplateBinder.to_points`` checks every instance of a run, then makes
one ``np.interp`` per predicate over the run's column of values and one
normalization over the block.  ``to_point`` binds one instance in Python
floats.  The block's rows must equal the one-instance bind and the
reference composition of :func:`predicate_selectivity` and
``ParameterMapping.to_normalized`` bit for bit: for ``<=`` and ``>=``
predicates, log and linear scales, values on and between sketch knots,
values outside the column's domain and selectivities at the mapping's
clip bounds.  Any instance the one-instance path does not take binds or
raises exactly as a run of one.  A malformed instance raises before
anything of its run runs.
"""

import copy
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanCachingService
from repro.exceptions import PredictionError, WorkloadError
from repro.optimizer.expressions import ColumnRef, ParamPredicate, QueryTemplate
from repro.optimizer.selectivity import predicate_selectivity
from repro.optimizer.statistics import ColumnStatistics
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
#: Linear ``>=``, and a log and a linear predicate whose selectivity
#: range is one value (``lo == hi``), over an ``o_date`` sketch with
#: repeated knots at both ends and inside.
EDGES = QueryTemplate(
    name="edges",
    tables=("orders",),
    predicates=(
        ParamPredicate(
            ColumnRef("orders", "o_date"), 0,
            op=">=", sel_range=(0.2, 0.7), scale="linear",
        ),
        ParamPredicate(
            ColumnRef("orders", "o_totalprice"), 1, sel_range=(0.3, 0.3)
        ),
        ParamPredicate(
            ColumnRef("orders", "o_custkey"), 2,
            op=">=", sel_range=(0.4, 0.4), scale="linear",
        ),
    ),
)
#: Every template the one-instance bind is checked on.
BIND_TEMPLATES = TEMPLATES + ["edges"]


def _repeated_knots(column):
    """129 non-decreasing knots over ``column``'s domain, eight equal at
    each end (like a clipped Gaussian's) and five equal inside."""
    inner = np.linspace(column.lo, column.hi, 111)
    return np.concatenate(
        [
            np.full(8, column.lo),
            inner[:50],
            np.full(5, inner[50]),
            inner[51:],
            np.full(8, column.hi),
        ]
    )


@pytest.fixture(scope="module")
def binders():
    catalog = build_catalog(scale_factor=0.01)
    statistics = build_statistics(catalog, seed=0, gaussian_samples=5000)
    built = {
        name: TemplateBinder(query_template(name), statistics)
        for name in TEMPLATES[:-1]
    }
    built["mixed"] = TemplateBinder(MIXED, statistics)
    edge_statistics = copy.deepcopy(statistics)
    column = edge_statistics.catalog.table("orders").columns["o_date"]
    edge_statistics.table("orders").add(
        ColumnStatistics(column, _repeated_knots(column))
    )
    built["edges"] = TemplateBinder(EDGES, edge_statistics)
    return built


def _sorted_predicates(binder):
    return sorted(binder.template.predicates, key=lambda p: p.param_index)


def _reference_point(binder, instance):
    """The per-instance map as first written: one selectivity per value."""
    predicates = _sorted_predicates(binder)
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
        for p in _sorted_predicates(binder)
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


def _medians(binder):
    """Each predicate's column median: the values a probe leaves alone."""
    return [
        float(binder.statistics.column(p.column.table, p.column.column)
              .quantiles[64])
        for p in _sorted_predicates(binder)
    ]


def _probes(binder):
    """One instance per probe value of each predicate, the others at
    their medians.  The probes: every sketch knot, the midpoint of each
    pair of knots, values half a domain and far below and above the
    column's domain, and the values whose selectivity is the mapping's
    ``lo`` and ``hi`` and just beyond them."""
    medians = _medians(binder)
    instances = []
    for index, predicate in enumerate(_sorted_predicates(binder)):
        sketch = binder.statistics.column(
            predicate.column.table, predicate.column.column
        )
        knots = sketch.quantiles
        span = knots[-1] - knots[0]
        lo, hi = binder.mapping.ranges[index]
        selectivities = [lo, hi, lo / 2, min(1.0, hi * 1.5)]
        if predicate.op == ">=":
            selectivities = [1.0 - s for s in selectivities]
        probes = [
            *knots.tolist(),
            *((knots[1:] + knots[:-1]) / 2).tolist(),
            knots[0] - span / 2, knots[-1] + span / 2, -1e300, 1e300,
            *(sketch.value_at_selectivity(s) for s in selectivities),
        ]
        for value in probes:
            values = list(medians)
            values[index] = value
            instances.append(QueryInstance(binder.template.name, tuple(values)))
    return instances


def _no_run(instances):
    raise AssertionError("bound as a run of one")


class TestOnePointBind:
    @pytest.mark.parametrize("name", BIND_TEMPLATES)
    def test_every_probe_binds_its_run_row_bit_for_bit(self, binders, name):
        binder = binders[name]
        instances = _probes(binder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = binder.to_points(instances)
            points = np.array([binder.to_point(i) for i in instances])
            ones = np.array([binder.to_points([i])[0] for i in instances])
        assert points.shape == block.shape
        np.testing.assert_array_equal(_bits(points), _bits(block))
        np.testing.assert_array_equal(_bits(points), _bits(ones))
        # The probes reach both ends of the plan space and its inside.
        assert (points == 0.0).any() and (points == 1.0).any()
        assert ((points > 0.0) & (points < 1.0)).any()

    def test_the_edge_sketch_repeats_knots_at_both_ends_and_inside(
        self, binders
    ):
        knots = binders["edges"].statistics.column("orders", "o_date").quantiles
        flat = np.flatnonzero(np.diff(knots) == 0.0)
        assert flat[0] == 0 and flat[-1] == knots.size - 2
        assert ((flat > 10) & (flat < knots.size - 10)).any()

    def test_a_one_value_selectivity_range_binds_to_zero(self, binders):
        binder = binders["edges"]
        for instance in _probes(binder):
            point = binder.to_point(instance)
            assert point[1] == 0.0 and point[2] == 0.0

    @pytest.mark.parametrize("name", BIND_TEMPLATES)
    def test_int_bool_and_numpy_scalar_values(self, binders, name):
        binder = binders[name]
        medians = _medians(binder)
        converters = [
            lambda v: int(round(v)),
            lambda v: np.int64(round(v)),
            lambda v: np.int16(round(v) % 2**15),
            lambda v: np.uint32(abs(round(v))),
            lambda v: np.float16(min(v, 6e4)),
            np.float32,
            np.float64,
            np.longdouble,
            lambda v: v > 1000.0,
            lambda v: np.bool_(v <= 1000.0),
        ]
        for convert in converters:
            instance = QueryInstance(
                binder.template.name, tuple(convert(v) for v in medians)
            )
            np.testing.assert_array_equal(
                _bits(binder.to_point(instance)),
                _bits(binder.to_points([instance])[0]),
            )

    def test_real_values_bind_without_a_run(self, binders, monkeypatch):
        binder = binders["mixed"]
        instances = [
            QueryInstance("mixed", values)
            for values in [
                (1000, 2e5, 7),
                (np.int64(1000), np.float32(2e5), True),
                (None, float("nan"), float("inf")),
            ]
        ]
        rows = binder.to_points(instances)
        monkeypatch.setattr(binder, "to_points", _no_run)
        points = np.array([binder.to_point(i) for i in instances])
        np.testing.assert_array_equal(_bits(points), _bits(rows))

    @pytest.mark.parametrize("name", BIND_TEMPLATES)
    def test_none_nan_and_infinite_values(self, binders, name):
        binder = binders[name]
        medians = _medians(binder)
        for index in range(len(medians)):
            for bad in (None, float("nan"), float("inf"), float("-inf")):
                values = list(medians)
                values[index] = bad
                instance = QueryInstance(binder.template.name, tuple(values))
                point = binder.to_point(instance)
                np.testing.assert_array_equal(
                    _bits(point), _bits(binder.to_points([instance])[0])
                )
                finite = np.isfinite(point)
                if bad is None or bad != bad:
                    assert not finite[index]
                    finite[index] = True
                assert finite.all()

    @pytest.mark.parametrize(
        "values",
        [
            ("1500", 2000.0),
            (Decimal("1500.5"), Fraction(3001, 2)),
            [1500.0, 2000.0],
            np.array([1500.0, 2000.0]),
            (np.datetime64(1, "D"), b"12"),
        ],
        ids=["str", "decimal-fraction", "list", "ndarray", "datetime-bytes"],
    )
    def test_other_values_bind_as_a_run_of_one(self, binders, values):
        binder = binders["Q1"]
        instance = QueryInstance("Q1", values)
        np.testing.assert_array_equal(
            _bits(binder.to_point(instance)),
            _bits(binder.to_points([instance])[0]),
        )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                QueryInstance("Q2", (1.0, 2.0)),
                "instance 0 of 'Q2' bound against template 'Q1'",
            ),
            (
                QueryInstance("Q1", (1.0,)),
                "instance 0 has 1 values; template 'Q1' expects 2",
            ),
            (
                QueryInstance("Q1", (1.0, 2.0, 3.0)),
                "instance 0 has 3 values; template 'Q1' expects 2",
            ),
            (
                QueryInstance("Q1", ("abc", 1.0)),
                "instance 0 of 'Q1': value 0 ('abc') is not a number",
            ),
            (
                QueryInstance("Q1", (1.0, (2.0, 3.0))),
                "instance 0 of 'Q1': value 1 ((2.0, 3.0)) is not a number",
            ),
            (
                QueryInstance("Q1", (1.0, 1 + 2j)),
                "instance 0 of 'Q1': value 1 ((1+2j)) is not a number",
            ),
            (
                QueryInstance("Q1", (1.0, 10**400)),
                "instance 0 of 'Q1': value 1 (1" + "0" * 39 + ") is not a number",
            ),
        ],
        ids=["template", "too-few", "too-many", "str", "tuple", "complex",
             "huge-int"],
    )
    def test_a_bad_instance_raises_the_run_of_ones_error(
        self, binders, bad, message
    ):
        for bind in (
            binders["Q1"].to_point,
            lambda instance: binders["Q1"].to_points([instance]),
        ):
            with pytest.raises(WorkloadError) as error:
                bind(bad)
            assert str(error.value) == message


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
