"""Parameter normalization: plan-space coordinates <-> selectivities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.optimizer.parameters import (
    ParameterMapping,
    default_selectivity_range,
)


class TestDefaultRanges:
    def test_small_table_sweeps_everything(self):
        lo, hi = default_selectivity_range(100)
        assert hi == 1.0
        assert lo < hi

    def test_huge_table_capped(self):
        lo, hi = default_selectivity_range(6_000_000)
        assert hi == pytest.approx(300_000 / 6_000_000)
        assert lo >= 1e-5

    def test_range_always_valid(self):
        for rows in (1, 10, 1_000, 10**6, 10**8):
            lo, hi = default_selectivity_range(rows)
            assert 0.0 < lo <= hi <= 1.0


class TestParameterMapping:
    def test_log_scale_endpoints(self):
        mapping = ParameterMapping([(0.001, 0.1)], ["log"])
        sel = mapping.to_selectivity(np.array([[0.0], [0.5], [1.0]]))
        assert sel[0, 0] == pytest.approx(0.001)
        assert sel[1, 0] == pytest.approx(0.01)
        assert sel[2, 0] == pytest.approx(0.1)

    def test_linear_scale(self):
        mapping = ParameterMapping([(0.2, 0.8)], ["linear"])
        sel = mapping.to_selectivity(np.array([[0.5]]))
        assert sel[0, 0] == pytest.approx(0.5)

    def test_round_trip(self):
        mapping = ParameterMapping(
            [(0.001, 0.1), (0.2, 0.8)], ["log", "linear"]
        )
        x = np.array([[0.3, 0.7], [0.0, 1.0]])
        back = mapping.to_normalized(mapping.to_selectivity(x))
        assert back == pytest.approx(x, abs=1e-9)

    def test_normalized_clipped_outside_range(self):
        mapping = ParameterMapping([(0.1, 0.5)], ["linear"])
        assert mapping.to_normalized(np.array([[0.01]]))[0, 0] == 0.0
        assert mapping.to_normalized(np.array([[0.99]]))[0, 0] == 1.0

    def test_monotone(self):
        mapping = ParameterMapping([(1e-4, 0.5)], ["log"])
        xs = np.linspace(0, 1, 20)[:, None]
        sels = mapping.to_selectivity(xs)[:, 0]
        assert (np.diff(sels) > 0).all()

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterMapping([(0.0, 0.5)], ["linear"])
        with pytest.raises(ConfigurationError):
            ParameterMapping([(0.5, 0.1)], ["log"])
        with pytest.raises(ConfigurationError):
            ParameterMapping([(0.1, 0.5)], ["cubic"])
        with pytest.raises(ConfigurationError):
            ParameterMapping([(0.1, 0.5), (0.1, 0.5)], ["log"])

    def test_dimension_check(self):
        mapping = ParameterMapping([(0.1, 0.5)], ["log"])
        with pytest.raises(ConfigurationError):
            mapping.to_selectivity(np.zeros((2, 3)))


class TestTemplateDerivedMapping:
    def test_ranges_follow_table_sizes(self, tiny_template, tiny_catalog):
        mapping = ParameterMapping.for_template(tiny_template, tiny_catalog)
        # emp has 50k rows -> hi = 1.0; dept has 500 rows -> hi = 1.0.
        assert mapping.dimensions == 2
        for lo, hi in mapping.ranges:
            assert 0.0 < lo < hi <= 1.0

    def test_explicit_sel_range_respected(self, tiny_catalog):
        from repro.optimizer.expressions import (
            ColumnRef,
            ParamPredicate,
            QueryTemplate,
        )

        template = QueryTemplate(
            name="x",
            tables=("emp",),
            predicates=(
                ParamPredicate(
                    ColumnRef("emp", "salary"), 0, sel_range=(0.25, 0.75),
                    scale="linear",
                ),
            ),
        )
        mapping = ParameterMapping.for_template(template, tiny_catalog)
        assert mapping.ranges[0] == (0.25, 0.75)
        sel = mapping.to_selectivity(np.array([[0.5]]))
        assert sel[0, 0] == pytest.approx(0.5)


def _reference_to_selectivity(mapping, x):
    """The conversion as first written: every bound's log taken again."""
    lo, hi = mapping._lo, mapping._hi
    log_sel = np.exp(np.log(lo) + x * (np.log(hi) - np.log(lo)))
    linear_sel = lo + x * (hi - lo)
    return np.where(mapping._log, log_sel, linear_sel)


def _reference_to_normalized(mapping, selectivity):
    lo, hi = mapping._lo, mapping._hi
    clipped = np.clip(selectivity, lo, hi)
    log_x = (np.log(clipped) - np.log(lo)) / (
        np.log(hi) - np.log(lo) + 1e-300
    )
    linear_x = (clipped - lo) / (hi - lo + 1e-300)
    return np.clip(np.where(mapping._log, log_x, linear_x), 0.0, 1.0)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


@st.composite
def _mappings(draw):
    """A mapping of 1-6 dimensions, log and linear, ``lo == hi`` too."""
    ranges, scales = [], []
    for __ in range(draw(st.integers(1, 6))):
        lo = draw(st.floats(1e-6, 1.0))
        hi = draw(st.floats(lo, 1.0))
        ranges.append((lo, hi))
        scales.append(draw(st.sampled_from(["log", "linear"])))
    return ParameterMapping(ranges, scales)


_COORDINATES = st.floats(-0.5, 1.5) | st.sampled_from(
    [0.0, 1.0, -0.0, np.nan]
)
_SELECTIVITIES = st.floats(-0.5, 1.5) | st.sampled_from(
    [0.0, 1.0, 1e-300, np.nan, np.inf, -np.inf]
)


class TestPrecomputedBounds:
    """The bounds' logs are taken once; each conversion equals the
    expressions that took them on every call, bit for bit, NaN too."""

    @given(mapping=_mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_to_selectivity_matches_the_reference(self, mapping, data):
        rows = data.draw(st.integers(1, 8))
        x = np.array(
            data.draw(
                st.lists(
                    _COORDINATES,
                    min_size=rows * mapping.dimensions,
                    max_size=rows * mapping.dimensions,
                )
            )
        ).reshape(rows, mapping.dimensions)
        np.testing.assert_array_equal(
            _bits(mapping.to_selectivity(x)),
            _bits(_reference_to_selectivity(mapping, x)),
        )

    @given(mapping=_mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_to_normalized_matches_the_reference(self, mapping, data):
        rows = data.draw(st.integers(1, 8))
        selectivity = np.array(
            data.draw(
                st.lists(
                    _SELECTIVITIES,
                    min_size=rows * mapping.dimensions,
                    max_size=rows * mapping.dimensions,
                )
            )
        ).reshape(rows, mapping.dimensions)
        with np.errstate(invalid="ignore", divide="ignore"):
            got = mapping.to_normalized(selectivity)
            expected = _reference_to_normalized(mapping, selectivity)
        np.testing.assert_array_equal(_bits(got), _bits(expected))


    @given(mapping=_mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_point_in_floats_is_the_batch_row(self, mapping, data):
        """``point_to_selectivity`` maps one point in Python floats, bit
        for bit the batch's row, over ``[0, 1]`` (callers check the
        range first)."""
        x = data.draw(
            st.lists(
                st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
                min_size=mapping.dimensions,
                max_size=mapping.dimensions,
            )
        )
        point = mapping.point_to_selectivity(x)
        assert all(type(value) is float for value in point)
        np.testing.assert_array_equal(
            _bits(np.array(point)), _bits(mapping.to_selectivity(np.array(x))[0])
        )


def _edge_ranges(rng, count):
    """Selectivity ranges: random, one value wide (``lo == hi``) and one
    ulp wide, each starting at a random ``lo``."""
    for __ in range(count):
        lo = 10.0 ** rng.uniform(-6.0, 0.0)
        yield lo, min(1.0, lo * 10.0 ** rng.uniform(0.0, 6.0))
        yield lo, lo
        yield lo, min(1.0, float(np.nextafter(lo, 2.0)))


def _around(lo, hi, rng):
    """Selectivities below, at, inside and above ``[lo, hi]``, and NaN."""
    below = [-np.inf, -0.5, 0.0, lo / 2.0, np.nextafter(lo, 0.0)]
    edges = [lo, np.nextafter(lo, 2.0), np.nextafter(hi, 0.0), hi]
    above = [np.nextafter(hi, 2.0), 2.0 * hi, 1.5, np.inf]
    inside = rng.uniform(lo, hi, 8).tolist()
    return [float(v) for v in [*below, *edges, *inside, *above, np.nan]]


class TestNormalizedRange:
    """The ``[lo, hi]`` clip alone keeps a normalized coordinate in
    ``[0, 1]``: no second clip is needed, in either rendering."""

    @pytest.mark.parametrize("scale", ["log", "linear"])
    def test_both_renderings_stay_in_the_unit_interval(self, scale):
        rng = np.random.default_rng(4503)
        for lo, hi in _edge_ranges(rng, 300):
            mapping = ParameterMapping([(lo, hi)], [scale])
            values = _around(lo, hi, rng)
            batch = mapping.to_normalized(np.array(values)[:, None])[:, 0]
            point = [mapping.point_to_normalized([v])[0] for v in values]
            assert all(type(x) is float for x in point)
            np.testing.assert_array_equal(_bits(point), _bits(batch))
            nan = np.isnan(values)
            assert (np.isnan(batch) == nan).all(), (lo, hi)
            assert ((batch[~nan] >= 0.0) & (batch[~nan] <= 1.0)).all(), (lo, hi)
