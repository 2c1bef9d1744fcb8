"""One point's predict step is the block decision of one column.

A served decision predicts through ``HistogramPredictor.predict_z``:
the packed block's one-point query (``PackedHistograms.query_point``)
and a decision in Python floats.  It must decide exactly what the block
path decides for that point's column, ``decide(*lookup(z[:,
None]))[0]``: the same plan id, the same confidence bits
and the same estimated-cost bits.  Warmed sessions of every template
pin that, under each setting the float decision branches on (mean
aggregation, the frequency confidence model, no noise elimination, an
even number of transforms), on an empty block, and where a query's
edge bucket is a zero-width point mass.  A traced step's payloads are
the ones ``TestPredictSpanPayload`` recomputes from the block arrays.
"""

import copy
import struct

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.confidence import FrequencyConfidenceModel
from repro.core.framework import TemplateSession
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.point import SamplePool
from repro.obs.tracing import DecisionTrace
from repro.tpch import TEMPLATE_NAMES, plan_space_for
from repro.workload import RandomTrajectoryWorkload, sample_points
from tests.obs.test_tracing import TestPredictSpanPayload

WARM = 500
PROBES = 200


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _key(prediction):
    """Plan id, confidence bits and estimated-cost bits."""
    if prediction is None:
        return None
    return (
        prediction.plan_id,
        _bits(prediction.confidence),
        _bits(prediction.estimated_cost),
    )


def _block(predictor, z):
    """The block path's decision for one point's ``(t,)`` z-values."""
    column = z[:, None]
    return predictor.decide(*predictor.lookup(column))[0]


def _assert_parity(predictor, points) -> int:
    """Each point's step equals its block decision; returns how many
    points were answered."""
    answered = 0
    z_values = predictor.z_values(points)
    for column in range(z_values.shape[1]):
        z = z_values[:, column].copy()
        expected = _key(_block(predictor, z))
        assert _key(predictor.predict_z(z)) == expected, column
        answered += expected is not None
    return answered


def _warmed(name, **config):
    space = plan_space_for(name)
    session = TemplateSession(space, PPCConfig(**config), seed=11)
    for x in RandomTrajectoryWorkload(
        space.dimensions, spread=0.05, seed=5
    ).generate(WARM):
        session.execute(x)
    return session


def _probes(dimensions):
    """Points on and around the warm-up walk, and uniform ones."""
    near = RandomTrajectoryWorkload(
        dimensions, spread=0.1, seed=9
    ).generate(PROBES)
    return np.vstack([near, sample_points(dimensions, PROBES // 4, seed=3)])


@pytest.fixture(scope="module")
def warmed():
    """A template's warmed session, built once per module; the tests
    only read it."""
    sessions: dict[str, TemplateSession] = {}

    def get(name):
        if name not in sessions:
            sessions[name] = _warmed(name)
        return sessions[name]

    return get


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_the_step_is_the_block_decision_on_a_warmed_session(warmed, name):
    session = warmed(name)
    _assert_parity(session.predictor, _probes(session.plan_space.dimensions))


def _mean(predictor):
    predictor.aggregation = "mean"


def _frequency(predictor):
    predictor.model = FrequencyConfidenceModel()


def _no_noise(predictor):
    predictor.noise_fraction = None


@pytest.mark.parametrize(
    "variant", [_mean, _frequency, _no_noise], ids=["mean", "frequency", "no-noise"]
)
@pytest.mark.parametrize("name", ["Q0", "Q1", "Q3", "Q8"])
def test_every_setting_the_float_decision_reads(warmed, name, variant):
    session = warmed(name)
    predictor = copy.deepcopy(session.predictor)
    variant(predictor)
    points = _probes(session.plan_space.dimensions)
    assert _assert_parity(predictor, points) > 0


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5"])
def test_an_even_transform_count_averages_the_middle_pair(name):
    """Four transforms: the median of masses and of costs averages two
    values whenever an even count of them is in play."""
    session = _warmed(name, transforms=4)
    points = _probes(session.plan_space.dimensions)
    assert _assert_parity(session.predictor, points) > 0


def test_an_empty_block_predicts_nothing():
    predictor = _warmed("Q1", transforms=5).predictor
    predictor.drop()
    assert predictor.total_mass == 0
    points = _probes(2)
    assert _assert_parity(predictor, points) == 0
    z = predictor.z_values(points[:1])[:, 0]
    assert predictor.predict_z(z) is None


def test_a_zero_width_edge_bucket_adds_nothing():
    """Point masses just outside the query on both sides: each is an
    edge bucket of zero width, which the overlap rule must skip."""
    predictor = HistogramPredictor(
        SamplePool(2), plan_count=2, transforms=3, confidence_threshold=0.5,
        histogram_kind="incremental", seed=0,
    )
    delta = predictor.delta
    z = np.array([0.3, 0.5, 0.7])
    rows = []
    for value in z.tolist():
        below, above = value - delta, value + delta
        rows.append([
            # Plan 0: a point mass just below the query, one covered
            # bucket and a point mass just above it.
            [
                (below - 1e-9, below - 1e-9, 4.0, 40.0),
                (value - delta / 2, value, 9.0, 108.0),
                (above + 1e-9, above + 1e-9, 5.0, 70.0),
            ],
            # Plan 1: a point mass inside and a partly covered bucket.
            [
                (value, value, 1.0, 9.0),
                (above - delta / 4, above + 3 * delta / 4, 2.0, 30.0),
            ],
        ])
    predictor.load_histograms(rows, 21, 21.0)
    packed = predictor._packed
    lo = [value - delta for value in z.tolist()]
    hi = [value + delta for value in z.tolist()]
    mass, cost = packed.query_point(lo, hi)
    block_mass, average = packed.query(np.array(lo)[:, None], np.array(hi)[:, None])
    assert mass.tobytes() == block_mass[..., 0].tobytes()
    averages = np.where(mass > 0.0, cost / np.maximum(mass, 1e-300), 0.0)
    assert averages.tobytes() == average[..., 0].tobytes()
    # Only the covered bucket counts for plan 0; plan 1 gets its point
    # mass and a quarter of its partly covered bucket.
    assert mass[:, 0].tolist() == [9.0] * 3
    assert np.allclose(mass[:, 1], 1.5)
    prediction = predictor.predict_z(z)
    assert _key(prediction) == _key(_block(predictor, z))
    assert prediction.plan_id == 0
    assert prediction.estimated_cost == 12.0


def _point_masses(masses, costs, **settings):
    """A predictor whose row for transform ``i`` and plan ``p`` is one
    point mass at z = 0.5 of ``masses[i][p]`` points costing
    ``costs[i][p]`` in all (no bucket where the mass is 0)."""
    transforms, plans = len(masses), len(masses[0])
    predictor = HistogramPredictor(
        SamplePool(2), plan_count=plans, transforms=transforms,
        histogram_kind="incremental", seed=0, **settings,
    )
    rows = [
        [
            [(0.5, 0.5, mass, cost)] if mass > 0.0 else []
            for mass, cost in zip(row_masses, row_costs, strict=True)
        ]
        for row_masses, row_costs in zip(masses, costs, strict=True)
    ]
    predictor.load_histograms(rows, transforms, float(np.sum(masses)))
    return predictor, np.full(transforms, 0.5)


def test_nine_plans_sum_in_numpy_order():
    """From eight plans on, numpy's sum of the aggregated row is not a
    left-to-right sum; the confidence reads numpy's."""
    row = [9.0, 0.11, 0.21, 0.31, 0.41, 0.51, 0.61, 0.71, 0.81]
    assert float(np.sum(row)) != sum(row)
    predictor, z = _point_masses(
        [row] * 3, [[1.0] * 9] * 3, confidence_threshold=0.3
    )
    prediction = predictor.predict_z(z)
    assert prediction is not None
    assert _key(prediction) == _key(_block(predictor, z))


def test_a_tiny_mass_divides_by_the_floor():
    """A transform whose mass is below 1e-300 averages its cost over
    1e-300, as the block's average does, in the estimate and in a
    traced step's per-transform payloads."""
    masses = [[1e-301, 0.0], [9.0, 0.0], [9.0, 0.0]]
    costs = [[1e-299, 0.0], [108.0, 0.0], [45.0, 0.0]]
    predictor, z = _point_masses(masses, costs)
    prediction = predictor.predict_z(z)
    assert prediction.estimated_cost == 10.0
    assert _key(prediction) == _key(_block(predictor, z))
    trace = DecisionTrace("tiny", 0, "forced")
    predictor.predict_z(z, trace)
    __, average = predictor.lookup(z[:, None])
    assert [span.attributes["avg_costs"][0] for span in trace.spans("transform")] == (
        average[:, 0, 0].tolist()
    )


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_traced_payloads_are_the_block_quantities(warmed, name):
    """A traced step's spans carry what ``TestPredictSpanPayload``
    recomputes from ``z_values``, ``lookup`` and ``decide_batch``."""
    session = warmed(name)
    predictor = session.predictor
    checked = 0
    for x in _probes(session.plan_space.dimensions)[:80]:
        kind, expected = TestPredictSpanPayload._expected(predictor, x)
        if expected["noise_elimination"]["max_count"] <= 0:
            continue
        trace = DecisionTrace(name, 0, "forced")
        z = predictor.z_values(x[None, :])[:, 0]
        with trace.span("predict"):
            prediction = predictor.predict_z(z, trace)
        children = next(trace.spans("predict")).children
        assert [span.name for span in children] == [
            "density_lookup", *["transform"] * len(expected["transform"]),
            "aggregate", "noise_elimination", "confidence", "cost_estimate",
        ]
        got = {span.name: span.attributes for span in children}
        assert got.pop("density_lookup") == {}
        got["transform"] = [span.attributes for span in trace.spans("transform")]
        assert got == expected
        assert (prediction is not None) == (kind == "answered")
        checked += 1
    assert checked > 0
