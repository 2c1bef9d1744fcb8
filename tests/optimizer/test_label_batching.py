"""A batched oracle label is bit for bit the per-point label.

A session labels the ground truth of the instances it served without
calling the optimizer after the fact, all pending rows in one
``PlanSpace.label`` call (``repro.core.framework.GroundTruthLedger``).
Its records equal an eager per-decision label only because a batched
label returns, at every row, exactly the plan id and the cost bits that
labelling that row alone returns — whatever the batch size, and at the
rounded and boundary points where plan costs tie most often.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpch import TEMPLATE_NAMES, plan_space_for

#: Batch sizes a ledger settles (1 row up to a full settle) and the
#: sizes a batch is re-cut into.
BATCH_SIZES = (1, 7, 64, 256)
CHUNK_SIZES = (1, 3, 7, 64)

#: Coordinates drawn per row: anywhere in [0, 1], on a 1/100 grid, or
#: on the domain boundary and the harvest probe levels.
coordinate = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(0, 100).map(lambda k: k / 100.0),
    st.sampled_from([0.0, 1.0, 0.02, 0.25, 0.5, 0.75, 0.98]),
)


def per_point(space, points):
    """``(ids, costs)`` from one ``label`` call per row."""
    labels = [space.label(point[None, :]) for point in points]
    return (
        np.array([int(ids[0]) for ids, __ in labels]),
        np.array([costs[0] for __, costs in labels]),
    )


def assert_bitwise(a, b):
    ids_a, costs_a = a
    ids_b, costs_b = b
    assert np.array_equal(ids_a, ids_b)
    assert costs_a.dtype == costs_b.dtype == np.float64
    assert costs_a.tobytes() == costs_b.tobytes()


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_batched_label_matches_per_point_bitwise(name, data):
    space = plan_space_for(name)
    size = data.draw(st.sampled_from(BATCH_SIZES))
    special = data.draw(
        st.lists(
            st.lists(
                coordinate,
                min_size=space.dimensions,
                max_size=space.dimensions,
            ),
            max_size=size,
        )
    )
    seed = data.draw(st.integers(0, 2**32 - 1))
    points = np.random.default_rng(seed).uniform(
        0.0, 1.0, (size, space.dimensions)
    )
    if special:
        points[: len(special)] = special
    batched = space.label(points)
    assert_bitwise(batched, per_point(space, points))
    chunk = data.draw(st.sampled_from(CHUNK_SIZES))
    pieces = [
        space.label(points[start : start + chunk])
        for start in range(0, size, chunk)
    ]
    assert_bitwise(
        batched,
        (
            np.concatenate([ids for ids, __ in pieces]),
            np.concatenate([costs for __, costs in pieces]),
        ),
    )


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_a_wide_batch_matches_per_point_bitwise(name):
    space = plan_space_for(name)
    points = np.random.default_rng(17).uniform(
        0.0, 1.0, (1500, space.dimensions)
    )
    points[:300] = np.round(points[:300], 2)
    assert_bitwise(space.label(points), per_point(space, points))
