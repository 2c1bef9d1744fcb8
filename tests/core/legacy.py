"""Slow references for the fast paths.

The histogram predictor stores its synopses in, and answers its range
queries through, one packed block (``repro.histograms.packed``).  These
helpers read each (transform, plan) row of that block back into a
``Histogram`` and recompute the same estimates the slow way — one
``Histogram.range_query_batch`` call per row — so tests can hold the
fast path to its numeric contract (rtol 1e-12 on masses and average
costs, identical decisions).

A session labels ground truth after the fact, in batch
(``repro.core.framework.GroundTruthLedger``).  :func:`eager_ground_truth`
and :func:`eager_regret` recompute it the way every decision used to:
one oracle label per decision, and the regret booked right after it.
"""

from unittest import mock

import numpy as np

from repro.histograms import Bucket, Histogram


def block_histograms(predictor):
    """The predictor's block rows as per-row ``Histogram`` objects."""
    rows = []
    for row in predictor._packed.rows():
        histograms = []
        for buckets in row:
            histogram = Histogram()
            histogram.buckets = [Bucket(*bucket) for bucket in buckets]
            histograms.append(histogram)
        rows.append(histograms)
    return rows


def legacy_lookup(predictor, z_values):
    """``(counts, avg_costs)`` at ``z_values`` via per-histogram queries."""
    lo = z_values - predictor.delta
    hi = z_values + predictor.delta
    shape = (len(predictor.ensemble), predictor.plan_count, z_values.shape[1])
    counts = np.empty(shape)
    avg_costs = np.empty(shape)
    for index, row in enumerate(block_histograms(predictor)):
        for plan, histogram in enumerate(row):
            counts[index, plan], avg_costs[index, plan] = (
                histogram.range_query_batch(lo[index], hi[index])
            )
    return counts, avg_costs


def legacy_range_estimates(predictor, points):
    """``(z_values, counts, avg_costs)`` via per-histogram queries."""
    z_values = predictor.z_values(points)
    return (z_values, *legacy_lookup(predictor, z_values))


def legacy_cell_densities(predictor, probes=64):
    """``cell_densities`` via per-histogram ``range_count_batch``."""
    edges = np.linspace(0.0, 1.0, probes + 1)
    return np.array([
        [h.range_count_batch(edges[:-1], edges[1:]) for h in row]
        for row in block_histograms(predictor)
    ])


def legacy_predict_batch(predictor, points):
    """``predict_batch`` with the per-histogram lookup swapped in."""
    with mock.patch.object(
        predictor,
        "lookup",
        lambda z_values: legacy_lookup(predictor, z_values),
    ):
        return predictor.predict_batch(points)


def assert_predictions_match(fast, reference):
    """Same NULLs, plans and confidences; costs within rtol 1e-12."""
    assert len(fast) == len(reference)
    for a, b in zip(fast, reference, strict=True):
        assert (a is None) == (b is None)
        if a is None:
            continue
        assert a.plan_id == b.plan_id
        assert a.confidence == b.confidence
        assert (a.estimated_cost is None) == (b.estimated_cost is None)
        if a.estimated_cost is not None:
            np.testing.assert_allclose(
                a.estimated_cost, b.estimated_cost, rtol=1e-12
            )


def eager_ground_truth(space, records):
    """``(optimal_plan, optimal_cost)`` per record, one label per point."""
    truth = []
    for record in records:
        ids, costs = space.label(record.point[None, :])
        truth.append((int(ids[0]), float(costs[0])))
    return truth


def eager_regret(space, records):
    """``ppc_regret_total`` after each decision under eager accounting."""
    total = 0.0
    totals = []
    for record, (__, cost) in zip(
        records, eager_ground_truth(space, records), strict=True
    ):
        suboptimality = record.execution_cost / cost if cost > 0.0 else 1.0
        total += max(0.0, suboptimality - 1.0)
        totals.append(total)
    return totals
