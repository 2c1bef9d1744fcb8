"""A session keeps a bounded window of records; its ledger keeps the run.

``TemplateSession.records`` holds the last ``quality_window +
SETTLE_EVERY`` records: the scorecard's settled window plus the at most
``SETTLE_EVERY - 1`` records the ledger has not settled yet.  Every
whole-run fact (the decision count, precision and recall) is the
ledger's, so a run's memory stays flat however long it serves, and every
reader still sees what a full history would have shown it.
"""

import tracemalloc

import numpy as np

from repro import PlanCachingService
from repro.config import PPCConfig, TelemetryConfig
from repro.core.framework import SETTLE_EVERY, TemplateSession
from repro.metrics.classification import PredictionOutcome, summarize
from repro.obs.quality import compute_scorecard, rolling_window_stats
from repro.workload import RandomTrajectoryWorkload

#: The quality window of the memory tests (a record window of 80).
QUALITY_WINDOW = 16
#: Traced growth allowed over :data:`TRACED_DECISIONS` decisions of a
#: session already past its record window.  A session that kept every
#: record grew by ~630 KiB over these 2,000 Q1 decisions.  The window
#: leaves ring replacement (~30 KiB) and, on a long run, the packed
#: synopsis block's last widening (up to ~60 KiB).
GROWTH_BOUND_BYTES = 192 * 1024
WARM_DECISIONS = 1_000
TRACED_DECISIONS = 2_000


def traced_growth(run, points: np.ndarray) -> int:
    """Bytes ``run(points)`` leaves allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(points)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def memory_config() -> PPCConfig:
    return PPCConfig(telemetry=TelemetryConfig(quality_window=QUALITY_WINDOW))


def _q1_walk(count: int) -> np.ndarray:
    return RandomTrajectoryWorkload(2, spread=0.02, seed=3).generate(count)


class TestBoundedMemory:
    def test_memory_stays_flat_past_the_record_window(self, q1_space):
        session = TemplateSession(q1_space, memory_config(), seed=3)
        bound = QUALITY_WINDOW + SETTLE_EVERY

        def run(points):
            for x in points:
                session.execute(x)
                assert len(session.records) <= bound

        walk = _q1_walk(WARM_DECISIONS + TRACED_DECISIONS)
        run(walk[:WARM_DECISIONS])
        assert len(session.records) == bound
        growth = traced_growth(run, walk[WARM_DECISIONS:])
        assert growth < GROWTH_BOUND_BYTES, growth
        assert len(session.records) == bound
        assert session.decisions == WARM_DECISIONS + TRACED_DECISIONS


class TestWindowParity:
    """Every reader of the window or the tally agrees with the same
    figure recomputed from the records ``execute`` returned."""

    WINDOW = 50
    #: Not a multiple of SETTLE_EVERY: the run ends with records the
    #: ledger has not settled.
    DECISIONS = 1_000

    def test_window_and_tally_match_the_returned_records(self):
        config = PPCConfig(
            confidence_threshold=0.8,
            telemetry=TelemetryConfig(quality_window=self.WINDOW),
        )
        service = PlanCachingService.tpch(
            scale_factor=0.1, config=config, seed=0
        )
        service.register("Q1")
        session = service.framework.session("Q1")
        records = [
            service.execute(service.instance_at("Q1", x))
            for x in _q1_walk(self.DECISIONS)
        ]
        assert len(session.records) == self.WINDOW + SETTLE_EVERY
        unsettled = self.DECISIONS % SETTLE_EVERY
        assert unsettled and session._ledger.unsettled == unsettled

        def expect_scorecard(settled):
            card = compute_scorecard(session, include_attribution=False)
            assert card["executions"] == self.DECISIONS
            assert card["rolling"] == rolling_window_stats(
                settled,
                gamma=config.confidence_threshold,
                window=self.WINDOW,
            )
            assert card["rolling"]["window"] == self.WINDOW

        truth = summarize(
            PredictionOutcome(r.predicted, r.optimal_plan) for r in records
        )
        invoked = sum(r.optimizer_invoked for r in records)
        assert 0 < truth.correct < truth.answered < truth.total

        def expect_tally():
            assert session.ground_truth_metrics() == truth
            report = service.report()["Q1"]
            assert report["instances"] == self.DECISIONS
            assert report["optimizer_invocations"] == invoked
            assert report["invocation_rate"] == invoked / self.DECISIONS
            assert report["precision"] == truth.precision
            assert report["recall"] == truth.recall

        # Before a settle the scorecard reads the settled records only.
        expect_scorecard(records[: self.DECISIONS - unsettled])
        expect_tally()  # reads settle first
        service.framework.metrics.settle()
        assert session._ledger.unsettled == 0
        expect_scorecard(records)
        expect_tally()
