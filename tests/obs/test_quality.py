"""Unit tests for the plan-space quality scorecard."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.config import PPCConfig, TelemetryConfig
from repro.core.framework import TemplateSession
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry
from repro.obs import names as metric_names
from repro.obs.quality import (
    compute_scorecard,
    export_quality_gauges,
    rolling_window_stats,
    synopsis_scorecard,
)
from repro.workload import RandomTrajectoryWorkload


class TestSynopsisScorecard:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ConfigurationError):
            synopsis_scorecard(np.zeros((2, 3)))

    def test_empty_synopsis_scores_zero(self):
        card = synopsis_scorecard(np.zeros((2, 3, 8)))
        assert card["coverage"] == 0.0
        assert card["purity"] == 0.0
        assert card["entropy"] == 0.0
        assert card["occupied_cells"] == 0
        assert card["probe_cells"] == 8

    def test_single_plan_cells_are_pure(self):
        densities = np.zeros((1, 3, 4))
        densities[0, 1, 0] = 2.0
        densities[0, 1, 2] = 3.0
        card = synopsis_scorecard(densities)
        assert card["coverage"] == pytest.approx(0.5)
        assert card["purity"] == pytest.approx(1.0)
        assert card["entropy"] == pytest.approx(0.0)
        assert card["occupied_cells"] == 2

    def test_evenly_mixed_cells_maximize_entropy(self):
        # Two plans sharing every occupied cell 50/50: purity 0.5,
        # normalized entropy 1.0.
        densities = np.zeros((1, 2, 4))
        densities[0, :, 1] = 1.0
        densities[0, :, 3] = 2.0
        card = synopsis_scorecard(densities)
        assert card["purity"] == pytest.approx(0.5)
        assert card["entropy"] == pytest.approx(1.0)

    def test_coverage_averages_over_transforms(self):
        densities = np.zeros((2, 1, 4))
        densities[0, 0, :] = 1.0  # transform 0 fully covered
        # transform 1 empty
        card = synopsis_scorecard(densities)
        assert card["coverage"] == pytest.approx(0.5)


@dataclass
class _FakeRecord:
    predicted: "int | None"
    confidence: float
    correct: bool
    suboptimality: float
    degraded: bool = False


class TestRollingWindowStats:
    def test_empty_records(self):
        stats = rolling_window_stats([], gamma=0.8)
        assert stats["window"] == 0
        assert stats["accuracy"] == 0.0
        assert stats["answered_fraction"] == 0.0

    def test_window_clips_to_the_tail(self):
        old = [_FakeRecord(0, 0.9, False, 2.0) for __ in range(50)]
        new = [_FakeRecord(0, 0.9, True, 1.0) for __ in range(10)]
        stats = rolling_window_stats(old + new, gamma=0.8, window=10)
        assert stats["window"] == 10
        assert stats["accuracy"] == 1.0
        assert stats["regret"] == 0.0

    def test_mixed_window_statistics(self):
        records = [
            _FakeRecord(3, 0.95, True, 1.0),
            _FakeRecord(None, 0.10, False, 1.0),  # NULL: not answered
            _FakeRecord(5, 0.85, False, 1.5, degraded=True),
        ]
        stats = rolling_window_stats(records, gamma=0.8, window=10)
        assert stats["window"] == 3
        assert stats["accuracy"] == pytest.approx(0.5)  # of 2 answered
        assert stats["regret"] == pytest.approx(0.5 / 3)
        assert stats["confidence_margin"] == pytest.approx(
            ((0.95 - 0.8) + (0.85 - 0.8)) / 2
        )
        assert stats["answered_fraction"] == pytest.approx(2 / 3)
        assert stats["degraded_fraction"] == pytest.approx(1 / 3)


class TestComputeScorecard:
    @pytest.fixture()
    def session(self, tiny_space):
        config = PPCConfig(
            confidence_threshold=0.7,
            mean_invocation_probability=0.05,
            drift_response=False,
            telemetry=TelemetryConfig(quality_window=50),
        )
        session = TemplateSession(tiny_space, config, seed=9)
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=3)
        for x in workload.generate(120):
            session.execute(x)
        return session

    def test_scorecard_shape_and_ranges(self, session):
        card = compute_scorecard(session, probes=32)
        assert card["template"] == "tiny"
        assert card["executions"] == 120
        synopsis = card["synopsis"]
        assert 0.0 < synopsis["coverage"] <= 1.0
        assert 0.0 < synopsis["purity"] <= 1.0
        assert 0.0 <= synopsis["entropy"] <= 1.0
        assert synopsis["total_points"] > 0
        assert synopsis["space_bytes"] > 0
        rolling = card["rolling"]
        assert rolling["window"] == 50
        assert 0.0 <= rolling["accuracy"] <= 1.0
        assert rolling["regret"] >= 0.0
        assert "drift_pressure" in card["monitor"]
        assert "regret_attribution" in card

    def test_attribution_can_be_skipped(self, session):
        card = compute_scorecard(session, include_attribution=False)
        assert "regret_attribution" not in card

    def test_scorecard_is_read_only(self, session):
        before = (
            len(session.records),
            session.optimizer_invocations,
            session.predictor.space_bytes(),
        )
        compute_scorecard(session, probes=32)
        after = (
            len(session.records),
            session.optimizer_invocations,
            session.predictor.space_bytes(),
        )
        assert before == after
        # Deterministic: computing it twice yields the same card.
        a = compute_scorecard(session, probes=32)
        b = compute_scorecard(session, probes=32)
        assert a == b

    def test_export_sets_every_quality_gauge(self, session):
        registry = MetricsRegistry()
        card = export_quality_gauges(session, registry, probes=32)
        for name, expected in (
            (metric_names.QUALITY_COVERAGE, card["synopsis"]["coverage"]),
            (metric_names.QUALITY_PURITY, card["synopsis"]["purity"]),
            (metric_names.QUALITY_ENTROPY, card["synopsis"]["entropy"]),
            (metric_names.QUALITY_ACCURACY, card["rolling"]["accuracy"]),
            (metric_names.QUALITY_REGRET, card["rolling"]["regret"]),
            (
                metric_names.QUALITY_CONFIDENCE_MARGIN,
                card["rolling"]["confidence_margin"],
            ),
            (
                metric_names.QUALITY_DRIFT_PRESSURE,
                card["monitor"]["drift_pressure"],
            ),
        ):
            assert registry.gauge_value(
                name, template="tiny"
            ) == pytest.approx(expected)
