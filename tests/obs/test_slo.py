"""Unit tests for the multi-window SLO burn-rate engine."""

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry, SLOEngine, evaluate_slo
from repro.obs import names as metric_names
from repro.obs.slo import SLODefinition
from repro.resilience import VirtualClock


def _rig(interval=1.0, capacity=256):
    from repro.obs import TimeSeriesStore

    registry = MetricsRegistry()
    clock = VirtualClock()
    store = TimeSeriesStore(
        registry, clock=clock.now, capacity=capacity, interval=interval
    )
    return registry, clock, store


HIT_RATE = SLODefinition(
    name="hits",
    signal="hit_rate",
    objective=0.5,
    short_window=10.0,
    long_window=100.0,
)
P95 = SLODefinition(
    name="p95",
    signal="predict_p95",
    objective=0.05,
    short_window=10.0,
    long_window=100.0,
)
REGRET = SLODefinition(
    name="regret",
    signal="regret",
    objective=0.10,
    short_window=10.0,
    long_window=100.0,
)


class TestSLODefinition:
    def test_rejects_unknown_signal(self):
        with pytest.raises(ConfigurationError):
            SLODefinition(name="x", signal="uptime", objective=0.9)

    def test_rejects_inverted_windows_and_burns(self):
        with pytest.raises(ConfigurationError):
            SLODefinition(
                name="x",
                signal="regret",
                objective=0.1,
                short_window=100.0,
                long_window=10.0,
            )
        with pytest.raises(ConfigurationError):
            SLODefinition(
                name="x",
                signal="regret",
                objective=0.1,
                breach_burn=0.5,
                warning_burn=1.0,
            )


class TestBurnRates:
    def test_empty_store_is_ok_not_breach(self):
        __, clock, store = _rig()
        for slo in (HIT_RATE, P95, REGRET):
            verdict = evaluate_slo(slo, store, "Q1", now=clock.now())
            assert verdict["state"] == "ok"
            assert verdict["burn_short"] == 0.0
            assert verdict["burn_long"] == 0.0

    def test_hit_rate_burn_is_windowed_not_lifetime(self):
        registry, clock, store = _rig()
        hits = registry.counter(
            metric_names.CACHE_EVENTS_TOTAL, template="Q1", event="hit"
        )
        misses = registry.counter(
            metric_names.CACHE_EVENTS_TOTAL, template="Q1", event="miss"
        )
        # 90 s of pure hits, then 10 s of pure misses.
        for __ in range(90):
            hits.inc()
            store.sample()
            clock.advance(1.0)
        for __ in range(10):
            misses.inc()
            store.sample()
            clock.advance(1.0)
        verdict = evaluate_slo(HIT_RATE, store, "Q1", now=clock.now())
        # Short window: all misses -> miss fraction 1.0 / budget 0.5 = 2.
        assert verdict["burn_short"] == pytest.approx(2.0, rel=0.15)
        # Long window still mostly hits -> well under warning.
        assert verdict["burn_long"] < 1.0
        assert verdict["state"] == "warning"

    def test_sustained_misses_breach(self):
        registry, clock, store = _rig()
        misses = registry.counter(
            metric_names.CACHE_EVENTS_TOTAL, template="Q1", event="miss"
        )
        for __ in range(120):
            misses.inc()
            store.sample()
            clock.advance(1.0)
        verdict = evaluate_slo(HIT_RATE, store, "Q1", now=clock.now())
        assert verdict["burn_short"] >= 2.0
        assert verdict["burn_long"] >= 2.0
        assert verdict["state"] == "breach"

    def test_predict_p95_burn(self):
        registry, clock, store = _rig()
        hist = registry.histogram(
            metric_names.STAGE_SECONDS, template="Q1", stage="predict"
        )
        for __ in range(20):
            hist.observe(0.2)  # 4x the 0.05 s objective
            store.sample()
            clock.advance(1.0)
        verdict = evaluate_slo(P95, store, "Q1", now=clock.now())
        assert verdict["burn_short"] == pytest.approx(4.0, rel=0.3)
        assert verdict["state"] == "breach"

    def test_regret_burn_normalizes_by_executions(self):
        registry, clock, store = _rig()
        regret = registry.counter(
            metric_names.REGRET_TOTAL, template="Q1"
        )
        executions = registry.counter(
            metric_names.EXECUTIONS_TOTAL, template="Q1"
        )
        # Mean regret 0.05 per execution against a 0.10 budget.
        for __ in range(30):
            executions.inc()
            regret.inc(0.05)
            store.sample()
            clock.advance(1.0)
        verdict = evaluate_slo(REGRET, store, "Q1", now=clock.now())
        assert verdict["burn_short"] == pytest.approx(0.5, rel=0.1)
        assert verdict["state"] == "ok"


class TestSLOEngine:
    def test_rejects_duplicate_slo_names(self):
        registry, __, store = _rig()
        with pytest.raises(ConfigurationError):
            SLOEngine(store, (HIT_RATE, HIT_RATE), registry)

    def test_export_publishes_gauges_that_agree_with_evaluate(self):
        registry, clock, store = _rig()
        misses = registry.counter(
            metric_names.CACHE_EVENTS_TOTAL, template="Q1", event="miss"
        )
        for __ in range(30):
            misses.inc()
            store.sample()
            clock.advance(1.0)
        engine = SLOEngine(store, (HIT_RATE, REGRET), registry)
        now = clock.now()
        verdicts = engine.export(["Q1"], now=now)
        assert set(verdicts) == {"Q1"}
        for row in verdicts["Q1"]:
            state_gauge = registry.gauge_value(
                metric_names.SLO_STATE, template="Q1", slo=row["name"]
            )
            assert state_gauge == ("ok", "warning", "breach").index(
                row["state"]
            )
            for window in ("short", "long"):
                assert registry.gauge_value(
                    metric_names.SLO_BURN_RATE,
                    template="Q1",
                    slo=row["name"],
                    window=window,
                ) == pytest.approx(row[f"burn_{window}"])

    def test_worst_state_ranks_by_severity(self):
        assert SLOEngine.worst_state({}) == "ok"
        assert (
            SLOEngine.worst_state(
                {"Q1": [{"state": "ok"}, {"state": "warning"}]}
            )
            == "warning"
        )
        assert (
            SLOEngine.worst_state(
                {
                    "Q1": [{"state": "ok"}],
                    "Q5": [{"state": "breach"}, {"state": "warning"}],
                }
            )
            == "breach"
        )
