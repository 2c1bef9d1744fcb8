"""Unit tests for the ring-buffer time series and the registry sampler."""

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry, RingSeries, TimeSeriesStore
from repro.obs import names as metric_names
from repro.resilience import VirtualClock


class TestRingSeries:
    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ConfigurationError):
            RingSeries(1)

    def test_append_and_points_in_order(self):
        ring = RingSeries(4)
        for t in range(3):
            ring.append(float(t), float(t * 10))
        assert len(ring) == 3
        assert ring.points() == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]
        assert ring.first() == (0.0, 0.0)
        assert ring.last() == (2.0, 20.0)

    def test_wrap_around_evicts_oldest(self):
        ring = RingSeries(3)
        for t in range(5):
            ring.append(float(t), float(t))
        assert len(ring) == 3
        assert ring.points() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
        # Keep wrapping: order is still oldest-first.
        ring.append(5.0, 5.0)
        assert ring.points() == [(3.0, 3.0), (4.0, 4.0), (5.0, 5.0)]

    def test_empty_ring_reads(self):
        ring = RingSeries(2)
        assert ring.points() == []
        assert ring.first() is None
        assert ring.last() is None
        assert ring.value_at_or_before(10.0) is None
        assert ring.window_delta(10.0, 5.0) == 0.0
        assert ring.window_max(10.0, 5.0) is None

    def test_value_at_or_before(self):
        ring = RingSeries(8)
        for t in (1.0, 2.0, 4.0):
            ring.append(t, t * 100)
        assert ring.value_at_or_before(0.5) is None
        assert ring.value_at_or_before(1.0) == 100.0
        assert ring.value_at_or_before(3.0) == 200.0
        assert ring.value_at_or_before(9.0) == 400.0

    def test_window_delta_counts_events_inside_the_window(self):
        ring = RingSeries(16)
        # A counter sampled once a second, +5 events per second.
        for t in range(10):
            ring.append(float(t), float(t * 5))
        assert ring.window_delta(now=9.0, window=4.0) == 20.0
        assert ring.window_delta(now=9.0, window=100.0) == 45.0

    def test_window_delta_degrades_to_since_start(self):
        # Series younger than the window: base falls back to the first
        # retained point, never to zero/garbage.
        ring = RingSeries(4)
        ring.append(100.0, 7.0)
        ring.append(101.0, 9.0)
        assert ring.window_delta(now=101.0, window=3600.0) == 2.0

    def test_window_max_ignores_points_outside_the_window(self):
        ring = RingSeries(8)
        for t, v in ((0.0, 99.0), (5.0, 1.0), (6.0, 3.0), (7.0, 2.0)):
            ring.append(t, v)
        assert ring.window_max(now=7.0, window=2.5) == 3.0
        assert ring.window_max(now=7.0, window=100.0) == 99.0


class TestTimeSeriesStore:
    def _store(self, interval=5.0, capacity=8):
        registry = MetricsRegistry()
        clock = VirtualClock()
        store = TimeSeriesStore(
            registry, clock=clock.now, capacity=capacity, interval=interval
        )
        return registry, clock, store

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(MetricsRegistry(), interval=0.0)

    def test_maybe_sample_respects_the_interval(self):
        registry, clock, store = self._store(interval=5.0)
        registry.counter("ppc_executions_total", template="Q1").inc()
        assert store.maybe_sample() is True  # first call always samples
        assert store.maybe_sample() is False
        clock.advance(4.9)
        assert store.maybe_sample() is False
        clock.advance(0.1)
        assert store.maybe_sample() is True
        assert store.sample_count == 2

    def test_counter_delta_and_rate_over_a_window(self):
        registry, clock, store = self._store(interval=1.0)
        counter = registry.counter("ppc_executions_total", template="Q1")
        for _ in range(6):
            counter.inc(10)
            store.sample()
            clock.advance(1.0)
        # Samples land at t=0..5 (values 10..60); now is 6.0, so the
        # 3 s window [3, 6] bases on the t=3 sample (value 40).
        now = clock.now()
        delta = store.counter_delta(
            "ppc_executions_total", 3.0, now, template="Q1"
        )
        assert delta == 20.0
        # Unknown series reads as zero, not a KeyError.
        assert store.counter_delta("nope", 3.0, now) == 0.0

    def test_histogram_fields_get_their_own_series(self):
        registry, clock, store = self._store(interval=1.0)
        hist = registry.histogram(
            "ppc_stage_seconds", template="Q1", stage="predict"
        )
        hist.observe(0.010)
        store.sample()
        clock.advance(1.0)
        hist.observe(0.030)
        store.sample()
        now = clock.now()
        p95 = store.histogram_field_max(
            "ppc_stage_seconds",
            "p95",
            60.0,
            now,
            template="Q1",
            stage="predict",
        )
        assert p95 is not None and p95 > 0.0
        counts = store.series_points(
            "histogram",
            "ppc_stage_seconds",
            field="count",
            template="Q1",
            stage="predict",
        )
        assert [value for __, value in counts] == [1.0, 2.0]
        with pytest.raises(ConfigurationError):
            store.histogram_field_max("ppc_stage_seconds", "p42", 60.0, now)

    def test_a_field_max_skips_samples_of_too_few_observations(self):
        registry, clock, store = self._store(interval=1.0)
        hist = registry.histogram(
            "ppc_stage_seconds", template="Q1", stage="predict"
        )
        hist.observe(0.5)
        store.sample()  # one observation: its p95 is the stall
        for __ in range(19):
            hist.observe(0.001)
        clock.advance(1.0)
        store.sample()  # twenty: the stall is past the p95

        def p95_max(min_count):
            return store.histogram_field_max(
                "ppc_stage_seconds",
                "p95",
                60.0,
                clock.now(),
                min_count=min_count,
                template="Q1",
                stage="predict",
            )

        assert p95_max(0) == pytest.approx(0.5)
        assert p95_max(20) < 0.01
        assert p95_max(21) is None

    def test_sampling_meters_itself(self):
        registry, __, store = self._store()
        store.sample()
        assert (
            registry.counter_value(metric_names.TELEMETRY_SAMPLES_TOTAL)
            == 1.0
        )
        meter = registry.histogram_summary(
            metric_names.TELEMETRY_SAMPLE_SECONDS
        )
        assert meter["count"] == 1

    def test_to_dict_is_json_ready_and_bounded(self):
        registry, clock, store = self._store(interval=1.0, capacity=4)
        gauge = registry.gauge("ppc_cache_plans", template="Q1")
        for i in range(10):
            gauge.set(float(i))
            store.sample()
            clock.advance(1.0)
        digest = store.to_dict(tail=2)
        assert digest["samples"] == 10
        plans = [
            series
            for series in digest["series"]
            if series["name"] == "ppc_cache_plans"
        ]
        assert len(plans) == 1
        assert plans[0]["kind"] == "gauge"
        assert plans[0]["labels"] == {"template": "Q1"}
        assert len(plans[0]["points"]) == 2  # tail-bounded
        assert plans[0]["points"][-1][1] == 9.0
        stats = store.stats()
        assert stats["samples"] == 10
        assert stats["series"] == len(digest["series"])
