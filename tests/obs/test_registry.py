"""Unit tests for the observability layer (registry + exporters)."""

import json
import random
import struct

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs import names as metric_names
from repro.obs.prometheus import _format_value
from repro.obs.registry import _BOUNDS, BUCKET_MIN, SUMMARY_QUANTILES


def scan_quantiles(hist, qs):
    """The bucket scan ``LatencyHistogram.quantiles`` replaced: walk the
    non-empty buckets once, taking each ascending target as the running
    count reaches it."""
    if hist.count == 0:
        return [0.0] * len(qs)
    targets = [q * hist.count for q in qs]
    values = []
    target = targets[0]
    cumulative = 0
    for index, bucket_count in enumerate(hist.counts):
        if bucket_count == 0:
            continue
        reached = cumulative + bucket_count
        while reached >= target:
            fraction = (target - cumulative) / bucket_count
            lo = max(_BOUNDS[index], hist.min)
            hi = min(_BOUNDS[index + 1], hist.max)
            values.append(lo if hi <= lo else lo * (hi / lo) ** fraction)
            if len(values) == len(targets):
                return values
            target = targets[len(values)]
        cumulative = reached
    return values + [hist.max] * (len(qs) - len(values))


def _bits(values):
    return [struct.pack("<d", value) for value in values]


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = Counter()
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.inc(-2.0)
        assert gauge.value == 13.0


class TestLatencyHistogram:
    def test_empty_histogram_digest(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["min"] == 0.0
        assert summary["mean"] == 0.0

    def test_exact_stats_are_tracked(self):
        hist = LatencyHistogram()
        samples = [0.001, 0.002, 0.004, 0.010]
        for s in samples:
            hist.observe(s)
        assert hist.count == 4
        assert hist.sum == pytest.approx(sum(samples))
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.010)
        assert hist.mean == pytest.approx(sum(samples) / 4)

    def test_quantiles_within_bucket_resolution(self):
        # 1000 samples spread geometrically across three decades; the
        # log-bucket scheme bounds relative error at one bucket width
        # (10**0.1 ~ 1.26), so allow ~30 %.
        hist = LatencyHistogram()
        samples = [1e-4 * (10 ** (3 * i / 999)) for i in range(1000)]
        for s in samples:
            hist.observe(s)
        samples.sort()
        for q in (0.50, 0.95, 0.99):
            exact = samples[int(q * len(samples)) - 1]
            estimate = hist.quantile(q)
            assert estimate == pytest.approx(exact, rel=0.30)

    def test_quantile_clamped_to_observed_range(self):
        hist = LatencyHistogram()
        hist.observe(0.005)
        # A single sample: every quantile is the sample itself, up to
        # bucket interpolation clamped by min/max.
        assert hist.quantile(0.0) <= 0.005 <= hist.quantile(1.0) * 1.0001
        assert hist.quantile(1.0) == pytest.approx(0.005, rel=1e-9)

    def test_negative_and_tiny_durations_fold_into_first_bucket(self):
        hist = LatencyHistogram()
        hist.observe(-1.0)
        hist.observe(BUCKET_MIN / 10)
        assert hist.count == 2
        assert hist.counts[0] == 2

    def test_huge_durations_fold_into_last_bucket(self):
        hist = LatencyHistogram()
        hist.observe(1e9)
        assert hist.counts[-1] == 1
        assert hist.max == 1e9

    def test_quantile_validates_range(self):
        hist = LatencyHistogram()
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)

    def test_prefix_sum_quantiles_are_the_bucket_scan(self):
        rng = random.Random(46)
        for __ in range(3000):
            hist = LatencyHistogram()
            # Some histograms start high, leaving leading buckets empty.
            low = rng.choice((-8.0, -7.0, -4.0, 0.0))
            for __ in range(rng.randint(1, 60)):
                hist.observe(10.0 ** rng.uniform(low, 3.5))
            qs = sorted(
                rng.choice((0.0, 1.0, rng.random()))
                for __ in range(rng.randint(1, 5))
            )
            for ascending in (tuple(qs), SUMMARY_QUANTILES, (0.0, 1.0)):
                assert _bits(hist.quantiles(ascending)) == _bits(
                    scan_quantiles(hist, ascending)
                )

    def test_q0_skips_leading_empty_buckets_and_q1_is_the_last(self):
        hist = LatencyHistogram()
        for seconds in (0.004, 0.004, 0.2):
            hist.observe(seconds)
        assert hist.counts[0] == 0
        assert hist.quantiles((0.0, 1.0)) == scan_quantiles(hist, (0.0, 1.0))
        assert hist.quantile(0.0) == pytest.approx(0.004)
        assert hist.quantile(1.0) == pytest.approx(0.2)

    def test_summary_quantiles_wait_for_an_observation(self):
        hist = LatencyHistogram()
        assert hist.summary_quantiles() == (0.0, 0.0, 0.0)
        hist.observe(0.01)
        first = hist.summary_quantiles()
        assert list(first) == hist.quantiles(SUMMARY_QUANTILES)
        # Nothing observed since: the same tuple, not a rescan.
        assert hist.summary_quantiles() is first
        hist.observe(2.0)
        assert list(hist.summary_quantiles()) == hist.quantiles(
            SUMMARY_QUANTILES
        )


class TestMetricsRegistry:
    def test_handles_are_stable_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("events_total", kind="x")
        b = registry.counter("events_total", kind="x")
        c = registry.counter("events_total", kind="y")
        assert a is b
        assert a is not c
        a.inc()
        assert registry.counter_value("events_total", kind="x") == 1.0
        assert registry.counter_value("events_total", kind="y") == 0.0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("t", x="1", y="2")
        b = registry.counter("t", y="2", x="1")
        assert a is b

    def test_family_is_one_counter_per_value_in_order(self):
        registry = MetricsRegistry()
        family = registry.family("events_total", "kind", ("y", "x"), template="Q1")
        assert list(family) == ["y", "x"]
        for kind, counter in family.items():
            assert counter is registry.counter("events_total", template="Q1", kind=kind)
        assert [labels for *__, labels, __ in registry.handles()] == [
            {"template": "Q1", "kind": "y"},
            {"template": "Q1", "kind": "x"},
        ]

    def test_unknown_series_read_as_zero_or_none(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nope") == 0.0
        assert registry.gauge_value("nope") == 0.0
        assert registry.histogram_summary("nope") is None

    def test_counter_series_lists_all_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("hits", template="Q1").inc(3)
        registry.counter("hits", template="Q5").inc(7)
        series = dict(
            (labels["template"], value)
            for labels, value in registry.counter_series("hits")
        )
        assert series == {"Q1": 3.0, "Q5": 7.0}

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("events_total", kind="x").inc(2)
        registry.gauge("bytes", template="Q1").set(128)
        registry.histogram("lat_seconds", stage="predict").observe(0.01)
        snapshot = registry.snapshot()
        round_trip = json.loads(json.dumps(snapshot))
        assert round_trip["counters"]["events_total"][0]["value"] == 2
        assert round_trip["gauges"]["bytes"][0]["labels"] == {
            "template": "Q1"
        }
        hist = round_trip["histograms"]["lat_seconds"][0]
        assert hist["count"] == 1
        assert set(hist) >= {"p50", "p95", "p99", "sum", "mean", "labels"}


class TestPrometheusRendering:
    def test_renders_all_metric_kinds(self):
        registry = MetricsRegistry()
        registry.counter("ppc_events_total", kind="hit").inc(3)
        registry.gauge("ppc_bytes", template="Q1").set(64)
        registry.histogram("ppc_lat_seconds", stage="predict").observe(0.01)
        text = render_prometheus(registry)

        assert "# TYPE ppc_events_total counter" in text
        assert 'ppc_events_total{kind="hit"} 3' in text
        assert "# TYPE ppc_bytes gauge" in text
        assert 'ppc_bytes{template="Q1"} 64' in text
        assert "# TYPE ppc_lat_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert 'quantile="0.95"' in text
        assert 'quantile="0.99"' in text
        assert 'ppc_lat_seconds_count{stage="predict"} 1' in text
        assert text.endswith("\n")

    def test_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", q='say "hi"\n').inc()
        text = render_prometheus(registry)
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_unlabeled_series_render_bare(self):
        registry = MetricsRegistry()
        registry.counter("total").inc(5)
        text = render_prometheus(registry)
        assert "total 5" in text.splitlines()

    def test_empty_histogram_renders_zero_quantiles(self):
        # A registered-but-never-observed histogram must still render,
        # with zero quantiles and counts — not crash or emit nan.
        registry = MetricsRegistry()
        registry.histogram("ppc_lat_seconds", stage="idle")
        text = render_prometheus(registry)
        assert 'ppc_lat_seconds{quantile="0.5",stage="idle"} 0' in text
        assert 'ppc_lat_seconds_count{stage="idle"} 0' in text
        assert "nan" not in text
        assert "inf" not in text


class TestPrometheusNonFiniteValues:
    def test_format_value_spells_non_finite_the_prometheus_way(self):
        # Regression: repr() would emit `inf`/`nan`, which scrapers
        # reject; the exposition format requires `+Inf`/`-Inf`/`NaN`.
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"

    def test_non_finite_gauges_render_scrapeable(self):
        registry = MetricsRegistry()
        registry.gauge("g_inf").set(float("inf"))
        registry.gauge("g_ninf").set(float("-inf"))
        registry.gauge("g_nan").set(float("nan"))
        lines = render_prometheus(registry).splitlines()
        assert "g_inf +Inf" in lines
        assert "g_ninf -Inf" in lines
        assert "g_nan NaN" in lines


class TestMetricInventory:
    def test_every_name_constant_is_in_the_inventory(self):
        # Every public module-level metric-name string in repro.obs.names
        # must carry an inventory entry (and therefore a HELP line).
        constants = {
            value
            for key, value in vars(metric_names).items()
            if key.isupper()
            and isinstance(value, str)
            and value.startswith("ppc_")
        }
        inventoried = {spec.name for spec in metric_names.INVENTORY}
        assert constants == inventoried

    def test_inventory_kinds_are_valid(self):
        for spec in metric_names.INVENTORY:
            assert spec.kind in ("counter", "gauge", "histogram"), spec.name
            assert spec.help.strip(), spec.name

    def test_every_inventory_name_renders_type_and_help(self):
        # The satellite contract: instantiate every inventoried metric
        # and confirm the exporter emits both `# TYPE` and `# HELP`.
        registry = MetricsRegistry()
        for spec in metric_names.INVENTORY:
            if spec.kind == "counter":
                registry.counter(spec.name, template="Q1").inc()
            elif spec.kind == "gauge":
                registry.gauge(spec.name, template="Q1").set(1.0)
            else:
                registry.histogram(spec.name, template="Q1").observe(0.01)
        text = render_prometheus(registry)
        for spec in metric_names.INVENTORY:
            rendered_kind = (
                "summary" if spec.kind == "histogram" else spec.kind
            )
            assert f"# TYPE {spec.name} {rendered_kind}" in text, spec.name
            assert f"# HELP {spec.name} " in text, spec.name

    def test_help_text_lookup(self):
        assert metric_names.help_text(metric_names.EXECUTIONS_TOTAL)
        assert metric_names.help_text("not_a_metric") == ""
