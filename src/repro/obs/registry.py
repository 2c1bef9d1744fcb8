"""Lightweight metrics registry: counters, gauges, latency histograms.

The PPC pipeline is a hot path — a metrics layer earns its place only
if recording costs nanoseconds and carries no dependencies.  This
module provides exactly that: plain-Python counters and gauges, plus a
streaming latency histogram over fixed log-scale buckets from which
p50/p95/p99 are read without storing individual samples.

Metrics are identified by a name plus a label set (``template="Q1"``,
``stage="predict"``), mirroring the Prometheus data model so the
snapshot renders directly as Prometheus exposition text (see
:mod:`repro.obs.prometheus`).  Handles returned by
:meth:`MetricsRegistry.counter` / ``gauge`` / ``histogram`` / ``family``
are stable: hot-path code fetches them once and calls
``inc``/``observe`` directly, paying only an attribute update per
event.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Callable
from itertools import accumulate
from typing import Any

from repro.exceptions import ConfigurationError
from repro.obs import names

#: Histogram bucket geometry: log-scale buckets spanning 100 ns to
#: ~1000 s with 10 buckets per decade (each bucket is a factor of
#: 10**0.1 ~ 1.26 wide, bounding quantile interpolation error at ~12 %).
BUCKET_MIN = 1e-7
BUCKETS_PER_DECADE = 10
DECADES = 10
BUCKET_COUNT = BUCKETS_PER_DECADE * DECADES
_LOG_MIN = math.log10(BUCKET_MIN)
#: The quantiles a histogram summary reports, as p50/p95/p99.
SUMMARY_QUANTILES = (0.50, 0.95, 0.99)

#: Bucket ``i`` spans ``[_BOUNDS[i], _BOUNDS[i + 1])`` seconds.
_BOUNDS = [
    10.0 ** (_LOG_MIN + index / BUCKETS_PER_DECADE)
    for index in range(BUCKET_COUNT + 1)
]


class Counter:
    """Monotonically increasing count (events, bytes, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ConfigurationError("counters only move forward")
        self.value += amount


class Gauge:
    """A value that goes up and down (bytes resident, cache size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class LatencyHistogram:
    """Streaming latency distribution over fixed log-scale buckets.

    ``observe`` files a duration (seconds) into one of
    :data:`BUCKET_COUNT` buckets; quantiles interpolate geometrically
    inside the crossing bucket, so estimates carry at most one bucket
    width (~12 % relative) of error.  Exact ``count``/``sum``/``min``/
    ``max`` are tracked alongside.
    """

    __slots__ = (
        "counts", "count", "sum", "min", "max", "_summary", "_summary_count"
    )

    def __init__(self) -> None:
        self.counts = [0] * BUCKET_COUNT
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
        #: :meth:`summary_quantiles` as of ``count`` observations.
        self._summary = (0.0,) * len(SUMMARY_QUANTILES)
        self._summary_count = 0

    def observe(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if seconds <= BUCKET_MIN:
            index = 0
        else:
            index = int(
                (math.log10(seconds) - _LOG_MIN) * BUCKETS_PER_DECADE
            )
            if index >= BUCKET_COUNT:
                index = BUCKET_COUNT - 1
            elif index < 0:
                index = 0
        self.counts[index] += 1

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-quantile (``q`` in [0, 1]) in seconds."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must lie in [0, 1]")
        return self.quantiles((q,))[0]

    def quantiles(self, qs: "tuple[float, ...]") -> list[float]:
        """:meth:`quantile` of each ascending ``q``, from one prefix-sum
        pass: the ``q``-quantile lies in the first non-empty bucket whose
        running count reaches ``q * count``."""
        if self.count == 0:
            return [0.0] * len(qs)
        reached = list(accumulate(self.counts))
        values: list[float] = []
        for q in qs:
            target = q * self.count
            # Running counts are integers, so reaching a target below 1
            # is reaching 1: the first non-empty bucket, never an empty
            # leading one.
            index = bisect_left(reached, max(target, 1))
            if index == BUCKET_COUNT:
                values.append(self.max)
                continue
            bucket_count = self.counts[index]
            fraction = (target - (reached[index] - bucket_count)) / bucket_count
            lo = max(_BOUNDS[index], self.min)
            hi = min(_BOUNDS[index + 1], self.max)
            # Geometric interpolation matches the log bucket scale.
            values.append(lo if hi <= lo else lo * (hi / lo) ** fraction)
        return values

    def summary_quantiles(self) -> "tuple[float, ...]":
        """:meth:`quantiles` of :data:`SUMMARY_QUANTILES`, recomputed
        only after an :meth:`observe` (the only writer of ``count``)."""
        if self._summary_count != self.count:
            self._summary = tuple(self.quantiles(SUMMARY_QUANTILES))
            self._summary_count = self.count
        return self._summary

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-ready digest of the distribution (times in seconds)."""
        p50, p95, p99 = self.summary_quantiles()
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Holds every metric of one PPC deployment, keyed by name + labels.

    Creation is locked (registration happens off the hot path); the
    returned handles are lock-free.  ``snapshot`` renders the whole
    registry as a JSON-compatible dict.

    A metric may be booked late: its producer registers a *settler*
    (:meth:`add_settler`) that brings it up to date.  Every read below
    runs the settlers first, so a read is exact; a handle's ``value``
    and :meth:`handles` read in place and settle nothing — the
    telemetry sampler's path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[tuple, tuple[dict, Counter]]] = {}
        self._gauges: dict[str, dict[tuple, tuple[dict, Gauge]]] = {}
        self._histograms: dict[
            str, dict[tuple, tuple[dict, LatencyHistogram]]
        ] = {}
        self._settlers: list[Callable[[], None]] = []
        #: Bumped whenever a series is created.
        self.generation = 0

    # ------------------------------------------------------------------
    # Metric handles
    # ------------------------------------------------------------------
    def _get(self, table: dict, factory, name: str, labels: dict):
        key = _label_key(labels)
        with self._lock:
            series = table.setdefault(name, {})
            entry = series.get(key)
            if entry is None:
                entry = (dict(labels), factory())
                series[key] = entry
                self.generation += 1
        return entry[1]

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> LatencyHistogram:
        return self._get(self._histograms, LatencyHistogram, name, labels)

    def family(self, name: str, **labels) -> "dict[str, Counter]":
        """One counter of ``name`` per value of its declared family
        label (:data:`repro.obs.names.FAMILIES`; ``KeyError`` for a
        metric declared without one), keyed by the value and created in
        declaration order, each also carrying ``labels``."""
        label, values = names.FAMILIES[name]
        return {
            value: self.counter(name, **labels, **{label: value})
            for value in values
        }

    def add_settler(self, settle: Callable[[], None]) -> None:
        """Run ``settle`` before every read, to book deferred updates."""
        self._settlers.append(settle)

    def handles(self) -> "list[tuple[str, str, tuple, dict, Any]]":
        """Every series as ``(kind, name, label key, labels, handle)``,
        counters then gauges then histograms, in creation order.  Reads
        in place: no settler runs."""
        with self._lock:
            return [
                (kind, name, key, labels, metric)
                for kind, table in (
                    ("counter", self._counters),
                    ("gauge", self._gauges),
                    ("histogram", self._histograms),
                )
                for name, series in table.items()
                for key, (labels, metric) in series.items()
            ]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Bring every deferred metric up to date."""
        for settle in self._settlers:
            settle()

    def counter_value(self, name: str, **labels) -> float:
        """Current value of a counter, 0.0 if it never fired."""
        self.settle()
        entry = self._counters.get(name, {}).get(_label_key(labels))
        return entry[1].value if entry else 0.0

    def gauge_value(self, name: str, **labels) -> float:
        self.settle()
        entry = self._gauges.get(name, {}).get(_label_key(labels))
        return entry[1].value if entry else 0.0

    def histogram_summary(self, name: str, **labels) -> "dict | None":
        """Digest of one histogram series, or None if it never fired."""
        self.settle()
        entry = self._histograms.get(name, {}).get(_label_key(labels))
        return entry[1].summary() if entry else None

    def counter_series(self, name: str) -> list[tuple[dict, float]]:
        """All (labels, value) pairs recorded under a counter name."""
        self.settle()
        return [
            (dict(labels), metric.value)
            for labels, metric in self._counters.get(name, {}).values()
        ]

    def snapshot(self) -> dict:
        """The whole registry as a JSON-compatible dict."""
        self.settle()
        with self._lock:
            return {
                "counters": {
                    name: [
                        {"labels": dict(labels), "value": metric.value}
                        for labels, metric in series.values()
                    ]
                    for name, series in self._counters.items()
                },
                "gauges": {
                    name: [
                        {"labels": dict(labels), "value": metric.value}
                        for labels, metric in series.values()
                    ]
                    for name, series in self._gauges.items()
                },
                "histograms": {
                    name: [
                        {"labels": dict(labels), **metric.summary()}
                        for labels, metric in series.values()
                    ]
                    for name, series in self._histograms.items()
                },
            }
