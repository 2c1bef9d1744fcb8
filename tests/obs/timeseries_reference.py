"""The ring-per-series telemetry store, kept as a test reference.

:class:`RingSeries` gives one series two preallocated ``capacity``-slot
lists; :class:`RingStore` samples a registry into one ring per series
(histograms: one per summary field).  They are the readings
:class:`~repro.obs.timeseries.TimeSeriesStore`'s one table must
reproduce, value for value; ``tests/obs/test_timeseries.py`` drives
both over the same registry states and compares every reader.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any
from time import perf_counter

from repro.exceptions import ConfigurationError
from repro.obs import names
from repro.obs.registry import (
    SUMMARY_QUANTILES,
    LatencyHistogram,
    MetricsRegistry,
    _label_key,
)
from repro.obs.timeseries import HISTOGRAM_FIELDS, TimeSeriesStore
from repro.resilience.clocks import system_clock


class RingSeries:
    """Fixed-capacity ring of ``(time, value)`` points, O(1) append."""

    __slots__ = ("_times", "_values", "_capacity", "_size", "_head")

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ConfigurationError("ring series capacity must be >= 2")
        self._capacity = capacity
        self._times = [0.0] * capacity
        self._values = [0.0] * capacity
        self._size = 0
        self._head = 0  # next write slot

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._capacity

    def append(self, timestamp: float, value: float) -> None:
        self._times[self._head] = timestamp
        self._values[self._head] = value
        self._head = (self._head + 1) % self._capacity
        if self._size < self._capacity:
            self._size += 1

    def points(self) -> "list[tuple[float, float]]":
        """All retained points, oldest first."""
        return list(self._iter_points())

    def _iter_points(self) -> "Iterator[tuple[float, float]]":
        start = (self._head - self._size) % self._capacity
        for offset in range(self._size):
            index = (start + offset) % self._capacity
            yield self._times[index], self._values[index]

    def last(self) -> "tuple[float, float] | None":
        if self._size == 0:
            return None
        index = (self._head - 1) % self._capacity
        return self._times[index], self._values[index]

    def first(self) -> "tuple[float, float] | None":
        if self._size == 0:
            return None
        index = (self._head - self._size) % self._capacity
        return self._times[index], self._values[index]

    def value_at_or_before(self, timestamp: float) -> "float | None":
        """Latest recorded value with time <= *timestamp* (None if all
        retained points are newer)."""
        result: "float | None" = None
        for time, value in self._iter_points():
            if time > timestamp:
                break
            result = value
        return result

    def window_delta(self, now: float, window: float) -> float:
        """Last value minus the value at the window's start.

        For counters this is the number of events inside
        ``[now - window, now]``.  When the series is younger than the
        window the earliest retained point is the base — the delta
        degrades to "since start", never to garbage.
        """
        tail = self.last()
        if tail is None:
            return 0.0
        base = self.value_at_or_before(now - window)
        if base is None:
            head = self.first()
            base = head[1] if head is not None else 0.0
        return tail[1] - base

    def window_max(
        self,
        now: float,
        window: float,
        gate: "RingSeries | None" = None,
        minimum: float = 0.0,
    ) -> "float | None":
        """Max value among points inside ``[now - window, now]``.  With a
        ``gate``, a ring appended point for point alongside this one,
        only the points whose gate value is at least ``minimum`` count."""
        gates = None if gate is None else gate._iter_points()
        result: "float | None" = None
        for time, value in self._iter_points():
            if gates is not None and next(gates)[1] < minimum:
                continue
            if time < now - window or time > now:
                continue
            if result is None or value > result:
                result = value
        return result


class RingStore:
    """The ring-per-series store :class:`TimeSeriesStore` replaced.

    ``maybe_sample()`` is the hot-path entry: one clock read and a
    comparison when no sample is due.  When one is due it reads every
    registry handle in place and appends its value to its ring —
    counters and gauges as scalars, histograms as one ring per summary
    field (:data:`HISTOGRAM_FIELDS`) so quantile trends are queryable.
    The handle → ring binding is rebuilt only when the registry gained
    a series.  Reading in place settles nothing: a metric its producer
    books late (the regret counter) is sampled as last booked.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: "Callable[[], float]" = system_clock,
        capacity: int = 256,
        interval: float = 5.0,
    ) -> None:
        if interval <= 0.0:
            raise ConfigurationError("sample interval must be > 0")
        self._registry = registry
        self._clock = clock
        self._capacity = capacity
        self._interval = interval
        self._last_sample: "float | None" = None
        #: key -> (labels, ring); key is (kind, name, label_key[, field])
        self._series: "dict[tuple, tuple[dict, RingSeries]]" = {}
        #: Registry generation the bindings below were built at.
        self._generation = -1
        self._scalars: "list[tuple[Any, RingSeries]]" = []
        self._histograms: (
            "list[tuple[LatencyHistogram, tuple[RingSeries, ...]]]"
        ) = []
        self._samples_total = registry.counter(names.TELEMETRY_SAMPLES_TOTAL)
        self._sample_seconds = registry.histogram(
            names.TELEMETRY_SAMPLE_SECONDS
        )

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def sample_count(self) -> int:
        return int(self._samples_total.value)

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def maybe_sample(self) -> bool:
        """Take a snapshot if the interval elapsed; True if one was taken."""
        now = self._clock()
        if (
            self._last_sample is not None
            and now - self._last_sample < self._interval
        ):
            return False
        self.sample(now)
        return True

    def sample(self, now: "float | None" = None) -> None:
        """Append every registry metric's current value to its ring."""
        if now is None:
            now = self._clock()
        started = perf_counter()
        if self._generation != self._registry.generation:
            self._bind()
        for metric, ring in self._scalars:
            ring.append(now, float(metric.value))
        for histogram, (count, total, *quantiles) in self._histograms:
            count.append(now, float(histogram.count))
            total.append(now, float(histogram.sum))
            for ring, value in zip(
                quantiles, histogram.quantiles(SUMMARY_QUANTILES), strict=True
            ):
                ring.append(now, value)
        self._last_sample = now
        self._samples_total.inc()
        self._sample_seconds.observe(perf_counter() - started)

    def _bind(self) -> None:
        """Pair every registry handle with its ring(s)."""
        self._generation = self._registry.generation
        self._scalars = []
        self._histograms = []
        for kind, name, key, labels, metric in self._registry.handles():
            if kind == "histogram":
                rings = tuple(
                    self._ring((kind, name, key, field), labels)
                    for field in HISTOGRAM_FIELDS
                )
                self._histograms.append((metric, rings))
            else:
                self._scalars.append(
                    (metric, self._ring((kind, name, key), labels))
                )

    def _ring(self, key: tuple, labels: dict) -> RingSeries:
        entry = self._series.get(key)
        if entry is None:
            entry = (dict(labels), RingSeries(self._capacity))
            self._series[key] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Windowed reads
    # ------------------------------------------------------------------
    def counter_delta(
        self,
        name: str,
        window: float,
        now: "float | None" = None,
        **labels: str,
    ) -> float:
        """Counter increase inside ``[now - window, now]`` (0.0 when the
        series never sampled)."""
        if now is None:
            now = self._clock()
        entry = self._series.get(("counter", name, _label_key(labels)))
        if entry is None:
            return 0.0
        return entry[1].window_delta(now, window)

    def histogram_field_max(
        self,
        name: str,
        field: str,
        window: float,
        now: "float | None" = None,
        min_count: float = 0.0,
        **labels: str,
    ) -> "float | None":
        """Max sampled histogram summary *field* (e.g. ``p95``) in the
        window, among the samples whose histogram held at least
        ``min_count`` observations; None when there is no such sample."""
        if field not in HISTOGRAM_FIELDS:
            raise ConfigurationError(
                f"unknown histogram field {field!r}; "
                f"expected one of {HISTOGRAM_FIELDS}"
            )
        if now is None:
            now = self._clock()
        key = _label_key(labels)
        entry = self._series.get(("histogram", name, key, field))
        if entry is None:
            return None
        counts = self._series[("histogram", name, key, "count")][1]
        return entry[1].window_max(now, window, gate=counts, minimum=min_count)

    def stats(self) -> dict:
        """Small JSON-ready summary (for ``service.metrics()``)."""
        return {
            "samples": self.sample_count,
            "interval": self._interval,
            "capacity": self._capacity,
            "series": len(self._series),
            "last_sample": self._last_sample,
        }

    def to_dict(self, tail: int = 32) -> dict:
        """JSON-ready digest: per-series metadata plus the last *tail*
        points (sparkline feed for ``repro report``)."""
        series = []
        for key, (labels, ring) in sorted(
            self._series.items(), key=lambda item: tuple(map(str, item[0]))
        ):
            kind, name = key[0], key[1]
            entry: dict = {
                "kind": kind,
                "name": name,
                "labels": dict(labels),
                "points": [
                    [round(t, 6), value] for t, value in ring.points()[-tail:]
                ],
            }
            if kind == "histogram":
                entry["field"] = key[3]
            series.append(entry)
        return {
            "interval": self._interval,
            "capacity": self._capacity,
            "samples": self.sample_count,
            "series": series,
        }


def series_points(
    store: TimeSeriesStore,
    kind: str,
    name: str,
    field: "str | None" = None,
    **labels: str,
) -> "list[tuple[float, float]]":
    """Raw retained points of one series of ``store``, oldest first
    (a histogram's ``p95`` unless ``field`` names another)."""
    key: tuple
    if kind == "histogram":
        key = (kind, name, _label_key(labels), field or "p95")
    else:
        key = (kind, name, _label_key(labels))
    entry = store._series.get(key)
    return list(zip(*store._points(entry))) if entry is not None else []
