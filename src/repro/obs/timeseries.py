"""Windowed time-series view over a metrics registry.

The registry answers "what happened so far"; this module answers "what
happened *lately*".  A :class:`TimeSeriesStore` periodically snapshots
every counter, gauge, and histogram into one float64 table, a row per
sample and a column per series, and derives windowed statistics from
it: counter deltas and histogram-field envelopes — the raw material
for the SLO burn-rate engine and ``repro report`` sparklines.

Timestamps come exclusively from the injected clock (RPR002): under a
``VirtualClock`` a fault storm fills hours of windows in milliseconds,
and in production ``system_clock`` drives real 5-minute/1-hour windows.
Memory is 8 bytes per series per row, and the rows double as samples
arrive until they reach ``capacity``: under two rows per sample taken,
never more than ``capacity``.  A sample is one row write.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any
from time import perf_counter

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import names
from repro.obs.registry import LatencyHistogram, MetricsRegistry, _label_key
from repro.resilience.clocks import system_clock

#: Histogram summary fields captured per sample: the count, the sum,
#: then one field per :data:`~repro.obs.registry.SUMMARY_QUANTILES`.
HISTOGRAM_FIELDS = ("count", "sum", "p50", "p95", "p99")


class TimeSeriesStore:
    """Periodic whole-registry sampler with windowed derivations.

    ``maybe_sample()`` is the hot-path entry: one clock read and a
    comparison when no sample is due.  When one is due it reads every
    registry handle in place and writes one table row: counters and
    gauges as one column each, histograms as one column per summary
    field (:data:`HISTOGRAM_FIELDS`) so quantile trends are queryable.
    A histogram's quantiles come from its memo
    (:meth:`~repro.obs.registry.LatencyHistogram.summary_quantiles`),
    so one that saw nothing since the last sample is not rescanned.
    Reading in place settles nothing: a metric its producer books late
    (the regret counter) is sampled as last booked.

    The table grows by doubling up to ``capacity`` rows, then wraps:
    sample ``k`` lives in row ``k % capacity``.  The handle → column
    binding is rebuilt only when the registry gained a series; a new
    series widens the table by a column and remembers the sample it was
    born at, so it reports only its own points.
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
        if capacity < 2:
            raise ConfigurationError("telemetry capacity must be >= 2")
        self._registry = registry
        self._clock = clock
        self._capacity = capacity
        self._interval = interval
        self._last_sample: "float | None" = None
        #: Samples written; sample ``k`` sits in row ``k % capacity``.
        self._rows = 0
        self._times = np.empty(0)
        self._table = np.empty((0, 0))
        #: key -> (labels, column, first sample); key is
        #: (kind, name, label_key[, field])
        self._series: "dict[tuple, tuple[dict, int, int]]" = {}
        #: Registry generation the bindings below were built at.
        self._generation = -1
        self._scalars: "list[Any]" = []
        self._histograms: "list[LatencyHistogram]" = []
        #: The column of each value a sample reads, in reading order.
        self._columns = np.empty(0, dtype=np.intp)
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
        """Write every registry metric's current value as one row."""
        if now is None:
            now = self._clock()
        started = perf_counter()
        if self._generation != self._registry.generation:
            self._bind()
        values = [metric.value for metric in self._scalars]
        for histogram in self._histograms:
            values.append(histogram.count)
            values.append(histogram.sum)
            values.extend(histogram.summary_quantiles())
        row = self._next_row()
        self._times[row] = now
        self._table[row, self._columns] = values
        self._rows += 1
        self._last_sample = now
        self._samples_total.inc()
        self._sample_seconds.observe(perf_counter() - started)

    def _next_row(self) -> int:
        """The row the next sample writes, doubling the table while it
        is shorter than ``capacity``."""
        allocated = len(self._times)
        if self._rows < allocated:
            return self._rows
        if allocated == self._capacity:
            return self._rows % self._capacity
        rows = min(max(2 * allocated, 1), self._capacity)
        self._times = np.concatenate([self._times, np.empty(rows - allocated)])
        self._table = np.concatenate(
            [self._table, np.empty((rows - allocated, self._table.shape[1]))]
        )
        return self._rows

    def _bind(self) -> None:
        """Pair every registry handle with its column(s), giving each
        new series a column born at the coming sample."""
        self._generation = self._registry.generation
        self._scalars = []
        self._histograms = []
        scalar_columns: "list[int]" = []
        histogram_columns: "list[int]" = []
        for kind, name, key, labels, metric in self._registry.handles():
            if kind == "histogram":
                histogram_columns.extend(
                    self._column((kind, name, key, field), labels)
                    for field in HISTOGRAM_FIELDS
                )
                self._histograms.append(metric)
            else:
                scalar_columns.append(self._column((kind, name, key), labels))
                self._scalars.append(metric)
        self._columns = np.array(
            scalar_columns + histogram_columns, dtype=np.intp
        )
        width = len(self._series)
        if width > self._table.shape[1]:
            grown = np.empty((len(self._times), width))
            grown[:, : self._table.shape[1]] = self._table
            self._table = grown

    def _column(self, key: tuple, labels: dict) -> int:
        entry = self._series.get(key)
        if entry is None:
            # The registry never mutates a series' labels: share them.
            entry = (labels, len(self._series), self._rows)
            self._series[key] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Windowed reads
    # ------------------------------------------------------------------
    def _points(
        self, entry: "tuple[dict, int, int]"
    ) -> "tuple[list[float], list[float]]":
        """A series' retained times and values, oldest first, as Python
        floats: its samples among the last ``capacity``."""
        __, column, born = entry
        first = max(born, self._rows - self._capacity)
        rows = np.arange(first, self._rows) % self._capacity
        return self._times[rows].tolist(), self._table[rows, column].tolist()

    def counter_delta(
        self,
        name: str,
        window: float,
        now: "float | None" = None,
        **labels: str,
    ) -> float:
        """Counter increase inside ``[now - window, now]`` (0.0 when the
        series never sampled).

        The last value minus the latest value sampled at or before the
        window's start.  When the series is younger than the window the
        earliest retained point is the base — the delta degrades to
        "since start", never to garbage.
        """
        if now is None:
            now = self._clock()
        entry = self._series.get(("counter", name, _label_key(labels)))
        if entry is None:
            return 0.0
        times, values = self._points(entry)
        start = now - window
        base = values[0]
        for time, value in zip(times, values):
            if time > start:
                break
            base = value
        return values[-1] - base

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
        times, values = self._points(entry)
        __, counts = self._points(self._series[("histogram", name, key, "count")])
        result: "float | None" = None
        for time, value, count in zip(times, values, counts):
            if count < min_count:
                continue
            if time < now - window or time > now:
                continue
            if result is None or value > result:
                result = value
        return result

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
        for key, series_entry in sorted(
            self._series.items(), key=lambda item: tuple(map(str, item[0]))
        ):
            kind, name = key[0], key[1]
            times, values = self._points(series_entry)
            entry: dict = {
                "kind": kind,
                "name": name,
                "labels": dict(series_entry[0]),
                "points": [
                    [round(t, 6), value]
                    for t, value in list(zip(times, values))[-tail:]
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
