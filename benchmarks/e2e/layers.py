"""Outside-in layer tracing for the benchmark's traced run.

The benchmark replaces the layer functions in :data:`LAYERS` with
timing wrappers at class (or module) level, before any service is
built, so bound methods captured at construction time are wrapped too.
Every wrapped call records a span: layer name, start, end, parent span
and request id.  A layer's self time is its span time minus the time
of the wrapped spans it called.

Targets are looked up in ``sys.modules``: importing the public serving
API loads every module named here, and the benchmark imports nothing
else.  A target the code under test no longer has is reported in
:attr:`Tracer.missing` and its layer reads zero.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any

#: ``(layer, module, attribute path)``: the functions each layer times.
#: Paths with a dot name a class attribute, others a module function
#: (replaced in the module that calls it).
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("framework", "repro.core.framework", "TemplateSession.execute"),
    ("framework", "repro.core.framework", "TemplateSession.execute_batch"),
    ("framework.prefetch", "repro.core.framework",
     "TemplateSession._prefetch_predictions"),
    ("service.bind", "repro.workload.template", "TemplateBinder.to_point"),
    ("histograms.range_query", "repro.histograms.base",
     "Histogram.range_query_batch"),
    ("lsh.z_values", "repro.lsh.stacked", "StackedEnsemble.z_values"),
    ("predictor", "repro.core.histogram_predictor",
     "HistogramPredictor.predict_batch"),
    ("predictor.traced", "repro.core.histogram_predictor",
     "HistogramPredictor._predict_traced"),
    ("predictor.median", "repro.core.histogram_predictor",
     "median_supported"),
    ("confidence.decide", "repro.core.confidence",
     "ConfidenceModel.decide_batch"),
    ("histograms.insert", "repro.histograms.incremental",
     "IncrementalHistogram.insert"),
    ("predictor.insert", "repro.core.histogram_predictor",
     "HistogramPredictor.insert"),
    ("optimizer.label", "repro.optimizer.plan_space", "PlanSpace.label"),
    ("optimizer.cost_at", "repro.optimizer.plan_space", "PlanSpace.cost_at"),
    ("monitor", "repro.core.monitor", "PerformanceMonitor.record_prediction"),
    ("monitor", "repro.core.monitor", "PerformanceMonitor.record_null"),
    ("monitor", "repro.core.monitor", "PerformanceMonitor.drift_detected"),
    ("obs.tracer", "repro.obs.tracing", "DecisionTracer.begin"),
    ("obs.tracer", "repro.obs.tracing", "DecisionTracer.finish"),
    ("obs.tracer", "repro.obs.tracing", "DecisionTrace.open_span"),
    ("obs.tracer", "repro.obs.tracing", "DecisionTrace.close_span"),
    ("obs.events", "repro.obs.events", "EventJournal.emit"),
    ("obs.profiler", "repro.obs.profiling", "StageProfiler.begin"),
    ("obs.profiler", "repro.obs.profiling", "ProfileFrame.enter"),
    ("obs.profiler", "repro.obs.profiling", "ProfileFrame.exit"),
    ("obs.profiler", "repro.obs.profiling", "ProfileFrame.complete"),
    ("obs.telemetry", "repro.obs.timeseries", "TimeSeriesStore.maybe_sample"),
    ("obs.telemetry", "repro.core.framework", "PPCFramework.refresh_quality"),
    ("optimizer.harvest", "repro.optimizer.enumeration",
     "DPEnumerator.optimize"),
)

#: Layers whose calls also count the rows of their first argument.
ROW_COUNTED = frozenset({"predictor"})

#: The root span the benchmark opens around each timed service call.
ROOT = "decision"


def resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value or None)`` of one target.

    A class attribute is read from the class's own ``__dict__``, so an
    inherited method is reported missing rather than shadowed.
    """
    owner: Any = sys.modules.get(module_name)
    *outer, attribute = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None:
        return None, attribute, None
    if isinstance(owner, type):
        return owner, attribute, owner.__dict__.get(attribute)
    return owner, attribute, getattr(owner, attribute, None)


def targets() -> list[Any]:
    """The current value of every :data:`LAYERS` target."""
    return [resolve(module, path)[2] for __, module, path in LAYERS]


class Tracer:
    """Span recorder with per-phase, per-layer aggregates.

    ``phase`` labels where aggregates go (``setup``, ``warmup``,
    ``timed``); raw spans are kept only for requests below
    ``keep_requests``, so memory stays bounded however long the run.
    """

    def __init__(
        self,
        clock: Callable[[], float] = perf_counter,
        keep_requests: int = 200,
    ) -> None:
        self.clock = clock
        self.keep_requests = keep_requests
        self.request: "int | None" = None
        #: phase -> layer -> [calls, self seconds, total seconds, rows]
        self.stats: dict[str, dict[str, list[float]]] = {}
        self.spans: list[dict[str, Any]] = []
        self.missing: list[str] = []
        self._targets: "list[tuple[Any, str, Any, Any]] | None" = None
        self._stack: list[list[Any]] = []  # [child seconds, id, parent id]
        self._ids = itertools.count()
        self._origin = clock()
        self.phase = "setup"

    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, phase: str) -> None:
        self._phase = phase
        self._current = self.stats.setdefault(phase, {})

    def stat(self, phase: str, layer: str) -> list[float]:
        return self.stats.get(phase, {}).get(layer, [0, 0.0, 0.0, 0])

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``layer`` span per call."""
        clock = self.clock
        stack = self._stack
        ids = self._ids
        count_rows = layer in ROW_COUNTED

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, next(ids), stack[-1][1] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = self._current.get(layer)
                if entry is None:
                    entry = self._current[layer] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration - frame[0]
                entry[2] += duration
                if count_rows:
                    entry[3] += len(args[1])
                request = self.request
                if request is not None and request < self.keep_requests:
                    self.spans.append({
                        "request": request,
                        "id": frame[1],
                        "parent": frame[2],
                        "name": layer,
                        "start_us": (start - self._origin) * 1e6,
                        "end_us": (end - self._origin) * 1e6,
                    })

        traced.__wrapped__ = fn
        return traced

    def call(self, request: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one timed service call under a :data:`ROOT` span."""
        self.request = request
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.request = None

    def _resolved(self) -> list[tuple[Any, str, Any, Any]]:
        """``(owner, attribute, original, wrapper)`` per found target,
        resolved and wrapped once."""
        if self._targets is None:
            self._targets = []
            for layer, module_name, path in LAYERS:
                owner, attribute, original = resolve(module_name, path)
                if original is None:
                    self.missing.append(f"{module_name}:{path}")
                    continue
                self._targets.append(
                    (owner, attribute, original, self.wrap(layer, original))
                )
        return self._targets

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :data:`LAYERS` target; restore them on exit."""
        resolved = self._resolved()
        try:
            for owner, attribute, __, wrapper in resolved:
                setattr(owner, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original, __ in reversed(resolved):
                setattr(owner, attribute, original)

    def write_spans(self, path: Path) -> None:
        """Raw spans, one JSON object per line, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
