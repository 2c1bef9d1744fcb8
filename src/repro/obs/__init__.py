"""Observability for the PPC pipeline: metrics, tracing, export.

A dependency-free metrics layer sized for a hot path:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  streaming latency histograms (p50/p95/p99 over fixed log-scale
  buckets), keyed by name + labels;
* :func:`~repro.obs.prometheus.render_prometheus` — Prometheus text
  exposition of a registry;
* :mod:`repro.obs.names` — the canonical metric-name inventory the
  instrumented pipeline emits;
* :mod:`repro.obs.tracing` — the decision span seam, the only clock on
  the decision path: every span close feeds the stage metrics
  (:data:`~repro.obs.names.SPAN_METRICS`), the stage profiler and, for
  sampled executions, a bounded, error-biased per-template flight
  recorder (:class:`~repro.obs.tracing.DecisionTracer`); unsampled
  executions allocate no span;
* :mod:`repro.obs.profiling` — the deterministic stage profiler fed by
  the span seam (:class:`~repro.obs.profiling.StageProfiler`):
  per-template self/cumulative stage times, text tree and
  collapsed-stack output for ``repro profile``;
* :mod:`repro.obs.events` — the synopsis lifecycle event journal
  (:class:`~repro.obs.events.EventJournal`): typed, RNG-free,
  clock-injected events for every mutation of the learned cache state,
  bounded by a rotating ring with non-silent drop accounting and
  exportable as checksummed JSONL;
* :mod:`repro.obs.lineage` — cache lineage forensics over the journal
  (:class:`~repro.obs.lineage.LineageEngine`): time-travel state
  reconstruction and provenance queries for ``repro lineage``;
* :mod:`repro.obs.audit` — the misprediction regret audit that joins
  recorded traces against optimizer ground truth and blames the
  pipeline stage that caused each suboptimal decision;
* :mod:`repro.obs.timeseries` — fixed-capacity ring series sampling
  every metric on the injected clock, with windowed deltas/rates and
  quantile trends;
* :mod:`repro.obs.quality` — the per-template plan-space scorecard
  (synopsis coverage/purity/entropy, rolling accuracy/regret,
  confidence margin, drift pressure);
* :mod:`repro.obs.slo` — declarative SLOs evaluated with multi-window
  burn rates over the time series, exported as gauges;
* :mod:`repro.obs.report` — text/JSON/HTML renderers of the service
  health report (``repro report``).

Every :class:`~repro.core.framework.PPCFramework` (and therefore every
:class:`~repro.service.PlanCachingService`) owns one registry; pass
``metrics=`` to share a registry across frameworks or swap in your own.
"""

from repro.obs import names
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.profiling import StageProfiler, render_profile
from repro.obs.tracing import (
    DecisionTrace,
    DecisionTracer,
    FlightRecorder,
    Span,
    render_trace,
)
from repro.obs.audit import attribute_stage, regret_audit
from repro.obs.events import (
    EVENT_KINDS,
    EventJournal,
    export_journal,
    load_journal,
    render_timeline,
    stream_digest,
)
from repro.obs.lineage import CACHING_PROVENANCES, LineageEngine
from repro.obs.quality import compute_scorecard, synopsis_scorecard
from repro.obs.report import (
    render_report_html,
    render_report_json,
    render_report_text,
    sparkline,
)
from repro.obs.slo import SLOEngine, evaluate_slo
from repro.obs.timeseries import RingSeries, TimeSeriesStore

__all__ = [
    "CACHING_PROVENANCES",
    "EVENT_KINDS",
    "Counter",
    "DecisionTrace",
    "DecisionTracer",
    "EventJournal",
    "FlightRecorder",
    "Gauge",
    "LatencyHistogram",
    "LineageEngine",
    "MetricsRegistry",
    "RingSeries",
    "SLOEngine",
    "Span",
    "StageProfiler",
    "TimeSeriesStore",
    "attribute_stage",
    "compute_scorecard",
    "evaluate_slo",
    "export_journal",
    "load_journal",
    "names",
    "regret_audit",
    "render_profile",
    "render_prometheus",
    "render_report_html",
    "render_report_json",
    "render_report_text",
    "render_timeline",
    "render_trace",
    "sparkline",
    "stream_digest",
    "synopsis_scorecard",
]
