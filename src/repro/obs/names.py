"""Canonical metric names exported by the PPC pipeline.

Each metric is declared once, by :func:`_declare`: its name, its
exposition kind, its ``# HELP`` line and, for a labelled counter
family, the family's label and values.  The module constant is the
name the declaration returns, so call sites pass ``names.X``.
:data:`INVENTORY` (the exporter's help lines, via :func:`help_text`),
:data:`FAMILIES` (what :meth:`MetricsRegistry.family
<repro.obs.registry.MetricsRegistry.family>` builds), the family
domains (:data:`INVOCATION_REASONS`, ...) and :data:`STAGES` are read
off the declarations.  README's "Observability" table lists the same
inventory for adopters.

Labels: ``template`` (the query template) rides on every per-template
metric; a family's label is declared with it; ``stage`` is one of
:data:`STAGES`; ``action`` is ``shrink``/``drop``; ``slo`` names an SLO
and ``window`` is ``short``/``long``; ``kind`` is an event kind;
``query`` is ``why``/``timeline``/``export``.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.resilience.breaker import BREAKER_STATES


#: ``(label, values)`` of a labelled counter family.
Family = tuple[str, tuple[str, ...]]


class MetricSpec(NamedTuple):
    """One entry of the exporter-facing metric inventory."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    family: Family | None = None


_SPECS: dict[str, MetricSpec] = {}


def _declare(name: str, kind: str, help: str, family: Family | None = None) -> str:
    """Add one metric to the inventory and return its name."""
    _SPECS[name] = MetricSpec(name, kind, help, family)
    return name


BUILD_INFO = _declare(
    "ppc_build_info",
    "gauge",
    "Build identity of the serving process (version/commit labels)",
)
STAGE_SECONDS = _declare(
    "ppc_stage_seconds",
    "histogram",
    "Per-stage wall-clock seconds of TemplateSession.execute",
)
EXECUTIONS_TOTAL = _declare(
    "ppc_executions_total", "counter", "Query instances executed per template"
)
#: Why the optimizer was invoked (Figure 1 decision flow).
INVOCATIONS_TOTAL = _declare(
    "ppc_optimizer_invocations_total",
    "counter",
    "Optimizer invocations by cause",
    (
        "reason",
        ("null_prediction", "exploration", "cache_miss", "negative_feedback"),
    ),
)
POSITIVE_FEEDBACK_TOTAL = _declare(
    "ppc_positive_feedback_total",
    "counter",
    "Positive-feedback offers by outcome",
    ("outcome", ("accepted", "rejected")),
)
DRIFT_EVENTS_TOTAL = _declare(
    "ppc_drift_events_total", "counter", "Drift responses fired per template"
)
CACHE_EVENTS_TOTAL = _declare(
    "ppc_cache_events_total",
    "counter",
    "Plan-cache activity by event",
    ("event", ("hit", "miss", "eviction")),
)
GOVERNOR_RECLAIMED_BYTES = _declare(
    "ppc_governor_reclaimed_bytes_total",
    "counter",
    "Synopsis bytes reclaimed by the memory governor",
)
GOVERNOR_ACTIONS_TOTAL = _declare(
    "ppc_governor_actions_total", "counter", "Governor reclamation steps by action"
)
PREDICT_TRANSFORM_SECONDS = _declare(
    "ppc_predict_transform_seconds",
    "histogram",
    "Seconds in the LSH transform and z-order pipeline per z pass "
    "(a scalar predict, an execute_batch block or a traced batch row)",
)
PREDICT_RANGE_QUERY_SECONDS = _declare(
    "ppc_predict_range_query_seconds",
    "histogram",
    "Seconds answering histogram range queries per predict",
)
SYNOPSIS_BYTES = _declare(
    "ppc_synopsis_bytes", "gauge", "Current synopsis footprint in bytes"
)
CACHE_PLANS = _declare(
    "ppc_cache_plans", "gauge", "Plans currently resident in the plan cache"
)
BREAKER_STATE = _declare(
    "ppc_breaker_state",
    "gauge",
    "Optimizer circuit-breaker state (0 closed, 1 half-open, 2 open)",
)
BREAKER_TRANSITIONS_TOTAL = _declare(
    "ppc_breaker_transitions_total",
    "counter",
    "Circuit-breaker state transitions",
    ("state", BREAKER_STATES),
)
DEGRADED_TOTAL = _declare(
    "ppc_degraded_total",
    "counter",
    "Component failures absorbed by the guarded decision flow",
    ("component", ("predictor", "predictor_insert", "optimizer")),
)
#: Sources in preference order.
FALLBACK_SERVED_TOTAL = _declare(
    "ppc_fallback_served_total",
    "counter",
    "Instances answered from the fallback chain by source",
    ("source", ("prediction", "last_plan", "cache")),
)
#: Executed cost / optimal cost, dimensionless (>= 1).
FALLBACK_SUBOPTIMALITY = _declare(
    "ppc_fallback_suboptimality",
    "histogram",
    "Suboptimality ratio of instances served from the fallback chain",
)
REJECTED_INSTANCES_TOTAL = _declare(
    "ppc_rejected_instances_total",
    "counter",
    "Instances rejected before entering the decision flow",
    ("reason", ("bad_shape", "non_finite", "out_of_domain")),
)
OPTIMIZER_RETRIES_TOTAL = _declare(
    "ppc_optimizer_retries_total",
    "counter",
    "Optimizer invocation retries performed by the backoff loop",
)
TRACE_SPANS_TOTAL = _declare(
    "ppc_trace_spans_total", "counter", "Spans closed inside recorded decision traces"
)
TRACE_RECORDED_TOTAL = _declare(
    "ppc_trace_recorded_total",
    "counter",
    "Decision traces admitted to the flight recorder",
)
TRACE_DROPPED_TOTAL = _declare(
    "ppc_trace_dropped_total",
    "counter",
    "Decision traces evicted from the flight recorder",
)
#: Verdicts in evaluation order.
TRACE_SAMPLER_TOTAL = _declare(
    "ppc_trace_sampler_total",
    "counter",
    "Trace-sampler verdicts, one per execution",
    ("decision", ("forced", "head", "error_bias", "interval", "skipped")),
)
TRACE_OCCUPANCY = _declare(
    "ppc_trace_occupancy",
    "gauge",
    "Decision traces currently held by the flight recorder",
)
#: Divided by :data:`EXECUTIONS_TOTAL` over a window, this is the mean
#: regret the SLO engine budgets.
REGRET_TOTAL = _declare(
    "ppc_regret_total",
    "counter",
    "Accumulated regret (suboptimality - 1) of executed instances",
)
TELEMETRY_SAMPLES_TOTAL = _declare(
    "ppc_telemetry_samples_total",
    "counter",
    "Telemetry snapshots taken by the time-series sampler",
)
TELEMETRY_SAMPLE_SECONDS = _declare(
    "ppc_telemetry_sample_seconds",
    "histogram",
    "Seconds spent taking one telemetry snapshot",
)
#: Averaged over the LSH transforms; the synopsis-coverage proxy for
#: sample-point harvesting.
QUALITY_COVERAGE = _declare(
    "ppc_quality_coverage",
    "gauge",
    "Scorecard: fraction of z-axis probe cells holding density mass",
)
QUALITY_PURITY = _declare(
    "ppc_quality_purity",
    "gauge",
    "Scorecard: mass-weighted majority-plan purity of occupied cells",
)
#: 0 = every cell pure.
QUALITY_ENTROPY = _declare(
    "ppc_quality_entropy",
    "gauge",
    "Scorecard: mass-weighted normalized plan entropy of occupied cells",
)
QUALITY_ACCURACY = _declare(
    "ppc_quality_rolling_accuracy",
    "gauge",
    "Scorecard: rolling prediction accuracy over the quality window",
)
QUALITY_REGRET = _declare(
    "ppc_quality_rolling_regret",
    "gauge",
    "Scorecard: rolling mean regret over the quality window",
)
#: Negative means answers are scraping the threshold.
QUALITY_CONFIDENCE_MARGIN = _declare(
    "ppc_quality_confidence_margin",
    "gauge",
    "Scorecard: mean confidence margin (confidence - gamma) of answers",
)
#: In [0, 1]; 1 = the Section IV-E drift alarm is firing.
QUALITY_DRIFT_PRESSURE = _declare(
    "ppc_quality_drift_pressure",
    "gauge",
    "Scorecard: proximity of the monitor estimators to the drift alarm",
)
SLO_STATE = _declare(
    "ppc_slo_state", "gauge", "SLO evaluation state (0 ok, 1 warning, 2 breach)"
)
SLO_BURN_RATE = _declare(
    "ppc_slo_burn_rate",
    "gauge",
    "SLO burn rate per evaluation window (1.0 = at objective)",
)
EVENTS_EMITTED_TOTAL = _declare(
    "ppc_events_emitted_total",
    "counter",
    "Synopsis lifecycle events appended to the event journal",
)
#: Non-zero means the timeline is truncated at the front.
EVENTS_DROPPED_TOTAL = _declare(
    "ppc_events_dropped_total",
    "counter",
    "Lifecycle events rotated out of the bounded journal ring",
)
EVENTS_OCCUPANCY = _declare(
    "ppc_events_occupancy",
    "gauge",
    "Lifecycle events currently resident in the journal ring",
)
LINEAGE_QUERIES_TOTAL = _declare(
    "ppc_lineage_queries_total",
    "counter",
    "Lineage provenance queries answered by kind",
)

#: Every metric the pipeline emits, in declaration order.
INVENTORY: tuple[MetricSpec, ...] = tuple(_SPECS.values())

#: ``name -> (label, values)`` of every labelled counter family.
FAMILIES: dict[str, Family] = {
    spec.name: spec.family for spec in INVENTORY if spec.family
}

INVOCATION_REASONS = FAMILIES[INVOCATIONS_TOTAL][1]
FEEDBACK_OUTCOMES = FAMILIES[POSITIVE_FEEDBACK_TOTAL][1]
CACHE_EVENTS = FAMILIES[CACHE_EVENTS_TOTAL][1]
DEGRADED_COMPONENTS = FAMILIES[DEGRADED_TOTAL][1]
FALLBACK_SOURCES = FAMILIES[FALLBACK_SERVED_TOTAL][1]
REJECTION_REASONS = FAMILIES[REJECTED_INSTANCES_TOTAL][1]
SAMPLER_DECISIONS = FAMILIES[TRACE_SAMPLER_TOTAL][1]

#: The span → metric table of the decision seam
#: (:class:`~repro.obs.tracing.DecisionTrace`): closing a span named
#: like a key observes its duration into ``metric`` (labels: template,
#: plus ``stage`` when given) on every execution, sampled or not.  A
#: ``parent`` restricts the entry to spans opened directly under that
#: span, so the negative-feedback ``feedback/optimize`` never feeds
#: ``stage="optimize"``; ``None`` matches anywhere, including a batch
#: block's z pass outside any decision.
SPAN_METRICS: dict[str, tuple[str, str | None, str | None]] = {
    # span: (metric, stage label, parent span)
    "z_values": (PREDICT_TRANSFORM_SECONDS, None, None),
    "density_lookup": (PREDICT_RANGE_QUERY_SECONDS, None, None),
    "predict": (STAGE_SECONDS, "predict", "decision"),
    "optimize": (STAGE_SECONDS, "optimize", "decision"),
    "execute_plan": (STAGE_SECONDS, "execute", "decision"),
    "feedback": (STAGE_SECONDS, "feedback", "decision"),
}

#: The decision-flow stages timed inside ``TemplateSession.execute``.
STAGES = tuple(stage for __, stage, __ in SPAN_METRICS.values() if stage)


def help_text(name: str) -> str:
    """Return the inventory help line for *name* (empty if unknown)."""
    spec = _SPECS.get(name)
    return spec.help if spec else ""
