"""Canonical metric names exported by the PPC pipeline.

One place to look up what the instrumented pipeline emits; README's
"Observability" section documents the same inventory for adopters.
Label conventions: ``template`` is the query-template name; ``stage``
is one of :data:`STAGES`; ``reason`` is one of
:data:`INVOCATION_REASONS`; ``event`` is one of :data:`CACHE_EVENTS`;
``outcome`` is ``accepted``/``rejected``; ``action`` is
``shrink``/``drop``; ``component`` is one of
:data:`DEGRADED_COMPONENTS`; ``source`` is one of
:data:`FALLBACK_SOURCES`; ``state`` is a circuit-breaker state.
"""

from __future__ import annotations

from typing import NamedTuple

#: Per-stage wall-clock of :meth:`TemplateSession.execute`
#: (labels: template, stage) — latency histogram, seconds.
STAGE_SECONDS = "ppc_stage_seconds"

#: Query instances executed (labels: template) — counter.
EXECUTIONS_TOTAL = "ppc_executions_total"

#: Optimizer invocations by cause (labels: template, reason) — counter.
INVOCATIONS_TOTAL = "ppc_optimizer_invocations_total"

#: Positive-feedback offers (labels: template, outcome) — counter.
POSITIVE_FEEDBACK_TOTAL = "ppc_positive_feedback_total"

#: Drift responses fired (labels: template) — counter.
DRIFT_EVENTS_TOTAL = "ppc_drift_events_total"

#: Plan-cache activity (labels: template, event) — counter.
CACHE_EVENTS_TOTAL = "ppc_cache_events_total"

#: Synopsis bytes reclaimed by the memory governor — counter.
GOVERNOR_RECLAIMED_BYTES = "ppc_governor_reclaimed_bytes_total"

#: Governor reclamation steps (labels: template, action) — counter.
GOVERNOR_ACTIONS_TOTAL = "ppc_governor_actions_total"

#: Time spent in the LSH transform + z-order pipeline per scalar
#: predict (labels: template) — latency histogram, seconds.
PREDICT_TRANSFORM_SECONDS = "ppc_predict_transform_seconds"

#: Time spent answering histogram range queries per scalar predict
#: (labels: template) — latency histogram, seconds.
PREDICT_RANGE_QUERY_SECONDS = "ppc_predict_range_query_seconds"

#: Current synopsis footprint (labels: template) — gauge, bytes.
SYNOPSIS_BYTES = "ppc_synopsis_bytes"

#: Plans currently resident in the plan cache (labels: template) — gauge.
CACHE_PLANS = "ppc_cache_plans"

#: Optimizer circuit-breaker state (labels: template) — gauge;
#: 0 = closed, 1 = half-open, 2 = open.
BREAKER_STATE = "ppc_breaker_state"

#: Breaker state transitions (labels: template, state) — counter.
BREAKER_TRANSITIONS_TOTAL = "ppc_breaker_transitions_total"

#: Component failures absorbed by the guarded decision flow
#: (labels: template, component) — counter.
DEGRADED_TOTAL = "ppc_degraded_total"

#: Instances answered from the fallback chain because the optimizer
#: was unavailable (labels: template, source) — counter.
FALLBACK_SERVED_TOTAL = "ppc_fallback_served_total"

#: Suboptimality ratio (executed cost / optimal cost) of instances
#: served from the fallback chain (labels: template) — histogram,
#: dimensionless (>= 1).
FALLBACK_SUBOPTIMALITY = "ppc_fallback_suboptimality"

#: Query instances rejected before entering the decision flow
#: (labels: template, reason) — counter.
REJECTED_INSTANCES_TOTAL = "ppc_rejected_instances_total"

#: Optimizer invocation retries performed by the backoff loop
#: (labels: template) — counter.
OPTIMIZER_RETRIES_TOTAL = "ppc_optimizer_retries_total"

#: Spans closed inside recorded decision traces (labels: template)
#: — counter.
TRACE_SPANS_TOTAL = "ppc_trace_spans_total"

#: Decision traces admitted to the flight recorder (labels: template)
#: — counter.
TRACE_RECORDED_TOTAL = "ppc_trace_recorded_total"

#: Decision traces evicted from the flight recorder to admit newer
#: ones (labels: template) — counter.
TRACE_DROPPED_TOTAL = "ppc_trace_dropped_total"

#: Trace-sampler verdicts, one per execution (labels: template,
#: decision) — counter; ``decision`` is one of
#: :data:`SAMPLER_DECISIONS`.
TRACE_SAMPLER_TOTAL = "ppc_trace_sampler_total"

#: Decision traces currently held by the flight recorder
#: (labels: template) — gauge.
TRACE_OCCUPANCY = "ppc_trace_occupancy"

#: Accumulated regret (``suboptimality - 1``) of executed instances
#: (labels: template) — counter; divided by ``ppc_executions_total``
#: over a window this is the mean regret the SLO engine budgets.
REGRET_TOTAL = "ppc_regret_total"

#: Telemetry snapshots taken by the time-series sampler — counter.
TELEMETRY_SAMPLES_TOTAL = "ppc_telemetry_samples_total"

#: Wall-clock cost of one telemetry snapshot (metric scan + ring
#: append) — latency histogram, seconds.
TELEMETRY_SAMPLE_SECONDS = "ppc_telemetry_sample_seconds"

#: Scorecard: fraction of z-axis probe cells holding density mass,
#: averaged over the LSH transforms (labels: template) — gauge in
#: [0, 1]; the synopsis-coverage proxy for sample-point harvesting.
QUALITY_COVERAGE = "ppc_quality_coverage"

#: Scorecard: mass-weighted purity (majority-plan share) of occupied
#: z-cells (labels: template) — gauge in [0, 1].
QUALITY_PURITY = "ppc_quality_purity"

#: Scorecard: mass-weighted normalized plan entropy of occupied
#: z-cells (labels: template) — gauge in [0, 1]; 0 = every cell pure.
QUALITY_ENTROPY = "ppc_quality_entropy"

#: Scorecard: rolling ground-truth prediction accuracy over the
#: quality window (labels: template) — gauge in [0, 1].
QUALITY_ACCURACY = "ppc_quality_rolling_accuracy"

#: Scorecard: rolling mean regret (``suboptimality - 1``) over the
#: quality window (labels: template) — gauge, >= 0.
QUALITY_REGRET = "ppc_quality_rolling_regret"

#: Scorecard: mean confidence margin (``confidence - gamma``) of
#: answered predictions in the quality window (labels: template) —
#: gauge; negative means answers are scraping the threshold.
QUALITY_CONFIDENCE_MARGIN = "ppc_quality_confidence_margin"

#: Scorecard: how close the Section IV-E estimators sit to the drift
#: alarm (labels: template) — gauge in [0, 1]; 1 = alarm firing.
QUALITY_DRIFT_PRESSURE = "ppc_quality_drift_pressure"

#: SLO evaluation state (labels: template, slo) — gauge;
#: 0 = ok, 1 = warning, 2 = breach.
SLO_STATE = "ppc_slo_state"

#: SLO burn rate per evaluation window (labels: template, slo,
#: window = short/long) — gauge; 1.0 burns the whole error budget
#: exactly at the objective.
SLO_BURN_RATE = "ppc_slo_burn_rate"

#: Build identity of the serving process (labels: version, commit) —
#: gauge, always 1; join on it to know exactly what code produced any
#: other series.
BUILD_INFO = "ppc_build_info"

#: Synopsis lifecycle events appended to the event journal (labels:
#: template, kind) — counter; one increment per emitted event.
EVENTS_EMITTED_TOTAL = "ppc_events_emitted_total"

#: Lifecycle events rotated out of the bounded journal ring — counter;
#: a non-zero value means the timeline is truncated at the front.
EVENTS_DROPPED_TOTAL = "ppc_events_dropped_total"

#: Lifecycle events currently resident in the journal ring — gauge.
EVENTS_OCCUPANCY = "ppc_events_occupancy"

#: Lineage provenance queries answered (labels: query = why/timeline/
#: export) — counter.
LINEAGE_QUERIES_TOTAL = "ppc_lineage_queries_total"

#: The decision-flow stages timed inside ``TemplateSession.execute``.
STAGES = ("predict", "optimize", "execute", "feedback")

#: The span → metric table of the decision seam
#: (:class:`~repro.obs.tracing.DecisionTrace`): closing a span named
#: like a key observes its duration into ``metric`` (labels: template,
#: plus ``stage`` when given) on every execution, sampled or not.  A
#: ``parent`` restricts the entry to spans opened directly under that
#: span, so the negative-feedback ``feedback/optimize`` never feeds
#: ``stage="optimize"``; ``None`` matches anywhere, including the batch
#: prefetch's predict outside any decision.
SPAN_METRICS: dict[str, tuple[str, str | None, str | None]] = {
    # span: (metric, stage label, parent span)
    "z_values": (PREDICT_TRANSFORM_SECONDS, None, None),
    "density_lookup": (PREDICT_RANGE_QUERY_SECONDS, None, None),
    "predict": (STAGE_SECONDS, "predict", "decision"),
    "optimize": (STAGE_SECONDS, "optimize", "decision"),
    "execute_plan": (STAGE_SECONDS, "execute", "decision"),
    "feedback": (STAGE_SECONDS, "feedback", "decision"),
}

#: Why the optimizer was invoked (Figure 1 decision flow).
INVOCATION_REASONS = (
    "null_prediction",
    "exploration",
    "cache_miss",
    "negative_feedback",
)

#: Plan-cache event labels.
CACHE_EVENTS = ("hit", "miss", "eviction")

#: Guarded components of the decision flow (``component`` label of
#: :data:`DEGRADED_TOTAL`).
DEGRADED_COMPONENTS = ("predictor", "predictor_insert", "optimizer")

#: Fallback-chain sources, in preference order (``source`` label of
#: :data:`FALLBACK_SERVED_TOTAL`).
FALLBACK_SOURCES = ("prediction", "last_plan", "cache")

#: Up-front validation failures (``reason`` label of
#: :data:`REJECTED_INSTANCES_TOTAL`).
REJECTION_REASONS = ("bad_shape", "non_finite", "out_of_domain")

#: Trace-sampler verdicts (``decision`` label of
#: :data:`TRACE_SAMPLER_TOTAL`), in evaluation order.
SAMPLER_DECISIONS = ("forced", "head", "error_bias", "interval", "skipped")


class MetricSpec(NamedTuple):
    """One entry of the exporter-facing metric inventory."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str


#: Every metric the pipeline emits, with its exposition-format kind and
#: one-line help text.  The Prometheus renderer sources its ``# HELP``
#: lines here; :func:`help_text` and the names test keep this inventory
#: in lockstep with the module-level constants above.
INVENTORY: "tuple[MetricSpec, ...]" = (
    MetricSpec(
        BUILD_INFO,
        "gauge",
        "Build identity of the serving process (version/commit labels)",
    ),
    MetricSpec(
        STAGE_SECONDS,
        "histogram",
        "Per-stage wall-clock seconds of TemplateSession.execute",
    ),
    MetricSpec(
        EXECUTIONS_TOTAL, "counter", "Query instances executed per template"
    ),
    MetricSpec(
        INVOCATIONS_TOTAL, "counter", "Optimizer invocations by cause"
    ),
    MetricSpec(
        POSITIVE_FEEDBACK_TOTAL,
        "counter",
        "Positive-feedback offers by outcome",
    ),
    MetricSpec(
        DRIFT_EVENTS_TOTAL, "counter", "Drift responses fired per template"
    ),
    MetricSpec(CACHE_EVENTS_TOTAL, "counter", "Plan-cache activity by event"),
    MetricSpec(
        GOVERNOR_RECLAIMED_BYTES,
        "counter",
        "Synopsis bytes reclaimed by the memory governor",
    ),
    MetricSpec(
        GOVERNOR_ACTIONS_TOTAL,
        "counter",
        "Governor reclamation steps by action",
    ),
    MetricSpec(
        PREDICT_TRANSFORM_SECONDS,
        "histogram",
        "Seconds in the LSH transform and z-order pipeline per predict",
    ),
    MetricSpec(
        PREDICT_RANGE_QUERY_SECONDS,
        "histogram",
        "Seconds answering histogram range queries per predict",
    ),
    MetricSpec(
        SYNOPSIS_BYTES, "gauge", "Current synopsis footprint in bytes"
    ),
    MetricSpec(
        CACHE_PLANS, "gauge", "Plans currently resident in the plan cache"
    ),
    MetricSpec(
        BREAKER_STATE,
        "gauge",
        "Optimizer circuit-breaker state (0 closed, 1 half-open, 2 open)",
    ),
    MetricSpec(
        BREAKER_TRANSITIONS_TOTAL,
        "counter",
        "Circuit-breaker state transitions",
    ),
    MetricSpec(
        DEGRADED_TOTAL,
        "counter",
        "Component failures absorbed by the guarded decision flow",
    ),
    MetricSpec(
        FALLBACK_SERVED_TOTAL,
        "counter",
        "Instances answered from the fallback chain by source",
    ),
    MetricSpec(
        FALLBACK_SUBOPTIMALITY,
        "histogram",
        "Suboptimality ratio of instances served from the fallback chain",
    ),
    MetricSpec(
        REJECTED_INSTANCES_TOTAL,
        "counter",
        "Instances rejected before entering the decision flow",
    ),
    MetricSpec(
        OPTIMIZER_RETRIES_TOTAL,
        "counter",
        "Optimizer invocation retries performed by the backoff loop",
    ),
    MetricSpec(
        TRACE_SPANS_TOTAL,
        "counter",
        "Spans closed inside recorded decision traces",
    ),
    MetricSpec(
        TRACE_RECORDED_TOTAL,
        "counter",
        "Decision traces admitted to the flight recorder",
    ),
    MetricSpec(
        TRACE_DROPPED_TOTAL,
        "counter",
        "Decision traces evicted from the flight recorder",
    ),
    MetricSpec(
        TRACE_SAMPLER_TOTAL,
        "counter",
        "Trace-sampler verdicts, one per execution",
    ),
    MetricSpec(
        TRACE_OCCUPANCY,
        "gauge",
        "Decision traces currently held by the flight recorder",
    ),
    MetricSpec(
        REGRET_TOTAL,
        "counter",
        "Accumulated regret (suboptimality - 1) of executed instances",
    ),
    MetricSpec(
        TELEMETRY_SAMPLES_TOTAL,
        "counter",
        "Telemetry snapshots taken by the time-series sampler",
    ),
    MetricSpec(
        TELEMETRY_SAMPLE_SECONDS,
        "histogram",
        "Seconds spent taking one telemetry snapshot",
    ),
    MetricSpec(
        QUALITY_COVERAGE,
        "gauge",
        "Scorecard: fraction of z-axis probe cells holding density mass",
    ),
    MetricSpec(
        QUALITY_PURITY,
        "gauge",
        "Scorecard: mass-weighted majority-plan purity of occupied cells",
    ),
    MetricSpec(
        QUALITY_ENTROPY,
        "gauge",
        "Scorecard: mass-weighted normalized plan entropy of occupied cells",
    ),
    MetricSpec(
        QUALITY_ACCURACY,
        "gauge",
        "Scorecard: rolling prediction accuracy over the quality window",
    ),
    MetricSpec(
        QUALITY_REGRET,
        "gauge",
        "Scorecard: rolling mean regret over the quality window",
    ),
    MetricSpec(
        QUALITY_CONFIDENCE_MARGIN,
        "gauge",
        "Scorecard: mean confidence margin (confidence - gamma) of answers",
    ),
    MetricSpec(
        QUALITY_DRIFT_PRESSURE,
        "gauge",
        "Scorecard: proximity of the monitor estimators to the drift alarm",
    ),
    MetricSpec(
        SLO_STATE,
        "gauge",
        "SLO evaluation state (0 ok, 1 warning, 2 breach)",
    ),
    MetricSpec(
        SLO_BURN_RATE,
        "gauge",
        "SLO burn rate per evaluation window (1.0 = at objective)",
    ),
    MetricSpec(
        EVENTS_EMITTED_TOTAL,
        "counter",
        "Synopsis lifecycle events appended to the event journal",
    ),
    MetricSpec(
        EVENTS_DROPPED_TOTAL,
        "counter",
        "Lifecycle events rotated out of the bounded journal ring",
    ),
    MetricSpec(
        EVENTS_OCCUPANCY,
        "gauge",
        "Lifecycle events currently resident in the journal ring",
    ),
    MetricSpec(
        LINEAGE_QUERIES_TOTAL,
        "counter",
        "Lineage provenance queries answered by kind",
    ),
)

#: ``name -> help`` view of :data:`INVENTORY` for the exporter.
HELP_TEXT: "dict[str, str]" = {spec.name: spec.help for spec in INVENTORY}

#: ``name -> kind`` view of :data:`INVENTORY`.
METRIC_KINDS: "dict[str, str]" = {spec.name: spec.kind for spec in INVENTORY}


def help_text(name: str) -> str:
    """Return the inventory help line for *name* (empty if unknown)."""

    return HELP_TEXT.get(name, "")
