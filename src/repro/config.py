"""Configuration dataclasses for the PPC framework.

Defaults follow the paper's reference configuration where one is given:
``t = 5`` transforms, ``b_h = 40`` histogram buckets, confidence
threshold ``gamma = 0.8`` online (0.7 offline), 5 % mean optimizer
invocation probability, cost error bound ``epsilon = 0.25``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TraceConfig:
    """Sampling knobs of the per-template decision flight recorder.

    Every ``TemplateSession.execute`` asks the sampler whether to build
    a full span tree (an active
    :class:`~repro.obs.tracing.DecisionTrace`); unsampled executions
    reuse the tracer's one inactive trace, which still feeds the stage
    metrics but allocates no span.  Sampling is deterministic (no RNG):
    the first :data:`~repro.obs.tracing.TRACE_HEAD` executions are
    always traced, every ``interval``-th execution after that (0
    disables interval sampling), and — error-biased — the
    :data:`~repro.obs.tracing.ERROR_BURST` executions following any
    degraded/fallback/raised instance, so the recorder holds the
    run-up to every incident.  ``explain`` bypasses the sampler
    entirely (decision ``forced``).
    """

    enabled: bool = True
    interval: int = 0
    capacity: int = 256
    error_capacity: int = 64

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ConfigurationError("trace interval must be >= 0")
        if self.capacity < 1 or self.error_capacity < 1:
            raise ConfigurationError("trace capacities must be >= 1")


@dataclass(frozen=True)
class ProfileConfig:
    """Stage-profiler knobs (see :mod:`repro.obs.profiling`).

    Disabled (the default) the profiler does not exist: the tracer owns
    no profiler object and the span seam feeds only the stage metrics.
    Enabled, every ``interval``-th execution per template is timed
    stage by stage from the same span-seam clock reads; sampling is
    deterministic (a per-template counter, no RNG), so profiled runs
    make the same decisions as unprofiled ones.
    """

    enabled: bool = False
    interval: int = 1

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigurationError("profile interval must be >= 1")


@dataclass(frozen=True)
class EventsConfig:
    """Synopsis lifecycle event-journal knobs (:mod:`repro.obs.events`).

    Disabled (the default) the journal does not exist: no session or
    predictor holds an emitter, mutation paths pay one ``is None``
    check, and nothing is allocated — the hot path is bit-identical to
    a build without the feature.  Enabled, every synopsis mutation,
    eviction, drift drop, breaker transition and fallback serving
    appends one typed event to a bounded ring (oldest events rotate
    out under a non-silent ``dropped`` counter, like the profiler's
    path cap).  Emission is RNG-free and clock-injected, so
    journaled runs make bit-identical decisions to unjournaled ones.
    """

    enabled: bool = False
    capacity: int = 4096

    def __post_init__(self) -> None:
        if self.capacity < 64:
            raise ConfigurationError("events capacity must be >= 64")


@dataclass(frozen=True)
class TelemetryConfig:
    """Windowed cache-quality telemetry knobs (time series + SLOs).

    The framework snapshots every metric into fixed-capacity ring
    series each ``sample_interval`` seconds *of the injected clock* —
    no wall-clock reads, so storms on a ``VirtualClock`` fill hours of
    windows in milliseconds and the memory stays O(capacity) per
    series.  Every ``quality_every``-th sample additionally refreshes
    the per-template plan-space scorecard gauges (coverage, purity,
    rolling accuracy/regret, drift pressure), a synopsis scan.  SLO
    burn rates are read against :data:`~repro.obs.slo.DEFAULT_SLOS`.
    The shipped cadence is meant to cost under 5 % of the serving
    path; the ``telemetry_sampled`` mode of
    ``benchmarks/bench_instrumentation_overhead.py`` measures it.
    """

    enabled: bool = True
    sample_interval: float = 5.0
    quality_every: int = 12
    quality_window: int = 200

    def __post_init__(self) -> None:
        if self.sample_interval <= 0.0:
            raise ConfigurationError("telemetry sample interval must be > 0")
        if self.quality_every < 1:
            raise ConfigurationError("telemetry quality_every must be >= 1")
        if self.quality_window < 1:
            raise ConfigurationError("telemetry quality_window must be >= 1")


@dataclass(frozen=True)
class PPCConfig:
    """Knobs of one template's online plan-caching session."""

    transforms: int = 5
    resolution: int = 16
    max_buckets: int = 40
    radius: float = 0.05
    confidence_threshold: float = 0.8
    noise_fraction: "float | None" = 0.002
    mean_invocation_probability: float = 0.05
    negative_feedback: bool = True
    cost_epsilon: float = 0.25
    #: Positive feedback (the paper's future-work extension): insert
    #: trusted predictions as discounted, capped sample points.
    positive_feedback: bool = False
    positive_feedback_min_confidence: float = 0.97
    positive_feedback_weight: float = 0.25
    positive_feedback_mass_cap: float = 0.5
    monitor_window: int = 100
    drift_threshold: float = 0.5
    drift_min_observations: int = 30
    drift_response: bool = True
    cache_capacity: int = 32
    #: Decision-trace sampling and flight-recorder sizing; the default
    #: traces the first few executions plus an error-biased burst.
    trace: TraceConfig = field(default_factory=TraceConfig)
    #: Windowed telemetry (time-series sampling, plan-space scorecards,
    #: SLO burn rates); sampling runs on the injected clock only.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Hot-path stage profiler (self/cumulative time per decision
    #: stage); off by default — enabling it never changes a decision.
    profiling: ProfileConfig = field(default_factory=ProfileConfig)
    #: Synopsis lifecycle event journal (cache lineage forensics); off
    #: by default — enabling it never changes a decision.
    events: EventsConfig = field(default_factory=EventsConfig)

    def __post_init__(self) -> None:
        if self.transforms < 1:
            raise ConfigurationError("transforms must be >= 1")
        if self.max_buckets < 1:
            raise ConfigurationError("max_buckets must be >= 1")
        if self.radius <= 0.0:
            raise ConfigurationError("radius must be > 0")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigurationError("confidence threshold must be in [0, 1]")
        if not 0.0 <= self.mean_invocation_probability <= 1.0:
            raise ConfigurationError(
                "mean invocation probability must be in [0, 1]"
            )
        if self.cache_capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
