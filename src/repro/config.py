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
class ResilienceConfig:
    """Degraded-mode knobs of the guarded decision flow.

    Optimizer invocations get ``retry_attempts`` tries with capped
    exponential backoff under ``retry_deadline`` seconds; after
    ``breaker_failure_threshold`` consecutive exhausted invocations the
    per-template circuit breaker opens and the session serves the last
    cached plan until ``breaker_recovery_time`` elapses (then admits
    ``breaker_half_open_trials`` probes).  ``validate_points`` rejects
    NaN/inf/out-of-domain instances up front with a clean
    :class:`~repro.exceptions.PredictionError`.
    """

    retry_attempts: int = 3
    retry_base_delay: float = 0.01
    retry_multiplier: float = 2.0
    retry_max_delay: float = 0.25
    retry_deadline: "float | None" = 2.0
    breaker_failure_threshold: int = 3
    breaker_recovery_time: float = 5.0
    breaker_half_open_trials: int = 1
    validate_points: bool = True

    def __post_init__(self) -> None:
        if self.retry_attempts < 1:
            raise ConfigurationError("retry attempts must be >= 1")
        if self.retry_base_delay < 0.0 or self.retry_max_delay < 0.0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.retry_multiplier < 1.0:
            raise ConfigurationError("retry multiplier must be >= 1")
        if self.retry_deadline is not None and self.retry_deadline <= 0.0:
            raise ConfigurationError("retry deadline must be > 0")
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError("breaker failure threshold must be >= 1")
        if self.breaker_recovery_time < 0.0:
            raise ConfigurationError("breaker recovery time must be >= 0")
        if self.breaker_half_open_trials < 1:
            raise ConfigurationError("breaker half-open trials must be >= 1")


@dataclass(frozen=True)
class TraceConfig:
    """Sampling knobs of the per-template decision flight recorder.

    Every ``TemplateSession.execute`` asks the sampler whether to build
    a full :class:`~repro.obs.tracing.DecisionTrace`; unsampled
    executions pay one no-op method call per stage and allocate
    nothing.  Sampling is deterministic (no RNG): the first ``head``
    executions are always traced, every ``interval``-th execution after
    that (0 disables interval sampling), and — error-biased — the
    ``error_burst`` executions following any degraded/fallback/raised
    instance, so the recorder holds the run-up to every incident.
    ``explain`` bypasses the sampler entirely (decision ``forced``).
    """

    enabled: bool = True
    head: int = 8
    interval: int = 0
    error_burst: int = 4
    capacity: int = 256
    error_capacity: int = 64

    def __post_init__(self) -> None:
        if self.head < 0:
            raise ConfigurationError("trace head must be >= 0")
        if self.interval < 0:
            raise ConfigurationError("trace interval must be >= 0")
        if self.error_burst < 0:
            raise ConfigurationError("trace error burst must be >= 0")
        if self.capacity < 1 or self.error_capacity < 1:
            raise ConfigurationError("trace capacities must be >= 1")


@dataclass(frozen=True)
class ProfileConfig:
    """Stage-profiler knobs (see :mod:`repro.obs.profiling`).

    Disabled (the default) the profiler does not exist: the tracer owns
    no profiler object and unsampled executions keep returning the
    shared ``NOOP_TRACE`` singleton — the hot path is bit-identical to
    a build without the feature.  Enabled, every ``interval``-th
    execution per template is timed stage-by-stage on the existing span
    seam; sampling is deterministic (a per-template counter, no RNG),
    so profiled runs make the same decisions as unprofiled ones.
    """

    enabled: bool = False
    interval: int = 1
    max_paths: int = 256

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigurationError("profile interval must be >= 1")
        if self.max_paths < 8:
            raise ConfigurationError("profile max_paths must be >= 8")


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
    ``max_paths``).  Emission is RNG-free and clock-injected, so
    journaled runs make bit-identical decisions to unjournaled ones.
    """

    enabled: bool = False
    capacity: int = 4096

    def __post_init__(self) -> None:
        if self.capacity < 64:
            raise ConfigurationError("events capacity must be >= 64")


#: Signals an SLO can be defined over (``signal`` field of
#: :class:`SLODefinition`).
SLO_SIGNALS = ("hit_rate", "predict_p95", "regret")

#: SLO evaluation states, ordered by severity (the exported
#: ``ppc_slo_state`` gauge uses the index as its value).
SLO_STATES = ("ok", "warning", "breach")


@dataclass(frozen=True)
class SLODefinition:
    """One declarative service-level objective over the cached decisions.

    ``signal`` picks the underlying health signal:

    * ``hit_rate`` — plan-cache hit fraction must stay at or above
      ``objective``; the error budget is ``1 - objective`` and the burn
      rate is the windowed miss fraction divided by that budget;
    * ``predict_p95`` — p95 of ``ppc_stage_seconds{stage="predict"}``
      must stay at or below ``objective`` seconds; the burn rate is the
      windowed p95 divided by the objective;
    * ``regret`` — average regret (``suboptimality - 1``) per execution
      must stay at or below ``objective``; the burn rate is the
      windowed mean regret divided by the objective.

    Burn rates are evaluated over two windows on the *injected* clock
    (Kepler-style continuous evaluation against a regression budget):
    ``breach`` needs both windows burning at ``breach_burn`` or more,
    ``warning`` needs either window at ``warning_burn`` or more — the
    standard multi-window policy that ignores short blips while still
    catching slow leaks.
    """

    name: str
    signal: str
    objective: float
    short_window: float = 300.0
    long_window: float = 3600.0
    breach_burn: float = 2.0
    warning_burn: float = 1.0

    def __post_init__(self) -> None:
        if self.signal not in SLO_SIGNALS:
            raise ConfigurationError(
                f"unknown SLO signal {self.signal!r}; "
                f"expected one of {SLO_SIGNALS}"
            )
        if self.signal == "hit_rate" and not 0.0 <= self.objective < 1.0:
            raise ConfigurationError("hit-rate objective must be in [0, 1)")
        if self.signal != "hit_rate" and self.objective <= 0.0:
            raise ConfigurationError("SLO objective must be > 0")
        if not 0.0 < self.short_window <= self.long_window:
            raise ConfigurationError(
                "SLO windows must satisfy 0 < short <= long"
            )
        if self.breach_burn < self.warning_burn or self.warning_burn <= 0.0:
            raise ConfigurationError(
                "SLO burn thresholds must satisfy 0 < warning <= breach"
            )


#: The shipped SLO set: generous enough that a healthy seeded workload
#: never breaches (CI fails the build on breach), tight enough that a
#: collapsed synopsis or an optimizer outage shows up within a window.
DEFAULT_SLOS: "tuple[SLODefinition, ...]" = (
    SLODefinition(name="cache_hit_rate", signal="hit_rate", objective=0.5),
    SLODefinition(
        name="predict_latency_p95", signal="predict_p95", objective=0.05
    ),
    SLODefinition(name="regret_budget", signal="regret", objective=0.10),
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Windowed cache-quality telemetry knobs (time series + SLOs).

    The framework snapshots every metric into fixed-capacity ring
    series each ``sample_interval`` seconds *of the injected clock* —
    no wall-clock reads, so storms on a ``VirtualClock`` fill hours of
    windows in milliseconds and the memory stays O(capacity) per
    series.  Every ``quality_every``-th sample additionally refreshes
    the per-template plan-space scorecard gauges (coverage, purity,
    rolling accuracy/regret, drift pressure), a synopsis scan.  The
    shipped cadence is meant to cost under 5 % of the serving path;
    the ``telemetry_sampled`` mode of
    ``benchmarks/bench_instrumentation_overhead.py`` measures it.
    """

    enabled: bool = True
    sample_interval: float = 5.0
    series_capacity: int = 256
    quality_every: int = 12
    quality_probes: int = 64
    quality_window: int = 200
    slos: "tuple[SLODefinition, ...]" = DEFAULT_SLOS

    def __post_init__(self) -> None:
        if self.sample_interval <= 0.0:
            raise ConfigurationError("telemetry sample interval must be > 0")
        if self.series_capacity < 2:
            raise ConfigurationError("telemetry series capacity must be >= 2")
        if self.quality_every < 1:
            raise ConfigurationError("telemetry quality_every must be >= 1")
        if self.quality_probes < 2:
            raise ConfigurationError("telemetry quality_probes must be >= 2")
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
    #: Degraded-mode behavior (retry/backoff, circuit breaker, input
    #: validation); the defaults cost nothing while dependencies are
    #: healthy.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
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
