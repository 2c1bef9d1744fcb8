"""Span-based decision tracing: the one timing seam of the predict path.

Every :meth:`TemplateSession.execute <repro.core.framework.TemplateSession.execute>`
asks its :class:`DecisionTracer` for a :class:`DecisionTrace` and runs
each stage — normalize → ground truth → predict (z-values → density
lookup → vote aggregation → noise elimination → confidence → cost
estimate) → decide → optimize / execute → feedback → drift check —
inside ``with trace.span(name):``.  A span close is the only place the
decision path reads a clock; it feeds the stage metrics, the stage
profiler and, for sampled executions, a tree of :class:`Span` nodes
finished with the execution's outcome and admitted to a bounded
per-template :class:`FlightRecorder`.  Unsampled executions reuse the
tracer's one inactive trace and allocate no span; callers guard
expensive attribute computation behind ``if trace.active:``.

Sampling is deterministic — no RNG draw is consumed, so a traced run
produces bit-identical decisions to an untraced one (see the parity
test).  The sampler admits the first :data:`TRACE_HEAD` executions,
every ``interval``-th after that, and the :data:`ERROR_BURST`
executions after any degraded/fallback/raised execution; ``explain``
forces a trace.

Traces serialize losslessly: :func:`trace_to_dict` /
:func:`trace_from_dict` round-trip through JSON, and
:func:`dumps_jsonl` / :func:`loads_jsonl` do the same for a recorder's
worth of traces, as a ``flight-recorder`` artifact of the framed-JSONL
codec in :mod:`repro.core.persistence`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Mapping, Sequence
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.config import TraceConfig
from repro.exceptions import PersistenceError
from repro.obs import names
from repro.obs.profiling import ROOT_STAGE, ProfileFrame, StageProfiler
from repro.obs.registry import LatencyHistogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import ExecutionRecord

__all__ = [
    "DecisionTrace",
    "DecisionTracer",
    "FlightRecorder",
    "Span",
    "dumps_jsonl",
    "loads_jsonl",
    "render_trace",
    "trace_from_dict",
    "trace_to_dict",
    "untraced",
]

#: Executions every tracer traces first, from its first decision.
TRACE_HEAD = 8
#: Executions traced after any degraded, fallback or raised execution,
#: so the recorder holds the aftermath of every incident.
ERROR_BURST = 4


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays nested in span attributes to plain
    Python values so traces serialize without a numpy dependency."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # Before the scalar check: np.float64 subclasses float but should
    # leave as a plain Python float.  tolist before item: arrays have
    # both, but item() raises for size > 1.
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (str, bytes, bool, int, float)) or value is None:
        return value
    return str(value)


class Span:
    """One named, timed step of a decision, with nested children.

    ``start`` and ``duration`` are seconds relative to the owning
    trace's origin, on the seam's clock (``perf_counter`` by default —
    monotonic, not wall-clock).
    ``status`` is ``"ok"`` unless the guarded block raised.
    """

    __slots__ = ("attributes", "children", "duration", "name", "start", "status")

    def __init__(self, name: str, start: float = 0.0) -> None:
        self.name = name
        self.start = start
        self.duration = 0.0
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self.status = "ok"

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attributes:
            out["attributes"] = _jsonable(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        span = cls(str(payload["name"]), float(payload.get("start", 0.0)))
        span.duration = float(payload.get("duration", 0.0))
        span.status = str(payload.get("status", "ok"))
        span.attributes = dict(payload.get("attributes", {}))
        span.children = [cls.from_dict(c) for c in payload.get("children", ())]
        return span


class DecisionTrace:
    """One decision's span seam: the only clock on the decision path.

    Every stage of a decision runs inside ``with trace.span(name):``,
    and each span close feeds up to three consumers from the one pair
    of clock reads:

    * the stage metric :data:`repro.obs.names.SPAN_METRICS` maps the
      span to, always — sampled or not;
    * the :class:`~repro.obs.profiling.ProfileFrame` of a
      profile-sampled decision;
    * the :class:`Span` tree, only when the decision is trace-sampled
      (``active``).

    A span that feeds none of them reads no clock.  Unsampled decisions
    all run on their tracer's one inactive instance, which allocates no
    :class:`Span`; callers guard attribute computation behind
    ``if trace.active:``.
    """

    __slots__ = (
        "_clock",
        "_frames",
        "_outcome",
        "_record",
        "_skew",
        "_t0",
        "_timed",
        "_timers",
        "active",
        "decision",
        "point",
        "profile",
        "root",
        "seq",
        "template",
    )

    def __init__(
        self,
        template: str,
        seq: int | None,
        decision: str,
        profile: "ProfileFrame | None" = None,
        *,
        active: bool = True,
        timers: "Mapping[str, tuple[LatencyHistogram, str | None]] | None" = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.template = template
        self.seq = seq
        self.decision = decision
        self.active = active
        self.point: list[float] | None = None
        self._outcome: dict[str, Any] | None = None
        self._record: "ExecutionRecord | None" = None
        self._timers = timers if timers is not None else {}
        self._clock = clock
        self.root = Span(ROOT_STAGE) if active else None
        # One ``(name, start, metric, span)`` frame per open span.
        self._frames: list[tuple[str, float, Any, Span | None]] = [
            (ROOT_STAGE, 0.0, None, self.root)
        ]
        self._restart(profile)

    def _restart(self, profile: "ProfileFrame | None") -> None:
        """Arm the seam for one decision, profiled or not."""
        self.profile = profile
        self._skew = 0.0
        self._timed = self.active or profile is not None
        self._t0 = self._clock() if self._timed else 0.0
        if profile is not None:
            profile.enter(ROOT_STAGE, self._t0)

    # The two methods below are the *only* sanctioned span lifecycle
    # primitives, and RPR009 confines direct calls to this module —
    # everyone else goes through the ``span()`` context manager, which
    # guarantees the close and records error status on exceptions.
    def open_span(
        self, name: str, attributes: Mapping[str, Any] | None = None
    ) -> Span | None:
        frames = self._frames
        parent = frames[-1]
        metric = self._timers.get(name)
        if metric is not None and metric[1] is not None and metric[1] != parent[0]:
            metric = None
        if metric is None and not self._timed:
            frames.append((name, 0.0, None, None))
            return None
        start = self._clock() + self._skew
        if self.profile is not None:
            self.profile.enter(name, start)
        span = None
        if self.active:
            span = Span(name, start - self._t0)
            if attributes:
                span.attributes.update(attributes)
            parent[3].children.append(span)
        frames.append((name, start, metric, span))
        return span

    def close_span(self, error: bool = False) -> None:
        frames = self._frames
        if len(frames) < 2:
            return
        __, start, metric, span = frames.pop()
        if metric is None and not self._timed:
            return
        now = self._clock() + self._skew
        if metric is not None:
            metric[0].observe(now - start)
        if self.profile is not None:
            self.profile.exit(now)
        if span is not None:
            span.duration = now - start
            if error:
                span.status = "error"

    def span(self, name: str, **attributes: Any) -> "DecisionTrace":
        """Open a child span for the duration of the ``with`` block.

        The block binds the new :class:`Span`, or on an inactive trace
        the trace itself as an inert attribute sink.
        """
        self.open_span(name, attributes)
        return self

    def __enter__(self) -> "Span | DecisionTrace":
        span = self._frames[-1][3]
        return self if span is None else span

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.close_span(exc_type is not None)

    def set(self, **attributes: Any) -> "DecisionTrace":
        """Attach attributes to the innermost open span; returns self."""
        self.annotate(**attributes)
        return self

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span (if active)."""
        if self.active:
            self._frames[-1][3].attributes.update(attributes)

    def charge(self, seconds: float) -> None:
        """Bill ``seconds`` of work done ahead of this decision — its
        share of a batch block's z pass — to the innermost open span:
        the seam's clock moves on by that much, so the span's metric,
        its profile rows and the decision's total all include it."""
        self._skew += seconds

    def finish(
        self,
        outcome: Mapping[str, Any] | None = None,
        record: "ExecutionRecord | None" = None,
    ) -> None:
        """Close any spans left open, time the root, seal the outcome.

        Completes the decision's profile frame; the trace reads no
        clock again until the tracer re-arms it.  A ``record`` becomes
        the outcome on first read of :attr:`outcome`, so a trace never
        forces the record's deferred ground truth on the decision path.
        """
        while len(self._frames) > 1:
            self.close_span()
        if self._timed:
            now = self._clock() + self._skew
            if self.root is not None:
                self.root.duration = now - self._t0
            if self.profile is not None:
                self.profile.complete(now)
        self.profile = None
        self._timed = False
        if outcome is not None:
            self._outcome = dict(outcome)
        self._record = record

    @property
    def outcome(self) -> dict[str, Any] | None:
        """The execution's summary (``None`` before :meth:`finish`)."""
        if self._record is not None:
            self._outcome = _record_outcome(self._record)
            self._record = None
        return self._outcome

    @outcome.setter
    def outcome(self, value: dict[str, Any] | None) -> None:
        self._outcome = value
        self._record = None

    @property
    def errored(self) -> bool:
        """True when this execution degraded, fell back, or raised."""
        if self._record is not None:
            return bool(self._record.degraded or self._record.fallback_source)
        if self._outcome is None:
            return False
        return bool(
            self._outcome.get("error")
            or self._outcome.get("degraded")
            or self._outcome.get("fallback_source")
        )

    def spans(self, name: str | None = None) -> Iterator[Span]:
        """Depth-first iteration over the span tree (root excluded)."""
        stack = list(reversed(self.root.children))
        while stack:
            span = stack.pop()
            if name is None or span.name == name:
                yield span
            stack.extend(reversed(span.children))

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.spans())

    def to_dict(self) -> dict[str, Any]:
        return trace_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DecisionTrace":
        return trace_from_dict(payload)


def _record_outcome(record: "ExecutionRecord") -> dict[str, Any]:
    """A finished trace's outcome: the summary of its record."""
    return {
        "predicted": record.predicted,
        "confidence": record.confidence,
        "optimizer_invoked": record.optimizer_invoked,
        "invocation_reason": record.invocation_reason,
        "executed_plan": record.executed_plan,
        "execution_cost": record.execution_cost,
        "optimal_plan": record.optimal_plan,
        "optimal_cost": record.optimal_cost,
        "suboptimality": record.suboptimality,
        "drift_triggered": record.drift_triggered,
        "degraded": record.degraded,
        "fallback_source": record.fallback_source,
        "correct": record.correct,
    }


def untraced() -> DecisionTrace:
    """A fresh inactive trace with no metrics, for predictor calls made
    outside any decision (library use, experiments): its spans read no
    clock and feed nothing."""
    return DecisionTrace("", None, "untraced", active=False)


def trace_to_dict(trace: DecisionTrace) -> dict[str, Any]:
    """Serialize a trace to a JSON-ready dict (lossless round-trip)."""
    return {
        "template": trace.template,
        "seq": trace.seq,
        "decision": trace.decision,
        "point": _jsonable(trace.point),
        "outcome": _jsonable(trace.outcome),
        "root": trace.root.to_dict(),
    }


def trace_from_dict(payload: Mapping[str, Any]) -> DecisionTrace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    trace = DecisionTrace(
        template=str(payload["template"]),
        seq=int(payload["seq"]),
        decision=str(payload.get("decision", "forced")),
    )
    point = payload.get("point")
    trace.point = None if point is None else [float(v) for v in point]
    outcome = payload.get("outcome")
    trace.outcome = None if outcome is None else dict(outcome)
    trace.root = Span.from_dict(payload["root"])
    trace._frames = [(ROOT_STAGE, 0.0, None, trace.root)]
    return trace


#: Artifact kind and schema version of a flight-recorder export.
EXPORT_KIND = "flight-recorder"
EXPORT_VERSION = 1


def dumps_jsonl(traces: Sequence[DecisionTrace]) -> str:
    """Render traces as a flight-recorder artifact, one trace per line."""
    from repro.core.persistence import encode_artifact

    return encode_artifact(
        EXPORT_KIND, EXPORT_VERSION, (trace_to_dict(trace) for trace in traces)
    )


def loads_jsonl(text: str) -> list[DecisionTrace]:
    """Parse :func:`dumps_jsonl` output back into traces.  The export is
    written atomically, so a torn tail is damage."""
    from repro.core.persistence import decode_artifact

    __, records, torn = decode_artifact(text, EXPORT_KIND, EXPORT_VERSION)
    if torn:
        raise PersistenceError("truncated flight-recorder export")
    return [trace_from_dict(record) for record in records]


class FlightRecorder:
    """Bounded ring buffer of recent decision traces.

    Two buffers: errored traces (degraded / fallback / raised) live in
    their own deque so a burst of healthy traffic cannot evict the
    evidence of an incident.  Admissions and evictions over the
    recorder's lifetime are counted once, in ``ppc_trace_recorded_total``
    and ``ppc_trace_dropped_total`` of ``metrics`` (a private registry
    when none is given); ``recorded``/``dropped`` read them.
    """

    def __init__(
        self,
        capacity: int = 256,
        error_capacity: int = 64,
        metrics: MetricsRegistry | None = None,
        template: str = "",
    ) -> None:
        if capacity < 1 or error_capacity < 1:
            raise ValueError(  # repro: noqa[RPR104] - argument contract, test-pinned
                "recorder capacities must be >= 1"
            )
        self._normal: deque[DecisionTrace] = deque(maxlen=capacity)
        self._errors: deque[DecisionTrace] = deque(maxlen=error_capacity)
        registry = metrics if metrics is not None else MetricsRegistry()
        self._recorded = registry.counter(
            names.TRACE_RECORDED_TOTAL, template=template
        )
        self._dropped = registry.counter(
            names.TRACE_DROPPED_TOTAL, template=template
        )

    def admit(self, trace: DecisionTrace) -> None:
        """Store a finished trace, evicting the buffer's oldest if full."""
        buffer = self._errors if trace.errored else self._normal
        if len(buffer) == buffer.maxlen:
            self._dropped.inc()
        buffer.append(trace)
        self._recorded.inc()

    @property
    def recorded(self) -> int:
        return int(self._recorded.value)

    @property
    def dropped(self) -> int:
        return int(self._dropped.value)

    def traces(self) -> list[DecisionTrace]:
        """All retained traces, oldest first (by execution sequence)."""
        return sorted([*self._normal, *self._errors], key=lambda t: t.seq)

    @property
    def occupancy(self) -> int:
        return len(self._normal) + len(self._errors)

    def clear(self) -> None:
        self._normal.clear()
        self._errors.clear()


class DecisionTracer:
    """Per-template sampler + flight recorder for decision traces.

    Owned by one :class:`~repro.core.framework.TemplateSession`;
    ``begin`` is called once per execute and returns either a fresh,
    active :class:`DecisionTrace` or the tracer's one reusable
    :attr:`inactive` trace; ``finish`` seals the trace with the
    execution's outcome and arms the error-bias burst.  ``clock`` is the
    seam's clock for every trace the tracer hands out.
    """

    def __init__(
        self,
        template: str,
        config: TraceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: "StageProfiler | None" = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.template = template
        self.config = config if config is not None else TraceConfig()
        self.profiler = profiler
        self._clock = clock
        self._seq = 0
        self._burst_left = 0
        registry = metrics if metrics is not None else MetricsRegistry()
        self._spans_counter = registry.counter(
            names.TRACE_SPANS_TOTAL, template=template
        )
        self.recorder = FlightRecorder(
            capacity=self.config.capacity,
            error_capacity=self.config.error_capacity,
            metrics=registry,
            template=template,
        )
        self._sampler_counters = registry.family(
            names.TRACE_SAMPLER_TOTAL,
            "decision",
            names.SAMPLER_DECISIONS,
            template=template,
        )
        self._timers = {
            span: (
                registry.histogram(
                    metric,
                    template=template,
                    **({"stage": stage} if stage else {}),
                ),
                parent,
            )
            for span, (metric, stage, parent) in names.SPAN_METRICS.items()
        }
        #: The trace every unsampled execution reuses; work outside any
        #: decision (a batch block's z pass) also runs on it, between
        #: decisions, where it feeds metrics only.
        self.inactive = DecisionTrace(
            template,
            None,
            "skipped",
            active=False,
            timers=self._timers,
            clock=clock,
        )

    def begin(self, force: bool = False) -> DecisionTrace:
        """Sample this execution; deterministic, consumes no RNG."""
        seq = self._seq
        self._seq += 1
        if force:
            decision = "forced"
        elif not self.config.enabled:
            decision = "skipped"
        elif seq < TRACE_HEAD:
            decision = "head"
        elif self._burst_left > 0:
            self._burst_left -= 1
            decision = "error_bias"
        elif self.config.interval and seq % self.config.interval == 0:
            decision = "interval"
        else:
            decision = "skipped"
        self._sampler_counters[decision].inc()
        # The profiler samples independently of the tracer (its own
        # deterministic counter), so stage times keep flowing at trace
        # interval 0 — but it never flips ``active``: a profiled,
        # trace-skipped execution behaves exactly like an unsampled one.
        profile = (
            self.profiler.begin(self.template)
            if self.profiler is not None
            else None
        )
        if decision == "skipped":
            self.inactive._restart(profile)
            return self.inactive
        return DecisionTrace(
            self.template,
            seq,
            decision,
            profile,
            timers=self._timers,
            clock=self._clock,
        )

    def finish(
        self,
        trace: DecisionTrace,
        record: "ExecutionRecord | None" = None,
        error: BaseException | None = None,
    ) -> None:
        """Seal + record a trace; arm the error-bias burst on incident.

        The burst arms even when the incident execution itself was not
        sampled, so the recorder captures the aftermath of every
        degraded/fallback/raised decision.
        """
        incident = error is not None or (
            record is not None and (record.degraded or bool(record.fallback_source))
        )
        if incident and self.config.enabled:
            self._burst_left = max(self._burst_left, ERROR_BURST)
        if not trace.active:
            trace.finish()
            return
        if error is not None:
            trace.finish({"error": f"{type(error).__name__}: {error}"})
        elif record is not None:
            trace.finish(record=record)
        else:
            trace.finish({})
        self.recorder.admit(trace)
        self._spans_counter.inc(trace.span_count)

    def stats(self) -> dict[str, Any]:
        """Recorder + sampler state for ``service.metrics()``, read from
        the registry's counters."""
        return {
            "enabled": self.config.enabled,
            "occupancy": self.recorder.occupancy,
            "capacity": self.config.capacity,
            "error_capacity": self.config.error_capacity,
            "recorded": self.recorder.recorded,
            "dropped": self.recorder.dropped,
            "sampler": {
                decision: int(counter.value)
                for decision, counter in self._sampler_counters.items()
            },
        }

    def traces(self) -> list[DecisionTrace]:
        return self.recorder.traces()


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def _format_attributes(attributes: Mapping[str, Any]) -> str:
    return " ".join(f"{key}={_format_value(val)}" for key, val in attributes.items())


def _render_span(span: Span, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    marker = " !" if span.status != "ok" else ""
    attrs = _format_attributes(span.attributes)
    body = f"{span.name}{marker} [{span.duration * 1e3:.3f} ms]"
    if attrs:
        body += f" {attrs}"
    lines.append(prefix + connector + body)
    child_prefix = prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(span.children):
        _render_span(child, child_prefix, i == len(span.children) - 1, lines)


def render_trace(trace: DecisionTrace) -> str:
    """Human-readable span tree for ``repro explain``."""
    lines = [f"trace {trace.template}#{trace.seq} decision={trace.decision}"]
    if trace.point is not None:
        lines.append(f"point: ({', '.join(f'{v:.6g}' for v in trace.point)})")
    for i, child in enumerate(trace.root.children):
        _render_span(child, "", i == len(trace.root.children) - 1, lines)
    outcome = trace.outcome or {}
    if outcome.get("error"):
        lines.append(f"outcome: error {outcome['error']}")
    elif outcome:
        plan = outcome.get("executed_plan")
        optimal = outcome.get("optimal_plan")
        verdict = (
            "optimal"
            if plan == optimal
            else f"suboptimal x{outcome.get('suboptimality', float('nan')):.3f}"
        )
        via = []
        if outcome.get("fallback_source"):
            via.append(f"fallback={outcome['fallback_source']}")
        if outcome.get("degraded"):
            via.append("degraded")
        if outcome.get("optimizer_invoked"):
            via.append(f"optimizer({outcome.get('invocation_reason')})")
        suffix = f" [{' '.join(via)}]" if via else ""
        lines.append(
            f"outcome: plan={plan} optimal={optimal} ({verdict}){suffix}"
        )
    return "\n".join(lines)
