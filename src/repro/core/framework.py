"""The parametric plan-caching framework: the Figure-1 workflow.

A :class:`TemplateSession` owns everything the RDBMS keeps per query
template: the incremental histogram predictor (clustered plan-space
synopses), the performance monitor, and the plan cache.  It is
ONLINE-APPROXIMATE-LSH-HISTOGRAMS (Section IV-D): the synopsis starts
empty and learns from optimizer-verified points, and the online
policies (random exploration, negative and positive feedback) are
session methods next to the decision flow that calls them.  ``execute``
runs one query instance through the full decision flow:

1. validate the instance (NaN/inf/out-of-domain points are rejected
   with a clean :class:`~repro.exceptions.PredictionError`);
2. predict the plan from the clustered plan space;
3. decide whether to invoke the optimizer anyway (NULL prediction,
   random exploration, or plan missing from the cache);
4. execute; afterwards compare the observed cost against the synopsis
   estimate and — on a suspected misprediction — invoke the optimizer
   and feed the corrective point back (negative feedback);
5. update precision/recall estimators, trigger the drift response when
   estimated precision collapses.

The flow is **guarded**: a degraded component never takes down query
execution.  A predictor exception degrades to the optimizer (counted
in :mod:`repro.obs`).  Every optimizer call is one guarded step
(``_optimize``): retry with capped exponential backoff under a
deadline, behind a per-template circuit breaker.  When the optimizer
is unavailable (retries exhausted or breaker open), the session
answers in one step (``_serve_fallback``) from the fallback chain —

    prediction (if cached) → last served plan → most recent cached plan

— recording which source served and the suboptimality it accepted.
Only when that chain is empty (optimizer down before any plan was ever
cached) does execution fail, with
:class:`~repro.exceptions.ResilienceError`.

The plan-space oracle plays two roles, exactly as in the paper's
prototype: it is the black-box optimizer the session invokes, and it
supplies the experimenter's ground truth recorded in every
:class:`ExecutionRecord` (the session itself never peeks).  Ground
truth stays off the decision path: when the optimizer ran for an
instance, its answer *is* the ground truth; every other instance joins
the session's :class:`GroundTruthLedger` and is labelled later, in one
batch with the others pending — on the first read of its ground truth,
or when the ledger settles every :data:`SETTLE_EVERY` decisions.  Only
the degraded fallback path labels eagerly, to account the
suboptimality it accepted.

Every session reports into a :class:`~repro.obs.registry.MetricsRegistry`
(invocation reasons, drift events, feedback outcomes, degradations,
breaker state; the tracer books per-stage wall-clock); a framework
shares one registry across all its sessions.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from itertools import islice
from time import perf_counter

import numpy as np

from repro.buildinfo import VERSION, commit_id
from repro.config import PPCConfig
from repro.core.cache import PlanCache
from repro.core.feedback import CostFeedbackDetector
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.monitor import PerformanceMonitor
from repro.core.point import SamplePool
from repro.core.positive_feedback import PositiveFeedbackPolicy
from repro.core.predictor import Prediction
from repro.exceptions import PredictionError, ResilienceError
from repro.metrics.classification import PrecisionRecall, summarize
from repro.metrics.classification import PredictionOutcome
from repro.obs import MetricsRegistry, names as metric_names
from repro.obs.events import EventJournal
from repro.obs.profiling import StageProfiler
from repro.obs.quality import export_quality_gauges
from repro.obs.registry import Counter
from repro.obs.slo import DEFAULT_SLOS, SLOEngine
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import DecisionTrace, DecisionTracer
from repro.optimizer.plan_space import PlanSpace
from repro.resilience.breaker import BREAKER_STATE_VALUES, CircuitBreaker
from repro.resilience.clocks import system_clock, system_sleep
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import (
    RetryExhaustedError,
    RetryPolicy,
    retry_call,
)
from repro.rng import as_generator


#: Decisions between two scheduled settles of a session's ground-truth
#: ledger.  It bounds the ledger (at most this many unlabelled rows), the
#: lag of the telemetry that reads settled ground truth, and the slack of
#: the session's record window.
SETTLE_EVERY = 64


class ExecutionRecord:
    """Everything that happened for one query instance.

    ``optimal_plan`` and ``optimal_cost`` are the experimenter's ground
    truth.  When the optimizer ran for the instance they are its answer;
    otherwise the record is created pending, and the first read of
    ``optimal_plan``, ``optimal_cost``, ``correct`` or ``suboptimality``
    has the session's :class:`GroundTruthLedger` label every pending
    record in one batch.  Either way the values are bit-identical to an
    eager ``plan_space.label`` of ``point`` at decision time.  Records
    are read-only.

    A session keeps only a window of its records; a caller that needs a
    run's full history keeps the records ``execute`` returns.
    """

    __slots__ = (
        "_ledger",
        "_optimal_cost",
        "_optimal_plan",
        "confidence",
        "degraded",
        "drift_triggered",
        "execution_cost",
        "executed_plan",
        "fallback_source",
        "invocation_reason",
        "optimizer_invoked",
        "point",
        "predicted",
        "template",
    )

    def __init__(
        self,
        template: str,
        point: np.ndarray,
        predicted: "int | None",
        confidence: float,
        optimizer_invoked: bool,
        invocation_reason: str,
        executed_plan: int,
        execution_cost: float,
        optimal_plan: "int | None" = None,
        optimal_cost: "float | None" = None,
        drift_triggered: bool = False,
        degraded: bool = False,
        fallback_source: str = "",
        ledger: "GroundTruthLedger | None" = None,
    ) -> None:
        self.template = template
        self.point = point
        self.predicted = predicted
        self.confidence = confidence
        self.optimizer_invoked = optimizer_invoked
        self.invocation_reason = invocation_reason
        self.executed_plan = executed_plan
        self.execution_cost = execution_cost
        self.drift_triggered = drift_triggered
        #: A guarded component failed while serving this instance (the
        #: instance still executed, possibly suboptimally).
        self.degraded = degraded
        #: Which fallback source answered when the optimizer was
        #: unavailable ("" = the normal flow answered).
        self.fallback_source = fallback_source
        self._optimal_plan = optimal_plan
        self._optimal_cost = optimal_cost
        self._ledger = ledger

    def _resolve(self, plan: int, cost: float) -> None:
        """The ledger's answer for this pending record."""
        self._optimal_plan = plan
        self._optimal_cost = cost
        self._ledger = None

    @property
    def pending(self) -> bool:
        """True until the ledger has labelled this record."""
        return self._ledger is not None

    @property
    def optimal_plan(self) -> int:
        if self._ledger is not None:
            self._ledger.resolve()
        return self._optimal_plan

    @property
    def optimal_cost(self) -> float:
        if self._ledger is not None:
            self._ledger.resolve()
        return self._optimal_cost

    # The two below read the fields directly: the scorecard's rolling
    # window calls them for every record it covers.
    @property
    def correct(self) -> bool:
        """Ground-truth correctness of the prediction (experimenter view)."""
        if self._ledger is not None:
            self._ledger.resolve()
        return self.predicted is not None and self.predicted == self._optimal_plan

    @property
    def suboptimality(self) -> float:
        """Cost of what ran relative to the optimum (>= 1)."""
        if self._ledger is not None:
            self._ledger.resolve()
        if self._optimal_cost <= 0.0:
            return 1.0
        return self.execution_cost / self._optimal_cost


class GroundTruthLedger:
    """One session's experimenter ground truth, labelled after the fact.

    A decision that called the optimizer already holds its ground truth
    (the optimizer's answer); every other decision's record joins the
    ledger pending.  :meth:`resolve` labels all pending records in one
    bare ``plan_space.label`` call — batched labels are bitwise equal to
    per-point ones — and :meth:`settle` then books each unsettled
    record's regret into ``ppc_regret_total`` in decision order, so the
    counter sums exactly what per-decision accounting summed.  The same
    pass adds the record's outcome to :attr:`tally`, so the ledger's
    tally and :attr:`decisions` count cover the whole run, however few
    records the session keeps.  That count is ``ppc_executions_total``,
    booked by :meth:`add`: a decision that raises before its record
    exists counts nowhere.

    The session settles every :data:`SETTLE_EVERY` decisions, counted
    from its first, so the settle points depend on the decision count
    alone; an explicit read (a registry read, ``ground_truth_metrics``)
    settles early and leaves the schedule as it was.  Telemetry reads
    the counter's handle without settling, so it lags by at most
    :data:`SETTLE_EVERY` decisions.
    """

    __slots__ = (
        "_executions", "_label", "_pending", "_regret", "_rows", "_tally",
    )

    def __init__(
        self, label: Callable, regret: Counter, executions: Counter
    ) -> None:
        self._label = label
        self._regret = regret
        #: ``ppc_executions_total``: the one count of booked decisions.
        self._executions = executions
        #: Records whose regret is not yet booked, in decision order.
        self._rows: list[ExecutionRecord] = []
        #: The subset of ``_rows`` still waiting for a label.
        self._pending: list[ExecutionRecord] = []
        self._tally = PrecisionRecall(0, 0, 0)

    @property
    def decisions(self) -> int:
        """Decisions booked so far, settled or not."""
        return int(self._executions.value)

    @property
    def tally(self) -> PrecisionRecall:
        """Ground-truth precision/recall of every settled decision."""
        return self._tally

    @property
    def unsettled(self) -> int:
        return len(self._rows)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def add(self, record: ExecutionRecord) -> bool:
        """Book one decision; True when the schedule says settle now."""
        self._rows.append(record)
        if record.pending:
            self._pending.append(record)
        self._executions.inc()
        return self.decisions % SETTLE_EVERY == 0

    def resolve(self) -> None:
        """Label every pending record in one oracle call."""
        pending = self._pending
        if not pending:
            return
        ids, costs = self._label(np.stack([r.point for r in pending]))
        for record, plan, cost in zip(
            pending, ids.tolist(), costs.tolist(), strict=True
        ):
            record._resolve(plan, cost)
        pending.clear()

    def settle(self) -> None:
        """Resolve, then book every unsettled record's regret and
        outcome in order."""
        self.resolve()
        outcomes = []
        for record in self._rows:
            self._regret.inc(max(0.0, record.suboptimality - 1.0))
            outcomes.append(
                PredictionOutcome(record.predicted, record.optimal_plan)
            )
        self._tally += summarize(outcomes)
        self._rows.clear()


class TemplateSession:
    """Per-template plan-caching state and decision flow."""

    def __init__(
        self,
        plan_space: PlanSpace,
        config: "PPCConfig | None" = None,
        seed: "int | np.random.Generator | None" = 0,
        metrics: "MetricsRegistry | None" = None,
        fault_injector: "FaultInjector | None" = None,
        clock: "Callable[[], float] | None" = None,
        sleep: "Callable[[float], None] | None" = None,
        profiler: "StageProfiler | None" = None,
        events: "EventJournal | None" = None,
    ) -> None:
        self.plan_space = plan_space
        self.config = config or PPCConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        template = plan_space.template.name
        self._clock = clock if clock is not None else system_clock
        self._sleep = sleep if sleep is not None else system_sleep
        # Lifecycle event journal: a framework passes its shared journal
        # in; a standalone session builds its own when configured.
        # Disabled (the default) no journal exists and every emission
        # site below pays one ``is None`` check.
        if events is None and self.config.events.enabled:
            events = EventJournal(
                self.config.events, clock=self._clock, metrics=self.metrics
            )
        self.events = events
        self._events = events.bind(template) if events is not None else None
        self.retry_policy = RetryPolicy()
        self.breaker = CircuitBreaker(
            clock=self._clock, on_transition=self._on_breaker_transition
        )
        self.monitor = PerformanceMonitor(
            window=self.config.monitor_window,
            drift_threshold=self.config.drift_threshold,
            min_observations=self.config.drift_min_observations,
        )
        self.cache = PlanCache(
            self.config.cache_capacity,
            self.monitor,
            metrics=self.metrics,
            template=template,
        )
        # ONLINE-APPROXIMATE-LSH-HISTOGRAMS (Section IV-D): the synopsis
        # starts empty and learns only from the points this session
        # inserts.  One generator serves both random streams: the
        # transform ensemble draws from it first, then the exploration
        # coin of every decision.
        self._rng = as_generator(seed)
        self.predictor = HistogramPredictor(
            SamplePool(plan_space.dimensions),
            plan_count=plan_space.plan_count,
            transforms=self.config.transforms,
            resolution=self.config.resolution,
            max_buckets=self.config.max_buckets,
            radius=self.config.radius,
            confidence_threshold=self.config.confidence_threshold,
            noise_fraction=self.config.noise_fraction,
            histogram_kind="incremental",
            seed=self._rng,
        )
        self.detector = CostFeedbackDetector(self.config.cost_epsilon)
        self.positive_feedback: "PositiveFeedbackPolicy | None" = None
        if self.config.positive_feedback:
            self.positive_feedback = PositiveFeedbackPolicy(
                min_confidence=self.config.positive_feedback_min_confidence,
                weight=self.config.positive_feedback_weight,
                mass_cap_ratio=self.config.positive_feedback_mass_cap,
            )
        if self._events is not None:
            # Binding journals one ``histogram_built`` (the synopsis
            # going live); the cache emits evictions with the prec/rec
            # scores that chose the victim.
            self.predictor.bind_events(self._events)
            self.cache.bind_events(self._events)
        if profiler is None and self.config.profiling.enabled:
            profiler = StageProfiler(self.config.profiling)
        self.profiler = profiler
        self.tracer = DecisionTracer(
            template,
            config=self.config.trace,
            metrics=self.metrics,
            profiler=self.profiler,
        )
        #: The newest records: the scorecard's ``quality_window`` settled
        #: ones plus the at most ``SETTLE_EVERY - 1`` still unsettled.
        self.records: deque[ExecutionRecord] = deque(
            maxlen=self.config.telemetry.quality_window + SETTLE_EVERY
        )
        self._last_plan_id: "int | None" = None

        # Fault-injectable call surfaces: the optimizer, the predictor's
        # predict, and its insert.  Without an injector these are the
        # bare bound methods (zero overhead).
        if fault_injector is not None:
            self._label = fault_injector.wrap("optimizer", plan_space.label)
            self._predict = fault_injector.wrap(
                "predictor", self._predict_point
            )
            self._observe = fault_injector.wrap(
                "predictor_insert", self.observe
            )
        else:
            self._label = plan_space.label
            self._predict = self._predict_point
            self._observe = self.observe

        # Stable metric handles: fetched once, updated lock-free in the
        # hot path below.  Stage timings are the tracer's: its span seam
        # feeds them (``repro.obs.names.SPAN_METRICS``).
        self._reason_counters = self.metrics.family(
            metric_names.INVOCATIONS_TOTAL, template=template
        )
        self._feedback_counters = self.metrics.family(
            metric_names.POSITIVE_FEEDBACK_TOTAL, template=template
        )
        self._drift_counter = self.metrics.counter(
            metric_names.DRIFT_EVENTS_TOTAL, template=template
        )
        self._degraded_counters = self.metrics.family(
            metric_names.DEGRADED_TOTAL, template=template
        )
        self._fallback_counters = self.metrics.family(
            metric_names.FALLBACK_SERVED_TOTAL, template=template
        )
        self._rejected_counters = self.metrics.family(
            metric_names.REJECTED_INSTANCES_TOTAL, template=template
        )
        self._retries_counter = self.metrics.counter(
            metric_names.OPTIMIZER_RETRIES_TOTAL, template=template
        )
        # Ground truth leaves the decision path: the ledger labels with
        # the bare oracle (never the fault-wrapped optimizer surface) and
        # books regret when it settles.  A registry read settles it, so
        # ``ppc_regret_total`` is exact whenever anyone asks.  An oracle
        # that can change (a manipulated plan space) has the ledger label
        # its pending records against the truth they were served under.
        self._ledger = GroundTruthLedger(
            plan_space.label,
            self.metrics.counter(metric_names.REGRET_TOTAL, template=template),
            self.metrics.counter(
                metric_names.EXECUTIONS_TOTAL, template=template
            ),
        )
        self.metrics.add_settler(self._ledger.settle)
        before_change = getattr(plan_space, "before_change", None)
        if before_change is not None:
            before_change(self._ledger.resolve)
        self._fallback_suboptimality = self.metrics.histogram(
            metric_names.FALLBACK_SUBOPTIMALITY, template=template
        )
        self._breaker_gauge = self.metrics.gauge(
            metric_names.BREAKER_STATE, template=template
        )
        self._breaker_transition_counters = self.metrics.family(
            metric_names.BREAKER_TRANSITIONS_TOTAL, template=template
        )

    def _on_breaker_transition(self, state: str) -> None:
        self._breaker_gauge.set(BREAKER_STATE_VALUES[state])
        self._breaker_transition_counters[state].inc()
        if self._events is not None:
            self._events("breaker_transition", state=state)

    # ------------------------------------------------------------------
    # The online policies (Section IV-D)
    # ------------------------------------------------------------------
    def observe(
        self,
        x: np.ndarray,
        plan_id: int,
        cost: float,
        provenance: str = "direct",
        z: "np.ndarray | None" = None,
    ) -> None:
        """Insert a truly optimized (verified) point into the synopsis.

        ``provenance`` names the decision-flow origin of the point
        (cache miss, exploration, negative feedback, ...) and flows
        through to the ``point_inserted`` lifecycle event; it never
        affects the insert.  ``z`` hands over the point's z-values from
        the decision's predict (see :meth:`HistogramPredictor.insert`).
        """
        self.predictor.insert(x, plan_id, cost, provenance=provenance, z=z)
        if self.positive_feedback is not None:
            self.positive_feedback.record_verified()

    def should_explore(self, prediction: Prediction) -> bool:
        """Random exploration: invoke the optimizer despite a prediction.

        The invocation probability is the mean probability ``p`` scaled
        by how unsure the prediction is, ``2 p (1 - confidence)``, so a
        50 %-confidence prediction is explored at exactly the mean rate
        and a fully confident one almost never.  ``p = 0`` draws no
        coin.
        """
        mean = self.config.mean_invocation_probability
        if mean == 0.0:
            return False
        probability = min(1.0, 2.0 * mean * (1.0 - prediction.confidence))
        return bool(self._rng.random() < probability)

    def suspect_error(
        self, prediction: Prediction, observed_cost: float
    ) -> bool:
        """Negative feedback: does the observed execution cost
        contradict the synopsis cost estimate?"""
        if not self.config.negative_feedback:
            return False
        return self.detector.is_erroneous(
            prediction.estimated_cost, observed_cost
        )

    def offer_unverified(
        self,
        x: np.ndarray,
        prediction: Prediction,
        observed_cost: float,
        z: "np.ndarray | None" = None,
    ) -> bool:
        """Offer an executed-but-unverified prediction as positive
        feedback.

        Accepted only when a positive-feedback policy is configured and
        its checks and balances pass; the point then enters the synopsis
        at the policy's discounted weight.  Returns whether the point
        was inserted.  ``z`` is the point's z-values, as for
        :meth:`observe`.
        """
        policy = self.positive_feedback
        if policy is None or not policy.should_insert(prediction):
            return False
        self.predictor.insert(
            x,
            prediction.plan_id,
            observed_cost,
            weight=policy.weight,
            provenance="positive_feedback",
            z=z,
        )
        return True

    def forget(self) -> None:
        """Start learning from scratch: drop the synopsis, reset the
        positive-feedback policy and the monitor, and clear the cache.
        The drift response and the memory governor's drop both take
        this one step."""
        self.predictor.drop()
        if self.positive_feedback is not None:
            self.positive_feedback.reset()
        self.monitor.reset()
        self.cache.clear()

    # ------------------------------------------------------------------
    # The decision flow
    # ------------------------------------------------------------------
    def _validate_point(self, x: np.ndarray) -> np.ndarray:
        """Reject malformed instances before they enter the flow.

        NaN poisons every density estimate downstream (NaN comparisons
        are silently false), so the guard runs up front and raises a
        clean :class:`PredictionError`, counted per rejection reason.

        A well-formed point passes one check in Python floats (NaN
        fails ``0.0 <= v <= 1.0`` too); any other falls through to the
        classifying checks, one of which raises.  The predict stage
        then skips the predictor's own point check.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] == self.plan_space.dimensions:
            for value in x.tolist():
                if not 0.0 <= value <= 1.0:
                    break
            else:
                return x
        if x.shape[0] != self.plan_space.dimensions:
            self._rejected_counters["bad_shape"].inc()
            raise PredictionError(
                f"expected a {self.plan_space.dimensions}-dimensional "
                f"point, got {x.shape[0]}"
            )
        if not np.isfinite(x).all():
            self._rejected_counters["non_finite"].inc()
            raise PredictionError(
                "plan-space point contains NaN or infinity"
            )
        if (x < 0.0).any() or (x > 1.0).any():
            self._rejected_counters["out_of_domain"].inc()
            raise PredictionError(
                "plan-space point must lie in [0, 1]^r"
            )
        return x

    def _optimize(
        self,
        trace: DecisionTrace,
        x: np.ndarray,
        reason: str,
        z: "np.ndarray | None",
        prediction: "Prediction | None",
    ) -> "tuple[int, float] | None":
        """Guarded black-box optimizer call, in an ``optimize`` span of
        ``trace`` opened wherever the caller stands: at the decision
        level for an invocation reason, under ``feedback`` for the
        negative-feedback verify.

        Behind the circuit breaker, with retry + capped exponential
        backoff under the configured deadline.  Returns the true
        (plan id, cost) at ``x`` — inserted into the synopses and the
        plan cache, and recorded by the monitor against ``prediction``
        — or ``None`` when the optimizer is unavailable (breaker open,
        or every attempt failed).  An answered call books ``reason`` on
        ``ppc_optimizer_invocations_total{reason}``, and the insert
        journals it as the point's provenance; it never affects the
        decision.  ``z`` is the point's z-values from the decision's
        predict, handed to the insert (``None``: the insert makes its
        own pass).  A traced span records the reason, the breaker state
        before and after, the retries spent, and the answer.
        """
        outcome = None
        with trace.span("optimize") as span:
            if trace.active:
                span.set(reason=reason, breaker_before=self.breaker.state)
            retries_before = self._retries_counter.value
            if self.breaker.allow():
                try:
                    ids, costs = retry_call(
                        lambda: self._label(x[None, :]),
                        self.retry_policy,
                        clock=self._clock,
                        sleep=self._sleep,
                        on_retry=self._retries_counter.inc,
                    )
                except RetryExhaustedError:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
                    self._reason_counters[reason].inc()
                    outcome = plan_id, cost = int(ids[0]), float(costs[0])
                    try:
                        self._observe(x, plan_id, cost, provenance=reason, z=z)
                    except Exception:
                        # A lost training point degrades learning, never
                        # execution.
                        self._degraded_counters["predictor_insert"].inc()
                    self.cache.put(plan_id, self.plan_space.plan(plan_id))
            if outcome is None:
                self._degraded_counters["optimizer"].inc()
            if trace.active:
                span.set(
                    breaker_after=self.breaker.state,
                    retries=int(self._retries_counter.value - retries_before),
                    available=outcome is not None,
                )
                if outcome is not None:
                    span.set(plan=outcome[0], cost=outcome[1])
        if outcome is not None:
            if prediction is None:
                self.monitor.record_null()
            else:
                self.monitor.record_prediction(
                    prediction.plan_id, prediction.plan_id == outcome[0]
                )
        return outcome

    def _serve_fallback(
        self,
        trace: DecisionTrace,
        x: np.ndarray,
        prediction: "Prediction | None",
    ) -> "tuple[tuple[int, float], int, float, str]":
        """The optimizer is unavailable: serve the best plan we hold.

        Preference order: the current prediction if its plan is still
        cached, then the plan served for the previous instance, then
        the most recently used resident plan.  Raises
        :class:`ResilienceError` only when the cache is empty — before
        the first successful optimization there is nothing to serve.
        Returns the ground truth, labelled eagerly to account the
        suboptimality accepted, the plan, its cost and its source.
        """
        with trace.span("ground_truth"):
            true_ids, true_costs = self.plan_space.label(x[None, :])
        truth = int(true_ids[0]), float(true_costs[0])
        with trace.span("fallback") as span:
            if prediction is not None and prediction.plan_id in self.cache:
                self.cache.get(prediction.plan_id)
                plan, source = prediction.plan_id, "prediction"
            elif self._last_plan_id is not None and self._last_plan_id in self.cache:
                self.cache.get(self._last_plan_id)
                plan, source = self._last_plan_id, "last_plan"
            else:
                plan, source = self.cache.most_recent(), "cache"
                if plan is None:
                    raise ResilienceError(
                        f"optimizer unavailable for template "
                        f"{self.plan_space.template.name!r} and the plan "
                        "cache is empty: no executable plan exists"
                    )
            cost = float(self.plan_space.cost_at(x[None, :], plan)[0])
            accepted = cost / truth[1] if truth[1] > 0.0 else 1.0
            if trace.active:
                span.set(source=source, plan=plan, suboptimality=accepted)
        self._fallback_counters[source].inc()
        if self._events is not None:
            self._events("fallback_served", source=source, plan=int(plan))
        self._fallback_suboptimality.observe(accepted)
        return truth, plan, cost, source

    def execute(self, x: np.ndarray) -> ExecutionRecord:
        """Run one query instance through the PPC workflow."""
        trace = self.tracer.begin()
        return self._run(x, trace)

    def execute_batch(self, points: np.ndarray) -> list[ExecutionRecord]:
        """Run a batch of instances, sharing the block's z pass.

        Lockstep-equivalent to calling :meth:`execute` per point —
        bit-for-bit identical records, counters, RNG consumption and
        fault rolls — because every row runs the scalar decision flow.
        Each insert changes the synopsis the next lookup reads, so the
        only work a block shares is the z pass, a pure function of the
        point: one stacked pass over the block
        (:meth:`_prefetch_predictions`), whose time is charged to the
        rows' predict spans in even shares.  Each row then makes its own
        lookup and decide through the fault-wrapped ``predictor``
        surface, once per row as sequential execution does.

        Traced rows ignore the shared z-values and transform their own
        point, so their span tree keeps its ``z_values`` span.  A block
        holding a malformed row runs none of its rows: the block check
        (:meth:`_checked_block`) raises first.
        """
        points = self._checked_block(points)
        if not points.shape[0]:
            return []
        started = perf_counter()
        z_values = self._prefetch_predictions(points)
        share = (perf_counter() - started) / points.shape[0]
        return [
            self._run(x, self.tracer.begin(), z_values[:, row], share)
            for row, x in enumerate(points)
        ]

    def _checked_block(self, points: np.ndarray) -> np.ndarray:
        """``points`` as an ``(m, r)`` float block whose every row is
        well-formed (``r`` wide, finite, in ``[0, 1]``), checked before
        any row runs.  A block that is not two-dimensional raises.  A
        block with a malformed row raises what :meth:`execute` of its
        first such row would, through :meth:`_validate_point`, so the
        rejection is counted once."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise PredictionError(
                f"execute_batch expects an (m, "
                f"{self.plan_space.dimensions}) batch, got shape "
                f"{points.shape}"
            )
        if points.shape[1] != self.plan_space.dimensions or not (
            (points >= 0.0) & (points <= 1.0)
        ).all():
            for x in points:
                self._validate_point(x)
        return points

    def _prefetch_predictions(self, points: np.ndarray) -> np.ndarray:
        """The z-values ``(t, m)`` of a checked block's rows
        (:meth:`_checked_block`) in one stacked pass, on the tracer's
        inactive trace, whose ``z_values`` span feeds the stage
        metric."""
        with self.tracer.inactive.span("z_values"):
            return self.predictor._z_values_batch(points)

    def explain(self, x: np.ndarray) -> DecisionTrace:
        """Run one instance fully traced; returns its decision trace.

        Bypasses the sampler (decision ``forced``) but is otherwise a
        normal execution: the session's state advances exactly as an
        untraced ``execute`` would (sampling consumes no RNG), which is
        what the explain/execute parity test pins down.  The produced
        :class:`ExecutionRecord` is the newest of ``self.records``
        (``self.records[-1]``); its summary is the trace's ``outcome``.
        """
        trace = self.tracer.begin(force=True)
        self._run(x, trace)
        return trace

    def _run(
        self,
        x: np.ndarray,
        trace: DecisionTrace,
        z: "np.ndarray | None" = None,
        predict_seconds: float = 0.0,
    ) -> ExecutionRecord:
        """Drive one decision, sealing the trace on every exit path."""
        if self._events is not None:
            # Cross-link: lifecycle events emitted while this decision
            # runs carry the active trace seq (None when unsampled).
            self._events.set_trace(trace.seq)
        try:
            record = self._decide_and_execute(x, trace, z, predict_seconds)
        except BaseException as exc:
            self.tracer.finish(trace, error=exc)
            raise
        self.tracer.finish(trace, record=record)
        return record

    def _predict_point(
        self, x: np.ndarray, trace: DecisionTrace, z: "np.ndarray | None" = None
    ) -> "tuple[np.ndarray, Prediction | None]":
        """The predict stage of one decision: the predictor's z pass,
        then its one-point lookup and decide
        (:meth:`HistogramPredictor.predict_z`).  Returns the point's
        ``(t,)`` z-values, which every insert the decision makes reuses,
        and the prediction.  ``x`` is checked already
        (:meth:`_validate_point`), so the z pass is the predictor's
        unchecked one, in the same ``z_values`` span as
        :meth:`HistogramPredictor.z_values` opens.  ``z`` hands over the
        z-values of a block's shared pass (:meth:`execute_batch`); an
        active trace ignores it and makes its own pass, so its span tree
        keeps the ``z_values`` span."""
        predictor = self.predictor
        if z is None or trace.active:
            with trace.span("z_values"):
                z = predictor._z_values_batch(x[None, :])[:, 0]
        return z, predictor.predict_z(z, trace)

    def _decide_and_execute(
        self,
        x: np.ndarray,
        trace: DecisionTrace,
        z: "np.ndarray | None" = None,
        predict_seconds: float = 0.0,
    ) -> ExecutionRecord:
        """The Figure-1 decision flow, one span per stage of ``trace``.

        The spans are the only timing on this path: the trace's seam
        feeds the stage metrics, the profiler and (sampled) the span
        tree.  All trace attribute computation hides behind
        ``trace.active`` so the unsampled path stays behaviorally and
        metrically identical to the untraced flow — and allocates no
        span.

        ``z`` (from :meth:`execute_batch`) is the point's z-values from
        the block's shared z pass, and ``predict_seconds`` this
        instance's share of that pass, charged to the predict span; the
        lookup and decide are the row's own (:meth:`_predict_point`).
        The z-values go to every insert the decision makes, so the
        point is transformed once.

        Ground truth is the optimizer's answer when it ran; the fallback
        path labels eagerly to account the suboptimality it accepted;
        any other record is left to the ledger, which settles inside a
        ``ground_truth`` span every :data:`SETTLE_EVERY` decisions.
        """
        with trace.span("normalize"):
            x = self._validate_point(x)
            if trace.active:
                trace.point = [float(v) for v in x]
                trace.annotate(dimensions=int(x.shape[0]))
        # Experimenter-side ground truth, (plan, cost) once known.
        truth: "tuple[int, float] | None" = None

        degraded = False
        fallback_source = ""
        with trace.span("predict") as predict_span:
            trace.charge(predict_seconds)
            try:
                z_values, prediction = self._predict(x, trace, z)
            except Exception:
                # A broken predictor degrades to the optimizer path.
                z_values = prediction = None
                degraded = True
                self._degraded_counters["predictor"].inc()
                predict_span.set(
                    degraded=True, status_detail="predictor raised"
                )
            if trace.active:
                if prediction is None:
                    predict_span.set(plan=None)
                else:
                    predict_span.set(
                        plan=prediction.plan_id,
                        confidence=prediction.confidence,
                        estimated_cost=prediction.estimated_cost,
                    )

        with trace.span("decide") as decide_span:
            reason = ""
            if prediction is None:
                reason = "null_prediction"
            elif self.should_explore(prediction):
                reason = "exploration"
            elif self.cache.get(prediction.plan_id) is None:
                # The one real lookup: it books the hit or the miss.
                reason = "cache_miss"
            if trace.active:
                # Membership via ``in`` is accounting-free.
                decide_span.set(
                    action=reason or "serve_prediction",
                    plan_cached=prediction is not None
                    and prediction.plan_id in self.cache,
                )

        if reason:
            truth = self._optimize(trace, x, reason, z_values, prediction)
            if truth is not None:
                executed_plan, execution_cost = truth
            else:
                # Optimizer down: answer from the fallback chain.  The
                # estimators see nothing — there is no verified signal.
                degraded = True
                truth, executed_plan, execution_cost, fallback_source = (
                    self._serve_fallback(trace, x, prediction)
                )
        else:
            executed_plan = prediction.plan_id
            with trace.span("execute_plan") as execute_span:
                execution_cost = float(
                    self.plan_space.cost_at(x[None, :], executed_plan)[0]
                )
                if trace.active:
                    execute_span.set(plan=executed_plan, cost=execution_cost)
            with trace.span("feedback") as feedback_span:
                suspect = self.suspect_error(prediction, execution_cost)
                if trace.active:
                    feedback_span.set(
                        estimated_cost=prediction.estimated_cost,
                        observed_cost=execution_cost,
                        suspect=suspect,
                    )
                if suspect:
                    reason = "negative_feedback"
                    truth = self._optimize(trace, x, reason, z_values, prediction)
                    if truth is None:
                        # Optimizer down: the suspicion stays
                        # unverified; the executed plan stands and the
                        # estimators see nothing.
                        degraded = True
                        if trace.active:
                            feedback_span.set(verified=False)
                    elif trace.active:
                        feedback_span.set(verified_plan=truth[0])
                else:
                    # No ground truth available: the cost estimator
                    # believes the prediction, and the estimators record
                    # that belief.
                    self.monitor.record_prediction(prediction.plan_id, True)
                    # Trusted execution: optionally offer the point as
                    # positive feedback (discounted + capped by the
                    # policy).
                    try:
                        inserted = self.offer_unverified(
                            x, prediction, execution_cost, z_values
                        )
                    except Exception:
                        inserted = False
                        degraded = True
                        self._degraded_counters["predictor_insert"].inc()
                    if self.positive_feedback is not None:
                        outcome_label = "accepted" if inserted else "rejected"
                        self._feedback_counters[outcome_label].inc()
                        if trace.active:
                            feedback_span.set(
                                positive_feedback=outcome_label
                            )

        drift = False
        if self.config.drift_response:
            with trace.span("drift_check"):
                drift = self.monitor.drift_detected()
        if drift:
            self._drift_counter.inc()
            with trace.span("drift") as drift_span:
                if self._events is not None:
                    # Journal the pre-drop picture: the monitor scores
                    # that tripped the response and what it wiped out.
                    self._events(
                        "drift_drop",
                        precision=float(self.monitor.precision_estimate),
                        recall=float(self.monitor.recall_estimate),
                        cached_plans=len(self.cache),
                        points_held=self.predictor.total_points,
                    )
                self.forget()
                if trace.active:
                    drift_span.set(
                        response=["drop_synopses", "reset_monitor", "clear_cache"]
                    )

        with trace.span("record"):
            record = ExecutionRecord(
                template=self.plan_space.template.name,
                point=x,
                predicted=None if prediction is None else prediction.plan_id,
                confidence=0.0 if prediction is None else prediction.confidence,
                optimizer_invoked=truth is not None and not fallback_source,
                invocation_reason=reason,
                executed_plan=executed_plan,
                execution_cost=execution_cost,
                optimal_plan=None if truth is None else truth[0],
                optimal_cost=None if truth is None else truth[1],
                drift_triggered=drift,
                degraded=degraded,
                fallback_source=fallback_source,
                ledger=self._ledger if truth is None else None,
            )
            self._last_plan_id = executed_plan
            self.records.append(record)
            settle = self._ledger.add(record)
        if settle:
            with trace.span("ground_truth"):
                self._ledger.settle()
        return record

    def stats(self) -> dict:
        """This template's block of ``service.metrics()``: counts and
        latency digests read from the handles the session holds, and
        the tracer's span histograms read from the registry by name."""

        template = self.plan_space.template.name

        def counts(counters: "dict[str, Counter]") -> "dict[str, int]":
            return {key: int(counter.value) for key, counter in counters.items()}

        def summary(name: str, **labels) -> dict:
            return self.metrics.histogram(name, template=template, **labels).summary()

        cache = self.cache
        return {
            "executions": self.decisions,
            "stage_seconds": {
                stage: summary(metric_names.STAGE_SECONDS, stage=stage)
                for stage in metric_names.STAGES
            },
            "invocation_reasons": counts(self._reason_counters),
            "optimizer_invocations": self.optimizer_invocations,
            "positive_feedback": counts(self._feedback_counters),
            "drift_events": self.drift_events,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
                "size": len(cache),
            },
            "predictor": {
                "transform_seconds": summary(metric_names.PREDICT_TRANSFORM_SECONDS),
                "range_query_seconds": summary(
                    metric_names.PREDICT_RANGE_QUERY_SECONDS
                ),
            },
            "synopsis_bytes": self.predictor.space_bytes(),
            "resilience": {
                "breaker_state": self.breaker.state,
                "breaker_transitions": counts(
                    self._breaker_transition_counters
                ),
                "degraded": counts(self._degraded_counters),
                "fallback_served": counts(self._fallback_counters),
                "rejected_instances": counts(self._rejected_counters),
                "optimizer_retries": int(self._retries_counter.value),
                "fallback_suboptimality": (
                    self._fallback_suboptimality.summary()
                ),
            },
            "trace": self.tracer.stats(),
        }

    @property
    def optimizer_invocations(self) -> int:
        """Optimizer calls that answered: the sum of
        ``ppc_optimizer_invocations_total`` over its reasons."""
        return int(sum(c.value for c in self._reason_counters.values()))

    @property
    def drift_events(self) -> int:
        """Drift responses fired (``ppc_drift_events_total``)."""
        return int(self._drift_counter.value)

    # ------------------------------------------------------------------
    # Experimenter-side accounting
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> int:
        """Decisions recorded so far: the ledger's count."""
        return self._ledger.decisions

    def settled_records(self) -> list[ExecutionRecord]:
        """The last ``quality_window`` records whose ground truth has
        settled: what telemetry reads, so it never forces a label."""
        end = len(self.records) - self._ledger.unsettled
        start = max(0, end - self.config.telemetry.quality_window)
        return list(islice(self.records, start, end))

    def ground_truth_metrics(self) -> PrecisionRecall:
        """True precision/recall of all predictions so far."""
        self._ledger.settle()
        return self._ledger.tally


class PPCFramework:
    """Multi-template facade: one session per query template.

    With ``memory_budget_bytes`` set, a
    :class:`~repro.core.governor.MemoryGovernor` keeps the combined
    synopsis footprint of all sessions under the budget, reclaiming
    from the coldest templates first (enforced every
    ``governor_interval`` executions).

    Each registered template receives an independently seeded random
    stream spawned from the framework seed (via
    :class:`numpy.random.SeedSequence`), so templates never share LSH
    transform ensembles or correlated exploration coin-flips, while the
    whole multi-template run stays reproducible from one seed.
    """

    def __init__(
        self,
        config: "PPCConfig | None" = None,
        seed: "int | np.random.Generator | None" = 0,
        memory_budget_bytes: "int | None" = None,
        governor_interval: int = 32,
        metrics: "MetricsRegistry | None" = None,
        fault_injector: "FaultInjector | None" = None,
        clock: "Callable[[], float] | None" = None,
        sleep: "Callable[[float], None] | None" = None,
    ) -> None:
        self.config = config or PPCConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fault_injector = fault_injector
        self._clock = clock
        self._sleep = sleep
        if isinstance(seed, np.random.Generator):
            self._seed_root: "np.random.Generator | np.random.SeedSequence" = (
                seed
            )
        else:
            self._seed_root = np.random.SeedSequence(seed)
        self.sessions: dict[str, TemplateSession] = {}
        # One shared stage profiler, so report()/collapsed() aggregate
        # across every template of the deployment.  Disabled → None:
        # the tracer seam stays exactly as it was without the feature.
        self.profiler: "StageProfiler | None" = (
            StageProfiler(self.config.profiling)
            if self.config.profiling.enabled
            else None
        )
        # One shared lifecycle event journal, so sequence numbers give
        # a total order across every template of the deployment (the
        # merge story sharded serving will need).  Disabled → None: no
        # session or predictor holds an emitter.
        self.events: "EventJournal | None" = (
            EventJournal(
                self.config.events,
                clock=clock if clock is not None else system_clock,
                metrics=self.metrics,
            )
            if self.config.events.enabled
            else None
        )
        # Build identity: constant 1-valued gauge carrying version and
        # commit labels, so every scrape says exactly what code
        # produced it.
        self.metrics.gauge(
            metric_names.BUILD_INFO, version=VERSION, commit=commit_id()
        ).set(1.0)
        self.governor = None
        if memory_budget_bytes is not None:
            from repro.core.governor import MemoryGovernor

            self.governor = MemoryGovernor(
                memory_budget_bytes, metrics=self.metrics
            )
        self.governor_interval = governor_interval
        self._executions = 0

        # Windowed telemetry: time-series sampler + SLO burn-rate
        # engine, both on the injected clock.  Disabled, they cost
        # nothing — not even the per-execute clock read.
        telemetry_config = self.config.telemetry
        self.telemetry: "TimeSeriesStore | None" = None
        self.slo_engine: "SLOEngine | None" = None
        if telemetry_config.enabled:
            self.telemetry = TimeSeriesStore(
                self.metrics,
                clock=clock if clock is not None else system_clock,
                interval=telemetry_config.sample_interval,
            )
            self.slo_engine = SLOEngine(
                self.telemetry, DEFAULT_SLOS, self.metrics
            )

    def _spawn_seed(self) -> np.random.Generator:
        """An independent per-template stream off the framework seed."""
        child = self._seed_root.spawn(1)[0]
        if isinstance(child, np.random.Generator):
            return child
        return np.random.default_rng(child)

    def register(self, plan_space: PlanSpace) -> TemplateSession:
        """Start plan caching for a template."""
        session = TemplateSession(
            plan_space,
            self.config,
            self._spawn_seed(),
            metrics=self.metrics,
            fault_injector=self.fault_injector,
            clock=self._clock,
            sleep=self._sleep,
            profiler=self.profiler,
            events=self.events,
        )
        self.sessions[plan_space.template.name] = session
        if self.governor is not None:
            self.governor.register(session)
        return session

    def session(self, template_name: str) -> TemplateSession:
        return self.sessions[template_name]

    def execute(self, template_name: str, x: np.ndarray) -> ExecutionRecord:
        """Run one instance of a registered template."""
        record = self.sessions[template_name].execute(x)
        self._after_execution(template_name)
        return record

    def execute_batch(
        self, template_name: str, points: np.ndarray
    ) -> list[ExecutionRecord]:
        """Run a batch of instances of one template.

        Without a memory governor this is the session's batch path —
        one shared z pass per block, then each row's scalar decision
        (:meth:`TemplateSession.execute_batch`) — plus one telemetry
        tick per record, lockstep-identical to sequential
        :meth:`execute` calls.  With a governor, its touch and every
        ``governor_interval``-th enforcement must run between instances
        at exactly the sequential cadence, so the batch takes the
        sequential path, after the same block check: either way a
        malformed block raises the same error before any row runs.
        """
        if self.governor is not None:
            points = self.sessions[template_name]._checked_block(points)
            return [self.execute(template_name, x) for x in points]
        records = self.sessions[template_name].execute_batch(points)
        for __ in records:
            self._telemetry_tick()
        return records

    def explain(self, template_name: str, x: np.ndarray) -> DecisionTrace:
        """Run one instance fully traced and return its decision trace."""
        trace = self.sessions[template_name].explain(x)
        self._after_execution(template_name)
        return trace

    def _after_execution(self, template_name: str) -> None:
        """The post-execution step of :meth:`execute` and
        :meth:`explain`: the memory governor's touch (and, every
        ``governor_interval`` executions, its enforcement), then one
        telemetry tick."""
        if self.governor is not None:
            self.governor.touch(template_name)
            self._executions += 1
            if self._executions % self.governor_interval == 0:
                self.governor.enforce()
        self._telemetry_tick()

    def _telemetry_tick(self) -> None:
        """Post-execution telemetry hook: one clock read when idle.

        When the sample interval elapsed, snapshots every metric into
        the ring series; every ``quality_every``-th snapshot also
        refreshes the per-template scorecard gauges (the synopsis scan,
        deliberately the rarest step).  Strictly read-only over session
        state — the lockstep parity test pins that down.
        """
        if self.telemetry is None:
            return
        if not self.telemetry.maybe_sample():
            return
        config = self.config.telemetry
        if self.telemetry.sample_count % config.quality_every == 0:
            self.refresh_quality()

    def refresh_quality(self) -> "dict[str, dict]":
        """Recompute every session's scorecard gauges; scorecards by
        template."""
        return {
            name: export_quality_gauges(session, self.metrics)
            for name, session in self.sessions.items()
        }

    def profile_report(self) -> "dict | None":
        """Aggregated stage-profiler report, or ``None`` when disabled."""
        if self.profiler is None:
            return None
        return self.profiler.report()

    def lineage(self) -> "LineageEngine | None":
        """A lineage engine over the shared lifecycle journal, or
        ``None`` when the event journal is disabled."""
        if self.events is None:
            return None
        from repro.obs.lineage import LineageEngine

        return LineageEngine(self.events.events())

    @property
    def clock_source(self) -> str:
        """Which clock times the resilience machinery (not wall-clock
        by contract — tests and storms inject a ``VirtualClock``)."""
        if self._clock is None:
            return "repro.resilience.clocks.system_clock"
        name = getattr(self._clock, "__qualname__", None)
        if name is None:
            name = type(self._clock).__name__
        return name

    @property
    def optimizer_invocations(self) -> int:
        return sum(s.optimizer_invocations for s in self.sessions.values())

    @property
    def space_bytes(self) -> int:
        """Combined synopsis footprint of all sessions."""
        return sum(
            s.predictor.space_bytes() for s in self.sessions.values()
        )
