"""End-to-end plan-caching service: the adopter-facing facade.

Everything below this module works in normalized plan-space
coordinates; real applications submit *query instances* with actual
parameter values.  :class:`PlanCachingService` closes that gap: it owns
the catalog, the statistics, one plan-space oracle + PPC session per
registered template, and the binders that map parameter values to
plan-space points — so the caller's entire API surface is
``register(template)`` and ``execute(instance)``.

    service = PlanCachingService.tpch(seed=0)
    service.register("Q1")
    record = service.execute(QueryInstance("Q1", (1480.0, 103_000.0)))
    record.executed_plan, record.optimizer_invoked

An optional memory budget applies the multi-template governor across
all registered templates.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.config import PPCConfig
from repro.core.framework import ExecutionRecord, PPCFramework
from repro.obs.tracing import DecisionTrace
from repro.exceptions import ConfigurationError, WorkloadError
from repro.obs import names as metric_names, render_prometheus
from repro.obs.quality import compute_scorecard
from repro.optimizer.catalog import Catalog
from repro.optimizer.expressions import QueryTemplate
from repro.optimizer.plan_space import PlanSpace
from repro.optimizer.statistics import CatalogStatistics
from repro.resilience.faults import FaultInjector
from repro.tpch import build_catalog, build_statistics, query_template
from repro.workload.template import QueryInstance, TemplateBinder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.lineage import LineageEngine


class PlanCachingService:
    """Value-level plan caching over a catalog with statistics."""

    def __init__(
        self,
        catalog: Catalog,
        statistics: CatalogStatistics,
        config: "PPCConfig | None" = None,
        memory_budget_bytes: "int | None" = None,
        seed: int = 0,
        fault_injector: "FaultInjector | None" = None,
        clock: "Callable[[], float] | None" = None,
        sleep: "Callable[[float], None] | None" = None,
    ) -> None:
        if statistics.catalog is not catalog:
            raise ConfigurationError(
                "statistics must be built over the same catalog"
            )
        self.catalog = catalog
        self.statistics = statistics
        self.framework = PPCFramework(
            config,
            seed=seed,
            memory_budget_bytes=memory_budget_bytes,
            fault_injector=fault_injector,
            clock=clock,
            sleep=sleep,
        )
        self._binders: dict[str, TemplateBinder] = {}
        self._seed = seed

    @classmethod
    def tpch(
        cls,
        scale_factor: float = 1.0,
        config: "PPCConfig | None" = None,
        memory_budget_bytes: "int | None" = None,
        seed: int = 0,
        fault_injector: "FaultInjector | None" = None,
        clock: "Callable[[], float] | None" = None,
        sleep: "Callable[[float], None] | None" = None,
    ) -> "PlanCachingService":
        """A service over the modified TPC-H catalog of Appendix A."""
        catalog = build_catalog(scale_factor)
        statistics = build_statistics(catalog, seed=seed)
        return cls(
            catalog,
            statistics,
            config=config,
            memory_budget_bytes=memory_budget_bytes,
            seed=seed,
            fault_injector=fault_injector,
            clock=clock,
            sleep=sleep,
        )

    # ------------------------------------------------------------------
    # Template lifecycle
    # ------------------------------------------------------------------
    def register(
        self, template: "QueryTemplate | str"
    ) -> None:
        """Start plan caching for a template (name = a TPC-H Q0-Q8)."""
        if isinstance(template, str):
            template = query_template(template)
        if template.name in self._binders:
            raise ConfigurationError(
                f"template {template.name!r} already registered"
            )
        plan_space = PlanSpace(template, self.catalog, seed=self._seed)
        self.framework.register(plan_space)
        self._binders[template.name] = TemplateBinder(
            template, self.statistics
        )

    @property
    def templates(self) -> list[str]:
        return list(self._binders)

    def _binder(self, name: str) -> TemplateBinder:
        """A registered template's binder; ``WorkloadError`` otherwise."""
        binder = self._binders.get(name)
        if binder is None:
            raise WorkloadError(f"template {name!r} is not registered")
        return binder

    # ------------------------------------------------------------------
    # The adopter-facing call
    # ------------------------------------------------------------------
    def execute(self, instance: QueryInstance) -> ExecutionRecord:
        """Run one query instance through the PPC workflow."""
        point = self._binder(instance.template_name).to_point(instance)
        return self.framework.execute(instance.template_name, point)

    def execute_batch(
        self, instances: "list[QueryInstance]"
    ) -> list[ExecutionRecord]:
        """Run a sequence of query instances through the batch hot path.

        Consecutive same-template runs are grouped; each run is bound
        in one pass (:meth:`TemplateBinder.to_points`) and handed to the
        framework's ``execute_batch``.  A malformed instance raises
        :class:`WorkloadError` before any instance of its run executes
        (its position counts from the start of the run); runs before it
        have executed.  Records come back in submission order and are
        lockstep-identical to calling :meth:`execute` per instance.
        """
        records: list[ExecutionRecord] = []
        start = 0
        while start < len(instances):
            name = instances[start].template_name
            binder = self._binder(name)
            stop = start
            while (
                stop < len(instances)
                and instances[stop].template_name == name
            ):
                stop += 1
            points = binder.to_points(instances[start:stop])
            records.extend(self.framework.execute_batch(name, points))
            start = stop
        return records

    def explain(self, instance: QueryInstance) -> DecisionTrace:
        """Run one instance fully traced; returns its decision trace.

        A normal execution (state advances exactly as :meth:`execute`
        would — trace sampling consumes no randomness), except the
        sampler is bypassed so the full span tree is always captured
        and recorded into the template's flight recorder.
        """
        point = self._binder(instance.template_name).to_point(instance)
        return self.framework.explain(instance.template_name, point)

    def traces(
        self, template_name: "str | None" = None
    ) -> list[DecisionTrace]:
        """Flight-recorder contents, oldest first.

        One template's when named, otherwise every registered
        template's, interleaved in recording order per template.
        """
        if template_name is not None:
            self._binder(template_name)  # rejects an unregistered name
            return self.framework.session(template_name).tracer.traces()
        collected: list[DecisionTrace] = []
        for name in self._binders:
            collected.extend(self.framework.session(name).tracer.traces())
        return collected

    def profile(self) -> "dict | None":
        """Aggregated stage-profiler report (``None`` unless
        ``PPCConfig.profiling.enabled``)."""
        return self.framework.profile_report()

    def lineage(self, query: str = "timeline") -> "LineageEngine | None":
        """A lineage engine over the lifecycle journal (``None`` unless
        ``PPCConfig.events.enabled``).

        ``query`` labels the ``ppc_lineage_queries_total`` counter so
        forensic traffic is itself observable.
        """
        engine = self.framework.lineage()
        if engine is not None:
            self.framework.metrics.counter(
                metric_names.LINEAGE_QUERIES_TOTAL, query=query
            ).inc()
        return engine

    def instance_at(
        self, template_name: str, point: np.ndarray
    ) -> QueryInstance:
        """Parameter values landing at a plan-space point (workload
        generation helper)."""
        return self._binder(template_name).to_instance(point)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Full observability snapshot of the pipeline (JSON-ready).

        Per template: stage latency digests (p50/p95/p99, seconds),
        invocation-reason counts, positive-feedback outcomes, drift
        events, cache hit rate, predictor transform/range-query
        timings, the current synopsis footprint, and the resilience
        picture (breaker state and transitions, degradation counts per
        component, fallback servings by source, rejected instances,
        retry totals, fallback suboptimality) and the decision-trace
        block (sampler verdicts, flight-recorder occupancy and
        recorded/dropped totals); plus governor reclamation totals,
        the active clock source, and the raw metric registry.
        """
        registry = self.framework.metrics
        # One settle books every deferred count (the ledger's regret);
        # the views below read the handles their owners hold.
        registry.settle()
        templates: dict[str, dict] = {}
        for name in self._binders:
            session = self.framework.session(name)
            registry.gauge(
                metric_names.SYNOPSIS_BYTES, template=name
            ).set(session.predictor.space_bytes())
            registry.gauge(
                metric_names.CACHE_PLANS, template=name
            ).set(len(session.cache))
            registry.gauge(
                metric_names.TRACE_OCCUPANCY, template=name
            ).set(session.tracer.recorder.occupancy)

            templates[name] = session.stats()

        governor = self.framework.governor
        governor_summary = None
        if governor is not None:
            governor_summary = {
                "budget_bytes": governor.budget_bytes,
                "total_bytes": governor.total_bytes,
                "reclaimed_bytes": governor.reclaimed_bytes,
                "shrinks": governor.shrinks,
                "drops": governor.drops,
            }
        # Evaluate SLOs (publishing state/burn gauges) *before* the
        # registry snapshot so scrape and snapshot agree.
        slo_block = self.slo() or None
        telemetry = self.framework.telemetry
        events = self.framework.events
        return {
            "templates": templates,
            "governor": governor_summary,
            "events": events.stats() if events is not None else None,
            "slo": slo_block,
            "telemetry": telemetry.stats() if telemetry else None,
            # The resilience machinery runs on an injectable clock, not
            # implicitly on wall time; say which source is active.
            "clock": {"source": self.framework.clock_source},
            "registry": registry.snapshot(),
        }

    def prometheus(self) -> str:
        """The metric registry as Prometheus text exposition."""
        self.metrics()  # refresh the gauges
        return render_prometheus(self.framework.metrics)

    def report(self) -> dict[str, dict[str, float]]:
        """Per-template caching outcome so far."""
        summary = {}
        for name in self._binders:
            session = self.framework.session(name)
            metrics = session.ground_truth_metrics()
            total = session.decisions
            summary[name] = {
                "instances": float(total),
                "optimizer_invocations": float(
                    session.optimizer_invocations
                ),
                "invocation_rate": (
                    session.optimizer_invocations / total if total else 0.0
                ),
                "precision": metrics.precision,
                "recall": metrics.recall,
                "space_bytes": float(session.predictor.space_bytes()),
            }
        return summary

    def quality(self) -> dict[str, dict]:
        """Per-template plan-space scorecards (coverage, purity,
        entropy, rolling accuracy/regret, confidence margin, drift
        pressure, regret attribution over retained traces)."""
        self.framework.metrics.settle()
        return {
            name: compute_scorecard(self.framework.session(name))
            for name in self._binders
        }

    def slo(self) -> dict[str, list[dict]]:
        """SLO verdicts per template, publishing the state/burn gauges
        (empty when telemetry is disabled)."""
        engine = self.framework.slo_engine
        if engine is None:
            return {}
        return engine.export(self.templates)

    def health_report(self, tail: int = 32) -> dict:
        """The ``repro report`` payload: scorecards + SLO states +
        time-series digests, JSON-ready.

        ``tail`` caps the number of retained points included per series
        (the sparkline feed).
        """
        telemetry = self.framework.telemetry
        slo_block = self.slo()
        worst = "ok"
        if self.framework.slo_engine is not None:
            worst = self.framework.slo_engine.worst_state(slo_block)
        events = self.framework.events
        lifecycle = None
        if events is not None:
            lifecycle = {
                "stats": events.stats(),
                "timeline": events.events()[-tail:],
            }
        return {
            "clock": {
                "source": self.framework.clock_source,
                "now": telemetry.now() if telemetry else None,
            },
            "templates": self.quality(),
            "outcome": self.report(),
            "slo": slo_block,
            "worst_state": worst,
            "telemetry": telemetry.to_dict(tail) if telemetry else None,
            "lifecycle": lifecycle,
        }
