"""Plan cache with caching-potential eviction.

The PPC framework stores actual plan objects in a bounded cache; the
clustering structures only ever reference plan identifiers.  When the
cache is full, the evicted victim is the plan with the lowest *caching
potential*: the product of its sliding precision estimate (plans whose
predictions keep failing are poor cache citizens — Section IV-E) and a
recency preference (least-recently-used among equals).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.monitor import PerformanceMonitor
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry, names as metric_names
from repro.optimizer.plans import PhysicalPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import _TemplateEmitter


class PlanCache:
    """Bounded plan store keyed by plan id.

    Hit/miss/eviction events are counted once, in the
    ``ppc_cache_events_total{template,event}`` counters of ``metrics``
    (a private registry when none is given); ``hits``, ``misses``,
    ``evictions`` and ``hit_rate`` read those counters.
    """

    def __init__(
        self,
        capacity: int = 32,
        monitor: "PerformanceMonitor | None" = None,
        metrics: "MetricsRegistry | None" = None,
        template: str = "",
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self.monitor = monitor
        self._plans: OrderedDict[int, PhysicalPlan] = OrderedDict()
        # Lifecycle event emitter (``repro.obs.events``); None until the
        # owning session binds one.
        self._events = None
        registry = metrics if metrics is not None else MetricsRegistry()
        counters = registry.family(
            metric_names.CACHE_EVENTS_TOTAL,
            "event",
            metric_names.CACHE_EVENTS,
            template=template,
        )
        self._hits = counters["hit"]
        self._misses = counters["miss"]
        self._evictions = counters["eviction"]

    def bind_events(self, emitter: "_TemplateEmitter") -> None:
        """Attach a lifecycle event emitter (``repro.obs.events``)."""
        self._events = emitter

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, plan_id: int) -> bool:
        return plan_id in self._plans

    def get(self, plan_id: int) -> "PhysicalPlan | None":
        """Fetch a plan, refreshing its recency."""
        plan = self._plans.get(plan_id)
        if plan is None:
            self._misses.inc()
            return None
        self._plans.move_to_end(plan_id)
        self._hits.inc()
        return plan

    def put(self, plan_id: int, plan: PhysicalPlan) -> None:
        """Insert (or refresh) a plan, evicting if over capacity."""
        if plan_id in self._plans:
            self._plans.move_to_end(plan_id)
            self._plans[plan_id] = plan
            return
        if len(self._plans) >= self.capacity:
            self._evict()
        self._plans[plan_id] = plan

    def _evict(self) -> None:
        victim = min(self._plans, key=self._caching_potential)
        del self._plans[victim]
        self._evictions.inc()
        if self._events is not None:
            self._events(
                "cache_evicted",
                plan=int(victim),
                prec_k=(
                    self.monitor.plan_precision(victim)
                    if self.monitor
                    else 1.0
                ),
                rec_k=(
                    self.monitor.recall_estimate if self.monitor else 0.0
                ),
                resident=len(self._plans),
            )

    def _caching_potential(self, plan_id: int) -> tuple[float, int]:
        """Lower = evicted first: precision estimate, then LRU order."""
        precision = (
            self.monitor.plan_precision(plan_id) if self.monitor else 1.0
        )
        recency = list(self._plans).index(plan_id)
        return (precision, recency)

    def most_recent(self) -> "int | None":
        """Id of the most recently used resident plan, without touching
        hit/miss accounting (the fallback chain's last resort)."""
        if not self._plans:
            return None
        return next(reversed(self._plans))

    def clear(self) -> None:
        self._plans.clear()

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def hit_rate(self) -> float:
        hits = self._hits.value
        total = hits + self._misses.value
        return hits / total if total else 0.0
