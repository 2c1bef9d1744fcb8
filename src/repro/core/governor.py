"""Multi-template memory governor.

The paper notes plan caching "must operate on a very limited space
budget" but evaluates templates in isolation.  A real deployment runs
many templates against one budget, so this module adds the missing
governor: it watches the total synopsis footprint across registered
sessions and, when over budget, reclaims space from the *coldest*
templates first — shrinking their histogram bucket budgets step by
step (the recall-only dial of Figure 10(b)) and, at the floor, dropping
the template's synopses entirely (it will relearn lazily if the
workload returns).

Heat combines recency and usefulness: a template that predicted
recently and successfully is the last to lose buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry, names as metric_names
from repro.obs.registry import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import TemplateSession

#: A histogram is never shrunk below this bucket budget.
MIN_BUCKETS = 5


@dataclass
class _Registration:
    session: "TemplateSession"
    last_used: int = 0
    executions: int = 0

    def heat(self, clock: int) -> float:
        """Higher = keep; combines recency, recall and usage."""
        staleness = clock - self.last_used
        usefulness = self.session.monitor.recall_estimate
        return usefulness + 1.0 / (1.0 + staleness) + 0.001 * self.executions


@dataclass
class GovernorAction:
    """One reclamation step, for observability."""

    template: str
    action: str  # "shrink" or "drop"
    new_buckets: "int | None" = None
    reclaimed_bytes: int = 0


class MemoryGovernor:
    """Holds the sum of all sessions' synopsis bytes under a budget.

    Every reclamation step is counted once, in ``metrics`` (a private
    registry when none is given): ``ppc_governor_actions_total`` and
    ``ppc_governor_reclaimed_bytes_total``.  ``shrinks``, ``drops`` and
    ``reclaimed_bytes`` read those counters; :meth:`enforce` returns
    the steps it took.
    """

    def __init__(
        self,
        budget_bytes: int,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if budget_bytes < 1:
            raise ConfigurationError("budget must be positive")
        self.budget_bytes = budget_bytes
        self._registrations: dict[str, _Registration] = {}
        self._clock = 0
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # Counters are created at the first action that books them, so
        # an idle governor publishes no zero series.
        self._reclaimed: "Counter | None" = None
        self._action_counters: "dict[tuple[str, str], Counter]" = {}

    # ------------------------------------------------------------------
    # Registration and usage tracking
    # ------------------------------------------------------------------
    def register(self, session: "TemplateSession") -> None:
        name = session.plan_space.template.name
        self._registrations[name] = _Registration(session)

    def touch(self, template_name: str) -> None:
        """Record that a template just executed an instance."""
        self._clock += 1
        registration = self._registrations[template_name]
        registration.last_used = self._clock
        registration.executions += 1

    # ------------------------------------------------------------------
    # Accounting and enforcement
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(
            r.session.predictor.space_bytes()
            for r in self._registrations.values()
        )

    def over_budget(self) -> bool:
        return self.total_bytes > self.budget_bytes

    def enforce(self) -> list[GovernorAction]:
        """Reclaim space until within budget; returns the actions taken."""
        taken: list[GovernorAction] = []
        guard = 0
        while self.over_budget() and guard < 1000:
            guard += 1
            victim = self._coldest_shrinkable()
            if victim is None:
                break
            taken.append(self._reclaim(victim))
        return taken

    def _coldest_shrinkable(self) -> "_Registration | None":
        candidates = [
            r
            for r in self._registrations.values()
            if r.session.predictor.space_bytes() > 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.heat(self._clock))

    def _reclaim(self, registration: _Registration) -> GovernorAction:
        session = registration.session
        name = session.plan_space.template.name
        predictor = session.predictor
        before = predictor.space_bytes()
        current = predictor.max_buckets
        if current > MIN_BUCKETS:
            new_buckets = max(MIN_BUCKETS, current // 2)
            predictor.shrink(new_buckets)
            action = GovernorAction(
                name,
                "shrink",
                new_buckets,
                reclaimed_bytes=before - predictor.space_bytes(),
            )
        else:
            # At the floor: the template forgets everything it learned,
            # exactly as a drift response does.
            session.forget()
            action = GovernorAction(
                name,
                "drop",
                reclaimed_bytes=before - predictor.space_bytes(),
            )
        self._account(action)
        return action

    def _account(self, action: GovernorAction) -> None:
        if self._reclaimed is None:
            self._reclaimed = self._metrics.counter(
                metric_names.GOVERNOR_RECLAIMED_BYTES
            )
        self._reclaimed.inc(max(0, action.reclaimed_bytes))
        key = (action.template, action.action)
        counter = self._action_counters.get(key)
        if counter is None:
            counter = self._action_counters[key] = self._metrics.counter(
                metric_names.GOVERNOR_ACTIONS_TOTAL,
                template=action.template,
                action=action.action,
            )
        counter.inc()

    def _actions(self, kind: str) -> int:
        return int(
            sum(
                counter.value
                for (__, action), counter in self._action_counters.items()
                if action == kind
            )
        )

    @property
    def shrinks(self) -> int:
        return self._actions("shrink")

    @property
    def drops(self) -> int:
        return self._actions("drop")

    @property
    def reclaimed_bytes(self) -> int:
        return int(self._reclaimed.value) if self._reclaimed else 0
