"""Multi-window SLO burn-rate evaluation over the telemetry series.

Declarative :class:`SLODefinition` objects are evaluated
against the :class:`~repro.obs.timeseries.TimeSeriesStore`'s windowed
reads — never against raw lifetime counters, so a bad hour shows up
even after a good week.  Each SLO yields a *burn rate* per window
(1.0 = consuming the error budget exactly at the objective) and the
standard multi-window state:

* ``breach`` — **both** windows burn at ``breach_burn`` or more: the
  problem is sustained and fast;
* ``warning`` — **either** window burns at ``warning_burn`` or more:
  a short blip or a slow leak;
* ``ok`` — otherwise (including "no data yet": an idle service is not
  failing its objectives).

States and burn rates are exported as ``ppc_slo_state`` /
``ppc_slo_burn_rate`` gauges so the Prometheus scrape and
``service.metrics()["slo"]`` always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError
from repro.obs import names
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore

__all__ = ["DEFAULT_SLOS", "SLODefinition", "SLOEngine", "evaluate_slo"]


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
      largest p95 sampled in the window, from a histogram of at least
      :data:`P95_MIN_COUNT` observations, divided by the objective;
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


#: Observations a sampled predict histogram must hold before its p95
#: counts toward ``predict_p95``.  The sample is cumulative, and the p95
#: of fewer than 20 observations is the slowest one: one early stall
#: would otherwise read as the p95 of the whole window.
P95_MIN_COUNT = 20

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


def _burn_rate(
    slo: SLODefinition,
    store: TimeSeriesStore,
    template: str,
    window: float,
    now: float,
) -> float:
    """Error-budget burn of one signal over one window (0.0 = idle)."""
    if slo.signal == "hit_rate":
        hits = store.counter_delta(
            names.CACHE_EVENTS_TOTAL,
            window,
            now,
            template=template,
            event="hit",
        )
        misses = store.counter_delta(
            names.CACHE_EVENTS_TOTAL,
            window,
            now,
            template=template,
            event="miss",
        )
        total = hits + misses
        if total <= 0.0:
            return 0.0
        budget = 1.0 - slo.objective
        return (misses / total) / budget if budget > 0.0 else 0.0
    if slo.signal == "predict_p95":
        p95 = store.histogram_field_max(
            names.STAGE_SECONDS,
            "p95",
            window,
            now,
            min_count=P95_MIN_COUNT,
            template=template,
            stage="predict",
        )
        if p95 is None:
            return 0.0
        return p95 / slo.objective
    if slo.signal == "regret":
        regret = store.counter_delta(
            names.REGRET_TOTAL, window, now, template=template
        )
        executions = store.counter_delta(
            names.EXECUTIONS_TOTAL, window, now, template=template
        )
        if executions <= 0.0:
            return 0.0
        return (regret / executions) / slo.objective
    raise ConfigurationError(f"unknown SLO signal {slo.signal!r}")


def evaluate_slo(
    slo: SLODefinition,
    store: TimeSeriesStore,
    template: str,
    now: "float | None" = None,
) -> dict[str, Any]:
    """Evaluate one SLO for one template; JSON-ready verdict."""
    if now is None:
        now = store.now()
    burn_short = _burn_rate(slo, store, template, slo.short_window, now)
    burn_long = _burn_rate(slo, store, template, slo.long_window, now)
    if min(burn_short, burn_long) >= slo.breach_burn:
        state = "breach"
    elif max(burn_short, burn_long) >= slo.warning_burn:
        state = "warning"
    else:
        state = "ok"
    return {
        "name": slo.name,
        "signal": slo.signal,
        "objective": slo.objective,
        "state": state,
        "burn_short": burn_short,
        "burn_long": burn_long,
        "short_window": slo.short_window,
        "long_window": slo.long_window,
        "warning_burn": slo.warning_burn,
        "breach_burn": slo.breach_burn,
    }


class SLOEngine:
    """Evaluates a fixed SLO set per template and exports the verdicts."""

    def __init__(
        self,
        store: TimeSeriesStore,
        slos: "tuple[SLODefinition, ...]",
        registry: MetricsRegistry,
    ) -> None:
        seen: set[str] = set()
        for slo in slos:
            if slo.name in seen:
                raise ConfigurationError(
                    f"duplicate SLO name {slo.name!r}"
                )
            seen.add(slo.name)
        self._store = store
        self._slos = tuple(slos)
        self._registry = registry

    @property
    def slos(self) -> "tuple[SLODefinition, ...]":
        return self._slos

    def evaluate(
        self, template: str, now: "float | None" = None
    ) -> "list[dict[str, Any]]":
        """All SLO verdicts for one template (no gauge export)."""
        if now is None:
            now = self._store.now()
        return [
            evaluate_slo(slo, self._store, template, now)
            for slo in self._slos
        ]

    def export(
        self, templates: "list[str]", now: "float | None" = None
    ) -> "dict[str, list[dict[str, Any]]]":
        """Evaluate every template and publish state/burn gauges."""
        if now is None:
            now = self._store.now()
        verdicts: "dict[str, list[dict[str, Any]]]" = {}
        for template in templates:
            rows = self.evaluate(template, now)
            verdicts[template] = rows
            for row in rows:
                self._registry.gauge(
                    names.SLO_STATE, template=template, slo=row["name"]
                ).set(SLO_STATES.index(row["state"]))
                self._registry.gauge(
                    names.SLO_BURN_RATE,
                    template=template,
                    slo=row["name"],
                    window="short",
                ).set(row["burn_short"])
                self._registry.gauge(
                    names.SLO_BURN_RATE,
                    template=template,
                    slo=row["name"],
                    window="long",
                ).set(row["burn_long"])
        return verdicts

    @staticmethod
    def worst_state(
        verdicts: "dict[str, list[dict[str, Any]]]",
    ) -> str:
        """The most severe state across all templates and SLOs."""
        worst = 0
        for rows in verdicts.values():
            for row in rows:
                worst = max(worst, SLO_STATES.index(row["state"]))
        return SLO_STATES[worst]
