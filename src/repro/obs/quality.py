"""Per-template plan-space scorecard from the live predictor synopsis.

The cached decision is only as good as the density synopsis's shape
over ``[0, 1]^r`` — this module measures that shape while the session
serves, strictly read-only:

* **coverage** — fraction of z-axis probe cells holding any density
  mass, averaged over the LSH transforms.  Low coverage means the
  sample-point harvest has not yet seen (or drift dropped) most of the
  plan space, so NULL predictions dominate.
* **purity / entropy** — mass-weighted majority-plan share and
  normalized plan entropy of the occupied cells.  Pure cells are the
  paper's density clusters; high entropy marks regions where plans
  interleave along the z-order curve and the confidence check must
  referee.
* **confidence margin** — mean ``confidence - γ`` of answered
  predictions in the rolling window: how comfortably the chord model
  clears ``sin(θ) > γ``.
* **rolling accuracy / regret** — ground-truth prediction accuracy and
  mean regret (``suboptimality - 1``) over the last
  ``telemetry.quality_window`` executions whose ground truth has
  settled, the continuous-evaluation signals Kepler-style safety
  demands.  The session labels ground truth in batch
  (``repro.core.framework.SETTLE_EVERY``), so the window lags the
  newest execution by at most that many decisions and reading it never
  forces a label.  The session keeps exactly the records this window
  needs, so the window is the session's own, not the caller's.
* **drift pressure** — how close the Section IV-E estimators sit to the
  drift alarm (see
  :meth:`~repro.core.monitor.PerformanceMonitor.drift_pressure`).
* **regret attribution** — the :func:`~repro.obs.audit.regret_audit`
  stage blame over the flight recorder's retained traces.

Everything here is pure computation over existing state — no RNG, no
clock reads, no mutation — which is what the telemetry lockstep parity
test relies on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import names
from repro.obs.audit import regret_audit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import ExecutionRecord, TemplateSession
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "compute_scorecard",
    "export_quality_gauges",
    "rolling_window_stats",
    "synopsis_scorecard",
]


def synopsis_scorecard(densities: np.ndarray) -> dict[str, float]:
    """Coverage/purity/entropy from a ``(t, plans, probes)`` density
    tensor (see
    :meth:`~repro.core.histogram_predictor.HistogramPredictor.cell_densities`).
    """
    densities = np.asarray(densities, dtype=float)
    if densities.ndim != 3:
        raise ConfigurationError(
            "expected a (transforms, plans, probes) tensor"
        )
    __, plan_count, probes = densities.shape
    cell_mass = densities.sum(axis=1)  # (t, probes)
    occupied = cell_mass > 0.0
    coverage = float(occupied.mean(axis=1).mean()) if probes else 0.0
    total_mass = float(cell_mass.sum())
    if total_mass <= 0.0:
        return {
            "coverage": coverage,
            "purity": 0.0,
            "entropy": 0.0,
            "occupied_cells": 0,
            "probe_cells": int(probes),
        }
    majority_mass = float(densities.max(axis=1)[occupied].sum())
    purity = majority_mass / total_mass
    entropy = 0.0
    if plan_count > 1:
        # Mass-weighted normalized Shannon entropy over occupied cells.
        shares = densities / np.where(cell_mass, cell_mass, 1.0)[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(shares > 0.0, np.log(shares), 0.0)
        cell_entropy = -(shares * logs).sum(axis=1)  # (t, probes)
        entropy = float(
            (cell_entropy * cell_mass).sum()
            / (total_mass * math.log(plan_count))
        )
    return {
        "coverage": coverage,
        "purity": purity,
        "entropy": entropy,
        "occupied_cells": int(occupied.sum()),
        "probe_cells": int(probes),
    }


def rolling_window_stats(
    records: "list[ExecutionRecord]",
    gamma: float,
    window: int = 200,
) -> dict[str, float]:
    """Accuracy/regret/confidence-margin over the last *window* records."""
    tail = records[-window:] if window else []
    if not tail:
        return {
            "window": 0,
            "accuracy": 0.0,
            "regret": 0.0,
            "confidence_margin": 0.0,
            "answered_fraction": 0.0,
            "degraded_fraction": 0.0,
        }
    answered = [r for r in tail if r.predicted is not None]
    accuracy = (
        sum(1 for r in answered if r.correct) / len(answered)
        if answered
        else 0.0
    )
    regret = sum(max(0.0, r.suboptimality - 1.0) for r in tail) / len(tail)
    margin = (
        sum(r.confidence - gamma for r in answered) / len(answered)
        if answered
        else 0.0
    )
    return {
        "window": len(tail),
        "accuracy": accuracy,
        "regret": regret,
        "confidence_margin": margin,
        "answered_fraction": len(answered) / len(tail),
        "degraded_fraction": sum(1 for r in tail if r.degraded) / len(tail),
    }


def compute_scorecard(
    session: "TemplateSession",
    probes: int = 64,
    include_attribution: bool = True,
) -> dict[str, Any]:
    """The full plan-space scorecard of one template session.

    Read-only over the session's predictor synopsis, execution records,
    monitor estimators, and flight recorder — never advances any state
    or RNG stream, so sampling it mid-workload is decision-neutral.
    ``include_attribution=False`` skips the trace regret audit (the one
    non-trivial sub-computation), the mode the periodic gauge refresh
    uses to stay inside its overhead budget.
    """
    predictor = session.predictor
    synopsis = synopsis_scorecard(predictor.cell_densities(probes))
    rolling = rolling_window_stats(
        session.settled_records(),
        gamma=session.config.confidence_threshold,
        window=session.config.telemetry.quality_window,
    )
    monitor = session.monitor.quality_snapshot()
    scorecard: dict[str, Any] = {
        "template": session.plan_space.template.name,
        "executions": session.decisions,
        "synopsis": {
            **synopsis,
            "total_points": predictor.total_points,
            "total_mass": predictor.total_mass,
            "space_bytes": predictor.space_bytes(),
        },
        "rolling": rolling,
        "monitor": monitor,
    }
    if include_attribution:
        scorecard["regret_attribution"] = regret_audit(
            session.tracer.traces()
        )
    return scorecard


def export_quality_gauges(
    session: "TemplateSession",
    registry: "MetricsRegistry",
    probes: int = 64,
) -> dict[str, Any]:
    """Refresh the per-template ``ppc_quality_*`` gauges and return the
    scorecard they were read from (attribution skipped — see
    :func:`compute_scorecard`)."""
    scorecard = compute_scorecard(
        session, probes=probes, include_attribution=False
    )
    template = scorecard["template"]
    synopsis = scorecard["synopsis"]
    rolling = scorecard["rolling"]
    monitor = scorecard["monitor"]
    gauges = (
        (names.QUALITY_COVERAGE, synopsis["coverage"]),
        (names.QUALITY_PURITY, synopsis["purity"]),
        (names.QUALITY_ENTROPY, synopsis["entropy"]),
        (names.QUALITY_ACCURACY, rolling["accuracy"]),
        (names.QUALITY_REGRET, rolling["regret"]),
        (names.QUALITY_CONFIDENCE_MARGIN, rolling["confidence_margin"]),
        (names.QUALITY_DRIFT_PRESSURE, monitor["drift_pressure"]),
    )
    for name, value in gauges:
        registry.gauge(name, template=template).set(value)
    return scorecard
