"""Figures 11 and 12: online performance over random trajectories.

* :func:`run_online_performance` — ONLINE-APPROXIMATE-LSH-HISTOGRAMS
  over trajectory workloads at ``r_d`` in {0.01, 0.02, 0.04, 0.08},
  with noise elimination and 5 % random invocations (Figure 11):
  reports overall ground-truth precision/recall plus the learning
  curve (windowed recall over time).
* :func:`run_feedback_ablation` — the same workload executed by
  variants with noise elimination and/or negative feedback disabled
  (Figure 12): precision over time degrades without noise elimination
  and improves with feedback.
* :func:`run_invocation_sweep` — precision as the mean optimizer
  invocation probability grows (the paper observes roughly +0.02 per
  +10 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import PPCConfig
from repro.geometry import equivalent_radius
from repro.core.framework import TemplateSession
from repro.experiments.setup import (
    ONLINE_GAMMA,
    ONLINE_INVOCATION_PROBABILITY,
    TRAJECTORY_SPREADS,
)
from repro.metrics.classification import PredictionOutcome, summarize
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload


@dataclass
class OnlineRun:
    """Result of one online workload replay."""

    template: str
    spread: float
    variant: str
    precision: float
    recall: float
    optimizer_invocations: int
    #: Windowed (precision, recall) curve over the workload.
    curve: list[tuple[float, float]] = field(default_factory=list)


def _windowed_curve(records, window: int = 100) -> list[tuple[float, float]]:
    """Ground-truth precision/recall in consecutive windows."""
    curve = []
    for start in range(0, len(records), window):
        chunk = records[start : start + window]
        metrics = summarize(
            PredictionOutcome(r.predicted, r.optimal_plan) for r in chunk
        )
        curve.append((metrics.precision, metrics.recall))
    return curve


def _run_session(
    template: str,
    spread: float,
    config: PPCConfig,
    variant: str,
    workload_size: int,
    seed: int,
) -> OnlineRun:
    plan_space = plan_space_for(template)
    if plan_space.dimensions > 2:
        # Scale the query radius to enclose the same sample mass the
        # configured 2-D radius would (see repro.geometry).
        config = replace(
            config,
            radius=equivalent_radius(config.radius, plan_space.dimensions),
        )
    workload = RandomTrajectoryWorkload(
        plan_space.dimensions, spread=spread, seed=seed
    ).generate(workload_size)
    session = TemplateSession(plan_space, config, seed=seed + 1)
    records = [session.execute(point) for point in workload]
    metrics = session.ground_truth_metrics()
    return OnlineRun(
        template=template,
        spread=spread,
        variant=variant,
        precision=metrics.precision,
        recall=metrics.recall,
        optimizer_invocations=session.optimizer_invocations,
        curve=_windowed_curve(records),
    )


def reference_config(
    radius: float = 0.1,
    noise_elimination: bool = True,
    negative_feedback: bool = True,
    invocation_probability: float = ONLINE_INVOCATION_PROBABILITY,
) -> PPCConfig:
    """The Section V-B configuration: b_h = 40, t = 5, gamma = 0.8."""
    return PPCConfig(
        transforms=5,
        max_buckets=40,
        radius=radius,
        confidence_threshold=ONLINE_GAMMA,
        noise_fraction=0.002 if noise_elimination else None,
        mean_invocation_probability=invocation_probability,
        negative_feedback=negative_feedback,
        drift_response=False,
    )


def run_online_performance(
    templates: tuple[str, ...] = ("Q1", "Q8"),
    spreads: tuple[float, ...] = TRAJECTORY_SPREADS,
    radii: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2),
    workload_size: int = 1000,
    seed: int = 7,
) -> list[OnlineRun]:
    """Figure 11: per-template, per-spread results averaged over radii."""
    runs = []
    for template in templates:
        for spread in spreads:
            cells = [
                _run_session(
                    template,
                    spread,
                    reference_config(radius=radius),
                    "reference",
                    workload_size,
                    seed,
                )
                for radius in radii
            ]
            merged = OnlineRun(
                template=template,
                spread=spread,
                variant="reference",
                precision=float(np.mean([c.precision for c in cells])),
                recall=float(np.mean([c.recall for c in cells])),
                optimizer_invocations=int(
                    np.mean([c.optimizer_invocations for c in cells])
                ),
                curve=cells[1].curve,  # the d = 0.1 learning curve
            )
            runs.append(merged)
    return runs


def run_feedback_ablation(
    template: str = "Q1",
    spread: float = 0.02,
    workload_size: int = 1000,
    repeats: int = 5,
    seed: int = 7,
) -> list[OnlineRun]:
    """Figure 12: noise elimination and negative feedback ablations.

    Every variant replays the *same* ``repeats`` workloads (the paper
    uses 25); precision/recall are averaged and a representative curve
    retained.
    """
    variants = {
        "full": reference_config(),
        "no-noise-elimination": reference_config(noise_elimination=False),
        "no-negative-feedback": reference_config(negative_feedback=False),
        "neither": reference_config(
            noise_elimination=False, negative_feedback=False
        ),
    }
    runs = []
    for name, config in variants.items():
        cells = [
            _run_session(
                template, spread, config, name, workload_size, seed + i
            )
            for i in range(repeats)
        ]
        runs.append(
            OnlineRun(
                template=template,
                spread=spread,
                variant=name,
                precision=float(np.mean([c.precision for c in cells])),
                recall=float(np.mean([c.recall for c in cells])),
                optimizer_invocations=int(
                    np.mean([c.optimizer_invocations for c in cells])
                ),
                curve=cells[0].curve,
            )
        )
    return runs


def run_noise_sweep(
    template: str = "Q1",
    fractions: "tuple[float | None, ...]" = (None, 0.001, 0.002, 0.005, 0.02),
    spread: float = 0.02,
    workload_size: int = 1000,
    repeats: int = 3,
    seed: int = 7,
) -> list[OnlineRun]:
    """Noise-elimination threshold sweep.

    The paper fixes "a constant factor of the total number of plan
    space points" without giving the value; this sweep maps the dial:
    no threshold risks gradual precision decay from z-order false
    positives, an overly aggressive one suppresses legitimate
    predictions (recall collapses).
    """
    runs = []
    for fraction in fractions:
        config = replace(reference_config(), noise_fraction=fraction)
        label = "off" if fraction is None else f"nu={fraction}"
        cells = [
            _run_session(
                template, spread, config, label, workload_size, seed + i
            )
            for i in range(repeats)
        ]
        runs.append(
            OnlineRun(
                template=template,
                spread=spread,
                variant=label,
                precision=float(np.mean([c.precision for c in cells])),
                recall=float(np.mean([c.recall for c in cells])),
                optimizer_invocations=int(
                    np.mean([c.optimizer_invocations for c in cells])
                ),
            )
        )
    return runs


def run_invocation_sweep(
    template: str = "Q1",
    probabilities: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    spread: float = 0.02,
    workload_size: int = 1000,
    repeats: int = 3,
    seed: int = 7,
) -> list[OnlineRun]:
    """Random-invocation sweep: precision vs mean invocation probability."""
    runs = []
    for probability in probabilities:
        config = reference_config(invocation_probability=probability)
        cells = [
            _run_session(
                template,
                spread,
                config,
                f"p={probability}",
                workload_size,
                seed + i,
            )
            for i in range(repeats)
        ]
        runs.append(
            OnlineRun(
                template=template,
                spread=spread,
                variant=f"p={probability}",
                precision=float(np.mean([c.precision for c in cells])),
                recall=float(np.mean([c.recall for c in cells])),
                optimizer_invocations=int(
                    np.mean([c.optimizer_invocations for c in cells])
                ),
            )
        )
    return runs
