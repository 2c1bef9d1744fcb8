"""Section V-D: estimator accuracy and plan-space drift detection.

Two experiments:

* :func:`run_estimator_accuracy` — how accurately the cost-feedback
  binary estimator (error bound ``epsilon = 0.25``) classifies
  predictions as correct/incorrect.  The paper reports roughly 72 %.
* :func:`run_drift_detection` — a workload whose plan space is
  artificially manipulated halfway through to violate both
  predictability assumptions; the online precision estimate must drop
  sharply shortly after the manipulation (and, with the drift response
  enabled, the framework drops its histograms and recovers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import PPCConfig
from repro.core.feedback import CostFeedbackDetector
from repro.core.framework import TemplateSession
from repro.core.histogram_predictor import HistogramPredictor
from repro.tpch import plan_space_for
from repro.workload import (
    ManipulatedPlanSpace,
    RandomTrajectoryWorkload,
    sample_labeled_pool,
    sample_points,
)


@dataclass(frozen=True)
class EstimatorAccuracy:
    """Confusion summary of the cost-feedback estimator."""

    template: str
    epsilon: float
    evaluated: int
    accuracy: float
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int


def run_estimator_accuracy(
    template: str = "Q1",
    epsilon: float = 0.25,
    sample_size: int = 2000,
    test_size: int = 2000,
    seed: int = 7,
) -> EstimatorAccuracy:
    """Score the binary estimator against ground truth.

    For every answered test point, the estimator sees the predicted
    plan's *observed* execution cost and the histogram estimate, and
    declares the prediction erroneous or not; ground truth is whether
    the prediction matched the optimizer.
    """
    plan_space = plan_space_for(template)
    pool = sample_labeled_pool(plan_space, sample_size, seed=seed)
    predictor = HistogramPredictor(
        pool,
        plan_count=plan_space.plan_count,
        confidence_threshold=0.5,
        seed=seed,
    )
    detector = CostFeedbackDetector(epsilon)
    test = sample_points(plan_space.dimensions, test_size, seed=seed + 1)
    truth = plan_space.plan_at(test)

    tp = fp = tn = fn = 0
    for i in range(test.shape[0]):
        prediction = predictor.predict(test[i])
        if prediction is None or prediction.estimated_cost is None:
            continue
        observed = float(
            plan_space.cost_at(test[i][None, :], prediction.plan_id)[0]
        )
        flagged = detector.is_erroneous(prediction.estimated_cost, observed)
        wrong = prediction.plan_id != truth[i]
        if flagged and wrong:
            tp += 1
        elif flagged and not wrong:
            fp += 1
        elif not flagged and not wrong:
            tn += 1
        else:
            fn += 1
    evaluated = tp + fp + tn + fn
    accuracy = (tp + tn) / evaluated if evaluated else 0.0
    return EstimatorAccuracy(
        template, epsilon, evaluated, accuracy, tp, fp, tn, fn
    )


@dataclass
class DriftRun:
    """Precision-estimate trace around a mid-workload manipulation."""

    template: str
    manipulation_index: int
    alarm_index: "int | None"
    precision_trace: list[float]
    recall_before: float
    recall_after: float
    drift_events: int


def run_drift_detection(
    template: str = "Q1",
    workload_size: int = 2000,
    spread: float = 0.02,
    drift_response: bool = False,
    seed: int = 7,
) -> DriftRun:
    """Manipulate the plan space mid-workload and watch the estimators.

    Returns the online precision-estimate trace (one value per executed
    instance) plus the index of the first drift alarm after the
    manipulation, if any.
    """
    base = plan_space_for(template)
    oracle = ManipulatedPlanSpace(base, seed=seed)
    config = PPCConfig(
        confidence_threshold=0.8,
        noise_fraction=0.002,
        mean_invocation_probability=0.05,
        drift_response=drift_response,
        drift_threshold=0.6,
    )
    session = TemplateSession(oracle, config, seed=seed + 1)
    workload = RandomTrajectoryWorkload(
        base.dimensions, spread=spread, seed=seed + 2
    ).generate(workload_size)

    manipulation_index = workload_size // 2
    records = []
    trace = []
    alarm_index = None
    for i in range(workload.shape[0]):
        if i == manipulation_index:
            oracle.activate()
        record = session.execute(workload[i])
        records.append(record)
        trace.append(session.monitor.precision_estimate)
        alarmed = record.drift_triggered or session.monitor.drift_detected()
        if alarm_index is None and i >= manipulation_index and alarmed:
            alarm_index = i

    def window_recall(records) -> float:
        answered_correct = sum(1 for r in records if r.correct)
        return answered_correct / len(records) if records else 0.0

    return DriftRun(
        template=template,
        manipulation_index=manipulation_index,
        alarm_index=alarm_index,
        precision_trace=trace,
        recall_before=window_recall(records[:manipulation_index]),
        recall_after=window_recall(records[manipulation_index:]),
        drift_events=session.drift_events,
    )
