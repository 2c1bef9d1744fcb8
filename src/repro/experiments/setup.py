"""Shared experimental setup (Appendix A).

Central constants and helpers used by every experiment driver: the
standard template set, reference parameters (confidence thresholds,
radii, transform counts, histogram budgets) and the offline
evaluate-a-predictor helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predictor import PlanPredictor
from repro.metrics.classification import PrecisionRecall, evaluate_predictions
from repro.optimizer.plan_space import PlanSpace
from repro.workload import sample_points

#: Templates used throughout Section V.
ALL_TEMPLATES = tuple(f"Q{i}" for i in range(9))

#: The offline reference configuration of Section V-A.
OFFLINE_GAMMA = 0.7
OFFLINE_RADIUS = 0.05
DEFAULT_TRANSFORMS = 5
DEFAULT_BUCKETS = 40
SAMPLE_SIZES = (200, 400, 800, 1600, 3200, 6400)
TRANSFORM_COUNTS = (3, 5, 7, 9, 11)
RADII = (0.05, 0.1, 0.15, 0.2)
TRAJECTORY_SPREADS = (0.01, 0.02, 0.04, 0.08)

#: The online reference configuration of Section V-B.
ONLINE_GAMMA = 0.8
ONLINE_INVOCATION_PROBABILITY = 0.05


@dataclass(frozen=True)
class OfflineResult:
    """One offline evaluation cell."""

    template: str
    algorithm: str
    sample_size: int
    metrics: PrecisionRecall
    space_bytes: int

    @property
    def precision(self) -> float:
        return self.metrics.precision

    @property
    def recall(self) -> float:
        return self.metrics.recall


def offline_truth(
    plan_space: PlanSpace,
    test_count: int = 1000,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """An independent uniform test set with its oracle labels."""
    test = sample_points(plan_space.dimensions, test_count, seed=seed)
    return test, plan_space.plan_at(test)


def evaluate_offline(
    predictor: PlanPredictor,
    test: np.ndarray,
    truth: np.ndarray,
) -> PrecisionRecall:
    """Score a fitted predictor on a labeled test set."""
    predictions = predictor.predict_batch(test)
    ids = [None if p is None else p.plan_id for p in predictions]
    return evaluate_predictions(ids, truth)
