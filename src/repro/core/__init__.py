"""The paper's primary contribution: density-based plan prediction.

Four approximation levels (Section IV) and the framework that runs the
online variant against a plan cache:

* :class:`~repro.core.baseline.BaselinePredictor` — Algorithm 1, exact.
* :class:`~repro.core.naive.NaivePredictor` — one fixed grid, O(1).
* :class:`~repro.core.lsh_predictor.LshPredictor` — median density over
  ``t`` randomized grids.
* :class:`~repro.core.histogram_predictor.HistogramPredictor` — z-order
  linearization stored in database histograms.
* :class:`~repro.core.framework.TemplateSession` — the Figure-1 workflow
  for one template: the empty-start incremental histogram predictor
  with exploration and negative feedback (Section IV-D).
* :class:`~repro.core.framework.PPCFramework` — one session per
  template.
"""

from repro.core.baseline import BaselinePredictor
from repro.core.cache import PlanCache
from repro.core.confidence import (
    ConfidenceModel,
    FrequencyConfidenceModel,
    confidence_from_ratio,
)
from repro.core.feedback import CostFeedbackDetector
from repro.core.framework import ExecutionRecord, PPCFramework, TemplateSession
from repro.core.governor import GovernorAction, MemoryGovernor
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.lsh_predictor import LshPredictor
from repro.core.monitor import PerformanceMonitor
from repro.core.naive import NaivePredictor
from repro.core.persistence import (
    atomic_write_text,
    dumps_predictor,
    load_predictor,
    loads_predictor,
    predictor_from_state,
    predictor_to_state,
    save_predictor,
)
from repro.core.point import LabeledPoint, SamplePool
from repro.core.positive_feedback import PositiveFeedbackPolicy
from repro.core.predictor import PlanPredictor, Prediction
from repro.core.relevance import (
    ParameterRelevanceAnalyzer,
    apply_axis_weights,
)

__all__ = [
    "BaselinePredictor",
    "PlanCache",
    "ConfidenceModel",
    "FrequencyConfidenceModel",
    "GovernorAction",
    "MemoryGovernor",
    "ParameterRelevanceAnalyzer",
    "PositiveFeedbackPolicy",
    "apply_axis_weights",
    "atomic_write_text",
    "dumps_predictor",
    "load_predictor",
    "loads_predictor",
    "predictor_from_state",
    "predictor_to_state",
    "save_predictor",
    "confidence_from_ratio",
    "CostFeedbackDetector",
    "ExecutionRecord",
    "PPCFramework",
    "TemplateSession",
    "HistogramPredictor",
    "LshPredictor",
    "PerformanceMonitor",
    "NaivePredictor",
    "LabeledPoint",
    "SamplePool",
    "PlanPredictor",
    "Prediction",
]
