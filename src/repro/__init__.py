"""repro — Parametric Plan Caching Using Density-Based Clustering.

A from-scratch reproduction of Aluç, DeHaan and Bowman (ICDE 2012):
an online density-based plan-space clustering framework for parametric
plan caching, built on locality-sensitive hashing and database
histograms, together with the full substrate it needs — a cost-based
query optimizer over a modified TPC-H catalog, workload generators, and
an end-to-end runtime simulator.

Quickstart::

    import numpy as np
    from repro import PPCFramework, plan_space_for
    from repro.workload import RandomTrajectoryWorkload

    space = plan_space_for("Q1")
    framework = PPCFramework()
    framework.register(space)
    workload = RandomTrajectoryWorkload(space.dimensions, spread=0.02, seed=7)
    for point in workload.generate(500):
        framework.execute("Q1", point)
    session = framework.session("Q1")
    print(session.ground_truth_metrics())
"""

from repro.config import PPCConfig
from repro.core import (
    BaselinePredictor,
    ConfidenceModel,
    CostFeedbackDetector,
    ExecutionRecord,
    HistogramPredictor,
    LshPredictor,
    NaivePredictor,
    PerformanceMonitor,
    PlanCache,
    PlanPredictor,
    PPCFramework,
    Prediction,
    SamplePool,
    TemplateSession,
)
from repro.exceptions import (
    PersistenceError,
    PredictionError,
    ReproError,
    ResilienceError,
)
from repro.obs import MetricsRegistry, render_prometheus
from repro.optimizer import PlanSpace, QueryTemplate
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    VirtualClock,
)
from repro.service import PlanCachingService
from repro.tpch import build_catalog, build_statistics, plan_space_for

__version__ = "1.0.0"

__all__ = [
    "PPCConfig",
    "BaselinePredictor",
    "CircuitBreaker",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "VirtualClock",
    "ConfidenceModel",
    "CostFeedbackDetector",
    "ExecutionRecord",
    "HistogramPredictor",
    "LshPredictor",
    "NaivePredictor",
    "PerformanceMonitor",
    "PlanCache",
    "PlanPredictor",
    "PPCFramework",
    "Prediction",
    "SamplePool",
    "TemplateSession",
    "ReproError",
    "PersistenceError",
    "PredictionError",
    "ResilienceError",
    "MetricsRegistry",
    "render_prometheus",
    "PlanSpace",
    "QueryTemplate",
    "PlanCachingService",
    "build_catalog",
    "build_statistics",
    "plan_space_for",
    "__version__",
]
