"""The storm test: everything at once.

A multi-template service under a memory budget executes an interleaved
Zipfian workload; midway, the popular template's plan space is
scrambled.  The system must: keep the budget, keep the healthy
templates precise, raise the drift alarm on the scrambled one, and keep
functioning after the drop.
"""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import PPCFramework
from repro.workload import (
    ManipulatedPlanSpace,
    MixtureWorkload,
    RandomTrajectoryWorkload,
)
from repro.tpch import plan_space_for


@pytest.fixture(scope="module")
def storm_run():
    """The framework after the storm, and every record it returned by
    template (a session keeps only a window of its own)."""
    config = PPCConfig(
        confidence_threshold=0.8,
        drift_response=True,
        drift_threshold=0.6,
    )
    framework = PPCFramework(
        config, seed=0, memory_budget_bytes=20_000, governor_interval=40
    )
    oracles = {}
    for name in ("Q0", "Q1", "Q8"):
        base = plan_space_for(name)
        oracle = ManipulatedPlanSpace(base, seed=4)
        oracles[name] = oracle
        framework.register(oracle)

    mixture = MixtureWorkload(
        {"Q0": 2, "Q1": 2, "Q8": 3}, spread=0.02, zipf_exponent=0.5, seed=7
    )
    workload = mixture.generate(1800)
    records = {name: [] for name in oracles}
    for index, (name, point) in enumerate(workload):
        if index == 900:
            oracles["Q0"].activate()
        records[name].append(framework.execute(name, point))
    return framework, records


@pytest.fixture(scope="module")
def storm_outcome(storm_run):
    return storm_run[0]


@pytest.fixture(scope="module")
def storm_records(storm_run):
    return storm_run[1]


class TestStorm:
    def test_budget_respected(self, storm_outcome):
        assert storm_outcome.space_bytes <= 20_000

    def test_healthy_templates_stay_precise(self, storm_outcome):
        for name in ("Q1", "Q8"):
            metrics = storm_outcome.session(name).ground_truth_metrics()
            assert metrics.precision > 0.9, name

    def test_scrambled_template_raises_drift(self, storm_outcome):
        assert storm_outcome.session("Q0").drift_events >= 1

    def test_scrambled_template_stops_trusting_cache(self, storm_records):
        """After the manipulation, the framework answers almost nothing
        on the scrambled template instead of executing garbage."""
        records = storm_records["Q0"]
        half = len(records) // 2
        late_answer_rate = np.mean(
            [r.predicted is not None for r in records[-half // 2 :]]
        )
        assert late_answer_rate < 0.5

    def test_everything_kept_executing(self, storm_outcome, storm_records):
        total = sum(
            len(storm_records[name]) for name in ("Q0", "Q1", "Q8")
        )
        assert total == 1800
        assert total == sum(
            storm_outcome.session(name).decisions
            for name in ("Q0", "Q1", "Q8")
        )

    def test_caching_still_paid_off_overall(
        self, storm_outcome, storm_records
    ):
        """Even with the storm, the healthy templates avoided a solid
        share of optimizer calls."""
        for name in ("Q1", "Q8"):
            session = storm_outcome.session(name)
            rate = session.optimizer_invocations / len(storm_records[name])
            assert rate < 0.95, name
