"""Adversarial scenario fleet: registry, contracts, runner semantics.

The full-fleet contract sweep lives in ``benchmarks/bench_scenarios.py``
(every scenario, every contract, fast tier); these tests pin the pieces
that sweep builds on — registry invariants, deterministic event
builders, contract pass/fail boundaries on synthetic runs, and the
batch/sequential lockstep parity of the executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workload.runner import RunResult, ScenarioRunner, WorkloadExecutor
from repro.workload.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    DriftCaughtWithin,
    DriftShift,
    FallbackServed,
    FaultPhase,
    NegativeFeedbackCaught,
    NoFalseAlarm,
    NoUnhandledExceptions,
    QueryEvent,
    RegretBudget,
    get_scenario,
)


class TestRegistry:
    def test_fleet_size_and_names(self):
        assert len(SCENARIOS) >= 6
        assert SCENARIO_NAMES == tuple(SCENARIOS)
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name

    def test_every_scenario_is_seeded_and_tiered(self):
        seeds = [s.seed for s in SCENARIOS.values()]
        assert len(set(seeds)) == len(seeds), "seeds must be distinct"
        for scenario in SCENARIOS.values():
            assert 0 < scenario.fast_instances <= scenario.instances
            assert scenario.templates
            assert scenario.description
            assert scenario.assumption in {"none", "1", "2", "1+2"}

    def test_every_scenario_declares_contracts(self):
        for scenario in SCENARIOS.values():
            contracts = scenario.contracts(scenario.fast_instances)
            assert contracts, f"{scenario.name} has no contracts"
            assert any(
                isinstance(c, NoUnhandledExceptions) for c in contracts
            ), f"{scenario.name} must at least assert nothing raises"

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("nope")


class TestEventBuilders:
    DIMS = {"Q0": 2, "Q1": 2, "Q2": 2, "Q8": 3}

    def _dims_for(self, scenario):
        return {name: self.DIMS[name] for name in scenario.templates}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_deterministic_under_seed(self, name):
        scenario = get_scenario(name)
        dims = self._dims_for(scenario)
        count = scenario.fast_instances
        assert scenario.events(count, dims) == scenario.events(count, dims)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_query_count_matches_tier(self, name):
        scenario = get_scenario(name)
        events = scenario.events(
            scenario.fast_instances, self._dims_for(scenario)
        )
        queries = [e for e in events if isinstance(e, QueryEvent)]
        assert len(queries) == scenario.fast_instances
        for event in queries:
            assert event.template in scenario.templates
            assert len(event.point) == self.DIMS[event.template]
            assert all(0.0 <= v <= 1.0 for v in event.point)

    def test_drift_shifts_only_target_manipulated_templates(self):
        for scenario in SCENARIOS.values():
            manipulated = {name for name, __ in scenario.manipulation}
            events = scenario.events(
                scenario.fast_instances, self._dims_for(scenario)
            )
            for event in events:
                if isinstance(event, DriftShift):
                    assert event.template in manipulated
                    assert 0.0 <= event.intensity <= 1.0

    def test_cold_start_storm_heals_its_outage(self):
        scenario = get_scenario("cold_start_storm")
        events = scenario.events(
            scenario.fast_instances, self._dims_for(scenario)
        )
        phases = [e for e in events if isinstance(e, FaultPhase)]
        assert len(phases) == 2
        assert phases[0].spec is not None
        assert phases[0].spec.failure_probability == 1.0
        assert phases[1].spec is None, "outage must be lifted"

    def test_slow_drift_ramp_is_monotone_and_saturates(self):
        scenario = get_scenario("slow_drift")
        events = scenario.events(scenario.fast_instances, {"Q1": 2})
        intensities = [
            e.intensity for e in events if isinstance(e, DriftShift)
        ]
        assert intensities == sorted(intensities)
        assert intensities[-1] == 1.0


def _result(decisions):
    """A RunResult carrying only decisions (contract unit tests)."""
    return RunResult(
        scenario="synthetic",
        seed=0,
        count=len(decisions),
        batch_size=1,
        decisions=decisions,
        executor=None,
    )


def _decision(**overrides):
    base = {
        "template": "Q1",
        "predicted": 1,
        "confidence": 0.9,
        "optimizer_invoked": False,
        "invocation_reason": "",
        "executed_plan": 1,
        "execution_cost": 100.0,
        "optimal_plan": 1,
        "optimal_cost": 100.0,
        "drift_triggered": False,
        "degraded": False,
        "fallback_source": "",
    }
    base.update(overrides)
    return base


class TestContracts:
    def test_no_unhandled_exceptions_boundary(self):
        ok = _result([_decision()])
        assert NoUnhandledExceptions().evaluate(ok).passed
        bad = _result(
            [_decision(), {"i": 1, "template": "Q1", "error": "OptimizerError: x"}]
        )
        verdict = NoUnhandledExceptions().evaluate(bad)
        assert not verdict.passed
        assert "OptimizerError" in verdict.observed

    def test_drift_caught_within_window(self):
        contract = DriftCaughtWithin("Q1", after=2, within=3)
        inside = _result(
            [_decision()] * 3 + [_decision(drift_triggered=True)]
        )
        assert contract.evaluate(inside).passed
        # Triggering before the manipulation started is a false alarm,
        # not a catch.
        early = _result(
            [_decision(drift_triggered=True)] + [_decision()] * 4
        )
        assert not contract.evaluate(early).passed
        late = _result([_decision()] * 5 + [_decision(drift_triggered=True)])
        assert not contract.evaluate(late).passed
        never = _result([_decision()] * 6)
        verdict = contract.evaluate(never)
        assert not verdict.passed
        assert verdict.observed == "never triggered"

    def test_no_false_alarm_scopes_to_prefix(self):
        decisions = [_decision()] * 3 + [_decision(drift_triggered=True)]
        assert NoFalseAlarm("Q1", before=3).evaluate(_result(decisions)).passed
        assert not NoFalseAlarm("Q1").evaluate(_result(decisions)).passed

    def test_no_false_alarm_is_per_template(self):
        decisions = [
            _decision(template="Q0", drift_triggered=True),
            _decision(template="Q1"),
        ]
        assert NoFalseAlarm("Q1").evaluate(_result(decisions)).passed
        assert not NoFalseAlarm("Q0").evaluate(_result(decisions)).passed

    def test_regret_budget_mean(self):
        # Ratios 1.0 and 1.2 -> mean regret 0.1, exactly on budget.
        decisions = [
            _decision(),
            _decision(execution_cost=120.0),
        ]
        assert RegretBudget(0.10).evaluate(_result(decisions)).passed
        assert not RegretBudget(0.09).evaluate(_result(decisions)).passed

    def test_regret_budget_ignores_lucky_wins(self):
        # Costs below optimal clamp to zero regret, not negative.
        decisions = [_decision(execution_cost=50.0)]
        verdict = RegretBudget(0.0).evaluate(_result(decisions))
        assert verdict.passed

    def test_regret_budget_fails_on_empty_run(self):
        assert not RegretBudget(1.0).evaluate(_result([])).passed

    def test_fallback_and_negative_feedback_thresholds(self):
        decisions = [
            _decision(fallback_source="last_plan", degraded=True),
            _decision(invocation_reason="negative_feedback"),
            _decision(),
        ]
        result = _result(decisions)
        assert FallbackServed(1).evaluate(result).passed
        assert not FallbackServed(2).evaluate(result).passed
        assert NegativeFeedbackCaught(1).evaluate(result).passed
        assert not NegativeFeedbackCaught(2).evaluate(result).passed


class TestExecutor:
    def test_rejects_invalid_batch_size(self, q1_space):
        with pytest.raises(ConfigurationError):
            WorkloadExecutor(("Q1",), {"Q1": q1_space}, batch_size=0)

    def test_drift_shift_without_manipulation_is_an_error(self, q1_space):
        executor = WorkloadExecutor(("Q1",), {"Q1": q1_space})
        with pytest.raises(ConfigurationError, match="manipulation spec"):
            executor.drive([DriftShift("Q1", 1.0)])

    def test_unknown_event_type_is_an_error(self, q1_space):
        executor = WorkloadExecutor(("Q1",), {"Q1": q1_space})
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            executor.drive(["not an event"])

    def test_digests_are_json_primitive(self, q1_space):
        executor = WorkloadExecutor(("Q1",), {"Q1": q1_space})
        digests = executor.drive(
            [QueryEvent("Q1", (0.3, 0.7)), QueryEvent("Q1", (0.31, 0.69))]
        )
        assert [d["i"] for d in digests] == [0, 1]
        allowed = (str, int, float, bool, type(None))
        for digest in digests:
            for key, value in digest.items():
                assert isinstance(value, allowed), (key, type(value))
            assert not isinstance(digest["confidence"], np.floating)
            assert not isinstance(digest["executed_plan"], np.integer)

    def test_clock_advances_per_query(self, q1_space):
        executor = WorkloadExecutor(("Q1",), {"Q1": q1_space})
        start = executor.clock.now()
        executor.drive(
            [
                QueryEvent("Q1", (0.3, 0.7), advance=2.0),
                QueryEvent("Q1", (0.4, 0.6), advance=3.0),
            ]
        )
        assert executor.clock.now() == pytest.approx(start + 5.0)


class TestRunnerParity:
    def test_batch_matches_sequential_lockstep(self):
        """Clock-insensitive scenarios decide identically through
        ``execute`` and ``execute_batch`` (same digests, same order)."""
        scenario = get_scenario("step_drift")
        sequential = ScenarioRunner(fast=True, batch_size=1).run(scenario)
        batched = ScenarioRunner(fast=True, batch_size=16).run(scenario)
        assert sequential.decisions == batched.decisions
        assert sequential.passed and batched.passed

    @pytest.mark.parametrize("name", ["step_drift", "slow_drift"])
    def test_batch_journal_matches_sequential(self, name):
        """The lifecycle journal records mutations, never speculation:
        batching journals the same event stream.  Only ``ts`` may
        differ — the executor advances the virtual clock once per
        flushed batch."""

        def stream(batch_size):
            result = ScenarioRunner(fast=True, batch_size=batch_size).run(
                get_scenario(name)
            )
            journal = result.executor.framework.events
            assert journal is not None and journal.dropped == 0
            return [
                {k: v for k, v in event.items() if k != "ts"}
                for event in journal.events()
            ]

        sequential = stream(1)
        assert sequential
        assert stream(16) == sequential

    def test_summarize_row_shape(self):
        scenario = get_scenario("cache_pressure")
        runner = ScenarioRunner(fast=True)
        result = runner.run(scenario)
        row = runner.summarize(result)
        assert row["scenario"] == "cache_pressure"
        assert row["instances"] == scenario.fast_instances
        assert row["decisions"] == scenario.fast_instances
        assert row["templates"] == ["Q2"]
        assert {c["contract"] for c in row["contracts"]} == {
            v.contract for v in result.verdicts
        }
        assert row["passed"] is True
