"""Guarded decision flow: degradation, fallback chain, acceptance storm."""

import numpy as np
import pytest

from repro.config import PPCConfig
from repro.core.framework import TemplateSession
from repro.core.persistence import load_predictor
from repro.core.predictor import Prediction
from repro.exceptions import PredictionError, ResilienceError
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    VirtualClock,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service import PlanCachingService
from tests.resilience.helpers import cold_predictor


def make_session(
    plan_space, injector=None, clock=None, config=None, **breaker_kwargs
):
    """A session on a virtual clock with a fast two-attempt retry
    policy; ``breaker_kwargs`` rebuild its circuit breaker."""
    clock = clock or VirtualClock()
    session = TemplateSession(
        plan_space,
        config or PPCConfig(),
        seed=0,
        fault_injector=injector,
        clock=clock,
        sleep=clock.sleep,
    )
    session.retry_policy = RetryPolicy(
        attempts=2, base_delay=0.001, max_delay=0.01
    )
    if breaker_kwargs:
        session.breaker = CircuitBreaker(
            clock=clock,
            on_transition=session._on_breaker_transition,
            **breaker_kwargs,
        )
    return session, clock


def degraded_count(session, component: str) -> int:
    return int(
        session.metrics.counter_value(
            "ppc_degraded_total",
            template=session.plan_space.template.name,
            component=component,
        )
    )


class TestPredictorDegradation:
    def test_broken_predictor_degrades_to_optimizer(self, tiny_space):
        injector = FaultInjector(
            {"predictor": FaultSpec(failure_probability=1.0)}, seed=0
        )
        session, __ = make_session(tiny_space, injector)
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.0, 1.0, size=(20, tiny_space.dimensions)):
            record = session.execute(x)
            assert record.predicted is None
            assert record.degraded
            assert record.optimizer_invoked
            assert record.invocation_reason == "null_prediction"
        assert degraded_count(session, "predictor") == 20
        assert injector.counts[("predictor", "exception")] == 20

    def test_broken_insert_never_blocks_execution(self, tiny_space):
        injector = FaultInjector(
            {"predictor_insert": FaultSpec(failure_probability=1.0)},
            seed=0,
        )
        session, __ = make_session(tiny_space, injector)
        rng = np.random.default_rng(1)
        for x in rng.uniform(0.0, 1.0, size=(10, tiny_space.dimensions)):
            record = session.execute(x)
            assert record.executed_plan >= 0
        # Every optimizer result failed to insert, so the predictor
        # stays cold — but each instance still executed.
        assert session.predictor.total_points == 0
        assert degraded_count(session, "predictor_insert") == 10


class TestValidation:
    @pytest.fixture()
    def session(self, tiny_space):
        return make_session(tiny_space)[0]

    def rejected(self, session, reason):
        return int(
            session.metrics.counter_value(
                "ppc_rejected_instances_total",
                template=session.plan_space.template.name,
                reason=reason,
            )
        )

    def test_nan_rejected(self, session):
        with pytest.raises(PredictionError):
            session.execute(np.array([np.nan, 0.5]))
        assert self.rejected(session, "non_finite") == 1

    def test_infinity_rejected(self, session):
        with pytest.raises(PredictionError):
            session.execute(np.array([0.5, np.inf]))
        assert self.rejected(session, "non_finite") == 1

    def test_out_of_domain_rejected(self, session):
        with pytest.raises(PredictionError):
            session.execute(np.array([1.5, 0.5]))
        with pytest.raises(PredictionError):
            session.execute(np.array([-0.1, 0.5]))
        assert self.rejected(session, "out_of_domain") == 2

    def test_bad_shape_rejected(self, session):
        with pytest.raises(PredictionError):
            session.execute(np.array([0.1, 0.2, 0.3]))
        assert self.rejected(session, "bad_shape") == 1

    def test_rejected_instance_leaves_no_record(self, session):
        with pytest.raises(PredictionError):
            session.execute(np.array([np.nan, 0.5]))
        assert list(session.records) == []
        assert session.decisions == 0


class TestBreakerFallback:
    def warm_cache(self, session, plan_space):
        x = np.full(plan_space.dimensions, 0.5)
        ids, __ = plan_space.label(x[None, :])
        plan_id = int(ids[0])
        session.cache.put(plan_id, plan_space.plan(plan_id))
        session._last_plan_id = plan_id
        return plan_id

    def test_persistent_failure_opens_breaker_and_serves_cache(
        self, tiny_space
    ):
        injector = FaultInjector(
            {"optimizer": FaultSpec(failure_probability=1.0)}, seed=0
        )
        session, clock = make_session(
            tiny_space, injector, failure_threshold=3, recovery_time=60.0
        )
        warm_plan = self.warm_cache(session, tiny_space)

        rng = np.random.default_rng(2)
        records = [
            session.execute(x)
            for x in rng.uniform(0.0, 1.0, size=(10, tiny_space.dimensions))
        ]
        assert session.breaker.state == OPEN
        assert session.breaker.transitions == {OPEN: 1}
        for record in records:
            assert record.degraded
            assert record.fallback_source == "last_plan"
            assert record.executed_plan == warm_plan
            assert not record.optimizer_invoked
            assert record.suboptimality >= 1.0
        # First three instances exhausted their retries (one retry
        # each with attempts=2); once open, calls are rejected without
        # touching the optimizer at all.
        assert injector.counts[("optimizer", "exception")] == 6
        assert degraded_count(session, "optimizer") == 10
        histogram = session.metrics.histogram_summary(
            "ppc_fallback_suboptimality",
            template=tiny_space.template.name,
        )
        assert histogram["count"] == 10

    def test_breaker_recovers_when_optimizer_heals(self, tiny_space):
        injector = FaultInjector(
            {"optimizer": FaultSpec(failure_probability=1.0)}, seed=0
        )
        session, clock = make_session(
            tiny_space, injector, failure_threshold=2, recovery_time=30.0
        )
        self.warm_cache(session, tiny_space)
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 1.0, size=(4, tiny_space.dimensions))
        for x in points[:2]:
            session.execute(x)
        assert session.breaker.state == OPEN

        # Still failing at the half-open probe: the breaker re-opens.
        clock.advance(31.0)
        assert session.breaker.state == HALF_OPEN
        record = session.execute(points[2])
        assert session.breaker.state == OPEN
        assert record.fallback_source == "last_plan"

        # The optimizer heals (drop the fault wrapper); the next probe
        # succeeds and the breaker closes.
        session._label = tiny_space.label
        clock.advance(31.0)
        record = session.execute(points[3])
        assert record.optimizer_invoked
        assert not record.degraded
        assert session.breaker.state == CLOSED
        assert session.breaker.transitions[CLOSED] == 1

    def test_the_chain_prefers_prediction_then_last_plan_then_cache(
        self, tiny_space
    ):
        """Each link in turn: a cached prediction, else the plan served
        last, else the most recently used resident plan.  Each serving
        books its source once, its ground truth is the oracle's and its
        cost the served plan's.  The storm serves only ``last_plan``."""
        assert tiny_space.plan_count >= 3
        session, __ = make_session(tiny_space)
        for plan_id in (0, 1, 2):
            session.cache.put(plan_id, tiny_space.plan(plan_id))
        x = np.full(tiny_space.dimensions, 0.5)
        ids, costs = tiny_space.label(x[None, :])
        session._last_plan_id = 1
        steps = [(Prediction(0, 0.9), 0, "prediction"), (None, 1, "last_plan")]
        for prediction, plan_id, source in steps:
            truth, plan, cost, served = session._serve_fallback(
                session.tracer.inactive, x, prediction
            )
            assert (plan, served) == (plan_id, source)
            assert truth == (int(ids[0]), float(costs[0]))
            assert cost == float(tiny_space.cost_at(x[None, :], plan_id)[0])
        session._last_plan_id = None
        session.cache.get(2)
        __, plan, __, served = session._serve_fallback(
            session.tracer.inactive, x, None
        )
        assert (plan, served) == (2, "cache")
        assert session.stats()["resilience"]["fallback_served"] == {
            "prediction": 1, "last_plan": 1, "cache": 1,
        }
        assert session.stats()["resilience"]["fallback_suboptimality"]["count"] == 3

    def test_empty_cache_with_optimizer_down_is_an_error(self, tiny_space):
        injector = FaultInjector(
            {"optimizer": FaultSpec(failure_probability=1.0)}, seed=0
        )
        session, __ = make_session(tiny_space, injector)
        with pytest.raises(ResilienceError, match="cache is empty"):
            session.execute(np.full(tiny_space.dimensions, 0.5))


class TestNegativeFeedbackDegraded:
    def test_unverifiable_suspicion_keeps_the_executed_plan(
        self, tiny_space
    ):
        config = PPCConfig(mean_invocation_probability=0.0)
        session, __ = make_session(tiny_space, config=config)
        rng = np.random.default_rng(4)
        # Warm up until the predictor answers from the synopses.
        prediction = None
        probe = None
        for x in rng.uniform(0.0, 1.0, size=(400, tiny_space.dimensions)):
            session.execute(x)
            candidate = session.predictor.predict(x)
            if candidate is not None and candidate.plan_id in session.cache:
                prediction, probe = candidate, x
        assert prediction is not None, "predictor never warmed up"

        # Force a suspected misprediction while the optimizer is down.
        session.suspect_error = lambda *a, **k: True

        def broken(points):
            raise RuntimeError("optimizer offline")

        session._label = broken
        before = degraded_count(session, "optimizer")
        record = session.execute(probe)
        assert record.invocation_reason == "negative_feedback"
        assert record.degraded
        assert not record.optimizer_invoked
        assert record.fallback_source == ""  # the executed plan stands
        assert record.executed_plan == record.predicted
        assert degraded_count(session, "optimizer") == before + 1


class TestAcceptanceStorm:
    """The ISSUE acceptance scenario: 20 % optimizer failure, 5 %
    predictor failure, torn-write persistence, 10k instances."""

    INSTANCES = 10_000
    SNAPSHOT_EVERY = 1_000

    def test_storm_completes_with_full_accounting(self, tmp_path):
        clock = VirtualClock()
        injector = FaultInjector.storm(
            optimizer_failure=0.2,
            predictor_failure=0.05,
            torn_write=0.5,
            seed=7,
            sleep=clock.sleep,
        )
        service = PlanCachingService.tpch(
            seed=0,
            fault_injector=injector,
            clock=clock,
            sleep=clock.sleep,
        )
        service.register("Q1")
        session = service.framework.session("Q1")
        dimensions = session.plan_space.dimensions
        rng = np.random.default_rng(11)
        points = rng.uniform(0.0, 1.0, size=(self.INSTANCES, dimensions))

        state_path = tmp_path / "q1-state.json"
        snapshots = {"clean": 0, "torn": 0}
        records = []
        for index, x in enumerate(points):
            record = service.execute(service.instance_at("Q1", x))
            records.append(record)
            assert record.executed_plan >= 0  # always an executable plan
            clock.advance(0.001)
            if (index + 1) % self.SNAPSHOT_EVERY == 0:
                try:
                    injector.save_predictor(
                        session.predictor, state_path
                    )
                    snapshots["clean"] += 1
                except InjectedFault:
                    snapshots["torn"] += 1

        assert len(records) == self.INSTANCES
        assert session.decisions == self.INSTANCES

        resilience = service.metrics()["templates"]["Q1"]["resilience"]
        counts = injector.counts

        # Every injected predictor fault was caught and counted.
        assert resilience["degraded"]["predictor"] == counts.get(
            ("predictor", "exception"), 0
        )
        assert resilience["degraded"]["predictor"] > 0
        assert resilience["degraded"]["predictor_insert"] == counts.get(
            ("predictor_insert", "exception"), 0
        )

        # Optimizer accounting: each injected exception was either
        # absorbed by a retry or ended a call as retry-exhausted
        # (degrading to the fallback chain).  The breaker never opened
        # under this fault rate (exhaustion needs three consecutive
        # all-attempts failures), so degradations == exhaustions.
        assert resilience["breaker_state"] == CLOSED
        assert all(
            count == 0
            for count in resilience["breaker_transitions"].values()
        )
        assert counts.get(("optimizer", "exception"), 0) == (
            resilience["optimizer_retries"]
            + resilience["degraded"]["optimizer"]
        )
        assert resilience["optimizer_retries"] > 0

        # Exhausted optimizer calls were all served from the fallback
        # chain (the cache warms on the very first instance) — except
        # in the negative-feedback path, where the already-executed
        # plan stands and no fallback is needed.
        fallbacks = sum(resilience["fallback_served"].values())
        unverified_suspicions = sum(
            1
            for r in records
            if r.invocation_reason == "negative_feedback"
            and r.degraded
            and not r.optimizer_invoked
        )
        assert (
            fallbacks + unverified_suspicions
            == resilience["degraded"]["optimizer"]
        )
        degraded_records = sum(1 for r in records if r.degraded)
        assert degraded_records > 0
        if fallbacks:
            summary = resilience["fallback_suboptimality"]
            assert summary["count"] == fallbacks

        # Torn-write persistence: every snapshot attempt is accounted
        # for, and whatever state the file was left in reloads
        # non-strict into a functioning predictor.
        total_snapshots = self.INSTANCES // self.SNAPSHOT_EVERY
        assert snapshots["clean"] + snapshots["torn"] == total_snapshots
        assert snapshots["torn"] == counts.get(
            ("persistence", "torn_write"), 0
        )
        assert snapshots["torn"] > 0
        restored = load_predictor(
            state_path,
            strict=False,
            cold=lambda: cold_predictor(
                dimensions=dimensions,
                plan_count=session.plan_space.plan_count,
            ),
        )
        restored.insert(np.full(dimensions, 0.5), 0, cost=1.0)
        restored.predict(np.full(dimensions, 0.25))

        # The error-biased trace sampler kept evidence of degraded
        # decisions in the flight recorder.
        assert any(t.errored for t in session.tracer.traces())
