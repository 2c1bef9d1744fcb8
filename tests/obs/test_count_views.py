"""One count per fact: every stats view reads the registry's series.

Each component publishes its counts through the metric registry and
nothing else; ``service.metrics()``, ``tracer.stats()``,
``events.stats()`` and the governor summary are views over those
series.  These tests drive a service through every path that books a
count (governor shrinks and drops, journal rotation, cache eviction
and misses, an optimizer outage with fallbacks and breaker
transitions) and check each view against ``registry.snapshot()``.
"""

import pytest

from repro.config import EventsConfig, PPCConfig
from repro.core.framework import TemplateSession
from repro.exceptions import ResilienceError
from repro.obs import names as metric_names
from repro.resilience.faults import (
    FaultSpec,
    ScheduledFaultInjector,
    VirtualClock,
)
from repro.service import PlanCachingService
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload

TEMPLATE_KEYS = {
    "executions",
    "stage_seconds",
    "invocation_reasons",
    "optimizer_invocations",
    "positive_feedback",
    "drift_events",
    "cache",
    "predictor",
    "synopsis_bytes",
    "resilience",
    "trace",
}
CACHE_KEYS = {"hits", "misses", "evictions", "hit_rate", "size"}
RESILIENCE_KEYS = {
    "breaker_state",
    "breaker_transitions",
    "degraded",
    "fallback_served",
    "rejected_instances",
    "optimizer_retries",
    "fallback_suboptimality",
}
TRACE_KEYS = {
    "enabled",
    "occupancy",
    "capacity",
    "error_capacity",
    "recorded",
    "dropped",
    "sampler",
}
EVENTS_KEYS = {
    "enabled",
    "capacity",
    "emitted",
    "dropped",
    "occupancy",
    "next_seq",
    "digest",
    "by_kind",
    "templates",
}
GOVERNOR_KEYS = {
    "budget_bytes",
    "total_bytes",
    "reclaimed_bytes",
    "shrinks",
    "drops",
}


def _is_count(value) -> bool:
    return type(value) is int


class _Series:
    """Lookup over one ``registry.snapshot()``."""

    def __init__(self, snapshot: dict) -> None:
        self._snapshot = snapshot

    def _entries(self, kind: str, name: str, labels: dict) -> list[dict]:
        return [
            entry
            for entry in self._snapshot[kind].get(name, [])
            if all(entry["labels"].get(k) == v for k, v in labels.items())
        ]

    def counter(self, name: str, **labels) -> float:
        """Sum of every counter series of ``name`` matching ``labels``."""
        return sum(
            entry["value"] for entry in self._entries("counters", name, labels)
        )

    def gauge(self, name: str, **labels) -> float:
        (entry,) = self._entries("gauges", name, labels)
        return entry["value"]

    def histogram_count(self, name: str, **labels) -> int:
        (entry,) = self._entries("histograms", name, labels)
        return entry["count"]


def _check_counts(view: dict, series: dict) -> None:
    """``view[key]`` is an int equal to ``series[key]`` for every key,
    and the two key sets agree."""
    assert set(view) == set(series)
    for key, value in view.items():
        assert _is_count(value), (key, value)
        assert value == series[key], key


@pytest.fixture(scope="module")
def storm_run():
    """The service after the storm, and every record it returned by
    template (a session keeps only a window of its own)."""
    clock = VirtualClock()
    injector = ScheduledFaultInjector(seed=3, sleep=clock.sleep)
    service = PlanCachingService.tpch(
        scale_factor=0.1,
        config=PPCConfig(
            confidence_threshold=0.8,
            drift_response=False,
            cache_capacity=2,
            events=EventsConfig(enabled=True, capacity=64),
        ),
        memory_budget_bytes=8000,
        seed=0,
        fault_injector=injector,
        clock=clock,
        sleep=clock.sleep,
    )
    service.register("Q1")
    service.register("Q5")
    walks = {
        "Q1": RandomTrajectoryWorkload(2, spread=0.05, seed=5).generate(300),
        "Q5": RandomTrajectoryWorkload(4, spread=0.05, seed=6).generate(300),
    }
    records = {name: [] for name in walks}
    for index in range(300):
        if index == 120:
            # The optimizer goes down: retries, fallbacks, breaker opens.
            injector.set_spec("optimizer", FaultSpec(failure_probability=1.0))
        if index == 160:
            # ... and recovers once the breaker may probe again.
            injector.set_spec("optimizer", None)
            clock.advance(60.0)
        for name, walk in walks.items():
            records[name].append(
                service.execute(service.instance_at(name, walk[index]))
            )
        clock.advance(0.01)
    return service, records


@pytest.fixture(scope="module")
def storm_service(storm_run):
    return storm_run[0]


@pytest.fixture(scope="module")
def storm_records(storm_run):
    return storm_run[1]


class TestOneCountPerFact:
    def test_the_run_books_every_kind_of_count(self, storm_service):
        metrics = storm_service.metrics()
        governor = metrics["governor"]
        assert governor["shrinks"] > 0 and governor["drops"] > 0
        assert metrics["events"]["dropped"] > 0
        q1 = metrics["templates"]["Q1"]
        assert q1["cache"]["evictions"] > 0
        assert q1["invocation_reasons"]["cache_miss"] > 0
        assert sum(q1["resilience"]["fallback_served"].values()) > 0
        transitions = q1["resilience"]["breaker_transitions"]
        assert transitions["open"] > 0 and transitions["closed"] > 0

    def test_service_metrics_read_the_registry(
        self, storm_service, storm_records
    ):
        metrics = storm_service.metrics()
        series = _Series(metrics["registry"])
        assert set(metrics["templates"]) == {"Q1", "Q5"}
        for name, view in metrics["templates"].items():
            assert set(view) == TEMPLATE_KEYS
            assert _is_count(view["executions"])
            assert view["executions"] == series.counter(
                metric_names.EXECUTIONS_TOTAL, template=name
            )
            _check_counts(
                view["invocation_reasons"],
                {
                    reason: series.counter(
                        metric_names.INVOCATIONS_TOTAL,
                        template=name,
                        reason=reason,
                    )
                    for reason in metric_names.INVOCATION_REASONS
                },
            )
            assert _is_count(view["optimizer_invocations"])
            _check_counts(
                view["positive_feedback"],
                {
                    outcome: series.counter(
                        metric_names.POSITIVE_FEEDBACK_TOTAL,
                        template=name,
                        outcome=outcome,
                    )
                    for outcome in ("accepted", "rejected")
                },
            )
            assert _is_count(view["drift_events"])
            assert view["drift_events"] == series.counter(
                metric_names.DRIFT_EVENTS_TOTAL, template=name
            )

            cache = view["cache"]
            assert set(cache) == CACHE_KEYS
            _check_counts(
                {key: cache[key] for key in ("hits", "misses", "evictions")},
                {
                    key: series.counter(
                        metric_names.CACHE_EVENTS_TOTAL,
                        template=name,
                        event=event,
                    )
                    for key, event in (
                        ("hits", "hit"),
                        ("misses", "miss"),
                        ("evictions", "eviction"),
                    )
                },
            )
            lookups = cache["hits"] + cache["misses"]
            assert cache["hit_rate"] == cache["hits"] / lookups
            assert cache["size"] == series.gauge(
                metric_names.CACHE_PLANS, template=name
            )
            # Every cache-miss decision books exactly one miss, whether
            # or not the optimizer answered the call it makes.
            records = storm_records[name]
            assert cache["misses"] == sum(
                record.invocation_reason == "cache_miss" for record in records
            )

            for stage, digest in view["stage_seconds"].items():
                assert digest["count"] == series.histogram_count(
                    metric_names.STAGE_SECONDS, template=name, stage=stage
                )
            assert set(view["stage_seconds"]) == set(metric_names.STAGES)
            for key, metric in (
                ("transform_seconds", metric_names.PREDICT_TRANSFORM_SECONDS),
                (
                    "range_query_seconds",
                    metric_names.PREDICT_RANGE_QUERY_SECONDS,
                ),
            ):
                assert view["predictor"][key]["count"] == (
                    series.histogram_count(metric, template=name)
                )
            assert view["synopsis_bytes"] == series.gauge(
                metric_names.SYNOPSIS_BYTES, template=name
            )

            resilience = view["resilience"]
            assert set(resilience) == RESILIENCE_KEYS
            for key, metric, label, values in (
                (
                    "breaker_transitions",
                    metric_names.BREAKER_TRANSITIONS_TOTAL,
                    "state",
                    ("closed", "half_open", "open"),
                ),
                (
                    "degraded",
                    metric_names.DEGRADED_TOTAL,
                    "component",
                    metric_names.DEGRADED_COMPONENTS,
                ),
                (
                    "fallback_served",
                    metric_names.FALLBACK_SERVED_TOTAL,
                    "source",
                    metric_names.FALLBACK_SOURCES,
                ),
                (
                    "rejected_instances",
                    metric_names.REJECTED_INSTANCES_TOTAL,
                    "reason",
                    metric_names.REJECTION_REASONS,
                ),
            ):
                _check_counts(
                    resilience[key],
                    {
                        value: series.counter(
                            metric, template=name, **{label: value}
                        )
                        for value in values
                    },
                )
            assert _is_count(resilience["optimizer_retries"])
            assert resilience["optimizer_retries"] == series.counter(
                metric_names.OPTIMIZER_RETRIES_TOTAL, template=name
            )
            assert resilience["fallback_suboptimality"]["count"] == (
                series.histogram_count(
                    metric_names.FALLBACK_SUBOPTIMALITY, template=name
                )
            )

    def test_tracer_stats_read_the_registry(self, storm_service):
        metrics = storm_service.metrics()
        series = _Series(metrics["registry"])
        for name, view in metrics["templates"].items():
            trace = view["trace"]
            assert set(trace) == TRACE_KEYS
            assert trace == storm_service.framework.session(name).tracer.stats()
            for key, metric in (
                ("recorded", metric_names.TRACE_RECORDED_TOTAL),
                ("dropped", metric_names.TRACE_DROPPED_TOTAL),
            ):
                assert _is_count(trace[key])
                assert trace[key] == series.counter(metric, template=name)
            assert trace["occupancy"] == series.gauge(
                metric_names.TRACE_OCCUPANCY, template=name
            )
            _check_counts(
                trace["sampler"],
                {
                    decision: series.counter(
                        metric_names.TRACE_SAMPLER_TOTAL,
                        template=name,
                        decision=decision,
                    )
                    for decision in metric_names.SAMPLER_DECISIONS
                },
            )
            assert sum(trace["sampler"].values()) == view["executions"]

    def test_events_stats_read_the_registry(self, storm_service):
        metrics = storm_service.metrics()
        series = _Series(metrics["registry"])
        events = metrics["events"]
        assert set(events) == EVENTS_KEYS
        assert events == storm_service.framework.events.stats()
        emitted = metric_names.EVENTS_EMITTED_TOTAL
        assert _is_count(events["emitted"])
        assert events["emitted"] == series.counter(emitted)
        assert events["emitted"] == events["next_seq"]
        assert _is_count(events["dropped"])
        assert events["dropped"] == series.counter(
            metric_names.EVENTS_DROPPED_TOTAL
        )
        assert events["occupancy"] == series.gauge(
            metric_names.EVENTS_OCCUPANCY
        )
        _check_counts(
            events["by_kind"],
            {kind: series.counter(emitted, kind=kind) for kind in events["by_kind"]},
        )
        assert set(events["templates"]) == {"Q1", "Q5"}
        for template, kinds in events["templates"].items():
            _check_counts(
                kinds,
                {
                    kind: series.counter(emitted, template=template, kind=kind)
                    for kind in kinds
                },
            )

    def test_governor_summary_reads_the_registry(self, storm_service):
        metrics = storm_service.metrics()
        series = _Series(metrics["registry"])
        governor = metrics["governor"]
        assert set(governor) == GOVERNOR_KEYS
        for key in GOVERNOR_KEYS:
            assert _is_count(governor[key]), key
        assert governor["reclaimed_bytes"] == series.counter(
            metric_names.GOVERNOR_RECLAIMED_BYTES
        )
        for key, action in (("shrinks", "shrink"), ("drops", "drop")):
            assert governor[key] == series.counter(
                metric_names.GOVERNOR_ACTIONS_TOTAL, action=action
            )


class TestStandaloneSession:
    def test_standalone_journal_publishes_into_the_session_registry(self):
        # A session built without a framework owns its journal; the
        # journal's counts land in the session's registry.
        session = TemplateSession(
            plan_space_for("Q1"),
            PPCConfig(
                confidence_threshold=0.8,
                drift_response=False,
                events=EventsConfig(enabled=True, capacity=64),
            ),
            seed=5,
        )
        for x in RandomTrajectoryWorkload(2, spread=0.05, seed=5).generate(
            150
        ):
            session.execute(x)
        journal = session.events
        assert journal.emitted > 64 and journal.dropped > 0
        series = _Series(session.metrics.snapshot())
        assert series.counter(metric_names.EVENTS_EMITTED_TOTAL) == (
            journal.emitted
        )
        assert series.counter(metric_names.EVENTS_DROPPED_TOTAL) == (
            journal.dropped
        )
        assert series.gauge(metric_names.EVENTS_OCCUPANCY) == 64
        stats = journal.stats()
        assert stats["emitted"] == journal.emitted == stats["next_seq"]
        for kind, count in stats["by_kind"].items():
            assert count == series.counter(
                metric_names.EVENTS_EMITTED_TOTAL, template="Q1", kind=kind
            )

    def test_cache_miss_decisions_book_cache_misses(self):
        # The decide stage's lookup is the cache's one real ``get``: a
        # ``cache_miss`` decision is exactly one booked miss.
        session = TemplateSession(
            plan_space_for("Q1"),
            PPCConfig(
                confidence_threshold=0.8,
                drift_response=False,
                cache_capacity=2,
            ),
            seed=5,
        )
        records = [
            session.execute(x)
            for x in RandomTrajectoryWorkload(
                2, spread=0.1, seed=5
            ).generate(400)
        ]
        decisions = sum(
            1 for r in records if r.invocation_reason == "cache_miss"
        )
        assert decisions > 0
        registry = session.metrics
        assert registry.counter_value(
            metric_names.CACHE_EVENTS_TOTAL, template="Q1", event="miss"
        ) == decisions
        assert session.cache.misses == decisions
        # Every served prediction (negative-feedback verifies included)
        # looked its plan up once and found it.
        served = sum(
            1
            for r in records
            if r.invocation_reason in ("", "negative_feedback")
        )
        assert session.cache.hits == served
        assert session.cache.hit_rate == pytest.approx(
            session.cache.hits / (session.cache.hits + decisions)
        )



class TestInvocationReasons:
    def test_reasons_sum_to_answered_calls_under_an_outage(self):
        """A decision whose optimizer call finds the optimizer down
        books no invocation reason: it is served from the fallback
        chain, so the reasons still sum to the answered calls."""
        clock = VirtualClock()
        injector = ScheduledFaultInjector(seed=3, sleep=clock.sleep)
        service = PlanCachingService.tpch(
            scale_factor=0.1,
            config=PPCConfig(drift_response=False),
            seed=0,
            fault_injector=injector,
            clock=clock,
            sleep=clock.sleep,
        )
        service.register("Q1")
        walk = RandomTrajectoryWorkload(2, spread=0.05, seed=5).generate(200)
        records = []
        for index, point in enumerate(walk):
            if index == 120:
                injector.set_spec(
                    "optimizer", FaultSpec(failure_probability=1.0)
                )
            if index == 160:
                injector.set_spec("optimizer", None)
                clock.advance(60.0)
            records.append(service.execute(service.instance_at("Q1", point)))
            clock.advance(0.01)
        view = service.metrics()["templates"]["Q1"]
        assert sum(view["resilience"]["fallback_served"].values()) > 0
        invoked = sum(record.optimizer_invoked for record in records)
        assert view["optimizer_invocations"] == invoked
        assert sum(view["invocation_reasons"].values()) == invoked


class TestRaisedDecisions:
    def test_a_raised_decision_books_no_execution(self):
        """A decision that raises is not a decision: with the optimizer
        down from the first instance and nothing cached to fall back
        on, every ``execute`` raises, and the executions counter, the
        session's decision count and the report's instances agree at
        0."""
        clock = VirtualClock()
        injector = ScheduledFaultInjector(seed=3, sleep=clock.sleep)
        injector.set_spec("optimizer", FaultSpec(failure_probability=1.0))
        service = PlanCachingService.tpch(
            scale_factor=0.1,
            config=PPCConfig(drift_response=False),
            seed=0,
            fault_injector=injector,
            clock=clock,
            sleep=clock.sleep,
        )
        service.register("Q1")
        walk = RandomTrajectoryWorkload(2, spread=0.05, seed=5).generate(3)
        for point in walk:
            with pytest.raises(ResilienceError):
                service.execute(service.instance_at("Q1", point))
        view = service.metrics()["templates"]["Q1"]
        assert view["executions"] == 0
        assert service.framework.session("Q1").decisions == 0
        report = service.report()["Q1"]
        assert report["instances"] == 0.0
        assert report["invocation_rate"] == 0.0
