"""Observability integration: session/cache/governor metric emission,
plus the per-template seed-independence fix in :class:`PPCFramework`."""

import numpy as np

from repro.config import PPCConfig
from repro.core.framework import PPCFramework, TemplateSession
from repro.obs import MetricsRegistry, names as metric_names
from repro.workload import RandomTrajectoryWorkload


def _run_session(tiny_space, config=None, n=60, metrics=None, seed=0):
    session = TemplateSession(
        tiny_space,
        config
        or PPCConfig(
            confidence_threshold=0.6,
            mean_invocation_probability=0.05,
            drift_response=False,
        ),
        seed=seed,
        metrics=metrics,
    )
    workload = RandomTrajectoryWorkload(
        tiny_space.dimensions, spread=0.05, seed=11
    ).generate(n)
    records = [session.execute(point) for point in workload]
    return session, records


class TestSessionMetrics:
    def test_execution_counter_and_stage_timers(self, tiny_space):
        session, records = _run_session(tiny_space, n=60)
        registry = session.metrics
        assert (
            registry.counter_value(
                metric_names.EXECUTIONS_TOTAL, template="tiny"
            )
            == 60
        )
        # Every instance runs the predict stage exactly once.
        predict = registry.histogram_summary(
            metric_names.STAGE_SECONDS, template="tiny", stage="predict"
        )
        assert predict["count"] == 60
        assert predict["sum"] > 0.0
        assert predict["p95"] >= predict["p50"] >= 0.0
        # Trusted executions run execute+feedback; invocations run
        # optimize (pre-execution ones) — together they tile the run.
        optimize = registry.histogram_summary(
            metric_names.STAGE_SECONDS, template="tiny", stage="optimize"
        )
        execute = registry.histogram_summary(
            metric_names.STAGE_SECONDS, template="tiny", stage="execute"
        )
        feedback = registry.histogram_summary(
            metric_names.STAGE_SECONDS, template="tiny", stage="feedback"
        )
        trusted = sum(1 for r in records if not r.optimizer_invoked)
        negative = sum(
            1
            for r in records
            if r.invocation_reason == "negative_feedback"
        )
        assert execute["count"] == trusted + negative
        assert feedback["count"] == trusted + negative
        # Negative-feedback invocations are timed inside the feedback
        # stage, so "optimize" holds only the pre-execution ones.
        assert optimize["count"] == session.optimizer_invocations - negative

    def test_invocation_reason_counters_sum_to_invocations(self, tiny_space):
        session, records = _run_session(tiny_space, n=80)
        registry = session.metrics
        by_reason = {
            labels["reason"]: value
            for labels, value in registry.counter_series(
                metric_names.INVOCATIONS_TOTAL
            )
        }
        assert sum(by_reason.values()) == session.optimizer_invocations
        # The cold start always begins with a NULL prediction.
        assert by_reason.get("null_prediction", 0) >= 1
        # Counters agree with the per-record reasons.
        for reason in metric_names.INVOCATION_REASONS:
            expected = sum(
                1
                for r in records
                if r.invocation_reason == reason
            )
            assert by_reason.get(reason, 0) == expected

    def test_cache_event_counters_match_cache_stats(self, tiny_space):
        session, __ = _run_session(tiny_space, n=80)
        registry = session.metrics
        cache = session.cache
        events = {
            labels["event"]: value
            for labels, value in registry.counter_series(
                metric_names.CACHE_EVENTS_TOTAL
            )
        }
        assert events.get("hit", 0) == cache.hits
        assert events.get("miss", 0) == cache.misses
        assert events.get("eviction", 0) == cache.evictions
        assert cache.hits > 0

    def test_predictor_timers_fire_once_per_predict(self, tiny_space):
        session, __ = _run_session(tiny_space, n=40)
        registry = session.metrics
        transform = registry.histogram_summary(
            metric_names.PREDICT_TRANSFORM_SECONDS, template="tiny"
        )
        ranges = registry.histogram_summary(
            metric_names.PREDICT_RANGE_QUERY_SECONDS, template="tiny"
        )
        assert transform["count"] == 40
        assert ranges["count"] == 40

    def test_batched_transform_timer_fires_once_per_z_pass(self, tiny_space):
        # execute_batch shares one z pass per block; a traced row makes
        # its own.  The range-query timer still fires once per row.
        session = TemplateSession(tiny_space, PPCConfig(), seed=0)
        points = RandomTrajectoryWorkload(
            tiny_space.dimensions, spread=0.05, seed=11
        ).generate(64)
        for block in range(4):
            session.execute_batch(np.asarray(points[16 * block : 16 * (block + 1)]))
        registry = session.metrics
        traced = sum(
            value
            for labels, value in registry.counter_series(
                metric_names.TRACE_SAMPLER_TOTAL
            )
            if labels["decision"] != "skipped"
        )
        assert 0 < traced < 64
        transform = registry.histogram_summary(
            metric_names.PREDICT_TRANSFORM_SECONDS, template="tiny"
        )
        ranges = registry.histogram_summary(
            metric_names.PREDICT_RANGE_QUERY_SECONDS, template="tiny"
        )
        predict = registry.histogram_summary(
            metric_names.STAGE_SECONDS, template="tiny", stage="predict"
        )
        assert transform["count"] == 4 + traced
        assert ranges["count"] == predict["count"] == 64

    def test_positive_feedback_outcomes_counted(self, tiny_space):
        config = PPCConfig(
            confidence_threshold=0.6,
            mean_invocation_probability=0.05,
            drift_response=False,
            positive_feedback=True,
            positive_feedback_min_confidence=0.6,
        )
        session, records = _run_session(tiny_space, config=config, n=80)
        registry = session.metrics
        outcomes = {
            labels["outcome"]: value
            for labels, value in registry.counter_series(
                metric_names.POSITIVE_FEEDBACK_TOTAL
            )
        }
        trusted = sum(1 for r in records if not r.optimizer_invoked)
        # Every trusted execution (no optimizer, no negative feedback)
        # produces exactly one accept/reject decision.
        assert trusted > 0
        assert sum(outcomes.values()) == trusted

    def test_drift_counter_tracks_drift_events(self, tiny_space):
        config = PPCConfig(
            confidence_threshold=0.3,
            mean_invocation_probability=0.0,
            negative_feedback=True,
            drift_response=True,
            drift_threshold=0.99,
            drift_min_observations=5,
            monitor_window=10,
        )
        session = TemplateSession(tiny_space, config, seed=0)
        x = np.array([0.5, 0.5])
        true_plan = int(tiny_space.plan_at(x[None, :])[0])
        wrong_plan = (true_plan + 1) % tiny_space.plan_count
        for __ in range(12):
            session.observe(x, wrong_plan, cost=1.0)
        for __ in range(30):
            if session.execute(x).drift_triggered:
                break
        assert session.drift_events >= 1
        assert (
            session.metrics.counter_value(
                metric_names.DRIFT_EVENTS_TOTAL, template="tiny"
            )
            == session.drift_events
        )

    def test_sessions_share_framework_registry(self, tiny_space, q1_space):
        framework = PPCFramework(PPCConfig(drift_response=False), seed=0)
        framework.register(tiny_space)
        framework.register(q1_space)
        framework.execute("tiny", np.array([0.5, 0.5]))
        framework.execute("Q1", np.array([0.5, 0.5]))
        registry = framework.metrics
        assert framework.session("tiny").metrics is registry
        assert framework.session("Q1").metrics is registry
        for template in ("tiny", "Q1"):
            assert (
                registry.counter_value(
                    metric_names.EXECUTIONS_TOTAL, template=template
                )
                == 1
            )


class TestGovernorMetrics:
    def test_reclamation_counters(self, q1_space, q5_space):
        framework = PPCFramework(
            PPCConfig(drift_response=False),
            seed=0,
            memory_budget_bytes=500,
            governor_interval=8,
        )
        framework.register(q1_space)
        framework.register(q5_space)
        q1_workload = RandomTrajectoryWorkload(
            q1_space.dimensions, spread=0.05, seed=1
        ).generate(120)
        q5_workload = RandomTrajectoryWorkload(
            q5_space.dimensions, spread=0.05, seed=2
        ).generate(120)
        for a, b in zip(q1_workload, q5_workload, strict=True):
            framework.execute("Q1", a)
            framework.execute("Q5", b)
        governor = framework.governor
        assert governor.shrinks + governor.drops > 0
        assert governor.reclaimed_bytes > 0
        registry = framework.metrics
        assert (
            registry.counter_value(metric_names.GOVERNOR_RECLAIMED_BYTES)
            == governor.reclaimed_bytes
        )
        actions = sum(
            value
            for __, value in registry.counter_series(
                metric_names.GOVERNOR_ACTIONS_TOTAL
            )
        )
        assert actions == governor.shrinks + governor.drops


class TestPerTemplateSeeding:
    """Satellite fix: registered sessions must not share RNG streams."""

    def test_templates_get_distinct_transform_ensembles(
        self, tiny_space, q1_space
    ):
        # Both spaces are two-dimensional, so identical streams would
        # produce identical LSH directions — the pre-fix bug.
        assert tiny_space.dimensions == q1_space.dimensions == 2
        framework = PPCFramework(PPCConfig(drift_response=False), seed=7)
        a = framework.register(tiny_space)
        b = framework.register(q1_space)
        dirs_a = a.predictor.ensemble.transforms[0].directions
        dirs_b = b.predictor.ensemble.transforms[0].directions
        assert not np.allclose(dirs_a, dirs_b)

    def test_multi_template_run_reproducible_from_one_seed(
        self, tiny_space, q1_space
    ):
        def directions(seed):
            framework = PPCFramework(
                PPCConfig(drift_response=False), seed=seed
            )
            a = framework.register(tiny_space)
            b = framework.register(q1_space)
            return (
                a.predictor.ensemble.transforms[0].directions,
                b.predictor.ensemble.transforms[0].directions,
            )

        first = directions(7)
        second = directions(7)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        third = directions(8)
        assert not np.allclose(first[0], third[0])

    def test_generator_seed_still_supported(self, tiny_space, q1_space):
        framework = PPCFramework(
            PPCConfig(drift_response=False),
            seed=np.random.default_rng(3),
        )
        a = framework.register(tiny_space)
        b = framework.register(q1_space)
        dirs_a = a.predictor.ensemble.transforms[0].directions
        dirs_b = b.predictor.ensemble.transforms[0].directions
        assert not np.allclose(dirs_a, dirs_b)


class TestSnapshotShape:
    def test_session_snapshot_round_trips(self, tiny_space):
        registry = MetricsRegistry()
        _run_session(tiny_space, n=20, metrics=registry)
        snapshot = registry.snapshot()
        assert metric_names.EXECUTIONS_TOTAL in snapshot["counters"]
        assert metric_names.STAGE_SECONDS in snapshot["histograms"]
        stages = {
            sample["labels"]["stage"]
            for sample in snapshot["histograms"][metric_names.STAGE_SECONDS]
        }
        assert "predict" in stages
