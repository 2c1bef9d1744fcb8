"""Span-based decision tracing: spans, sampler, recorder, round-trip."""

import numpy as np
import pytest

from repro.config import PPCConfig, TraceConfig
from repro.core.framework import ExecutionRecord, TemplateSession
from repro.exceptions import ConfigurationError
from repro.obs import names
from repro.obs import tracing
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    DecisionTrace,
    DecisionTracer,
    FlightRecorder,
    dumps_jsonl,
    loads_jsonl,
    render_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.workload import RandomTrajectoryWorkload, sample_points


def _record(
    suboptimality: float = 1.0,
    degraded: bool = False,
    fallback_source: str = "",
) -> ExecutionRecord:
    """A minimal fabricated record for tracer/recorder tests."""
    return ExecutionRecord(
        template="T",
        point=np.array([0.5, 0.5]),
        predicted=3,
        confidence=0.9,
        optimizer_invoked=False,
        invocation_reason="none",
        executed_plan=3,
        execution_cost=suboptimality,
        optimal_plan=3,
        optimal_cost=1.0,
        drift_triggered=False,
        degraded=degraded,
        fallback_source=fallback_source,
    )


class TestSpanTree:
    def test_nesting_and_attributes(self):
        trace = DecisionTrace("T", 0, "forced")
        with trace.span("predict") as outer:
            outer.set(plan=3)
            with trace.span("transform", index=0) as inner:
                inner.set(vote=3)
        names_seen = [span.name for span in trace.spans()]
        assert names_seen == ["predict", "transform"]
        transform = next(trace.spans("transform"))
        assert transform.attributes == {"index": 0, "vote": 3}
        assert trace.span_count == 2

    def test_exception_marks_error_status_and_closes(self):
        trace = DecisionTrace("T", 0, "forced")
        with pytest.raises(RuntimeError):
            with trace.span("predict"):
                raise RuntimeError("boom")
        span = next(trace.spans("predict"))
        assert span.status == "error"
        # The stack unwound: annotate targets the root again.
        trace.annotate(after=True)
        assert trace.root.attributes == {"after": True}

    def test_finish_closes_leftover_spans_and_seals_outcome(self):
        trace = DecisionTrace("T", 4, "head")
        trace.open_span("predict")
        trace.finish({"executed_plan": 1, "optimal_plan": 1})
        assert trace.outcome == {"executed_plan": 1, "optimal_plan": 1}
        assert next(trace.spans("predict")).duration >= 0.0

    def test_errored_property_covers_all_incident_shapes(self):
        for outcome, expected in [
            ({"error": "RuntimeError: x"}, True),
            ({"degraded": True}, True),
            ({"fallback_source": "stale_cache"}, True),
            ({"degraded": False, "fallback_source": ""}, False),
        ]:
            trace = DecisionTrace("T", 0, "forced")
            trace.finish(outcome)
            assert trace.errored is expected


class TestNoopPath:
    def test_noop_trace_is_inert_and_shared(self, monkeypatch):
        tracer = DecisionTracer("T", config=TraceConfig(head=0))
        first = tracer.begin()
        tracer.finish(first)

        def no_span(*args, **kwargs):
            raise AssertionError("an unsampled trace built a Span")

        monkeypatch.setattr(tracing, "Span", no_span)
        trace = tracer.begin()
        assert trace is first
        assert trace.active is False
        with trace.span("predict", plan=1) as inner:
            assert inner.set(anything=1) is inner
        assert trace.annotate(x=1) is None
        tracer.finish(trace)
        assert trace.outcome is None

    def test_disabled_tracer_returns_the_singleton(self):
        tracer = DecisionTracer("T", config=TraceConfig(enabled=False))
        trace = tracer.begin()
        assert trace is tracer.inactive
        tracer.finish(trace)
        assert tracer.begin() is trace


class TestSerialization:
    def test_round_trip_is_lossless(self):
        trace = DecisionTrace("Q1", 7, "interval")
        trace.point = [0.25, 0.75]
        with trace.span("predict") as span:
            span.set(plan=2, counts=[1.0, 0.0], z=np.float64(0.5))
        trace.finish({"executed_plan": 2, "optimal_plan": 2})
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.to_dict() == trace.to_dict()

    def test_numpy_attributes_become_plain_json(self):
        trace = DecisionTrace("Q1", 0, "forced")
        with trace.span("transform") as span:
            span.set(z=np.float64(0.5), counts=np.array([1, 2]))
        trace.finish({})
        attrs = trace_to_dict(trace)["root"]["children"][0]["attributes"]
        assert attrs == {"z": 0.5, "counts": [1, 2]}
        assert type(attrs["z"]) is float

    def test_jsonl_round_trip(self):
        traces = []
        for seq in range(3):
            trace = DecisionTrace("Q1", seq, "head")
            trace.finish({"executed_plan": seq, "optimal_plan": 0})
            traces.append(trace)
        text = dumps_jsonl(traces)
        assert text.endswith("\n")
        rebuilt = loads_jsonl(text)
        assert [t.to_dict() for t in rebuilt] == [t.to_dict() for t in traces]

    def test_empty_jsonl(self):
        assert dumps_jsonl([]) == ""
        assert loads_jsonl("") == []


class TestFlightRecorder:
    def test_eviction_counts_and_occupancy(self):
        recorder = FlightRecorder(capacity=2, error_capacity=2)
        for seq in range(3):
            trace = DecisionTrace("T", seq, "head")
            trace.finish({})
            recorder.admit(trace)
        assert recorder.recorded == 3
        assert recorder.dropped == 1
        assert recorder.occupancy == 2
        assert [t.seq for t in recorder.traces()] == [1, 2]

    def test_error_traces_survive_healthy_traffic(self):
        recorder = FlightRecorder(capacity=2, error_capacity=4)
        incident = DecisionTrace("T", 0, "head")
        incident.finish({"degraded": True})
        recorder.admit(incident)
        for seq in range(1, 10):
            trace = DecisionTrace("T", seq, "head")
            trace.finish({})
            recorder.admit(trace)
        assert incident in recorder.traces()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSampler:
    def test_head_then_interval_then_skip(self):
        tracer = DecisionTracer("T", config=TraceConfig(head=2, interval=4))
        seen = []
        for __ in range(9):
            trace = tracer.begin()
            seen.append(trace.decision if trace.active else "skipped")
        assert seen == [
            "head",
            "head",
            "skipped",
            "skipped",
            "interval",
            "skipped",
            "skipped",
            "skipped",
            "interval",
        ]

    def test_incident_arms_error_burst_even_when_unsampled(self):
        tracer = DecisionTracer(
            "T", config=TraceConfig(head=0, interval=0, error_burst=2)
        )
        trace = tracer.begin()
        assert trace is tracer.inactive
        tracer.finish(trace, record=_record(degraded=True))
        follow = [tracer.begin() for __ in range(3)]
        assert [t.decision if t.active else "skipped" for t in follow] == [
            "error_bias",
            "error_bias",
            "skipped",
        ]

    def test_forced_trace_bypasses_disabled_config(self):
        tracer = DecisionTracer("T", config=TraceConfig(enabled=False))
        trace = tracer.begin(force=True)
        assert trace.active
        assert trace.decision == "forced"

    def test_sampling_consumes_no_rng(self):
        """The whole begin/finish cycle must not touch global RNG state."""
        state = np.random.get_state()[1].copy()
        tracer = DecisionTracer("T", config=TraceConfig(head=4, error_burst=2))
        for __ in range(8):
            trace = tracer.begin()
            tracer.finish(trace, record=_record(degraded=True))
        assert np.array_equal(np.random.get_state()[1], state)


class TestTracerAccounting:
    def test_metrics_and_stats_agree(self):
        registry = MetricsRegistry()
        tracer = DecisionTracer(
            "T",
            config=TraceConfig(head=2, interval=0, capacity=2, error_capacity=2),
            metrics=registry,
        )
        for __ in range(4):
            trace = tracer.begin()
            tracer.finish(trace, record=_record())
        stats = tracer.stats()
        assert stats["sampler"] == {
            "forced": 0,
            "head": 2,
            "error_bias": 0,
            "interval": 0,
            "skipped": 2,
        }
        assert stats["recorded"] == 2
        assert stats["dropped"] == 0
        assert stats["occupancy"] == 2
        recorded = registry.counter(names.TRACE_RECORDED_TOTAL, template="T")
        assert recorded.value == 2.0
        head = registry.counter(
            names.TRACE_SAMPLER_TOTAL, template="T", decision="head"
        )
        assert head.value == 2.0

    def test_error_outcome_recorded(self):
        tracer = DecisionTracer("T", config=TraceConfig(head=1))
        trace = tracer.begin()
        tracer.finish(trace, error=RuntimeError("optimizer down"))
        [stored] = tracer.traces()
        assert stored.outcome == {"error": "RuntimeError: optimizer down"}
        assert stored.errored


class TestTraceConfigValidation:
    def test_negative_head_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(head=-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(capacity=0)


class TestSessionIntegration:
    @pytest.fixture()
    def session(self, tiny_space):
        config = PPCConfig(
            confidence_threshold=0.6,
            mean_invocation_probability=0.05,
            drift_response=False,
            trace=TraceConfig(head=4, interval=0),
        )
        return TemplateSession(tiny_space, config, seed=0)

    def test_execute_records_head_traces(self, session):
        for __ in range(6):
            session.execute(np.array([0.4, 0.4]))
        traces = session.tracer.traces()
        assert len(traces) == 4
        assert all(t.outcome is not None for t in traces)
        assert all(next(t.spans("normalize"), None) is not None for t in traces)

    def test_explain_forces_full_span_tree(self, session):
        x = np.array([0.35, 0.35])
        for __ in range(10):
            session.execute(x)
        trace = session.explain(x)
        assert trace.decision == "forced"
        span_names = {span.name for span in trace.spans()}
        assert {"normalize", "predict", "transform", "aggregate"} <= span_names
        transforms = list(trace.spans("transform"))
        assert len(transforms) == session.config.transforms
        for span in transforms:
            assert "counts" in span.attributes
            assert "vote" in span.attributes
        confidence = next(trace.spans("confidence"), None)
        if confidence is not None:
            assert "gamma" in confidence.attributes
            assert "passed" in confidence.attributes

    def test_render_contains_outcome_line(self, session):
        trace = session.explain(np.array([0.5, 0.5]))
        text = render_trace(trace)
        assert text.startswith("trace tiny#")
        assert "outcome:" in text
        assert "normalize" in text


class TestPredictSpanPayload:
    """One traced decision's predict spans carry exactly the quantities
    the decision used, each recomputed here from ``_range_estimates``
    and ``decide_batch`` on the same (warmed) predictor state."""

    NOISE_FRACTION = 0.02

    @pytest.fixture()
    def session(self, tiny_space):
        config = PPCConfig(
            confidence_threshold=0.7,
            mean_invocation_probability=0.05,
            noise_fraction=self.NOISE_FRACTION,
            drift_response=False,
            trace=TraceConfig(head=0, interval=0),
        )
        session = TemplateSession(tiny_space, config, seed=0)
        for x in RandomTrajectoryWorkload(2, spread=0.05, seed=4).generate(150):
            session.execute(x)
        return session

    @staticmethod
    def _expected(predictor, x):
        """Every predict-stage payload of a traced decision at ``x``,
        plus the decision's kind (answered / rejected / eliminated)."""
        gamma = predictor.confidence_threshold
        z_values, estimates, averages = predictor._range_estimates(x[None, :])
        transforms = []
        for index in range(estimates.shape[0]):
            z = float(z_values[index, 0])
            row = estimates[index, :, 0]
            transforms.append({
                "index": index,
                "z": z,
                "z_range": [z - predictor.delta, z + predictor.delta],
                "counts": [float(c) for c in row],
                "avg_costs": [
                    float(cost) if count > 0 else None
                    for cost, count in zip(averages[index, :, 0], row)
                ],
                "vote": int(row.argmax()) if row.max() > 0 else None,
            })
        counts = np.median(estimates[:, :, 0], axis=0)
        max_count = float(counts.max())
        threshold = predictor.noise_fraction * predictor.total_mass
        eliminated = max_count < threshold
        winners, confidences = predictor.model.decide_batch(
            counts[None, :], gamma
        )
        winner = int(counts.argmax())
        other = float(counts.sum()) - max_count
        confidence = {
            "gamma": gamma,
            "winner": winner,
            "max_count": max_count,
            "other_count": other,
            "ratio": max_count / other if other > 0 else None,
            "model": "mixed" if other > 0 else "pure",
            "sin_theta": float(confidences[0]),
            "passed": bool(winners[0] >= 0),
        }
        plan = None if eliminated or winners[0] < 0 else winner
        cost = None
        if plan is not None:
            supported = estimates[:, plan, 0] > 0
            cost = float(np.median(averages[supported, plan, 0]))
        kind = (
            "eliminated" if eliminated
            else "answered" if plan is not None
            else "rejected"
        )
        return kind, {
            "transform": transforms,
            "aggregate": {"method": "median", "counts": counts.tolist()},
            "noise_elimination": {
                "max_count": max_count,
                "total_mass": predictor.total_mass,
                "noise_fraction": predictor.noise_fraction,
                "threshold": threshold,
                "eliminated": eliminated,
            },
            "confidence": confidence,
            "cost_estimate": {"plan": plan, "estimated_cost": cost},
        }

    def _traced(self, session, kind):
        """The first candidate point of ``kind`` with a non-empty
        neighbourhood, its expected payloads and its decision trace."""
        predictor = session.online.predictor
        for x in sample_points(2, 400, seed=3):
            found, expected = self._expected(predictor, x)
            if found == kind and expected["noise_elimination"]["max_count"] > 0:
                return expected, session.explain(x)
        pytest.fail(f"no {kind} point among the candidates")

    @staticmethod
    def _children(trace):
        return next(trace.spans("predict")).children

    def _assert_payloads(self, trace, expected, names_):
        spans = {span.name: span for span in self._children(trace)}
        for name in names_:
            if name == "transform":
                got = [span.attributes for span in trace.spans("transform")]
                assert got == expected["transform"]
            else:
                assert spans[name].attributes == expected[name], name

    def test_answered_decision(self, session):
        expected, trace = self._traced(session, "answered")
        assert [span.name for span in self._children(trace)] == [
            "z_values", "density_lookup",
            *["transform"] * len(expected["transform"]),
            "aggregate", "noise_elimination", "confidence", "cost_estimate",
        ]
        self._assert_payloads(trace, expected, list(expected))
        assert expected["confidence"]["passed"]
        assert trace.outcome["predicted"] == expected["cost_estimate"]["plan"]

    def test_gamma_rejected_decision(self, session):
        expected, trace = self._traced(session, "rejected")
        assert not expected["confidence"]["passed"]
        self._assert_payloads(
            trace, expected,
            ["transform", "aggregate", "noise_elimination", "confidence"],
        )
        assert trace.outcome["predicted"] is None

    @pytest.mark.parametrize("kind", ["eliminated", "rejected"])
    def test_null_decisions_open_every_stage(self, session, kind):
        """Noise elimination and the γ rejection null the decision
        after the confidence check: the traced tree still shows the
        confidence verdict and the (empty) cost estimate that the
        untraced decision computes too."""
        expected, trace = self._traced(session, kind)
        assert expected["cost_estimate"] == {
            "plan": None, "estimated_cost": None,
        }
        self._assert_payloads(trace, expected, list(expected))
        assert trace.outcome["predicted"] is None


class TestOptimizeSpan:
    def test_feedback_verify_records_what_an_invocation_records(
        self, tiny_space
    ):
        """The negative-feedback verify nests its ``optimize`` span
        under ``feedback`` and carries the same attributes as the
        invocation-reason span, retries included."""
        config = PPCConfig(
            mean_invocation_probability=0.0,
            drift_response=False,
            trace=TraceConfig(head=0, interval=0),
        )
        session = TemplateSession(tiny_space, config, seed=0)
        invoked = session.explain(np.array([0.5, 0.5]))
        probe = None
        for x in RandomTrajectoryWorkload(2, spread=0.05, seed=4).generate(300):
            session.execute(x)
            prediction = session.online.predict(x)
            if prediction is not None and prediction.plan_id in session.cache:
                probe = x
        assert probe is not None, "predictor never warmed up"
        session.online.suspect_error = lambda *args, **kwargs: True
        verified = session.explain(probe)

        top = next(invoked.spans("optimize"))
        assert top in invoked.root.children
        feedback = next(verified.spans("feedback"))
        verify = next(span for span in feedback.children if span.name == "optimize")
        assert verify.attributes["reason"] == "negative_feedback"
        assert verify.attributes["retries"] == 0
        assert set(verify.attributes) == set(top.attributes) == {
            "reason", "breaker_before", "breaker_after", "retries",
            "available", "plan", "cost",
        }
