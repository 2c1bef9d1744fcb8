"""Stage profiler: exact clocks, sampling, parity, rendering."""

import numpy as np
import pytest

from repro.buildinfo import VERSION
from repro.config import PPCConfig, ProfileConfig, TraceConfig
from repro.core.framework import PPCFramework, TemplateSession
from repro.exceptions import ConfigurationError
from repro.obs import names as metric_names
from repro.obs import tracing
from repro.obs.profiling import MAX_PATHS, StageProfiler, render_profile
from repro.obs.tracing import TRACE_HEAD, DecisionTracer
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload


class FakeClock:
    """Returns 0.0, 1.0, 2.0, ... — one tick per call."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        now = self.t
        self.t += 1.0
        return now


def _seam(profiler: StageProfiler) -> DecisionTracer:
    """A tracer whose unsampled decisions drive ``profiler`` from the
    span seam on a :class:`FakeClock`."""
    return DecisionTracer(
        "T",
        config=TraceConfig(enabled=False),
        profiler=profiler,
        clock=FakeClock(),
    )


def _hot_config(**overrides) -> PPCConfig:
    return PPCConfig(
        confidence_threshold=0.8,
        mean_invocation_probability=0.05,
        drift_response=False,
        **overrides,
    )


class TestProfileConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            ProfileConfig(interval=0)

    def test_disabled_by_default(self):
        assert ProfileConfig().enabled is False


class TestStageProfilerClock:
    def test_exact_accumulation_under_fake_clock(self):
        # Each clock call ticks 1s: root opens at t=0; stage "a" spans
        # t=1..2 and "b" t=3..4 (1s each); the root closes at t=5.
        profiler = StageProfiler(ProfileConfig(enabled=True))
        tracer = _seam(profiler)
        trace = tracer.begin()
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        tracer.finish(trace)
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        assert rows[("decision",)]["cum_seconds"] == 5.0
        assert rows[("decision", "a")]["cum_seconds"] == 1.0
        assert rows[("decision", "b")]["cum_seconds"] == 1.0
        # Self time of the root excludes the two direct children.
        assert rows[("decision",)]["self_seconds"] == 3.0

    def test_nested_spans_split_self_time(self):
        # predict spans t=1..4 (3s) and contains transform t=2..3 (1s).
        profiler = StageProfiler(ProfileConfig(enabled=True))
        tracer = _seam(profiler)
        trace = tracer.begin()
        with trace.span("predict"), trace.span("transform"):
            pass
        tracer.finish(trace)
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        predict = rows[("decision", "predict")]
        assert predict["cum_seconds"] == 3.0
        assert predict["self_seconds"] == 2.0
        assert rows[("decision", "predict", "transform")]["cum_seconds"] == 1.0

    def test_complete_drains_open_spans(self):
        # A raised execution leaves spans open; finishing closes them.
        profiler = StageProfiler(ProfileConfig(enabled=True))
        tracer = _seam(profiler)
        trace = tracer.begin()
        trace.open_span("predict")
        tracer.finish(trace, error=RuntimeError("boom"))
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        assert rows[("decision", "predict")]["calls"] == 1


class TestSampling:
    def test_every_interval_th_execution_profiled(self):
        profiler = StageProfiler(ProfileConfig(enabled=True, interval=3))
        frames = [profiler.begin("T") for _ in range(9)]
        sampled = [i for i, frame in enumerate(frames) if frame is not None]
        assert sampled == [0, 3, 6]
        for frame in frames:
            if frame is not None:
                frame.complete(0.0)
        payload = profiler.report()["templates"]["T"]
        assert payload["executions_seen"] == 9
        assert payload["executions_profiled"] == 3

    def test_counters_are_per_template(self):
        profiler = StageProfiler(ProfileConfig(enabled=True, interval=2))
        assert profiler.begin("A") is not None
        assert profiler.begin("B") is not None  # B's own counter starts at 0
        assert profiler.begin("A") is None

    def test_path_cap_counts_drops(self):
        profiler = StageProfiler(ProfileConfig(enabled=True))
        tracer = _seam(profiler)
        trace = tracer.begin()
        for i in range(MAX_PATHS + 8):
            with trace.span(f"stage_{i}"):
                pass
        tracer.finish(trace)
        payload = profiler.report()["templates"]["T"]
        assert payload["paths_dropped"] > 0
        assert len(payload["stages"]) <= MAX_PATHS
        assert "truncated" in render_profile(profiler.report())


class TestDisabledIsFree:
    def test_session_owns_no_profiler_when_disabled(self):
        session = TemplateSession(
            plan_space_for("Q1"), _hot_config(), seed=17
        )
        assert session.profiler is None

    def test_unsampled_executions_reuse_noop_singleton(self, monkeypatch):
        # With profiling off and tracing past its head, every execution
        # runs on the tracer's one inactive trace and allocates no Span.
        session = TemplateSession(
            plan_space_for("Q1"), _hot_config(), seed=17
        )
        points = RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            TRACE_HEAD + 4
        )
        for x in points[:TRACE_HEAD]:
            session.execute(x)

        def no_span(*args, **kwargs):
            raise AssertionError("an unsampled execution built a Span")

        monkeypatch.setattr(tracing, "Span", no_span)
        for x in points[TRACE_HEAD:]:
            session.execute(x)
        assert session.tracer.begin() is session.tracer.inactive

    def test_framework_report_is_none_when_disabled(self):
        framework = PPCFramework(_hot_config(), seed=17)
        assert framework.profile_report() is None


class TestLockstepParity:
    def test_profile_trace_active_is_false(self):
        # A profiled, trace-skipped execution times its stages but
        # stays inactive, so callers skip attribute computation.
        profiler = StageProfiler(ProfileConfig(enabled=True))
        tracer = _seam(profiler)
        trace = tracer.begin()
        assert trace.profile is not None
        assert trace.active is False
        with trace.span("predict") as span:
            assert span.set(anything=1) is span
        tracer.finish(trace)
        assert profiler.report()["templates"]["T"]["executions_profiled"] == 1


class TestDeepSpansAndOutput:
    def _profiled_session(self) -> TemplateSession:
        return TemplateSession(
            plan_space_for("Q1"),
            _hot_config(
                profiling=ProfileConfig(enabled=True, interval=1),
                trace=TraceConfig(interval=1),
            ),
            seed=17,
        )

    def test_traced_executions_contribute_deep_stages(self):
        session = self._profiled_session()
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            150
        ):
            session.execute(x)
        paths = {
            tuple(row["path"])
            for row in session.profiler.report()["templates"]["Q1"]["stages"]
        }
        assert ("decision", "normalize") in paths
        assert ("decision", "predict") in paths
        assert ("decision", "predict", "transform") in paths
        assert ("decision", "predict", "aggregate") in paths
        assert ("decision", "predict", "confidence") in paths

    def test_collapsed_stacks_shape(self):
        session = self._profiled_session()
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            60
        ):
            session.execute(x)
        stacks = session.profiler.collapsed()
        assert "Q1;decision" in stacks
        assert "Q1;decision;predict" in stacks
        assert all(value >= 0.0 for value in stacks.values())

    def test_render_profile_tree(self):
        session = self._profiled_session()
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            60
        ):
            session.execute(x)
        text = render_profile(session.profiler.report())
        assert "template Q1" in text
        assert "decision" in text
        assert "predict" in text
        assert "named stages cover" in text
        # The footer is 1 - decision self / decision cumulative: on the
        # fake clock stage "a" takes t=1..2 of a t=0..3 decision.
        profiler = StageProfiler(ProfileConfig(enabled=True))
        tracer = _seam(profiler)
        trace = tracer.begin()
        with trace.span("a"):
            pass
        tracer.finish(trace)
        footer = render_profile(profiler.report()).splitlines()[-1]
        assert footer == "  named stages cover 33.3% of decision time"

    def test_render_empty_report(self):
        profiler = StageProfiler(ProfileConfig(enabled=True))
        assert "no executions profiled" in render_profile(profiler.report())

    def test_reset_clears_state(self):
        profiler = StageProfiler(ProfileConfig(enabled=True))
        profiler.begin("T").complete(0.0)
        profiler.reset()
        assert profiler.report()["templates"] == {}


class TestFrameworkIntegration:
    def test_shared_profiler_aggregates_templates(self):
        framework = PPCFramework(
            _hot_config(profiling=ProfileConfig(enabled=True, interval=1)),
            seed=17,
        )
        for template in ("Q1", "Q2"):
            framework.register(plan_space_for(template))
            dims = framework.session(template).plan_space.dimensions
            for x in RandomTrajectoryWorkload(
                dims, spread=0.02, seed=5
            ).generate(40):
                framework.execute(template, x)
        report = framework.profile_report()
        assert set(report["templates"]) == {"Q1", "Q2"}
        for payload in report["templates"].values():
            assert payload["executions_profiled"] == 40

    def test_build_info_gauge_registered(self):
        framework = PPCFramework(_hot_config(), seed=17)
        snapshot = framework.metrics.snapshot()
        gauges = snapshot["gauges"][metric_names.BUILD_INFO]
        (entry,) = gauges
        assert entry["labels"]["version"] == VERSION
        assert entry["labels"]["commit"]
        assert entry["value"] == 1.0

    def test_profiled_point_matches_scalar_numpy_payload(self):
        # Guard against dtype drift: profiled execution accepts the
        # same np.ndarray points as the unprofiled path.
        session = TemplateSession(
            plan_space_for("Q1"),
            _hot_config(profiling=ProfileConfig(enabled=True)),
            seed=17,
        )
        record = session.execute(np.array([0.4, 0.6]))
        assert record.executed_plan >= 0
