"""Tracing must not perturb decisions: traced == untraced, bit for bit.

The sampler consumes no RNG and every traced code path computes the
same values as its untraced twin, so two sessions built from the same
seed must produce identical decision streams even when one records a
full trace for every execution and the other records none.
"""

import numpy as np
import pytest

from repro.config import PPCConfig, TraceConfig
from repro.core.framework import TemplateSession
from repro.workload import RandomTrajectoryWorkload
from repro.workload.runner import decision_digest


def _config(trace: TraceConfig) -> PPCConfig:
    return PPCConfig(
        confidence_threshold=0.7,
        mean_invocation_probability=0.05,
        drift_response=False,
        trace=trace,
    )



class TestTraceParity:
    def test_full_tracing_matches_untraced_run(self, tiny_space):
        untraced = TemplateSession(
            tiny_space, _config(TraceConfig(enabled=False)), seed=11
        )
        traced = TemplateSession(
            tiny_space, _config(TraceConfig(interval=1, capacity=512)), seed=11
        )
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=4).generate(150)
        for x in workload:
            a = untraced.execute(x)
            b = traced.execute(x)
            assert decision_digest(a) == decision_digest(b)
        assert untraced.optimizer_invocations == traced.optimizer_invocations
        assert len(traced.tracer.traces()) > 0
        assert len(untraced.tracer.traces()) == 0

    def test_explain_matches_untraced_execute(self, tiny_space):
        """The satellite parity check: explain's outcome equals the
        ExecutionRecord an identical untraced session produces."""
        untraced = TemplateSession(
            tiny_space, _config(TraceConfig(enabled=False)), seed=3
        )
        explained = TemplateSession(
            tiny_space, _config(TraceConfig(enabled=False)), seed=3
        )
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=9).generate(80)
        for x in workload:
            record = untraced.execute(x)
            trace = explained.explain(x)
            twin = explained.records[-1]
            assert decision_digest(record) == decision_digest(twin)
            outcome = trace.outcome
            assert outcome["executed_plan"] == record.executed_plan
            assert outcome["fallback_source"] == record.fallback_source
            assert outcome["predicted"] == record.predicted
            assert outcome["invocation_reason"] == record.invocation_reason
            assert outcome["confidence"] == pytest.approx(record.confidence)

    def test_interleaved_explain_does_not_shift_the_stream(self, tiny_space):
        """explain mid-stream is an execution like any other — the
        decision sequence continues exactly as if execute had run."""
        plain = TemplateSession(
            tiny_space, _config(TraceConfig(enabled=False)), seed=5
        )
        mixed = TemplateSession(
            tiny_space, _config(TraceConfig()), seed=5
        )
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=2).generate(60)
        for i, x in enumerate(workload):
            a = plain.execute(x)
            if i % 7 == 3:
                mixed.explain(x)
                b = mixed.records[-1]
            else:
                b = mixed.execute(x)
            assert decision_digest(a) == decision_digest(b)

    def test_traced_run_consumes_identical_rng_stream(self, tiny_space):
        untraced = TemplateSession(
            tiny_space, _config(TraceConfig(enabled=False)), seed=21
        )
        traced = TemplateSession(
            tiny_space, _config(TraceConfig(interval=1)), seed=21
        )
        rng = np.random.default_rng(0)
        for x in rng.uniform(0, 1, (50, 2)):
            untraced.execute(x)
            traced.execute(x)
        # Both sessions drew the same number of invocation-probability
        # samples: the next draw from each internal RNG must agree.
        assert untraced._rng.random() == traced._rng.random()
