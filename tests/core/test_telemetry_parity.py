"""Telemetry must not perturb decisions: sampled == unsampled, bit for bit.

The time-series sampler and the quality scorecard are strictly
read-only over session state and consume no RNG, so two frameworks
built from the same seed must produce identical decision streams even
when one snapshots every metric each simulated second and refreshes the
scorecard gauges on every snapshot while the other runs with telemetry
disabled.
"""

import pytest

from repro.config import PPCConfig, TelemetryConfig
from repro.core.framework import PPCFramework
from repro.obs import names as metric_names
from repro.resilience import VirtualClock
from repro.workload import RandomTrajectoryWorkload
from repro.workload.runner import decision_digest


def _framework(tiny_space, telemetry: TelemetryConfig):
    clock = VirtualClock()
    config = PPCConfig(
        confidence_threshold=0.7,
        mean_invocation_probability=0.05,
        drift_response=False,
        telemetry=telemetry,
    )
    framework = PPCFramework(config, seed=11, clock=clock, sleep=clock.sleep)
    framework.register(tiny_space)
    return framework, clock



#: The most aggressive cadence: a snapshot every simulated second, a
#: scorecard refresh on every snapshot.
AGGRESSIVE = TelemetryConfig(sample_interval=1.0, quality_every=1)


class TestTelemetryParity:
    def test_sampled_run_matches_unsampled_run(self, tiny_space):
        plain, plain_clock = _framework(
            tiny_space, TelemetryConfig(enabled=False)
        )
        sampled, sampled_clock = _framework(tiny_space, AGGRESSIVE)
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=4)
        for x in workload.generate(150):
            a = plain.execute("tiny", x)
            b = sampled.execute("tiny", x)
            assert decision_digest(a) == decision_digest(b)
            plain_clock.advance(1.0)
            sampled_clock.advance(1.0)
        assert (
            plain.session("tiny").optimizer_invocations
            == sampled.session("tiny").optimizer_invocations
        )
        # The instrumented twin really did sample and refresh gauges.
        assert sampled.telemetry.sample_count > 100
        assert (
            sampled.metrics.gauge_value(
                metric_names.QUALITY_COVERAGE, template="tiny"
            )
            > 0.0
        )
        assert plain.telemetry is None

    def test_sampled_run_consumes_identical_rng_stream(self, tiny_space):
        plain, plain_clock = _framework(
            tiny_space, TelemetryConfig(enabled=False)
        )
        sampled, sampled_clock = _framework(tiny_space, AGGRESSIVE)
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=8)
        for x in workload.generate(60):
            plain.execute("tiny", x)
            sampled.execute("tiny", x)
            plain_clock.advance(1.0)
            sampled_clock.advance(1.0)
        # Telemetry consumed zero randomness: the next draw from each
        # session's internal RNG must agree.
        assert (
            plain.session("tiny")._rng.random()
            == sampled.session("tiny")._rng.random()
        )

    def test_mid_stream_quality_refresh_is_decision_neutral(self, tiny_space):
        plain, plain_clock = _framework(
            tiny_space, TelemetryConfig(enabled=False)
        )
        probed, probed_clock = _framework(
            tiny_space, TelemetryConfig(enabled=False)
        )
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=6)
        for i, x in enumerate(workload.generate(90)):
            a = plain.execute("tiny", x)
            b = probed.execute("tiny", x)
            assert decision_digest(a) == decision_digest(b)
            if i % 13 == 5:
                # An explicit scorecard probe mid-stream changes nothing.
                probed.refresh_quality()
            plain_clock.advance(1.0)
            probed_clock.advance(1.0)

    def test_regret_counter_tracks_recorded_suboptimality(self, tiny_space):
        framework, clock = _framework(tiny_space, AGGRESSIVE)
        total = 0.0
        workload = RandomTrajectoryWorkload(2, spread=0.05, seed=2)
        for x in workload.generate(80):
            record = framework.execute("tiny", x)
            total += max(0.0, record.suboptimality - 1.0)
            clock.advance(1.0)
        assert framework.metrics.counter_value(
            metric_names.REGRET_TOTAL, template="tiny"
        ) == pytest.approx(total)
