"""No instrumentation channel perturbs a decision or the RNG stream.

Tracing, stage profiling, the lifecycle journal and telemetry are
RNG-free and read-only over the synopses, so a framework with one of
them on must decide bit for bit like an identically seeded twin with
all of them off, on the scalar and the batch path alike.  ``all`` is
the configuration the ``mixture_observed`` benchmark workload serves
with: journal, profiler and telemetry on, tracing at its default.
"""

import pytest

from repro.config import (
    EventsConfig,
    PPCConfig,
    ProfileConfig,
    TelemetryConfig,
    TraceConfig,
)
from repro.core.framework import PPCFramework
from repro.resilience import VirtualClock
from repro.workload import RandomTrajectoryWorkload

#: Trace and telemetry ship enabled; profile and events ship disabled.
ALL_OFF = {
    "trace": TraceConfig(enabled=False),
    "telemetry": TelemetryConfig(enabled=False),
}

#: mode -> (PPCConfig fields over ALL_OFF, channels that must record).
#: Each channel runs at its most aggressive cadence.
MODES = {
    "trace": ({"trace": TraceConfig(interval=1, capacity=512)}, ("trace",)),
    "profile": (
        {"profiling": ProfileConfig(enabled=True, interval=1)},
        ("profile",),
    ),
    "events": ({"events": EventsConfig(enabled=True)}, ("events",)),
    "telemetry": (
        {"telemetry": TelemetryConfig(sample_interval=1.0, quality_every=1)},
        ("telemetry",),
    ),
    "all": (
        {
            "trace": TraceConfig(),
            "events": EventsConfig(enabled=True, capacity=4096),
            "profiling": ProfileConfig(enabled=True, interval=1),
            "telemetry": TelemetryConfig(),
        },
        ("trace", "profile", "events", "telemetry"),
    ),
}

BATCH = 16


def _framework(space, fields):
    clock = VirtualClock()
    config = PPCConfig(
        confidence_threshold=0.7,
        mean_invocation_probability=0.05,
        drift_response=False,
        **{**ALL_OFF, **fields},
    )
    framework = PPCFramework(config, seed=11, clock=clock, sleep=clock.sleep)
    framework.register(space)
    return framework, clock


def _run(framework, clock, points, path):
    """Serve ``points``, one simulated second per instance."""
    step = 1 if path == "execute" else BATCH
    records = []
    for start in range(0, len(points), step):
        block = points[start : start + step]
        if path == "execute":
            records.append(framework.execute("Q1", block[0]))
        else:
            records.extend(framework.execute_batch("Q1", block))
        clock.advance(float(len(block)))
    return records


def _key(record):
    return (
        record.predicted,
        record.confidence,
        record.optimizer_invoked,
        record.invocation_reason,
        record.executed_plan,
        record.execution_cost,
        record.optimal_plan,
        record.degraded,
        record.fallback_source,
    )


def _recorded(framework):
    report = framework.profile_report()
    return {
        "trace": len(framework.session("Q1").tracer.traces()),
        "profile": len(report["templates"]) if report else 0,
        "events": framework.events.emitted if framework.events else 0,
        "telemetry": (
            framework.telemetry.sample_count if framework.telemetry else 0
        ),
    }


@pytest.mark.parametrize("path", ["execute", "execute_batch"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_channel_is_decision_neutral(q1_space, mode, path):
    fields, channels = MODES[mode]
    plain, plain_clock = _framework(q1_space, {})
    instrumented, clock = _framework(q1_space, fields)
    points = RandomTrajectoryWorkload(2, spread=0.05, seed=4).generate(240)
    expected = [_key(r) for r in _run(plain, plain_clock, points, path)]
    got = [_key(r) for r in _run(instrumented, clock, points, path)]
    assert got == expected
    # Equal next draws: the channel consumed no randomness.
    assert (
        plain.session("Q1").online._rng.random()
        == instrumented.session("Q1").online._rng.random()
    )
    # The twin really recorded; the plain rig recorded nothing.
    recorded = _recorded(instrumented)
    assert all(recorded[channel] > 0 for channel in channels), recorded
    assert not any(_recorded(plain).values())
