"""No instrumentation channel perturbs a decision or the RNG stream.

Tracing, stage profiling, the lifecycle journal and telemetry are
RNG-free and read-only over the synopses, so a framework with one of
them on must decide bit for bit like an identically seeded twin with
all of them off, on the scalar and the batch path alike.  ``all`` is
the configuration the ``mixture_observed`` benchmark workload serves
with: journal, profiler and telemetry on, tracing at its default.

Ground truth is the one artifact a session computes after the fact:
records served without the optimizer are labelled in batch when the
ledger settles.  The ground-truth row holds every mode's records to an
eager per-decision oracle, and its regret counter to the same settle
points, which depend on the decision count alone.
"""

import numpy as np
import pytest

from repro.config import (
    EventsConfig,
    PPCConfig,
    ProfileConfig,
    TelemetryConfig,
    TraceConfig,
)
from repro.core.framework import (
    SETTLE_EVERY,
    ExecutionRecord,
    GroundTruthLedger,
    PPCFramework,
)
from repro.obs import names as metric_names
from repro.obs.registry import Counter
from repro.resilience import VirtualClock
from repro.workload import RandomTrajectoryWorkload
from repro.workload.runner import decision_digest
from tests.core.legacy import eager_ground_truth, eager_regret
from tests.obs.timeseries_reference import series_points

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
    expected = [decision_digest(r) for r in _run(plain, plain_clock, points, path)]
    got = [decision_digest(r) for r in _run(instrumented, clock, points, path)]
    assert got == expected
    # Equal next draws: the channel consumed no randomness.
    assert (
        plain.session("Q1")._rng.random()
        == instrumented.session("Q1")._rng.random()
    )
    # The twin really recorded; the plain rig recorded nothing.
    recorded = _recorded(instrumented)
    assert all(recorded[channel] > 0 for channel in channels), recorded
    assert not any(_recorded(plain).values())


def test_profile_stage_tree_is_trace_independent(q1_space):
    # The predictor opens the same stage spans untraced as traced, so
    # profiling at trace interval 0 and 1 yields one stage tree; only
    # the per-transform ``transform`` annotations are traced-only.  (On
    # the batch path an untraced instance's predict was computed ahead
    # of its decision, so its sub-stages reach only the metrics.)
    def stage_paths(trace):
        framework, clock = _framework(
            q1_space,
            {
                "profiling": ProfileConfig(enabled=True, interval=1),
                "trace": trace,
            },
        )
        points = RandomTrajectoryWorkload(2, spread=0.05, seed=4).generate(240)
        _run(framework, clock, points, "execute")
        rows = framework.profile_report()["templates"]["Q1"]["stages"]
        return {tuple(row["path"]) for row in rows}

    untraced = stage_paths(TraceConfig(enabled=False))
    traced = stage_paths(TraceConfig(interval=1, capacity=512))
    assert traced - untraced == {("decision", "predict", "transform")}
    assert untraced <= traced
    assert ("decision", "predict", "density_lookup") in untraced


@pytest.mark.parametrize("path", ["execute", "execute_batch"])
@pytest.mark.parametrize("mode", ["plain", "observed"])
def test_deferred_ground_truth_matches_the_eager_oracle(
    q1_space, mode, path, monkeypatch
):
    settles = []
    settle = GroundTruthLedger.settle

    def recording_settle(ledger):
        settle(ledger)
        settles.append((ledger.decisions, ledger._regret.value))

    monkeypatch.setattr(GroundTruthLedger, "settle", recording_settle)
    # Every trace recorded; a telemetry sample and a scorecard refresh
    # after every instance.
    observed = {
        "trace": TraceConfig(interval=1, capacity=512),
        "telemetry": TelemetryConfig(sample_interval=1.0, quality_every=1),
    }
    framework, clock = _framework(
        q1_space, observed if mode == "observed" else {}
    )
    points = RandomTrajectoryWorkload(2, spread=0.05, seed=4).generate(400)
    records = _run(framework, clock, points, path)

    # Nothing read the ground truth while serving: the ledger settled
    # on its schedule only, with the counter at the eager running sum,
    # and telemetry saw the counter move at those settles alone.
    regret = eager_regret(q1_space, records)
    scheduled = range(SETTLE_EVERY, len(records) + 1, SETTLE_EVERY)
    assert settles == [(k, regret[k - 1]) for k in scheduled]
    if mode == "observed":
        sampled = series_points(
            framework.telemetry, "counter", metric_names.REGRET_TOTAL,
            template="Q1",
        )
        values = {value for __, value in sampled}
        assert len(values) > 2
        assert values <= {0.0} | {regret[k - 1] for k in scheduled}
    assert framework.session("Q1")._ledger.unsettled == 400 % SETTLE_EVERY
    assert any(record.pending for record in records)

    # A registry read settles the rest: exact, and in decision order.
    assert framework.metrics.counter_value(
        metric_names.REGRET_TOTAL, template="Q1"
    ) == regret[-1]
    for record, (plan, cost) in zip(
        records, eager_ground_truth(q1_space, records), strict=True
    ):
        assert (record.optimal_plan, record.optimal_cost) == (plan, cost)
        assert record.correct == (record.predicted == plan)
        assert record.suboptimality == (
            record.execution_cost / cost if cost > 0.0 else 1.0
        )
    if mode == "observed":
        traces = framework.session("Q1").tracer.traces()
        assert traces
        for traced in traces:
            record = records[traced.seq]
            assert traced.outcome["optimal_plan"] == record.optimal_plan
            assert traced.outcome["optimal_cost"] == record.optimal_cost


def test_ledger_never_holds_more_than_a_settle_of_pending_rows():
    # 10**5 decisions through the ledger, every one pending (the worst
    # case: no optimizer answer to reuse), with record reads and
    # registry reads landing at random points between scheduled settles.
    labelled = []

    def label(points):
        labelled.append(len(points))
        return np.zeros(len(points), dtype=int), np.ones(len(points))

    ledger = GroundTruthLedger(label, Counter(), Counter())
    reads = np.random.default_rng(0).integers(0, 100, 10**5)
    point = np.zeros(2)
    for read in reads:
        record = ExecutionRecord(
            "demo", point, 0, 1.0, False, "", 0, 1.0, ledger=ledger
        )
        if ledger.add(record):
            ledger.settle()
        if read == 0:
            assert record.optimal_plan == 0  # a record read labels
        elif read == 1:
            ledger.settle()  # a registry read settles
        assert ledger.pending <= SETTLE_EVERY
        assert ledger.unsettled <= SETTLE_EVERY
    ledger.settle()
    assert max(labelled) == SETTLE_EVERY
    assert sum(labelled) == 10**5
