"""Synopsis lifecycle event journal (``repro.obs.events``).

Pins the house invariants the journal shares with the tracer and the
stage profiler (journaled == unjournaled decisions is pinned in
``tests/core/test_instrumentation_parity.py``): batch and sequential
runs journal alike, the disabled path allocates nothing, the ring
rotates under explicit drop accounting, and the JSONL export
round-trips with torn-tail tolerance and tamper detection — the same
envelope discipline as the predictor snapshots and the bench history
journal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EventsConfig, PPCConfig
from repro.core.framework import TemplateSession
from repro.exceptions import ConfigurationError, PersistenceError
from repro.obs.events import (
    EVENT_KINDS,
    EventJournal,
    export_journal,
    load_journal,
    render_timeline,
    stream_digest,
)
from repro.obs.registry import MetricsRegistry
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload


class FakeClock:
    """Deterministic injected clock ticking 0.0, 1.0, 2.0, ..."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _hot_config(**overrides) -> PPCConfig:
    return PPCConfig(
        confidence_threshold=0.8,
        mean_invocation_probability=0.05,
        drift_response=False,
        **overrides,
    )


def _journal(capacity: int = 64) -> EventJournal:
    return EventJournal(
        EventsConfig(enabled=True, capacity=capacity), clock=FakeClock()
    )


class TestEventsConfig:
    def test_disabled_by_default(self):
        config = PPCConfig()
        assert config.events.enabled is False
        assert config.events.capacity == 4096

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EventsConfig(capacity=8)


class TestEmission:
    def test_events_carry_seq_clock_template_trace(self):
        journal = _journal()
        emitter = journal.bind("Q1")
        emitter.set_trace(7)
        event = emitter("point_inserted", plan=2, cost=10.0)
        assert event["seq"] == 0
        assert event["ts"] == 0.0
        assert event["template"] == "Q1"
        assert event["kind"] == "point_inserted"
        assert event["trace"] == 7
        assert event["plan"] == 2
        second = emitter("drift_drop")
        assert second["seq"] == 1
        assert second["ts"] == 1.0

    def test_trace_link_is_per_template(self):
        journal = _journal()
        q1, q2 = journal.bind("Q1"), journal.bind("Q2")
        q1.set_trace(3)
        assert q1("drift_drop")["trace"] == 3
        assert q2("drift_drop")["trace"] is None

    def test_filtered_reads(self):
        journal = _journal()
        journal.bind("Q1")("point_inserted")
        journal.bind("Q2")("drift_drop")
        journal.bind("Q1")("drift_drop")
        assert len(journal.events()) == 3
        assert len(journal.events(template="Q1")) == 2
        assert len(journal.events(kind="drift_drop")) == 2
        assert len(journal.events(template="Q2", kind="drift_drop")) == 1

    def test_stats_accounting(self):
        journal = _journal()
        emitter = journal.bind("Q1")
        for __ in range(3):
            emitter("point_inserted", plan=0)
        emitter("drift_drop")
        stats = journal.stats()
        assert stats["emitted"] == 4
        assert stats["dropped"] == 0
        assert stats["occupancy"] == 4
        assert stats["by_kind"] == {"point_inserted": 3, "drift_drop": 1}
        assert stats["templates"]["Q1"]["point_inserted"] == 3

    def test_metrics_binding_publishes_counts(self):
        registry = MetricsRegistry()
        journal = EventJournal(
            EventsConfig(enabled=True, capacity=64),
            clock=FakeClock(),
            metrics=registry,
        )
        emitter = journal.bind("Q1")
        for __ in range(70):
            emitter("drift_drop")
        assert (
            registry.counter_value(
                "ppc_events_emitted_total",
                template="Q1",
                kind="drift_drop",
            )
            == 70
        )
        assert registry.counter_value("ppc_events_dropped_total") == 6
        assert registry.gauge_value("ppc_events_occupancy") == 64.0


class TestRingRotation:
    def test_ring_drops_oldest_not_silently(self):
        journal = _journal(capacity=64)
        emitter = journal.bind("Q1")
        for index in range(100):
            emitter("point_inserted", plan=index)
        resident = journal.events()
        assert len(resident) == 64
        assert journal.dropped == 36
        assert journal.emitted == 100
        assert resident[0]["seq"] == 36  # the oldest 36 rotated out
        assert resident[-1]["seq"] == 99

    def test_digest_covers_rotated_events(self):
        # Two journals, same stream, different capacities: the running
        # digest is capacity-independent even though the small ring
        # rotated most of its events out.
        small, large = _journal(capacity=64), _journal(capacity=4096)
        for index in range(200):
            small.bind("Q1")("point_inserted", plan=index % 3)
            large.bind("Q1")("point_inserted", plan=index % 3)
        assert small.dropped > 0 and large.dropped == 0
        assert small.digest() == large.digest()
        assert small.digest() == stream_digest(large.events())

    @given(
        capacity=st.integers(min_value=64, max_value=256),
        emits=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=60, deadline=None)
    def test_rotation_accounting_invariants(self, capacity, emits):
        journal = _journal(capacity=capacity)
        emitter = journal.bind("Q1")
        for index in range(emits):
            emitter("point_inserted", plan=index)
        resident = journal.events()
        # Conservation: everything emitted is either resident or
        # explicitly accounted as dropped.
        assert journal.emitted == emits
        assert len(resident) == min(emits, capacity)
        assert journal.dropped == max(0, emits - capacity)
        assert journal.dropped + len(resident) == emits
        # The survivors are exactly the newest suffix, in seq order.
        seqs = [event["seq"] for event in resident]
        assert seqs == list(range(max(0, emits - capacity), emits))
        assert journal.stats()["next_seq"] == emits


class TestLockstepParity:
    """Batch and sequential runs journal the same stream."""

    FIELDS = (
        "predicted",
        "confidence",
        "optimizer_invoked",
        "invocation_reason",
        "executed_plan",
        "execution_cost",
        "optimal_plan",
        "optimal_cost",
    )

    def test_batch_journal_equals_sequential_journal(self):
        # Speculative prefetches and re-predicted tails must journal
        # nothing: the batch path records exactly the mutations the
        # sequential path does.  Wide probes make noise elimination
        # fire; a constant clock makes the timestamps comparable.
        def session():
            return TemplateSession(
                plan_space_for("Q1"),
                _hot_config(events=EventsConfig(enabled=True)),
                seed=5,
                clock=lambda: 0.0,
            )

        sequential, batched = session(), session()
        warm = RandomTrajectoryWorkload(2, spread=0.3, seed=5).generate(100)
        probes = RandomTrajectoryWorkload(2, spread=0.3, seed=6).generate(
            400
        )
        left_records, right_records = [], []
        for x in warm:
            left_records.append(sequential.execute(x))
            right_records.append(batched.execute(x))
        left_records += [sequential.execute(x) for x in probes]
        right_records += batched.execute_batch(probes)
        assert len(left_records) == len(right_records) == 500
        for left, right in zip(left_records, right_records, strict=True):
            for field in self.FIELDS:
                assert getattr(left, field) == getattr(right, field)
        assert batched.events.emitted == sequential.events.emitted > 0
        assert batched.events.digest() == sequential.events.digest()


class TestDisabledIsFree:
    def test_disabled_session_owns_no_journal(self):
        session = TemplateSession(
            plan_space_for("Q1"), _hot_config(), seed=17
        )
        assert session.events is None
        assert session._events is None
        assert session.predictor._packed._on_change is None
        assert session.cache._events is None
        for x in RandomTrajectoryWorkload(2, seed=5).generate(50):
            session.execute(x)
        assert session.events is None


class TestExportRoundTrip:
    def _stream(self, count: int = 40) -> list:
        journal = _journal(capacity=4096)
        emitter = journal.bind("Q1")
        for index in range(count):
            emitter("point_inserted", plan=index % 3, cost=float(index))
        return journal.events()

    def test_round_trip_preserves_events_and_digest(self, tmp_path):
        stream = self._stream()
        path = tmp_path / "journal.jsonl"
        assert export_journal(stream, path) == len(stream)
        loaded, torn = load_journal(path)
        assert not torn
        assert loaded == stream
        assert stream_digest(loaded) == stream_digest(stream)

    def test_empty_export_writes_nothing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert export_journal([], path) == 0
        assert not path.exists()

    def test_missing_checksum_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"seq": 0, "kind": "drift_drop"}\n' * 2)
        with pytest.raises(PersistenceError, match="no checksum"):
            load_journal(path)

    def test_missing_file_is_a_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_journal(tmp_path / "absent.jsonl")


class TestRenderTimeline:
    def test_empty_stream(self):
        assert "no lifecycle events" in render_timeline([])

    def test_rows_carry_seq_kind_and_trace_link(self):
        journal = _journal()
        emitter = journal.bind("Q1")
        emitter.set_trace(4)
        emitter("point_inserted", plan=1, cost=2.5)
        text = render_timeline(journal.events())
        assert "point_inserted" in text
        assert "plan=1" in text
        assert "cost=2.5000" in text
        assert "[trace 4]" in text

    def test_limit_keeps_newest(self):
        journal = _journal()
        emitter = journal.bind("Q1")
        for index in range(10):
            emitter("drift_drop", plan=index)
        text = render_timeline(journal.events(), limit=3)
        assert text.count("\n") == 2
        assert "plan=9" in text and "plan=0" not in text


class TestFrameworkIntegration:
    def test_emitted_kinds_are_inventory_kinds(self):
        session = TemplateSession(
            plan_space_for("Q1"),
            _hot_config(events=EventsConfig(enabled=True)),
            seed=17,
        )
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            200
        ):
            session.execute(x)
        kinds = {event["kind"] for event in session.events.events()}
        assert kinds
        assert kinds <= set(EVENT_KINDS)

    def test_drift_emits_drop_then_rebuild(self):
        # A real drift response journals the pre-reset monitor scores
        # and the histogram rebuild, in stream order.  Same hair-trigger
        # rig as tests/core/test_framework.py: teach the predictor lies
        # so negative feedback collapses the precision estimate.
        space = plan_space_for("Q1")
        session = TemplateSession(
            space,
            PPCConfig(
                confidence_threshold=0.3,
                mean_invocation_probability=0.0,
                negative_feedback=True,
                drift_response=True,
                drift_threshold=0.99,
                drift_min_observations=5,
                monitor_window=10,
                events=EventsConfig(enabled=True),
            ),
            seed=0,
        )
        x = np.array([0.5, 0.5])
        true_plan = int(space.plan_at(x[None, :])[0])
        wrong_plan = (true_plan + 1) % space.plan_count
        for __ in range(12):
            session.observe(x, wrong_plan, cost=1.0)
        fired = False
        for __ in range(30):
            if session.execute(x).drift_triggered:
                fired = True
                break
        assert fired
        drops = session.events.events(kind="drift_drop")
        assert drops
        drop = drops[0]
        assert 0.0 <= drop["precision"] <= 1.0
        assert drop["cached_plans"] >= 0
        assert drop["points_held"] > 0
        rebuilds = session.events.events(kind="histogram_rebuilt")
        assert rebuilds and rebuilds[0]["seq"] > drop["seq"]
        # Every optimizer invocation landed its provenance on the
        # corresponding synopsis insert.
        reasons = {
            event.get("provenance")
            for event in session.events.events(kind="point_inserted")
        }
        assert "cache_miss" in reasons
