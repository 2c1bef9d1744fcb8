"""Cache lineage forensics (``repro.obs.lineage``).

The engine is a pure function of the event stream, so most tests drive
it with hand-built streams where the expected cache state is obvious.
The golden-journal tests are the acceptance criterion: the committed
``tests/obs/golden_journal.jsonl`` (exported from the deterministic
``step_drift`` scenario — the same run behind
``tests/workload/golden_trace.jsonl``, as the matching stream digests
prove) must answer the insert → feedback correction → drift drop
provenance chain correctly, including time-traveled queries on either
side of the drift event.
"""

from __future__ import annotations

import pathlib

from repro.obs.events import load_journal, stream_digest
from repro.obs.lineage import CACHING_PROVENANCES, LineageEngine

GOLDEN = pathlib.Path(__file__).parent / "golden_journal.jsonl"


def _event(seq, kind, template="Q1", **fields):
    return {
        "seq": seq,
        "ts": float(seq),
        "template": template,
        "kind": kind,
        "trace": None,
        **fields,
    }


def _insert(seq, plan, provenance, **fields):
    return _event(
        seq, "point_inserted", plan=plan, provenance=provenance, **fields
    )


class TestStateReconstruction:
    def test_caching_provenances_admit(self):
        events = [
            _insert(0, 1, "null_prediction"),
            _insert(1, 2, "exploration"),
            _insert(2, 3, "cache_miss"),
            _insert(3, 4, "negative_feedback"),
            _insert(4, 5, "positive_feedback"),  # synopsis-only
            _insert(5, 6, "direct"),  # synopsis-only
        ]
        state = LineageEngine(events).state_at("Q1")
        assert sorted(state["cached"]) == [1, 2, 3, 4]
        assert state["cached"][1]["provenance"] == "null_prediction"
        assert CACHING_PROVENANCES == {
            "null_prediction",
            "exploration",
            "cache_miss",
            "negative_feedback",
        }

    def test_eviction_removes_and_counts(self):
        events = [
            _insert(0, 1, "cache_miss"),
            _insert(1, 2, "cache_miss"),
            _event(2, "cache_evicted", plan=1, prec_k=0.2, rec_k=0.5),
        ]
        state = LineageEngine(events).state_at("Q1")
        assert sorted(state["cached"]) == [2]
        assert state["evictions"] == 1

    def test_drift_clears_everything(self):
        events = [
            _insert(0, 1, "cache_miss"),
            _insert(1, 2, "exploration"),
            _event(2, "drift_drop", precision=0.1, recall=0.9),
            _insert(3, 3, "null_prediction"),
        ]
        state = LineageEngine(events).state_at("Q1")
        assert sorted(state["cached"]) == [3]
        assert state["last_drift"] == 2

    def test_generation_counts_builds_and_rebuilds(self):
        events = [
            _event(0, "histogram_built"),
            _event(1, "histogram_rebuilt"),
            _event(2, "histogram_rebuilt"),
        ]
        assert LineageEngine(events).state_at("Q1")["generation"] == 3

    def test_time_travel_is_inclusive(self):
        events = [
            _insert(0, 1, "cache_miss"),
            _event(1, "drift_drop"),
        ]
        engine = LineageEngine(events)
        assert sorted(engine.state_at("Q1", at=0)["cached"]) == [1]
        assert engine.state_at("Q1", at=1)["cached"] == {}

    def test_templates_are_isolated(self):
        events = [
            _insert(0, 1, "cache_miss", template="Q1"),
            _insert(1, 2, "cache_miss", template="Q2"),
            _event(2, "drift_drop", template="Q1"),
        ]
        engine = LineageEngine(events)
        assert engine.state_at("Q1")["cached"] == {}
        assert sorted(engine.state_at("Q2")["cached"]) == [2]
        assert engine.templates() == ["Q1", "Q2"]

    def test_out_of_order_input_is_sorted(self):
        events = [
            _event(1, "drift_drop"),
            _insert(0, 1, "cache_miss"),
        ]
        assert LineageEngine(events).state_at("Q1")["cached"] == {}


class TestWhy:
    def test_cached_with_correction(self):
        events = [
            _insert(0, 1, "null_prediction"),
            _insert(1, 1, "negative_feedback"),
        ]
        # The corrective insert re-admits plan 1, so it is the
        # admission, not a later correction of itself.
        verdict = LineageEngine(events).why("Q1", 1)
        assert verdict["cached"]
        assert verdict["admitted"]["since"] == 1
        assert "negative_feedback" in verdict["explanation"]
        assert "corrected" not in verdict["explanation"]

    def test_correction_after_admission_is_reported(self):
        events = [
            _insert(0, 1, "negative_feedback"),
            _insert(1, 1, "positive_feedback"),
            _insert(2, 2, "cache_miss"),
            _insert(3, 1, "direct"),
        ]
        # Admission at 0 survives; the later synopsis-only inserts do
        # not re-admit, and none is a negative-feedback correction.
        verdict = LineageEngine(events).why("Q1", 1)
        assert verdict["admitted"]["since"] == 0
        assert "corrected" not in verdict["explanation"]

    def test_never_touched(self):
        verdict = LineageEngine([_insert(0, 1, "cache_miss")]).why(
            "Q1", 9
        )
        assert not verdict["cached"]
        assert "no lifecycle event" in verdict["explanation"]

    def test_dropped_by_drift(self):
        events = [
            _insert(0, 1, "cache_miss"),
            _event(1, "drift_drop", precision=0.25, recall=0.75),
        ]
        verdict = LineageEngine(events).why("Q1", 1)
        assert not verdict["cached"]
        assert "drift response" in verdict["explanation"]
        assert "0.25" in verdict["explanation"]

    def test_evicted(self):
        events = [
            _insert(0, 1, "cache_miss"),
            _event(1, "cache_evicted", plan=1, prec_k=0.1, rec_k=0.4),
        ]
        verdict = LineageEngine(events).why("Q1", 1)
        assert not verdict["cached"]
        assert "evicted at seq 1" in verdict["explanation"]
        assert "prec_k=0.1" in verdict["explanation"]

    def test_history_is_plan_scoped_plus_drifts(self):
        events = [
            _insert(0, 1, "cache_miss"),
            _insert(1, 2, "cache_miss"),
            _event(2, "drift_drop"),
        ]
        verdict = LineageEngine(events).why("Q1", 1)
        assert [event["seq"] for event in verdict["history"]] == [0, 2]


class TestTimeline:
    def test_filters_compose(self):
        events = [
            _insert(0, 1, "cache_miss", template="Q1"),
            _event(1, "drift_drop", template="Q2"),
            _event(2, "drift_drop", template="Q1"),
            _insert(3, 1, "cache_miss", template="Q1"),
        ]
        engine = LineageEngine(events)
        assert len(engine.timeline()) == 4
        assert len(engine.timeline(template="Q1")) == 3
        assert len(engine.timeline(kind="drift_drop")) == 2
        assert [
            event["seq"]
            for event in engine.timeline(template="Q1", at=2)
        ] == [0, 2]


class TestGoldenJournal:
    """The committed journal is the acceptance chain: admission by
    optimizer invocation, correction by negative feedback, annihilation
    by the drift response — answered correctly at any offset."""

    def _engine(self):
        events, torn = load_journal(GOLDEN)
        assert not torn
        return LineageEngine(events), events

    def test_matches_the_golden_trace_run(self):
        # Exported from the same deterministic step_drift run as
        # tests/workload/golden_trace.jsonl: the digests must agree.
        from repro.workload.replay import load_trace

        engine, events = self._engine()
        header, __, __ = load_trace(
            GOLDEN.parent.parent / "workload" / "golden_trace.jsonl"
        )
        assert stream_digest(events) == header["events_digest"]

    def test_chain_insert_feedback_drift(self):
        engine, events = self._engine()
        drops = [e for e in events if e["kind"] == "drift_drop"]
        assert len(drops) == 1
        drift_seq = drops[0]["seq"]

        # Before the drift: plan 0 is cached, admitted by an optimizer
        # invocation, with negative-feedback corrections on record.
        before = engine.why("Q1", 0, at=drift_seq - 1)
        assert before["cached"]
        assert before["admitted"]["provenance"] in CACHING_PROVENANCES
        assert any(
            event.get("provenance") == "negative_feedback"
            for event in before["history"]
        )

        # At the drift event: the whole cache is gone, and why() blames
        # the drift response with the pre-reset monitor scores.
        at_drift = engine.why("Q1", 0, at=drift_seq)
        assert not at_drift["cached"]
        assert "drift response" in at_drift["explanation"]
        assert engine.state_at("Q1", at=drift_seq)["cached"] == {}

        # After the run: the synopsis was rebuilt (generation 2) and
        # plans were re-admitted post-drift.
        final = engine.state_at("Q1")
        assert final["generation"] == 2
        assert final["last_drift"] == drift_seq
        assert final["cached"]
        assert all(
            entry["since"] > drift_seq
            for entry in final["cached"].values()
        )

    def test_every_kind_maps_to_known_inventory(self):
        from repro.obs.events import EVENT_KINDS

        __, events = self._engine()
        assert {e["kind"] for e in events} <= set(EVENT_KINDS)
