"""Deterministic trace record/replay/verify.

The determinism claim is the tentpole: a recorded trace re-driven
through a fresh executor must reproduce the decision sequence bit for
bit.  These tests pin the round-trips the claim rests on (config,
events, the trace file format), the parity itself, tamper detection,
and the committed golden trace that guards cross-version determinism.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.config import (
    EventsConfig,
    PPCConfig,
    ProfileConfig,
    TelemetryConfig,
    TraceConfig,
)
from repro.core.persistence import decode_artifact, encode_artifact, frame_line
from repro.exceptions import ConfigurationError, PersistenceError
from repro.resilience.faults import FaultSpec
from repro.workload.replay import (
    TRACE_KIND,
    TRACE_VERSION,
    config_from_dict,
    config_to_dict,
    event_from_dict,
    event_to_dict,
    load_trace,
    record_trace,
    replay_trace,
    verify_trace,
)
from repro.workload.scenarios import (
    DriftShift,
    FaultPhase,
    QueryEvent,
    get_scenario,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_trace.jsonl"


def _leaves(config, prefix=""):
    """Every settable leaf of a config, by dotted path."""
    leaves = {}
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if dataclasses.is_dataclass(value):
            leaves.update(_leaves(value, f"{prefix}{spec.name}."))
        else:
            leaves[prefix + spec.name] = value
    return leaves


class TestConfigRoundTrip:
    def test_default_config(self):
        config = PPCConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_every_leaf_round_trips(self):
        config = PPCConfig(
            transforms=3,
            resolution=12,
            max_buckets=24,
            radius=0.07,
            confidence_threshold=0.75,
            noise_fraction=None,
            mean_invocation_probability=0.1,
            negative_feedback=False,
            cost_epsilon=0.5,
            positive_feedback=True,
            positive_feedback_min_confidence=0.9,
            positive_feedback_weight=0.5,
            positive_feedback_mass_cap=0.25,
            monitor_window=50,
            drift_threshold=0.6,
            drift_min_observations=20,
            drift_response=False,
            cache_capacity=2,
            trace=TraceConfig(
                enabled=False, interval=3, capacity=16, error_capacity=8
            ),
            telemetry=TelemetryConfig(
                enabled=False,
                sample_interval=2.5,
                quality_every=3,
                quality_window=40,
            ),
            profiling=ProfileConfig(enabled=True, interval=4),
            events=EventsConfig(enabled=True, capacity=128),
        )
        leaves = _leaves(config)
        defaults = _leaves(PPCConfig())
        assert len(leaves) == 30
        assert [key for key in leaves if leaves[key] == defaults[key]] == []
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(payload) == config

    def test_round_trip_survives_json(self):
        config = PPCConfig(confidence_threshold=0.75)
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(payload) == config


def _damaged_config(damage):
    payload = json.loads(json.dumps(config_to_dict(PPCConfig())))
    if damage == "unknown_key":
        payload["retired_knob"] = 1
    elif damage == "unknown_nested_key":
        payload["trace"]["head"] = 8
    else:
        del payload["events"]
    return payload


class TestBadConfigHeader:
    @pytest.mark.parametrize(
        "damage, message",
        [
            ("unknown_key", "unknown config key 'retired_knob'"),
            ("unknown_nested_key", "unknown config.trace key 'head'"),
            ("missing_block", "config block 'events' is missing"),
        ],
        ids=["unknown_key", "unknown_nested_key", "missing_block"],
    )
    def test_names_the_bad_key(self, damage, message):
        with pytest.raises(PersistenceError, match=message):
            config_from_dict(_damaged_config(damage))

    def test_replay_verify_reports_one_line(self, tmp_path, capsys):
        from repro.cli import main

        header, records, __ = decode_artifact(
            GOLDEN.read_text(), TRACE_KIND, TRACE_VERSION
        )
        header["config"] = _damaged_config("unknown_key")
        for key in ("artifact", "version"):
            del header[key]
        trace = tmp_path / "bad_header.jsonl"
        trace.write_text(
            encode_artifact(TRACE_KIND, TRACE_VERSION, records, header)
        )
        assert main(["replay", "verify", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "repro replay: unknown config key 'retired_knob'"
        ]


class TestEventRoundTrip:
    @pytest.mark.parametrize(
        "event",
        [
            QueryEvent("Q1", (0.25, 0.75), advance=2.5),
            DriftShift("Q1", 0.4),
            FaultPhase("optimizer", FaultSpec(failure_probability=1.0)),
            FaultPhase("optimizer", None),
        ],
    )
    def test_round_trip(self, event):
        payload = json.loads(json.dumps(event_to_dict(event)))
        assert event_from_dict(payload) == event

    def test_unknown_event_object(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            event_to_dict(object())

    def test_unknown_event_kind(self):
        with pytest.raises(ConfigurationError, match="unknown trace event"):
            event_from_dict({"kind": "mystery"})


class TestTraceFormat:
    def test_record_writes_header_events_decisions(self, tmp_path):
        scenario = get_scenario("cache_pressure")
        trace = tmp_path / "trace.jsonl"
        result = record_trace(scenario, trace, fast=True)
        header, events, decisions = load_trace(trace)
        assert header["version"] == TRACE_VERSION
        assert header["scenario"] == "cache_pressure"
        assert header["seed"] == scenario.seed
        assert header["templates"] == list(scenario.templates)
        assert header["config"]["cache_capacity"] == 2
        assert len(events) == scenario.fast_instances
        assert decisions == result.decisions
        assert result.passed

    def test_no_header_is_an_error(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(frame_line({"kind": "decision", "i": 0}))
        with pytest.raises(PersistenceError, match="no header"):
            load_trace(trace)

    def test_duplicate_header_is_an_error(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        header = encode_artifact(TRACE_KIND, TRACE_VERSION, [])
        trace.write_text(header + header)
        with pytest.raises(PersistenceError, match="duplicate"):
            load_trace(trace)

    def test_v2_trace_is_refused(self, tmp_path):
        # A v2 header still carries the retired settings (resilience,
        # trace head, SLO set, ...); the version check turns it away.
        trace = tmp_path / "v2.jsonl"
        config = config_to_dict(PPCConfig())
        config["resilience"] = {"retry_attempts": 3}
        trace.write_text(encode_artifact(TRACE_KIND, 2, [], {"config": config}))
        with pytest.raises(PersistenceError, match="version 2"):
            load_trace(trace)

    def test_unsupported_version_is_an_error(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(encode_artifact(TRACE_KIND, TRACE_VERSION + 1, []))
        with pytest.raises(PersistenceError, match="not supported"):
            load_trace(trace)

    def test_invalid_json_reports_line_number(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            encode_artifact(TRACE_KIND, TRACE_VERSION, [])
            + "not json\n"
            + frame_line({"kind": "decision", "i": 0})
        )
        with pytest.raises(PersistenceError, match="bad.jsonl:2"):
            load_trace(trace)


class TestReplayParity:
    def test_record_then_verify_is_bit_identical(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("cache_pressure"), trace, fast=True)
        report = verify_trace(trace)
        assert report["identical"], report["mismatches"]
        assert report["instances"] == report["replayed"]
        assert report["mismatches"] == []

    def test_replay_returns_recorded_decisions(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = record_trace(
            get_scenario("cache_pressure"), trace, fast=True
        )
        header, replayed = replay_trace(trace)
        assert header["scenario"] == "cache_pressure"
        assert replayed == result.decisions

    @staticmethod
    def _tamper_first_decision(trace, restamp):
        lines = trace.read_text().splitlines()
        for index, raw in enumerate(lines):
            payload = json.loads(raw)
            if payload.get("kind") == "decision":
                payload["executed_plan"] = payload["executed_plan"] + 1
                if restamp:
                    del payload["crc"]
                    lines[index] = frame_line(payload).rstrip("\n")
                else:
                    lines[index] = json.dumps(payload, sort_keys=True)
                break
        trace.write_text("\n".join(lines) + "\n")

    def test_tampered_decision_is_detected(self, tmp_path):
        # A re-stamped tamper passes the codec, so it is verify_trace's
        # per-field diff that catches the changed decision.
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("cache_pressure"), trace, fast=True)
        self._tamper_first_decision(trace, restamp=True)
        report = verify_trace(trace)
        assert not report["identical"]
        assert report["mismatches"]
        fields = report["mismatches"][0]["fields"]
        assert "executed_plan" in fields

    def test_unstamped_tamper_fails_at_load(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("cache_pressure"), trace, fast=True)
        self._tamper_first_decision(trace, restamp=False)
        with pytest.raises(PersistenceError, match="checksum mismatch"):
            verify_trace(trace)

    def test_events_digest_round_trips(self, tmp_path):
        # step_drift journals the synopsis lifecycle; the recorded
        # digest must reproduce on replay and gate "identical".
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("step_drift"), trace, fast=True)
        header, __, __ = load_trace(trace)
        assert header["events_digest"] is not None
        report = verify_trace(trace)
        assert report["identical"]
        assert report["events_digest"]["match"]
        assert (
            report["events_digest"]["recorded"]
            == report["events_digest"]["replayed"]
        )

    def test_tampered_events_digest_is_detected(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("step_drift"), trace, fast=True)
        lines = trace.read_text().splitlines()
        payload = json.loads(lines[0])
        del payload["crc"]
        payload["events_digest"] = "0" * 64
        lines[0] = frame_line(payload).rstrip("\n")
        trace.write_text("\n".join(lines) + "\n")
        report = verify_trace(trace)
        assert not report["identical"]
        assert not report["events_digest"]["match"]
        # The decisions themselves still replay cleanly.
        assert report["mismatches"] == []

    def test_trace_without_digest_still_verifies(self, tmp_path):
        # cache_pressure runs with the journal disabled: both sides of
        # the digest comparison are None and verification passes.
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("cache_pressure"), trace, fast=True)
        header, __, __ = load_trace(trace)
        assert header["events_digest"] is None
        report = verify_trace(trace)
        assert report["identical"]
        assert report["events_digest"]["match"]

    def test_missing_decisions_are_mismatches(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        record_trace(get_scenario("cache_pressure"), trace, fast=True)
        lines = [
            raw
            for raw in trace.read_text().splitlines()
            if json.loads(raw).get("kind") != "decision"
        ]
        trace.write_text("\n".join(lines) + "\n")
        report = verify_trace(trace)
        assert not report["identical"]
        assert report["instances"] == 0
        assert report["replayed"] > 0


class TestGoldenTrace:
    """The committed trace is the cross-version determinism regression
    test: any change that perturbs the decision flow breaks it loudly
    (and the fix is to understand the perturbation, then re-record)."""

    def test_golden_trace_exists_and_verifies(self):
        assert GOLDEN.exists()
        report = verify_trace(GOLDEN)
        assert report["identical"], report["mismatches"]
        assert report["scenario"] == "step_drift"
        assert report["instances"] == 300
        assert report["events_digest"]["match"]
        assert report["events_digest"]["recorded"] is not None
