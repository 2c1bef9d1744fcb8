"""The framed-JSONL artifact codec, exercised through every artifact kind.

One suite for the five artifacts the run writes — predictor snapshot,
lifecycle journal, replay trace, bench history and flight-recorder
export — each driven through its own public writer and loader: round
trip, wrong kind, bumped version, header bit flip, a tampered record
that keeps its old CRC, mid-file garbage, and the torn-tail policy
(tolerated by the append-mode history and the journal, damage for
everything written by an atomic rename).
"""

from __future__ import annotations

import json
import pathlib
import shutil
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import pytest

from repro.bench.history import append_run, load_history, metric_history
from repro.bench.schema import make_envelope, metric
from repro.config import EventsConfig
from repro.core.persistence import (
    decode_artifact,
    dumps_predictor,
    frame_line,
    load_predictor,
    save_predictor,
)
from repro.exceptions import PersistenceError
from repro.obs.events import EventJournal, export_journal, load_journal
from repro.obs.tracing import DecisionTrace, dumps_jsonl, loads_jsonl, trace_to_dict
from repro.resilience import bit_flip
from repro.workload.replay import load_trace, record_trace
from repro.workload.scenarios import get_scenario
from tests.resilience.helpers import small_predictor

KINDS = ("snapshot", "journal", "trace", "history", "flight-recorder")


@dataclass
class Artifact:
    """One artifact on disk, what its loader must return, and whether a
    torn tail is tolerated (append-mode) or damage (atomic)."""

    kind: str
    path: pathlib.Path
    expected: list
    load: Callable[[pathlib.Path], Any]
    torn_ok: bool


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    result = record_trace(get_scenario("cache_pressure"), path, fast=True)
    return path, result.decisions


def _make(kind: str, path: pathlib.Path, recorded_trace) -> Artifact:
    if kind == "snapshot":
        predictor = small_predictor()
        save_predictor(predictor, path, backups=0)
        return Artifact(
            kind,
            path,
            [dumps_predictor(predictor)],
            lambda p: [dumps_predictor(load_predictor(p))],
            torn_ok=False,
        )
    if kind == "journal":
        ticks = iter(range(1000))
        journal = EventJournal(
            EventsConfig(enabled=True), clock=lambda: float(next(ticks))
        )
        emitter = journal.bind("Q1")
        for index in range(20):
            emitter("point_inserted", plan=index % 3, cost=float(index))
        export_journal(journal.events(), path)
        return Artifact(
            kind,
            path,
            journal.events(),
            lambda p: load_journal(p)[0],
            torn_ok=True,
        )
    if kind == "trace":
        source, decisions = recorded_trace
        shutil.copy(source, path)
        return Artifact(
            kind, path, decisions, lambda p: load_trace(p)[2], torn_ok=False
        )
    if kind == "history":
        values = [10.0, 11.0, 12.0]
        for value in values:
            envelope = make_envelope(
                "demo",
                metrics={
                    "latency": metric(value, "us", "lower", tolerance_pct=50.0)
                },
            )
            append_run(path, {"demo": envelope})
        return Artifact(
            kind,
            path,
            values,
            lambda p: metric_history(load_history(p), "demo", "latency"),
            torn_ok=True,
        )
    traces = []
    for seq in range(3):
        trace = DecisionTrace("Q1", seq, "head")
        trace.finish({"executed_plan": seq, "optimal_plan": 0})
        traces.append(trace)
    path.write_text(dumps_jsonl(traces))
    return Artifact(
        kind,
        path,
        [trace_to_dict(trace) for trace in traces],
        lambda p: [trace_to_dict(t) for t in loads_jsonl(p.read_text())],
        torn_ok=False,
    )


@pytest.fixture(params=KINDS)
def artifact(request, tmp_path, recorded_trace) -> Artifact:
    return _make(request.param, tmp_path / "artifact.jsonl", recorded_trace)


def _lines(path: pathlib.Path) -> list[str]:
    return path.read_text().splitlines()


def _rewrite(path: pathlib.Path, lines: list[str], end: str = "\n") -> None:
    path.write_text("\n".join(lines) + end)


def _restamped(line: str, **changes: Any) -> str:
    """``line`` with ``changes`` applied and a fresh, valid CRC."""
    body = json.loads(line)
    del body["crc"]
    body.update(changes)
    return frame_line(body).rstrip("\n")


class TestEveryKind:
    def test_round_trip(self, artifact):
        assert artifact.load(artifact.path) == artifact.expected

    def test_wrong_kind_is_rejected(self, artifact, tmp_path, recorded_trace):
        other_kind = KINDS[(KINDS.index(artifact.kind) + 1) % len(KINDS)]
        other = _make(other_kind, tmp_path / "other.jsonl", recorded_trace)
        with pytest.raises(PersistenceError, match="artifact, not a"):
            artifact.load(other.path)

    def test_bumped_version_is_rejected(self, artifact):
        lines = _lines(artifact.path)
        header = json.loads(lines[0])
        lines[0] = _restamped(lines[0], version=header["version"] + 1)
        _rewrite(artifact.path, lines)
        with pytest.raises(PersistenceError, match="not supported"):
            artifact.load(artifact.path)

    def test_flipped_header_bit_is_rejected(self, artifact):
        lines = _lines(artifact.path)
        lines[0] = bit_flip(lines[0], len(lines[0]) // 2)
        _rewrite(artifact.path, lines)
        with pytest.raises(PersistenceError, match=":1: "):
            artifact.load(artifact.path)

    def test_tampered_record_is_rejected(self, artifact):
        lines = _lines(artifact.path)
        record = json.loads(lines[1])
        key = min(key for key in record if key != "crc")
        record[key] = [record[key]]  # rewrite history, keep the old crc
        lines[1] = json.dumps(record, sort_keys=True)
        _rewrite(artifact.path, lines)
        with pytest.raises(PersistenceError, match="checksum mismatch"):
            artifact.load(artifact.path)

    def test_mid_file_garbage_is_rejected(self, artifact):
        lines = _lines(artifact.path)
        lines.insert(1, "garbage")
        _rewrite(artifact.path, lines)
        with pytest.raises(PersistenceError, match=":2: not valid JSON"):
            artifact.load(artifact.path)

    def test_torn_tail(self, artifact):
        lines = _lines(artifact.path)
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # crash mid-write
        _rewrite(artifact.path, lines, end="")
        if artifact.torn_ok:
            assert artifact.load(artifact.path) == artifact.expected[:-1]
        else:
            with pytest.raises(PersistenceError, match="truncated"):
                artifact.load(artifact.path)


class TestFraming:
    def test_crc_is_a_reserved_key(self):
        with pytest.raises(PersistenceError, match="reserved"):
            frame_line({"crc": 1})

    def test_empty_text_has_no_header(self):
        with pytest.raises(PersistenceError, match="no header"):
            decode_artifact("", "demo", 1)
