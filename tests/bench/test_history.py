"""Append-only bench-run journal."""

import json

import pytest

from repro.bench.history import (
    append_run,
    latest_run,
    load_history,
    metric_history,
    next_run_id,
)
from repro.bench.schema import make_envelope, metric
from repro.exceptions import BenchError


def _envelope(bench="demo", value=10.0):
    return make_envelope(
        bench,
        metrics={"latency": metric(value, "us", "lower", tolerance_pct=50.0)},
    )


class TestAppendAndLoad:
    def test_round_trip_assigns_sequential_run_ids(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        assert append_run(journal, {"demo": _envelope()}) == 1
        assert append_run(journal, {"demo": _envelope(value=11.0)}) == 2
        entries = load_history(journal)
        assert [entry["run_id"] for entry in entries] == [1, 2]
        assert all(entry["recorded"] for entry in entries)

    def test_one_line_per_bench(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        append_run(
            journal,
            {"a": _envelope("a"), "b": _envelope("b")},
            suite="ci",
        )
        header, *lines = journal.read_text().splitlines()
        assert json.loads(header)["artifact"] == "bench-history"
        assert len(lines) == 2
        assert {json.loads(line)["bench"] for line in lines} == {"a", "b"}
        assert all(json.loads(line)["suite"] == "ci" for line in lines)

    def test_empty_run_rejected(self, tmp_path):
        with pytest.raises(BenchError, match="empty"):
            append_run(tmp_path / "history.jsonl", {})

    def test_invalid_envelope_never_lands(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        with pytest.raises(BenchError):
            append_run(journal, {"demo": {"bench": "demo"}})
        assert not journal.exists()

    def test_missing_journal_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_header_is_written_once(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        append_run(journal, {"demo": _envelope()})
        append_run(journal, {"demo": _envelope(value=11.0)})
        lines = journal.read_text().splitlines()
        assert ["artifact" in json.loads(line) for line in lines] == [
            True,
            False,
            False,
        ]

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        append_run(journal, {"demo": _envelope()})
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": 2, "bench": "demo", "envel')
        entries = load_history(journal)
        assert len(entries) == 1
        # A crashed run's torn line is not a run: its id is reused, and
        # the next append cuts the torn line instead of gluing onto it.
        assert next_run_id(entries) == 2
        assert append_run(journal, {"demo": _envelope(value=11.0)}) == 2
        assert metric_history(load_history(journal), "demo", "latency") == [
            10.0,
            11.0,
        ]


class TestQueries:
    def test_latest_run_groups_benches(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        append_run(journal, {"a": _envelope("a", 1.0)})
        append_run(
            journal, {"a": _envelope("a", 2.0), "b": _envelope("b", 3.0)}
        )
        run_id, envelopes = latest_run(load_history(journal))
        assert run_id == 2
        assert envelopes["a"]["metrics"]["latency"]["value"] == 2.0
        assert set(envelopes) == {"a", "b"}

    def test_latest_run_on_empty_journal_raises(self):
        with pytest.raises(BenchError, match="empty"):
            latest_run([])

    def test_metric_history_trajectory(self, tmp_path):
        journal = tmp_path / "history.jsonl"
        for value in (10.0, 11.0, 12.0):
            append_run(journal, {"demo": _envelope(value=value)})
        entries = load_history(journal)
        assert metric_history(entries, "demo", "latency") == [
            10.0,
            11.0,
            12.0,
        ]
        assert metric_history(
            entries, "demo", "latency", exclude_run=3
        ) == [10.0, 11.0]
        assert metric_history(entries, "other", "latency") == []
